"""Unit tests for the bitwidth-assignment + partition problem and its DP."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.ilp import BitAssignmentILP
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig
from repro.core.search import SearchEngine
from repro.cost.memory import kv_cache_bytes
from repro.hardware import get_gpu
from repro.hardware.cluster import Device
from repro.models import get_model
from repro.quant import IndicatorTable, synthetic_indicator
from repro.workload import Workload

from .ilp_spec import CappedILP, spec_adabits, spec_assemble, spec_price, spec_solve


def _make_ilp(cluster, latmodel, opt30b, *, theta=1.0, group=2,
              workload=None, mb=(8, 8)):
    ind = synthetic_indicator(opt30b).normalized().grouped(group)
    return BitAssignmentILP(
        cfg=opt30b,
        workload=workload or Workload(prompt_len=512, gen_len=100, global_batch=32),
        devices=list(cluster.devices),
        latency_model=latmodel,
        indicator=ind,
        prefill_microbatch=mb[0],
        decode_microbatch=mb[1],
        group_size=group,
        theta=theta,
    )


@pytest.fixture(scope="module")
def base_solution(cluster3, latmodel_cluster3, opt30b):
    ilp = _make_ilp(cluster3, latmodel_cluster3, opt30b)
    return ilp, ilp.solve()


def test_solution_feasible(base_solution):
    _, sol = base_solution
    assert sol.feasible
    assert sol.solve_seconds < 60


def test_every_layer_assigned_once(base_solution, opt30b):
    ilp, sol = base_solution
    dev, bits = ilp.expand_groups(sol)
    assert len(dev) == opt30b.num_layers
    assert len(bits) == opt30b.num_layers
    assert all(b in (3, 4, 8, 16) for b in bits)


def test_contiguity(base_solution):
    ilp, sol = base_solution
    dev, _ = ilp.expand_groups(sol)
    # device index must be non-decreasing over layers
    assert all(a <= b for a, b in zip(dev, dev[1:]))


def test_every_device_hosts_layers(base_solution, cluster3):
    ilp, sol = base_solution
    dev, _ = ilp.expand_groups(sol)
    assert set(dev) == set(range(cluster3.num_devices))


def test_memory_constraint_respected(base_solution, opt30b, cluster3):
    ilp, sol = base_solution
    dev, bits = ilp.expand_groups(sol)
    from repro.cost.memory import kv_cache_bytes

    per_layer_kv = kv_cache_bytes(opt30b, 1, 32, 612)
    for j, device in enumerate(cluster3.devices):
        used = sum(
            opt30b.layer_weight_bytes(b) + per_layer_kv
            for d, b in zip(dev, bits)
            if d == j
        )
        assert used <= ilp._device_capacity(j) + 1e-6


def test_adaptive_quantization_exploits_heterogeneity(cluster3, latmodel_cluster3, opt30b):
    """T4s (memory-poor, INT8 tensor cores) should quantize harder than
    the V100 — the paper's core claim.  At theta ~5 the quality term is
    strong enough to keep the V100 high-precision while the T4s must
    quantize to fit."""
    ilp = _make_ilp(cluster3, latmodel_cluster3, opt30b, theta=5.0)
    sol = ilp.solve()
    dev, bits = ilp.expand_groups(sol)
    t4_bits = [b for d, b in zip(dev, bits) if cluster3.devices[d].type_name == "T4-16G"]
    v100_bits = [b for d, b in zip(dev, bits) if cluster3.devices[d].type_name == "V100-32G"]
    assert np.mean(t4_bits) < np.mean(v100_bits)


def test_higher_theta_buys_more_bits(cluster3, latmodel_cluster3, opt30b):
    """Fig. 8: raising the quality scalar shifts the plan toward higher
    precision (>= average bits)."""
    lo = _make_ilp(cluster3, latmodel_cluster3, opt30b, theta=0.01)
    hi = _make_ilp(cluster3, latmodel_cluster3, opt30b, theta=100.0)
    _, bits_lo = lo.expand_groups(lo.solve())
    _, bits_hi = hi.expand_groups(hi.solve())
    assert np.mean(bits_hi) >= np.mean(bits_lo)


def test_adabits_maximizes_quality_only(cluster3, latmodel_cluster3, opt30b):
    """Without the latency term the ILP packs in the highest-precision
    assignment that fits, at least as many bits as the joint solve."""
    joint = _make_ilp(cluster3, latmodel_cluster3, opt30b, theta=1.0)
    _, bits_joint = joint.expand_groups(joint.solve())
    _, bits_ada = joint.expand_groups(spec_adabits(joint))
    assert np.mean(bits_ada) >= np.mean(bits_joint) - 1e-9


def test_infeasible_workload_detected(cluster3, latmodel_cluster3, opt30b):
    """A batch whose KV cache alone exceeds the cluster must be rejected."""
    huge = Workload(prompt_len=2048, gen_len=512, global_batch=256)
    ilp = _make_ilp(cluster3, latmodel_cluster3, opt30b, workload=huge)
    sol = ilp.solve()
    assert not sol.feasible


def test_concurrent_solves_leave_stdout_intact(
    cluster3, latmodel_cluster3, opt30b, capfd
):
    """Solves on concurrent threads share nothing mutable: each returns
    what it returns alone, none prints, and fd 1 still works afterwards
    (capfd captures at the file-descriptor level, where an old
    solver-silencing hack once raced)."""
    from concurrent.futures import ThreadPoolExecutor

    def solve_one(theta):
        ilp = _make_ilp(cluster3, latmodel_cluster3, opt30b, theta=theta, group=4)
        return ilp.solve()

    with ThreadPoolExecutor(max_workers=4) as pool:
        sols = list(pool.map(solve_one, [1.0, 5.0, 1.0, 5.0]))
    assert all(s.feasible for s in sols)
    # identical problems solve identically regardless of interleaving
    assert sols[0].group_bits == sols[2].group_bits
    assert sols[1].group_bits == sols[3].group_bits
    # no solver chatter leaked, and fd 1 still reaches the terminal
    out_before = capfd.readouterr().out
    assert out_before == ""
    print("fd1-alive")
    assert "fd1-alive" in capfd.readouterr().out


def test_grouped_indicator_mismatch_raises(cluster3, latmodel_cluster3, opt30b):
    ind = synthetic_indicator(opt30b).normalized()  # ungrouped: 48 rows
    ilp = BitAssignmentILP(
        cfg=opt30b,
        workload=Workload(prompt_len=512, gen_len=100, global_batch=32),
        devices=list(cluster3.devices),
        latency_model=latmodel_cluster3,
        indicator=ind,
        prefill_microbatch=8,
        decode_microbatch=8,
        group_size=2,  # expects 24 rows
    )
    with pytest.raises(ValueError, match="grouped"):
        ilp.solve()


# ------------------------------------------------------ the DP vs the MILP


def _assert_dp_matches_spec(ilp, sol):
    """``sol`` (the DP's) against the spec MILP of ``ilp``: same
    feasibility; the DP's assignment satisfies every MILP row and the
    MILP's objective prices it at the DP's optimum; and no assignment
    HiGHS returns prices lower.  Returns the MILP's price (or None)."""
    prob = spec_assemble(ilp)
    milp = None if prob is None else spec_solve(prob)
    assert sol.feasible == (milp is not None and milp.feasible)
    if not sol.feasible:
        return None
    rows = prob.A @ prob.x_of(sol.group_device, sol.group_bits)
    assert np.all(rows >= prob.lo) and np.all(rows <= prob.hi)
    assert spec_price(prob, sol) == pytest.approx(sol.objective, rel=1e-12)
    assert sol.quality_term == sum(
        prob.omega[i, ilp.bits.index(b)] for i, b in enumerate(sol.group_bits)
    )
    price = spec_price(prob, milp)
    assert sol.objective <= price * (1 + 1e-9)
    return price


@pytest.fixture(scope="module")
def tiny_mixed_latmodel(tiny8l):
    from repro.cost.profiler import build_latency_model

    return build_latency_model(["T4-16G", "V100-32G"], tiny8l)


@st.composite
def _dp_instances(draw):
    cfg = get_model("tiny-8l")
    layers = draw(st.integers(2, 10))
    group = draw(st.integers(1, max(1, layers // 2)))  # 2..10 groups
    n_groups = -(-layers // group)
    n_dev = draw(st.integers(1, 4))
    types = draw(st.lists(
        st.sampled_from(("T4-16G", "V100-32G")), min_size=n_dev, max_size=n_dev
    ))
    bits = tuple(sorted(draw(
        st.sets(st.sampled_from((3, 4, 8, 16)), min_size=1, max_size=4)
    )))
    omega = np.array(draw(st.lists(
        st.lists(st.integers(0, 40), min_size=len(bits), max_size=len(bits)),
        min_size=n_groups, max_size=n_groups,
    ))) / 8.0
    w = Workload(prompt_len=draw(st.sampled_from((12, 64))), gen_len=6, global_batch=4)
    mb_p, mb_d = draw(st.sampled_from((1, 2, 4))), draw(st.sampled_from((1, 2, 4)))
    # theta from quality-blind to quality-only on this model's ~5e-5 s layers
    theta = draw(st.sampled_from((0.0, 1e-6, 1e-5, 1e-4, 1.0)))
    kv = kv_cache_bytes(cfg, 1, w.global_batch, w.max_seq_len)
    unit = [int(cfg.layer_weight_bytes(b) + kv) for b in bits]
    # capacities on a boundary: the per-device loads of a planted
    # assignment, each exact, one byte short or over; a uniform block of
    # layers; or nothing at all
    slack = st.sampled_from((-1, 0, 0, 1, unit[-1], 4 * unit[-1]))
    how = draw(st.sampled_from(("planted", "planted", "block", "none")))
    if how == "planted" and n_groups >= n_dev:
        cuts = sorted(draw(st.sets(
            st.integers(1, n_groups - 1), min_size=n_dev - 1, max_size=n_dev - 1
        ))) if n_dev > 1 else []
        sizes = [group] * (n_groups - 1) + [layers - group * (n_groups - 1)]
        caps = [
            sum(sizes[i] * draw(st.sampled_from(unit)) for i in range(lo, hi))
            + draw(slack)
            for lo, hi in zip([0, *cuts], [*cuts, n_groups])
        ]
    elif how == "none":
        caps = [draw(st.sampled_from((0, -1, unit[0] - 1))) for _ in range(n_dev)]
    else:
        caps = [
            (layers - draw(st.integers(0, layers))) * draw(st.sampled_from(unit))
            + draw(slack)
            for _ in range(n_dev)
        ]
    return dict(
        cfg=dataclasses.replace(cfg, num_layers=layers), workload=w,
        devices=[Device(get_gpu(t), node_id=0, local_rank=j) for j, t in enumerate(types)],
        indicator=IndicatorTable(omega=omega, bits=bits, method="drawn"),
        prefill_microbatch=mb_p, decode_microbatch=mb_d, bits=bits,
        group_size=group, theta=theta, phase_aware=draw(st.booleans()),
        caps=tuple(caps),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inst=_dp_instances())
def test_dp_equals_spec_milp(inst, tiny_mixed_latmodel):
    """Random small instances — capacities planted on the fit and
    one-byte-short boundaries or absent, one to four mixed devices,
    ``m_p`` and/or ``m_d`` of 1, single-phase pricing, short last groups —
    solve to the spec MILP's optimum with an assignment the MILP admits;
    a cutoff at the optimum keeps that solution, one float below prunes."""
    ilp = CappedILP(latency_model=tiny_mixed_latmodel, **inst)
    sol = ilp.solve()
    sizes = ilp._group_sizes()
    event(f"feasible={sol.feasible}, {len(ilp.devices)} devices")
    event(f"short last group: {sizes[-1] != ilp.group_size}")
    event(f"m_p=1: {ilp.prefill_microbatch == 4}, m_d=1: {ilp.decode_microbatch == 4}")
    _assert_dp_matches_spec(ilp, sol)
    if sol.feasible:
        at = ilp.solve(sol.objective)
        assert (at.group_device, at.group_bits, at.objective) == (
            sol.group_device, sol.group_bits, sol.objective
        )
        assert ilp.solve(np.nextafter(sol.objective, -np.inf)).status == "pruned"


@pytest.mark.parametrize("case", ["mini-opt13b", "c3-opt30b-group4"])
def test_dp_equals_spec_milp_on_every_unique_candidate(
    case, small_hetero_cluster, latmodel_13b, cluster3, latmodel_cluster3, workload
):
    """Every unique candidate of the bench's mini case and of paper
    cluster 3 / opt-30b at group 4 solves to the spec MILP's optimum."""
    if case == "mini-opt13b":
        opt = LLMPQOptimizer(
            "opt-13b", small_hetero_cluster,
            Workload(prompt_len=128, gen_len=16, global_batch=8),
            config=PlannerConfig(group_size=2, prefill_mb_cap=8,
                                 decode_mb_candidates=(8, 32)),
            latency_model=latmodel_13b,
        )
    else:
        opt = LLMPQOptimizer(
            "opt-30b", cluster3, workload,
            config=PlannerConfig(group_size=4, prefill_mb_cap=8,
                                 decode_mb_candidates=(8, 32)),
            latency_model=latmodel_cluster3,
        )
    engine = SearchEngine(opt)
    engine.prepare()
    assert len(engine._uniques) == {"mini-opt13b": 8}.get(case, 16)
    prices = [_assert_dp_matches_spec(u.ilp, u.ilp.solve()) for u in engine._uniques]
    assert all(p is not None for p in prices)
