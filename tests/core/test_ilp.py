"""Unit tests for the bitwidth-assignment + partition problem and its DP."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core import ilp as ilp_mod
from repro.core.ilp import BitAssignmentILP, RangeTable
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig
from repro.core.search import SearchEngine
from repro.cost.memory import kv_cache_bytes
from repro.cost.profiler import build_latency_model
from repro.hardware import get_gpu, make_cluster
from repro.hardware.cluster import Device
from repro.models import get_model
from repro.quant import IndicatorTable, synthetic_indicator
from repro.workload import Workload

from .ilp_spec import (
    CappedILP,
    spec_adabits,
    spec_assemble,
    spec_price,
    spec_solve,
    spec_sweep,
)


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


# ------------------------------------------------ range-table sweep vs spec


def _assert_sweeps_equal(args):
    """All six arrays of ``_sweep(*args)`` byte-identical to the spec's."""
    got, ref = ilp_mod._sweep(*args), spec_sweep(*args)
    for g, r in zip(got, ref, strict=True):
        assert (g.dtype, g.shape) == (r.dtype, r.shape)
        assert g.tobytes() == r.tobytes()
    return got


@st.composite
def _sweep_instances(draw):
    n_groups = draw(st.integers(1, 12))
    group = draw(st.integers(1, 4))
    sizes = np.array([group] * (n_groups - 1) + [draw(st.integers(1, group))])
    n_bits = draw(st.integers(1, 4))
    # few omega values, zeros among them: many candidates tie on sum omega
    omega = np.array(draw(st.lists(
        st.lists(st.sampled_from((0.0, 0.0, 0.5, 1.0)), min_size=n_bits, max_size=n_bits),
        min_size=n_groups, max_size=n_groups,
    )))
    layer_bytes = np.array(draw(st.lists(
        st.integers(1, 9), min_size=n_bits, max_size=n_bits
    )), dtype=np.float64)
    if draw(st.booleans()):
        starts, stop = [0], n_groups
    else:
        starts = sorted(draw(st.sets(st.integers(0, n_groups - 1), max_size=n_groups)))
        stop = draw(st.integers(0, n_groups))
    # the bytes of one planted row, exactly; or no limit at all
    a = draw(st.integers(0, n_groups - 1))
    length = draw(st.integers(1, n_groups - a))
    limit = float(sum(
        sizes[i] * layer_bytes[draw(st.integers(0, n_bits - 1))] for i in range(a, a + length)
    )) if draw(st.integers(0, 3)) else np.inf
    return sizes, omega, layer_bytes, limit, starts, stop


@settings(max_examples=400, deadline=None)
@given(args=_sweep_instances())
def test_sweep_equals_spec(args):
    """The merge sweep returns the lexsort spec's rows byte for byte: a
    ragged last group, ``sum omega`` ties, one to four bitwidths, a limit
    planted on a row's bytes, one start or many."""
    _, length, L, W, parent, _ = _assert_sweeps_equal(args)
    event(f"rows: {'none' if not W.size else 'some'}, starts: {len(args[4])}")
    # every row fits, and its parent is one group shorter
    layer_bytes, limit = args[2], args[3]
    for row in range(W.size):
        assert L[row] @ layer_bytes <= limit
        assert length[row] == 1 + (length[parent[row]] if parent[row] >= 0 else 0)


@pytest.fixture(scope="module")
def three_node():
    cluster = make_cluster(
        [("P100-12G", 2), ("V100-32G", 2), ("A100-40G", 2)], name="three-node"
    )
    latmodel = build_latency_model(
        sorted({d.type_name for d in cluster.devices}), get_model("opt-66b")
    )
    return cluster, latmodel


@pytest.mark.parametrize("case", ["c3-opt30b", "3node-opt66b"])
def test_sweep_equals_spec_on_planner_tables(
    case, cluster3, latmodel_cluster3, workload, three_node, monkeypatch
):
    """Every sweep the cluster-3 and three-node searches run (prefix,
    suffix and middle blocks, up to ~60k rows) equals the spec's."""
    if case == "c3-opt30b":
        model, cluster, latmodel, knobs = "opt-30b", cluster3, latmodel_cluster3, {}
    else:
        (cluster, latmodel), model, knobs = three_node, "opt-66b", dict(group_size=4, theta=10.0)
    calls = []
    real = ilp_mod._sweep
    monkeypatch.setattr(ilp_mod, "_sweep", lambda *a: calls.append(a) or real(*a))
    opt = LLMPQOptimizer(
        model, cluster, workload,
        config=PlannerConfig(**{**dict(group_size=2, prefill_mb_cap=8,
                                       decode_mb_candidates=(8, 32)), **knobs}),
        latency_model=latmodel,
    )
    assert opt.optimize().feasible
    monkeypatch.undo()
    assert len(calls) >= 3
    for args in calls:
        _assert_sweeps_equal(args)


# ------------------------------------------------ row prices shared per table


@pytest.fixture(scope="module")
def c3_group2(cluster3, latmodel_cluster3, workload):
    """Cluster 3 / opt-30b / group 2: the unique candidates of its grid."""
    opt = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=2, prefill_mb_cap=8, decode_mb_candidates=(8, 32)),
        latency_model=latmodel_cluster3,
    )
    engine = SearchEngine(opt)
    engine.prepare()
    return opt, [u.ilp for u in engine._uniques]


def test_shared_row_prices_equal_fresh_tables(c3_group2):
    """Every unique candidate solves on the run's shared table, its row
    prices reused across candidates, exactly as on a table of its own:
    status, assignment and objective bit for bit, uncut and under the
    same cutoffs (``pruned`` included)."""
    opt, ilps = c3_group2
    uncut = [ilp.solve() for ilp in ilps]
    objectives = sorted(s.objective for s in uncut)
    for cutoff in (np.inf, objectives[len(objectives) // 2], objectives[0]):
        shared = [ilp.solve(cutoff) for ilp in ilps]
        fresh = [dataclasses.replace(ilp, range_tables=None).solve(cutoff) for ilp in ilps]
        assert [(s.status, s.group_device, s.group_bits, s.objective) for s in shared] == [
            (s.status, s.group_device, s.group_bits, s.objective) for s in fresh
        ]
    assert {s.status for s in shared} == {"optimal", "pruned"}
    (table,) = opt.range_tables.values()
    assert 0 < len(table._priced) < 4 * len(ilps)  # prices shared across candidates


def test_row_prices_run_once_per_key(c3_group2, monkeypatch):
    """A counting wrapper: rows are priced once per distinct input (kind,
    GPU type, capacity, per-layer seconds, alpha, beta, n, theta), and a
    second solve of the same candidate prices nothing."""
    opt, ilps = c3_group2
    opt.range_tables.clear()
    keys, priced = [], []
    real_priced, real_rows_for = RangeTable.priced, ilp_mod._Block.rows_for

    def spy_priced(table, kind, device, cap, lp, ld, *rest):
        keys.append((id(table), kind, device, cap, lp.tobytes(), ld.tobytes(), *rest))
        return real_priced(table, kind, device, cap, lp, ld, *rest)

    monkeypatch.setattr(RangeTable, "priced", spy_priced)
    monkeypatch.setattr(
        ilp_mod._Block, "rows_for", lambda blk, cap: priced.append(cap) or real_rows_for(blk, cap)
    )
    for ilp in ilps:
        ilp.solve()
    assert len(keys) > len(set(keys)) and len(priced) == len(set(keys))
    priced.clear()
    ilps[0].solve()
    assert not priced


@pytest.mark.parametrize("kind", ["suffix", "middle"])
def test_row_price_memo_keys_everything_it_reads(kind):
    """Changing any one input — capacity, alpha, beta, n, theta, either
    seconds row — on a table that already priced the base input gives what
    a fresh table gives."""
    rng = np.random.default_rng(3)
    sizes, n_bits = np.full(9, 2), 3
    omega = rng.choice((0.0, 0.25, 1.0), size=(9, n_bits))
    layer_bytes = np.array([3.0, 5.0, 8.0])
    # bitwidth 0 is the cheapest and slowest to decode, 1 the slowest to
    # prefill: each of alpha and beta decides what the pre-filter keeps
    base = dict(cap=60.0, lp=np.array([1.0, 4.0, 2.0]), ld=np.array([3.0, 1.0, 2.0]),
                alpha=3, beta=4, n_pass=1, theta=0.5)
    shared = RangeTable(sizes, omega, layer_bytes, 100.0)

    def price(table, **args):
        a = {**base, **args}
        return table.priced(kind, "T4-16G", a["cap"], a["lp"], a["ld"], a["alpha"],
                            a["beta"], a["n_pass"], a["theta"])

    ref = price(shared)
    variants = dict(cap=[30.0, 50.0], alpha=[0, 30], beta=[0, 40], n_pass=[0, 20],
                    theta=[0.0, 50.0], lp=[np.array([2.0, 4.0, 1.0])],
                    ld=[np.array([1.0, 3.0, 2.0])])
    for name, values in variants.items():
        for value in values:
            got = price(shared, **{name: value})
            want = price(RangeTable(sizes, omega, layer_bytes, 100.0), **{name: value})
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w), name
            # the variant is a different input: its rows or prices differ
            assert any(
                g.shape != r.shape or not np.array_equal(g, r) for g, r in zip(got, ref)
            ), (name, value)


def test_layer_tables_built_once_per_problem(cluster3, latmodel_cluster3, opt30b, monkeypatch):
    """The bound and the solve read one set of per-layer tables."""
    calls = []
    real = ilp_mod.planner_time_tables
    monkeypatch.setattr(
        ilp_mod, "planner_time_tables", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    ilp = _make_ilp(cluster3, latmodel_cluster3, opt30b, group=4)
    ilp.lower_bound()
    ilp.solve()
    ilp.solve()
    assert len(calls) == 1
    dataclasses.replace(ilp, decode_microbatch=32).solve()  # a new problem
    assert len(calls) == 2
