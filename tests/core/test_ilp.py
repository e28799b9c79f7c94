"""Unit tests for the bitwidth-assignment + partition ILP."""

import numpy as np
import pytest

from repro.core.ilp import BitAssignmentILP
from repro.quant import synthetic_indicator
from repro.workload import Workload

from .ilp_spec import spec_adabits


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
    """Regression for the removed ``_quiet_fd1`` fd-redirection hack.

    The old context manager dup2'd fd 1 to /dev/null around every solve;
    two overlapping solves could race the restore and permanently silence
    stdout.  Solves now rely on HiGHS's own output suppression, so
    concurrent solves must succeed AND leave fd 1 working (capfd captures
    at the file-descriptor level, where the old bug lived)."""
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
