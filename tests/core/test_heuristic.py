"""Unit tests for adabits + the bitwidth-transfer heuristic (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.heuristic import (
    _objective,
    adabits_plan,
    bitwidth_transfer,
    heuristic_optimize,
)
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig
from repro.hardware import paper_cluster
from repro.sim.pipeline import simulate_pipeline


@pytest.fixture(scope="module")
def planner(cluster3, latmodel_cluster3, workload):
    return LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    )


@pytest.fixture(scope="module")
def seed_plan(planner):
    return adabits_plan(planner)


def test_adabits_feasible_and_high_precision(planner, seed_plan, cluster3):
    assert seed_plan is not None
    from repro.sim.pipeline import simulate_pipeline

    res = simulate_pipeline(seed_plan, cluster3)
    assert res.feasible
    # quality-only: should use every spare byte for precision
    assert seed_plan.average_bits() > 8


def test_bitwidth_transfer_never_degrades(planner, seed_plan):
    improved = bitwidth_transfer(planner, seed_plan)
    assert _objective(planner, improved) <= _objective(planner, seed_plan) + 1e-9


def test_bitwidth_transfer_preserves_layer_count(planner, seed_plan):
    improved = bitwidth_transfer(planner, seed_plan)
    assert improved.num_layers == seed_plan.num_layers
    assert improved.num_stages == seed_plan.num_stages


def test_heuristic_optimize_close_to_exact(planner, cluster3):
    from repro.sim.pipeline import simulate_pipeline

    heur = heuristic_optimize(planner)
    assert heur.feasible
    exact = planner.optimize()
    t_h = simulate_pipeline(heur.plan, cluster3).throughput
    t_e = simulate_pipeline(exact.plan, cluster3).throughput
    # Table 8: the heuristic lands in the same ballpark as the ILP
    assert t_h > 0.6 * t_e


def test_heuristic_faster_than_exact_per_candidate(planner):
    """The heuristic's point is solve-time: its per-ordering cost must be
    small (Table 8's overhead column)."""
    heur = heuristic_optimize(planner)
    solve_times = [c.solve_seconds for c in heur.candidates if np.isfinite(c.objective)]
    assert solve_times and max(solve_times) < 30.0


def test_adabits_with_explicit_ordering(planner, cluster3):
    ordering = list(reversed(cluster3.devices))
    plan = adabits_plan(planner, ordering)
    assert plan is not None
    assert plan.stages[0].device.type_name == "V100-32G"


# ---------------------------------------------------------------- shared memo


def test_transfer_scores_through_shared_memo_bitwise(
    cluster3, latmodel_cluster3, workload
):
    """Every plan Algorithm 2 scores is priced through the planner run's
    one cost memo; each such simulation equals, bit for bit, a fresh
    ``simulate_pipeline(..., latency_model=...)`` that shares nothing."""
    opt = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    )
    seed = adabits_plan(opt)
    shared = type(opt).simulate
    scored = []

    def checked(plan):
        got = shared(opt, plan)
        ref = simulate_pipeline(plan, cluster3, latency_model=latmodel_cluster3)
        assert got.prefill_latency == ref.prefill_latency
        assert got.decode_latency == ref.decode_latency
        assert got.stage_reports == ref.stage_reports
        assert got.oom_stages == ref.oom_stages
        scored.append(plan)
        return got

    opt.simulate = checked
    hits0 = opt.prediction_cache.hits
    bitwidth_transfer(opt, seed)
    assert len(scored) > 50  # the seed plus every neighbour of every round
    assert len({p.layer_bits for p in scored}) > 20
    # the run's memo served them: far more hits than distinct keys
    cache = opt.prediction_cache
    assert cache.hits - hits0 > 10 * (cache.size + len(cache._sweeps))


def test_memoised_decode_sweeps_are_read_only(planner, seed_plan):
    planner.simulate(seed_plan)
    cache = planner.prediction_cache
    assert cache._sweeps
    for row in cache._sweeps.values():
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0
    # a repeated sweep is the same object, counted as a hit
    contexts = 512 + np.arange(1, 100, dtype=np.float64)
    hits = cache.hits
    a = cache.decode_sweep("T4-16G", 8, 8, contexts)
    b = cache.decode_sweep("T4-16G", 8, 8, contexts.copy())
    assert a is b and cache.hits >= hits + 1
    assert np.array_equal(
        a, planner.latency_model.decode_step_times("T4-16G", 8, 8, contexts)
    )


@pytest.mark.parametrize(
    "cluster_id,objective,stages",
    [
        (3, "0x1.0017c165d01ffp+5", [
            ("V100-32G", {4: 17}), ("T4-16G", {4: 4, 8: 6}),
            ("T4-16G", {4: 4, 8: 7}), ("T4-16G", {4: 4, 8: 6}),
        ]),
        (9, "0x1.473e1102b0cc6p+5", [
            ("T4-16G", {8: 12}), ("T4-16G", {8: 12}),
            ("T4-16G", {8: 12}), ("T4-16G", {4: 2, 8: 10}),
        ]),
    ],
)
def test_heuristic_result_unchanged_by_shared_memo(
    cluster_id, objective, stages, latmodel_cluster3, workload
):
    """Plans and objectives Algorithm 2 returned before its simulations
    shared one memo (pinned from the per-call-cache implementation)."""
    opt = LLMPQOptimizer(
        "opt-30b", paper_cluster(cluster_id), workload,
        config=PlannerConfig(group_size=4, decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    )
    res = heuristic_optimize(opt)
    assert res.objective == float.fromhex(objective)
    assert [
        (st.device.type_name, st.bit_counts) for st in res.plan.stages
    ] == stages
    assert (res.plan.prefill_microbatch, res.plan.decode_microbatch) == (1, 8)
