"""Unit tests for Algorithm 1 (the full planner)."""

import pytest

from repro.core.optimizer import LLMPQOptimizer, PlannerConfig, _microbatch_pairs
from repro.core.plan import ExecutionPlan
from repro.sim.pipeline import simulate_pipeline


@pytest.fixture(scope="module")
def planner(cluster3, latmodel_cluster3, workload):
    return LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(
            group_size=4,
            decode_mb_candidates=(8, 16),
            prefill_mb_cap=8,
        ),
        latency_model=latmodel_cluster3,
    )


@pytest.fixture(scope="module")
def result(planner):
    return planner.optimize()


def test_planner_finds_feasible_plan(result):
    assert result.feasible
    assert result.plan is not None
    assert result.predicted is not None and result.predicted.feasible


def test_plan_beats_uniform_baseline(result, cluster3, workload):
    llmpq = simulate_pipeline(result.plan, cluster3)
    uniform = simulate_pipeline(
        ExecutionPlan.uniform("opt-30b", cluster3.devices, workload, bits=8),
        cluster3,
    )
    assert llmpq.throughput > uniform.throughput


def test_candidates_recorded(result, planner):
    orderings = len(planner.orderings())
    pairs = len(_microbatch_pairs(planner.workload, 4, planner.config))
    assert len(result.candidates) == orderings * pairs
    assert any(c.status == "optimal" for c in result.candidates)
    best = min(c.objective for c in result.candidates)
    assert result.objective == pytest.approx(best)


def test_plan_covers_all_layers_contiguously(result, planner):
    plan = result.plan
    assert plan.num_layers == planner.cfg.num_layers
    assert plan.num_stages == planner.cluster.num_devices


def test_block_orderings_are_type_blocks(planner):
    for ordering in planner.orderings():
        types = [d.type_name for d in ordering]
        # same-type devices must be contiguous
        seen = []
        for t in types:
            if not seen or seen[-1] != t:
                seen.append(t)
        assert len(seen) == len(set(seen))


def test_full_ordering_mode(cluster3, latmodel_cluster3, workload):
    opt = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(ordering_mode="full", max_orderings=3),
        latency_model=latmodel_cluster3,
    )
    assert len(opt.orderings()) == 3


def test_unknown_ordering_mode_rejected(cluster3, latmodel_cluster3, workload):
    opt = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(ordering_mode="zigzag"),
        latency_model=latmodel_cluster3,
    )
    with pytest.raises(ValueError, match="ordering_mode"):
        opt.orderings()


def test_microbatch_pairs_pruning(workload):
    cfg = PlannerConfig(prefill_mb_cap=4, decode_mb_candidates=(8,))
    pairs = _microbatch_pairs(workload, 4, cfg)
    assert all(p <= 4 for p, _ in pairs)
    assert all(d == 8 for _, d in pairs)
    # default decode candidates: even split, 2x, global batch
    pairs_default = _microbatch_pairs(workload, 4, PlannerConfig())
    decodes = {d for _, d in pairs_default}
    assert decodes == {8, 16, 32}


def test_indicator_normalized_on_init(planner):
    assert planner.indicator.column(4).sum() == pytest.approx(1.0)


def test_grouped_indicator_computed_once_and_reused(
    small_hetero_cluster, latmodel_13b, small_workload, monkeypatch
):
    """The grouped omega table is hoisted into ``__init__`` — candidate
    solves share one object instead of regrouping per candidate."""
    from repro.quant.indicator import IndicatorTable

    calls = {"n": 0}
    real_grouped = IndicatorTable.grouped

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return real_grouped(self, *args, **kwargs)

    monkeypatch.setattr(IndicatorTable, "grouped", counting)
    opt = LLMPQOptimizer(
        "opt-13b", small_hetero_cluster, small_workload,
        config=PlannerConfig(
            group_size=4, prefill_mb_cap=2, decode_mb_candidates=(4,)
        ),
        latency_model=latmodel_13b,
    )
    assert calls["n"] == 1  # exactly the __init__ hoist
    orderings = opt.orderings()
    ilp_a = opt.build_ilp(orderings[0], 2, 4)
    ilp_b = opt.build_ilp(orderings[-1], 2, 4)
    assert calls["n"] == 1  # no regrouping per candidate
    assert ilp_a.indicator is opt.grouped_indicator
    assert ilp_b.indicator is opt.grouped_indicator


def test_optimize_reuses_hoisted_grouped_indicator(
    small_hetero_cluster, latmodel_13b, small_workload, monkeypatch
):
    """A full engine run performs zero additional ``grouped`` calls."""
    from repro.quant.indicator import IndicatorTable

    calls = {"n": 0}
    real_grouped = IndicatorTable.grouped

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return real_grouped(self, *args, **kwargs)

    opt = LLMPQOptimizer(
        "opt-13b", small_hetero_cluster, small_workload,
        config=PlannerConfig(
            group_size=4, prefill_mb_cap=2, decode_mb_candidates=(4,)
        ),
        latency_model=latmodel_13b,
    )
    monkeypatch.setattr(IndicatorTable, "grouped", counting)
    result = opt.optimize()
    assert result.feasible
    assert calls["n"] == 0
