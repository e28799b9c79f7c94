"""Tests for quantized-KV-cache planning (the Sec.-7 discussion knob).

The KV cache dominates stage memory for long-sequence batches; halving
it with 8-bit KV frees room for more layers or higher weight precision.
"""

import dataclasses

import pytest

from repro.core.optimizer import LLMPQOptimizer, PlannerConfig
from repro.sim.pipeline import simulate_pipeline
from repro.workload import Workload


@pytest.fixture(scope="module")
def big_batch_workload():
    # KV-heavy: 64 requests at 612 max positions
    return Workload(prompt_len=512, gen_len=100, global_batch=64)


def test_kv8_unlocks_infeasible_workloads(cluster3, latmodel_cluster3, big_batch_workload):
    """At b=64 the FP16 KV cache alone outgrows cluster 3; 8-bit KV
    makes the same workload plannable."""
    fp16_kv = LLMPQOptimizer(
        "opt-30b", cluster3, big_batch_workload,
        config=PlannerConfig(group_size=4, kv_bits=16,
                             decode_mb_candidates=(16,), prefill_mb_cap=4),
        latency_model=latmodel_cluster3,
    ).optimize()
    int8_kv = LLMPQOptimizer(
        "opt-30b", cluster3, big_batch_workload,
        config=PlannerConfig(group_size=4, kv_bits=8,
                             decode_mb_candidates=(16,), prefill_mb_cap=4),
        latency_model=latmodel_cluster3,
    ).optimize()
    assert not fp16_kv.feasible
    assert int8_kv.feasible


def test_kv8_buys_precision(cluster3, latmodel_cluster3, workload):
    """With the same workload, 8-bit KV leaves more room for weight
    precision: average bits must not decrease."""
    cfg16 = PlannerConfig(group_size=4, kv_bits=16, theta=5.0,
                          decode_mb_candidates=(8,), prefill_mb_cap=8)
    cfg8 = PlannerConfig(group_size=4, kv_bits=8, theta=5.0,
                         decode_mb_candidates=(8,), prefill_mb_cap=8)
    r16 = LLMPQOptimizer("opt-30b", cluster3, workload, config=cfg16,
                         latency_model=latmodel_cluster3).optimize()
    r8 = LLMPQOptimizer("opt-30b", cluster3, workload, config=cfg8,
                        latency_model=latmodel_cluster3).optimize()
    assert r16.feasible and r8.feasible
    assert r8.plan.average_bits() >= r16.plan.average_bits() - 1e-9


# ---------------------------------------------------------------------------
# per-stage kv_bits as a first-class plan variable (KV4/KV8 tentpole)
# ---------------------------------------------------------------------------


def test_planned_stages_carry_kv_bits(cluster3, latmodel_cluster3, workload):
    """Explicit kv_bits lands on every stage — and nowhere else."""
    res = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, kv_bits=4,
                             decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    ).optimize()
    assert res.feasible
    assert res.plan.kv_bits_per_stage == (4,) * res.plan.num_stages
    assert "kv_bits" not in res.plan.meta


def test_kv_plan_json_roundtrip(cluster3, latmodel_cluster3, workload, tmp_path):
    """Per-stage KV bitwidths survive the strategy-file round trip."""
    from repro.core.plan import ExecutionPlan

    res = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, kv_bits=8,
                             decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    ).optimize()
    mixed = res.plan.with_kv_bits((4, 8, 16, 4)[: res.plan.num_stages])
    path = tmp_path / "strategy.json"
    mixed.to_json(path)
    loaded = ExecutionPlan.from_json(path)
    assert loaded.kv_bits_per_stage == mixed.kv_bits_per_stage


def test_kv_quantization_speeds_up_decode(cluster3, latmodel_cluster3, workload):
    """Quantized KV shrinks the decode memory stream, so the planner's
    view of the same plan gets faster as kv_bits drops."""
    res = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, kv_bits=16,
                             decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    ).optimize()
    assert res.feasible
    lat = {}
    for kv in (16, 8, 4):
        pred = simulate_pipeline(res.plan.with_kv_bits(kv), cluster3)
        assert pred.feasible
        lat[kv] = pred.total_latency
    assert lat[8] < lat[16]
    assert lat[4] < lat[8]


def test_auto_kv_search(cluster3, latmodel_cluster3, workload):
    """kv_bits='auto' returns a feasible plan whose per-stage KV levels
    are the only record of the choice, and never does
    worse than the fp16-KV run on the same objective scale once the
    KV-error penalty justifies quantizing."""
    auto = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, kv_bits="auto", theta=0.5,
                             decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    ).optimize()
    assert auto.feasible
    assert "kv_bits" not in auto.plan.meta  # stage values are the only ones
    assert all(b in (4, 8, 16) for b in auto.plan.kv_bits_per_stage)
    fp16 = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, kv_bits=16, theta=0.5,
                             decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    ).optimize()
    # auto can always fall back to uniform fp16, so its latency+quality
    # objective (kv penalty excluded by construction at the winner) must
    # not regress beyond numerical noise
    assert auto.objective <= fp16.objective + 1e-9


def test_auto_kv_with_heuristic(cluster3, latmodel_cluster3, workload):
    """Regression: ``use_heuristic=True, kv_bits="auto"`` died with
    ``invalid literal for int() with base 10: 'auto'``.  Algorithm 2 now
    runs once per uniform KV level inside the same level search as the
    exact planner, and is never worse than its own fp16-KV run."""
    from repro.core.api import plan_llmpq

    kw = dict(
        theta=0.5, group_size=4, use_heuristic=True,
        latency_model=latmodel_cluster3,
        decode_mb_candidates=(8,), prefill_mb_cap=8,
    )
    auto = plan_llmpq("opt-30b", cluster3, workload, kv_bits="auto", **kw)
    assert auto.feasible and auto.predicted.feasible
    assert all(b in (4, 8, 16) for b in auto.plan.kv_bits_per_stage)
    assert "kv_bits" not in auto.plan.meta
    # one heuristic record per (level, ordering), KV16 first
    fp16 = plan_llmpq("opt-30b", cluster3, workload, kv_bits=16, **kw)
    assert len(auto.candidates) == 3 * len(fp16.candidates)
    assert auto.candidates[: len(fp16.candidates)] == tuple(
        dataclasses.replace(c, solve_seconds=a.solve_seconds)
        for c, a in zip(fp16.candidates, auto.candidates)
    )
    # fp16 KV costs no penalty and is one of the levels searched
    kv_cost = 0.5 * LLMPQOptimizer(
        "opt-30b", cluster3, workload, latency_model=latmodel_cluster3
    )._kv_penalty(auto.plan, auto.plan.kv_bits_per_stage)
    assert auto.objective + kv_cost <= fp16.objective + 1e-9


def test_invalid_kv_bits_rejected(cluster3, latmodel_cluster3, workload):
    with pytest.raises(ValueError, match="kv_bits"):
        LLMPQOptimizer(
            "opt-30b", cluster3, workload,
            config=PlannerConfig(kv_bits=5),
            latency_model=latmodel_cluster3,
        )
