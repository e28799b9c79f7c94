"""High-level public API: plan, evaluate, and compare serving schemes.

This is the facade the examples and benchmark harness drive; one call per
paper concept:

* :func:`plan_llmpq` — run the LLM-PQ assigner (exact search or heuristic);
* :func:`evaluate_plan` — ground-truth simulation + quality surrogate,
  producing a Table-4-style row;
* :func:`compare_schemes` — all schemes (LLM-PQ, PipeEdge, Uniform,
  FlexGen, FlexGen-int8, adabits) on one cluster/workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cost.latency import LatencyModel
from ..hardware.cluster import Cluster
from ..models.registry import get_model
from ..quant.indicator import IndicatorTable
from ..sim.offload import OffloadResult
from ..sim.pipeline import simulate_pipeline
from ..sim.quality import QUALITY_ANCHORS, plan_perplexity
from ..workload.spec import Workload
from .baselines import BaselineOutcome, flexgen_run, pipeedge_plan, uniform_plan
from .heuristic import adabits_plan, heuristic_optimize
from .optimizer import LLMPQOptimizer, PlannerConfig, PlannerResult
from .plan import ExecutionPlan, StagePlan

__all__ = [
    "ServingReport",
    "plan_llmpq",
    "evaluate_plan",
    "compare_schemes",
    "replan_after_failure",
]


@dataclass(frozen=True)
class ServingReport:
    """One scheme's evaluated outcome — a row of Tables 4/5/7."""

    scheme: str
    model_name: str
    feasible: bool
    perplexity: float
    latency: float
    throughput: float
    average_bits: float
    plan: ExecutionPlan | None = None
    offload: OffloadResult | None = None
    solve_seconds: float = 0.0

    def speedup_over(self, other: "ServingReport") -> float:
        """Throughput ratio vs a reference scheme (the paper's x column)."""
        if other.throughput <= 0:
            return float("inf") if self.throughput > 0 else 1.0
        return self.throughput / other.throughput

    def row(self) -> dict:
        """Table-ready dict of the headline metrics."""
        return {
            "scheme": self.scheme,
            "ppl": round(self.perplexity, 2) if np.isfinite(self.perplexity) else None,
            "latency_s": round(self.latency, 2) if np.isfinite(self.latency) else None,
            "throughput_tok_s": round(self.throughput, 2),
            "avg_bits": round(self.average_bits, 2) if np.isfinite(self.average_bits) else None,
        }


def plan_llmpq(
    model_name: str,
    cluster: Cluster,
    workload: Workload,
    *,
    theta: float = 1.0,
    group_size: int = 1,
    use_heuristic: bool = False,
    bits: tuple[int, ...] = (3, 4, 8, 16),
    latency_model: LatencyModel | None = None,
    indicator: IndicatorTable | None = None,
    max_orderings: int = 24,
    prefill_mb_cap: int | None = None,
    decode_mb_candidates: tuple[int, ...] | None = None,
    n_jobs: int = 1,
    kv_bits: int | str = 16,
) -> PlannerResult:
    """Run the LLM-PQ assigner end to end (Algorithm 1, or Algorithm 2
    when ``use_heuristic``).

    ``kv_bits`` adds the KV-cache bitwidth dimension: 16 keeps the fp16
    baseline, 8/4 plan with uniformly quantized KV, and ``"auto"``
    searches the levels and refines per stage.

    ``n_jobs`` must be 1: candidates are solved by the DP in-process.
    """
    if n_jobs != 1:
        raise ValueError(f"n_jobs must be 1 (the search runs in-process), got {n_jobs}")
    optimizer = LLMPQOptimizer(
        model_name,
        cluster,
        workload,
        config=PlannerConfig(
            bits=bits,
            theta=theta,
            group_size=group_size,
            max_orderings=max_orderings,
            prefill_mb_cap=prefill_mb_cap,
            decode_mb_candidates=decode_mb_candidates,
            kv_bits=kv_bits,
        ),
        latency_model=latency_model,
        indicator=indicator,
    )
    if use_heuristic:
        return heuristic_optimize(optimizer)
    return optimizer.optimize()


def evaluate_plan(
    plan: ExecutionPlan,
    cluster: Cluster,
    *,
    scheme: str = "LLM-PQ",
    solve_seconds: float = 0.0,
    cost_source: str = "kernels",
    latency_model: LatencyModel | None = None,
) -> ServingReport:
    """Ground-truth simulation + quality surrogate for a plan.

    ``cost_source`` selects where the simulator's stage times come from:
    ``"kernels"`` (ground-truth roofline kernels, the default) or
    ``"model"`` (the planner's fitted latency model — the same numbers the
    ILP optimized, handy for checking planner/simulator drift).  A fitted
    model is profiled on demand when ``"model"`` is requested without one.
    """
    if cost_source not in ("kernels", "model"):
        raise ValueError(f"unknown cost_source {cost_source!r}")
    if cost_source == "model" and latency_model is None:
        from ..cost.profiler import build_latency_model

        latency_model = build_latency_model(
            sorted({d.type_name for d in cluster.devices}),
            get_model(plan.model_name),
        )
    res = simulate_pipeline(
        plan, cluster,
        latency_model=latency_model if cost_source == "model" else None,
    )
    ppl = (
        plan_perplexity(plan.model_name, plan.layer_bits)
        if plan.model_name in QUALITY_ANCHORS
        else float("nan")
    )
    return ServingReport(
        scheme=scheme,
        model_name=plan.model_name,
        feasible=res.feasible,
        perplexity=ppl,
        latency=res.total_latency,
        throughput=res.throughput,
        average_bits=plan.average_bits(),
        plan=plan,
        solve_seconds=solve_seconds,
    )


def _report_infeasible(scheme: str, model_name: str) -> ServingReport:
    return ServingReport(
        scheme=scheme, model_name=model_name, feasible=False,
        perplexity=float("nan"), latency=float("inf"), throughput=0.0,
        average_bits=float("nan"),
    )


def _report_offload(out: BaselineOutcome, model_name: str) -> ServingReport:
    if out.offload is None or not out.offload.feasible:
        return _report_infeasible(out.name, model_name)
    cfg = get_model(model_name)
    ppl = (
        plan_perplexity(model_name, [out.bits] * cfg.num_layers)
        if model_name in QUALITY_ANCHORS
        else float("nan")
    )
    return ServingReport(
        scheme=out.name,
        model_name=model_name,
        feasible=True,
        perplexity=ppl,
        latency=out.offload.total_latency,
        throughput=out.offload.throughput,
        average_bits=float(out.bits or 16),
        offload=out.offload,
    )


def replan_after_failure(plan: ExecutionPlan, failed_stage: int) -> ExecutionPlan:
    """Re-plan onto the surviving devices after a permanent stage loss.

    The runtime's last degradation rung: when a stage's device is gone
    for good, its layers (with their assigned bitwidths) are
    redistributed to the surviving neighbours — leading layers to the
    upstream stage, trailing layers to the downstream one — preserving
    pipeline order and per-layer quantization so the degraded plan's
    outputs stay bit-identical to the original recipe.
    """
    if not 0 <= failed_stage < plan.num_stages:
        raise ValueError(f"failed_stage {failed_stage} out of range")
    if plan.num_stages == 1:
        raise ValueError("no surviving devices to re-plan on")

    meta = dict(plan.meta)
    meta["replanned_after_stage_failure"] = failed_stage
    meta["lost_device"] = plan.stages[failed_stage].device.name

    stages = list(plan.stages)
    failed = stages.pop(failed_stage)
    if failed_stage == 0:
        nxt = stages[0]
        stages[0] = StagePlan(
            nxt.device, failed.layer_bits + nxt.layer_bits, kv_bits=nxt.kv_bits
        )
    elif failed_stage == len(stages):  # was the last stage
        prev = stages[-1]
        stages[-1] = StagePlan(
            prev.device, prev.layer_bits + failed.layer_bits, kv_bits=prev.kv_bits
        )
    else:
        k = (len(failed.layer_bits) + 1) // 2  # leading half upstream
        prev = stages[failed_stage - 1]
        nxt = stages[failed_stage]
        stages[failed_stage - 1] = StagePlan(
            prev.device, prev.layer_bits + failed.layer_bits[:k],
            kv_bits=prev.kv_bits,
        )
        stages[failed_stage] = StagePlan(
            nxt.device, failed.layer_bits[k:] + nxt.layer_bits,
            kv_bits=nxt.kv_bits,
        )
    return ExecutionPlan(
        model_name=plan.model_name,
        stages=tuple(stages),
        prefill_microbatch=plan.prefill_microbatch,
        decode_microbatch=plan.decode_microbatch,
        workload=plan.workload,
        meta=meta,
    )


DEFAULT_SCHEMES = ("PipeEdge", "Uniform", "FlexGen", "FlexGen-int8", "LLM-PQ")


def compare_schemes(
    model_name: str,
    cluster: Cluster,
    workload: Workload,
    *,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    theta: float = 1.0,
    group_size: int = 1,
    use_heuristic: bool = False,
    latency_model: LatencyModel | None = None,
) -> list[ServingReport]:
    """Evaluate every requested scheme — the Table-4/5/7 row generator."""
    reports: list[ServingReport] = []
    for scheme in schemes:
        if scheme == "PipeEdge":
            out = pipeedge_plan(model_name, cluster, workload, latency_model=latency_model)
            reports.append(
                evaluate_plan(out.plan, cluster, scheme=out.name)
                if out.plan
                else _report_infeasible(out.name, model_name)
            )
        elif scheme == "Uniform":
            out = uniform_plan(model_name, cluster, workload, latency_model=latency_model)
            reports.append(
                evaluate_plan(out.plan, cluster, scheme=out.name)
                if out.plan
                else _report_infeasible(out.name, model_name)
            )
        elif scheme == "FlexGen":
            reports.append(
                _report_offload(flexgen_run(model_name, cluster, workload, bits=16), model_name)
            )
        elif scheme == "FlexGen-int8":
            reports.append(
                _report_offload(flexgen_run(model_name, cluster, workload, bits=8), model_name)
            )
        elif scheme == "LLM-PQ":
            res = plan_llmpq(
                model_name, cluster, workload, theta=theta, group_size=group_size,
                use_heuristic=use_heuristic, latency_model=latency_model,
            )
            reports.append(
                evaluate_plan(res.plan, cluster, scheme="LLM-PQ", solve_seconds=res.total_seconds)
                if res.plan
                else _report_infeasible("LLM-PQ", model_name)
            )
        elif scheme == "adabits":
            optimizer = LLMPQOptimizer(
                model_name, cluster, workload,
                config=PlannerConfig(theta=theta, group_size=group_size),
                latency_model=latency_model,
            )
            plan = adabits_plan(optimizer)
            reports.append(
                evaluate_plan(plan, cluster, scheme="adabits")
                if plan
                else _report_infeasible("adabits", model_name)
            )
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
    return reports
