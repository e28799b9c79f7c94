"""Core planner: plans, ILP, Algorithm 1/2, baselines, public API."""

from .plan import ExecutionPlan, StagePlan
from .ilp import BitAssignmentILP, ILPSolution
from .optimizer import CandidateRecord, LLMPQOptimizer, PlannerConfig, PlannerResult
from .search import PlannerStats, SearchEngine
from .heuristic import adabits_plan, bitwidth_transfer, heuristic_optimize
from .baselines import BaselineOutcome, flexgen_run, pipeedge_plan, uniform_plan
from .api import (
    ServingReport,
    compare_schemes,
    evaluate_plan,
    plan_llmpq,
    replan_after_failure,
)
from .validate import ValidationIssue, ValidationReport, validate_plan
from .tensor_parallel import (
    TPPlanResult,
    enumerate_tp_clusters,
    fuse_tp_group,
    plan_with_tensor_parallel,
    tp_efficiency,
)

__all__ = [
    "ExecutionPlan",
    "StagePlan",
    "BitAssignmentILP",
    "ILPSolution",
    "LLMPQOptimizer",
    "PlannerConfig",
    "PlannerResult",
    "CandidateRecord",
    "PlannerStats",
    "SearchEngine",
    "adabits_plan",
    "bitwidth_transfer",
    "heuristic_optimize",
    "BaselineOutcome",
    "pipeedge_plan",
    "uniform_plan",
    "flexgen_run",
    "ServingReport",
    "compare_schemes",
    "evaluate_plan",
    "plan_llmpq",
    "replan_after_failure",
    "ValidationIssue",
    "ValidationReport",
    "validate_plan",
    "TPPlanResult",
    "tp_efficiency",
    "fuse_tp_group",
    "enumerate_tp_clusters",
    "plan_with_tensor_parallel",
]
