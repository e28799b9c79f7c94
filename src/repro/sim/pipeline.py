"""Pipeline-parallel generative-serving simulator.

This is the reproduction's stand-in for the paper's multi-GPU testbed:
given an :class:`~repro.core.plan.ExecutionPlan` it computes the
end-to-end batch latency, per-phase breakdown, per-stage memory (with OOM
detection) and token throughput.

Timing model
------------
*Prefill* runs ``m_p = ceil(b / mb_p)`` micro-batches through the stages
GPipe-style::

    T_pre = sum_j u_j + (m_p - 1) * max_j u_j

where ``u_j`` is stage ``j``'s per-micro-batch busy time (its layers at
their bitwidths + embedding work at the head, logit projection at the
tail, + the outbound activation transfer).

*Decode* generates tokens one position at a time; micro-batch ``i``'s
step ``k+1`` depends on its own step ``k`` (through sampling), while
different micro-batches overlap within a step.  Per-token cycle (the
paper's "all pipeline stages plus (mu - 1) x slowest stage" form)::

    T_k = sum_j u_jk + (m_d - 1) * max_j u_jk

Stage times grow with the context (KV reads), so every one of the
``n - 1`` decode passes is costed at its true context length (vectorized
over ``k``).

Every per-stage term (``u_j``, ``u_jk``, the stage's modelled memory) is
one :class:`~repro.cost.stagecosts.StageRow` per stage, from
``StageCostModel.stage_rows()``; :func:`compose_pipeline` turns rows
into the closed forms above, for this simulator and the planner's
scorer alike.

Setting ``latency_model`` swaps ground-truth kernel times for cost-model
predictions — that is the planner's view of the world, and comparing the
two is exactly the paper's Fig. 7 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ..cost.memory import StageMemory
from ..cost.stagecosts import StageCostModel, StageRow

if TYPE_CHECKING:  # type-only: keeps repro.sim importable without repro.core
    from ..core.plan import ExecutionPlan
    from ..cost.latency import LatencyModel
    from ..hardware.cluster import Cluster
    from ..workload.spec import Workload

__all__ = [
    "StageReport", "PipelineResult", "PipelineTotals", "compose_pipeline",
    "decode_contexts", "simulate_pipeline",
]


@dataclass(frozen=True)
class StageReport:
    """Per-stage accounting from one simulation."""

    gpu_type: str
    num_layers: int
    prefill_time: float  #: per-micro-batch busy time, seconds
    decode_time_first: float  #: at context = s
    decode_time_last: float  #: at context = s + n - 1
    memory: StageMemory
    capacity_bytes: float

    @property
    def fits(self) -> bool:
        """Whether this stage's peak memory fits its device."""
        return self.memory.fits(self.capacity_bytes)


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of simulating one plan on one cluster."""

    plan: ExecutionPlan
    prefill_latency: float
    decode_latency: float
    stage_reports: tuple[StageReport, ...]
    oom_stages: tuple[int, ...]

    @property
    def feasible(self) -> bool:
        """No stage ran out of memory."""
        return not self.oom_stages

    @property
    def total_latency(self) -> float:
        """Prefill + decode batch latency (inf when infeasible)."""
        if not self.feasible:
            return float("inf")
        return self.prefill_latency + self.decode_latency

    @property
    def throughput(self) -> float:
        """Generated tokens per second for the whole batch."""
        t = self.total_latency
        if not np.isfinite(t) or t <= 0:
            return 0.0
        return self.plan.workload.total_generated_tokens / t

    @property
    def bottleneck_stage(self) -> int:
        """Index of the slowest prefill stage."""
        times = [r.prefill_time for r in self.stage_reports]
        return int(np.argmax(times))

    def summary(self) -> str:
        """One-line human-readable result."""
        w = self.plan.workload
        if not self.feasible:
            return f"INFEASIBLE (OOM on stages {list(self.oom_stages)})"
        return (
            f"latency {self.total_latency:.2f}s "
            f"(prefill {self.prefill_latency:.2f} + decode {self.decode_latency:.2f}) | "
            f"throughput {self.throughput:.2f} tok/s | "
            f"b={w.global_batch} s={w.prompt_len} n={w.gen_len}"
        )


class PipelineTotals(NamedTuple):
    """A pipeline composed from its per-stage terms (:func:`compose_pipeline`)."""

    prefill_latency: float
    decode_latency: float
    prefill_busy: np.ndarray  #: per-stage prefill busy time
    decode_first: np.ndarray  #: per-stage decode time at context s + 1
    decode_last: np.ndarray  #: ... and at s + n - 1 (zeros without decode)
    oom_stages: tuple[int, ...]

    @property
    def total_latency(self) -> float:
        """Prefill + decode batch latency (inf when a stage is out of memory)."""
        if self.oom_stages:
            return float("inf")
        return self.prefill_latency + self.decode_latency


def decode_contexts(workload: Workload) -> np.ndarray | None:
    """Context length of each decode pass, ``s+1 .. s+n-1`` (``None``
    without decode passes)."""
    if workload.decode_passes <= 0:
        return None
    return workload.prompt_len + np.arange(
        1, workload.decode_passes + 1, dtype=np.float64
    )


def compose_pipeline(
    rows: Sequence[StageRow],
    capacities: Sequence[float],
    *,
    global_batch: int,
    prefill_microbatch: int,
    decode_microbatch: int,
) -> PipelineTotals:
    """The pipeline's batch latency from its stage rows (the module
    docstring's closed forms) and each stage's device capacity.
    :func:`simulate_pipeline` and the planner's scorer both compose
    through this one function, so the two agree bit for bit."""
    prefill_busy = np.array([r.prefill for r in rows])
    m_p = -(-global_batch // prefill_microbatch)  # ceil div
    prefill_latency = float(prefill_busy.sum() + (m_p - 1) * prefill_busy.max())
    decode_latency = 0.0
    dec_first = dec_last = np.zeros(prefill_busy.size)
    if rows[0].decode is not None:
        decode_busy = np.stack([r.decode for r in rows])
        m_d = -(-global_batch // decode_microbatch)
        cycle = decode_busy.sum(axis=0) + (m_d - 1) * decode_busy.max(axis=0)
        decode_latency = float(cycle.sum())
        dec_first = decode_busy[:, 0]
        dec_last = decode_busy[:, -1]
    return PipelineTotals(
        prefill_latency, decode_latency, prefill_busy, dec_first, dec_last,
        tuple(
            j for j, (r, cap) in enumerate(zip(rows, capacities))
            if not r.memory.fits(cap)
        ),
    )


def simulate_pipeline(
    plan: ExecutionPlan,
    cluster: Cluster,
    *,
    latency_model: LatencyModel | None = None,
    cost_model: StageCostModel | None = None,
) -> PipelineResult:
    """Simulate ``plan`` end to end on ``cluster``.

    Every per-stage time and memory view is a row of one
    :class:`StageCostModel`; pass ``cost_model`` to share its memos with
    other consumers (it must have been built for this plan and cluster),
    or ``latency_model`` to price with the planner's fitted cost model
    instead of the ground-truth kernels.
    """
    if cost_model is None:
        cost_model = StageCostModel(plan, cluster, latency_model=latency_model)
    rows = cost_model.stage_rows()
    caps = [stage.device.spec.memory_bytes for stage in plan.stages]
    totals = compose_pipeline(
        rows, caps,
        global_batch=plan.workload.global_batch,
        prefill_microbatch=plan.prefill_microbatch,
        decode_microbatch=plan.decode_microbatch,
    )
    reports = tuple(
        StageReport(
            gpu_type=stage.device.type_name,
            num_layers=stage.num_layers,
            prefill_time=float(totals.prefill_busy[j]),
            decode_time_first=float(totals.decode_first[j]),
            decode_time_last=float(totals.decode_last[j]),
            memory=rows[j].memory,
            capacity_bytes=caps[j],
        )
        for j, stage in enumerate(plan.stages)
    )
    return PipelineResult(
        plan=plan,
        prefill_latency=totals.prefill_latency,
        decode_latency=totals.decode_latency,
        stage_reports=reports,
        oom_stages=totals.oom_stages,
    )
