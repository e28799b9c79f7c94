"""Online-serving extension (paper Sec. 7, "Apply to ORCA or vLLM").

LLM-PQ targets the offline task, but the paper's discussion points out
the trade-off an online deployment would face: *"there is always a
trade-off between the speed of quantized operators and the amount of
available memory"* — lower-precision weights free KV-cache memory, which
raises the admissible concurrent batch, which raises throughput under
load.  This module makes that discussion executable with two scheduling
policies over the same arrival trace, both admission rules of the one
token-boundary engine in :mod:`repro.sim.trace_engine`:

* ``policy="continuous"`` — iteration-level (ORCA-style) scheduling:
  requests are admitted at token boundaries whenever their KV token
  slots fit the budget, newly admitted requests prefill while the
  in-flight group decodes, and a finished request's slots are refunded
  at the very next boundary;
* ``policy="wave"`` — the offline baseline applied online, the
  runtime's own wave rule: admission only into an empty system, every
  member padded to the wave's longest prompt and generation (``s_max +
  n_max`` slots, decoded for ``n_max`` tokens), and the whole wave
  retired together.

``engine="des"`` prices each iteration with the event-driven flow-shop
recurrence (the exact makespan of its units' task graph) instead of the
closed form.  Every time and memory figure comes from one
:class:`~repro.cost.stagecosts.StageCostModel` — the same view the
planner and the real scheduler use — so the admission decisions here
agree with the runtime's by construction.  Per-request latency =
completion of the request's own last token − arrival; throughput =
useful generated tokens / makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cost.stagecosts import StageCostModel

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.plan import ExecutionPlan
    from ..cost.latency import LatencyModel
    from ..hardware.cluster import Cluster
    from ..runtime.replan import DriftConfig, Replanner

__all__ = [
    "OnlineRequest",
    "OnlineResult",
    "max_admissible_batch",
    "simulate_online",
]


@dataclass(frozen=True)
class OnlineRequest:
    """One request of the online stream."""

    arrival: float
    prompt_len: int
    gen_len: int


@dataclass(frozen=True)
class OnlineResult:
    """Aggregate metrics of an online run."""

    completed: int
    makespan: float
    mean_latency: float
    p95_latency: float
    throughput: float  #: generated tokens per second
    waves: int
    mean_wave_batch: float
    # --- extended serving metrics (defaults keep old call sites valid) ---
    policy: str = "wave"
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    mean_ttft: float = 0.0
    p95_ttft: float = 0.0
    rejected: int = 0          #: requests that could never be admitted
    iterations: int = 0        #: token boundaries run
    mean_inflight: float = 0.0  #: avg concurrently-running requests
    # --- live-replanning counters (drift-aware continuous runs) ---------
    drift_triggers: int = 0    #: drift-detector firings
    migrations: int = 0        #: live plan switches executed
    replans: int = 0           #: migrations that adopted a new plan
    migration_seconds: float = 0.0  #: simulated pause spent migrating

    def summary(self) -> str:
        """One-line human-readable result."""
        head = (
            f"[{self.policy}] {self.completed} reqs in {self.makespan:.1f}s | "
            f"mean latency {self.mean_latency:.2f}s (p95 {self.p95_latency:.2f}) | "
            f"ttft {self.mean_ttft:.2f}s | {self.throughput:.1f} tok/s"
        )
        if self.policy == "continuous":
            tail = f" | {self.iterations} iters, avg inflight {self.mean_inflight:.1f}"
        else:
            tail = f" | {self.waves} waves, avg batch {self.mean_wave_batch:.1f}"
        if self.rejected:
            tail += f" | {self.rejected} rejected"
        if self.migrations or self.drift_triggers:
            tail += (
                f" | {self.drift_triggers} drift triggers, "
                f"{self.migrations} migrations "
                f"({self.migration_seconds:.2f}s paused)"
            )
        return head + tail


def max_admissible_batch(
    plan: "ExecutionPlan",
    *,
    prompt_len: int,
    gen_len: int,
    cap: int = 256,
) -> int:
    """Largest concurrent batch the plan's memory headroom admits.

    The Sec.-7 trade-off in one function: each stage's weights are fixed
    by the plan's bitwidths, so the remaining memory bounds the KV cache
    and hence the batch.  Lower-precision plans admit more requests.
    """
    return StageCostModel(plan).max_admissible_batch(
        prompt_len=prompt_len, gen_len=gen_len, cap=cap
    )


def _infeasible(
    policy: str, rejected: int, sample_sink: "dict | None" = None
) -> OnlineResult:
    """Graceful no-request-admissible outcome (nothing to serve); a
    ``sample_sink`` receives empty sample and index arrays."""
    if sample_sink is not None:
        sample_sink["latencies"] = sample_sink["ttfts"] = np.empty(0)
        sample_sink["lat_idx"] = sample_sink["tt_idx"] = np.empty(0, dtype=np.int64)
    return OnlineResult(
        completed=0, makespan=float("inf"), mean_latency=float("inf"),
        p95_latency=float("inf"), throughput=0.0, waves=0,
        mean_wave_batch=0.0, policy=policy,
        p50_latency=float("inf"), p99_latency=float("inf"),
        mean_ttft=float("inf"), p95_ttft=float("inf"), rejected=rejected,
    )


def simulate_online(
    plan: "ExecutionPlan",
    cluster: "Cluster",
    trace: Sequence[OnlineRequest],
    *,
    max_batch: int | None = None,
    policy: str = "wave",
    engine: str = "analytic",
    source: str = "kernels",
    latency_model: "LatencyModel | None" = None,
    cost_model: StageCostModel | None = None,
    drift: "DriftConfig | None" = None,
    replanner: "Replanner | None" = None,
    sample_sink: "dict | None" = None,
) -> OnlineResult:
    """Serve ``trace`` on ``plan``'s pipeline under a scheduling policy.

    Both policies are replayed by the event-batch engine of
    :mod:`repro.sim.trace_engine`: ``policy="continuous"`` admits and
    retires requests at token boundaries, ``policy="wave"`` admits padded
    waves into an empty system (the offline discipline applied online, by
    the runtime's rule).  ``max_batch`` is an optional hard concurrency cap
    on top of the memory model; a cap ``<= 0`` admits nothing, so every
    request is rejected.  ``engine="des"`` prices each iteration with the
    event-driven simulator instead of the closed form.  ``source="model"``
    (with a fitted ``latency_model``) prices with the planner's cost model
    instead of the ground-truth kernels; ``cost_model`` shares an existing
    :class:`StageCostModel`'s tables and, being the run's pricing authority,
    overrides both — a re-cutting migration's cost model inherits *its* time
    source.  Accepts any records with ``arrival`` / ``prompt_len`` /
    ``gen_len`` attributes, including
    :class:`~repro.workload.traces.RequestArrival`.

    ``drift`` (a :class:`~repro.runtime.replan.DriftConfig`) plus a
    ``replanner`` enable the mirrored live-replanning path (continuous
    policy only): the same :class:`~repro.runtime.replan.DriftDetector`
    the real scheduler uses watches the trace, and a trigger switches
    the plan mid-run — charging ``drift.rebuild_seconds`` plus the
    analytically priced replay of in-flight KV state when the new plan
    re-cuts shards, so big-model drift studies run without a runtime.

    ``sample_sink``, when given a dict, receives the raw per-request
    ``latencies`` / ``ttfts`` arrays (completion order) so callers — the
    fleet layer — can pool exact samples across runs.
    """
    if not len(trace):
        raise ValueError("empty trace")
    if policy not in ("wave", "continuous"):
        raise ValueError(f"unknown policy {policy!r}")
    if engine not in ("analytic", "des"):
        raise ValueError(f"unknown engine {engine!r}")
    if (drift is not None or replanner is not None) and policy != "continuous":
        raise ValueError("drift replanning requires the continuous policy")
    if max_batch is not None and max_batch <= 0:
        return _infeasible(policy, len(trace), sample_sink)
    if cost_model is None:
        cost_model = StageCostModel(
            plan, cluster, source=source, latency_model=latency_model
        )
    from .trace_engine import simulate_continuous_vectorized, trace_columns

    return simulate_continuous_vectorized(
        trace_columns(trace), max_batch=max_batch, engine=engine,
        scm=cost_model, drift=drift, replanner=replanner,
        sample_sink=sample_sink, policy=policy,
    )
