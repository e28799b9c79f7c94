"""Online-serving extension (paper Sec. 7, "Apply to ORCA or vLLM").

LLM-PQ targets the offline task, but the paper's discussion points out
the trade-off an online deployment would face: *"there is always a
trade-off between the speed of quantized operators and the amount of
available memory"* — lower-precision weights free KV-cache memory, which
raises the admissible concurrent batch, which raises throughput under
load.  This module makes that discussion executable with two scheduling
policies over the same arrival trace:

* ``policy="wave"`` — the offline baseline applied online: each wave
  admits queued requests while the wave (padded to its longest member's
  prompt and generation) still fits every stage's memory, serves it with
  the offline pipeline simulator, and only then admits again;
* ``policy="continuous"`` — iteration-level (ORCA-style) scheduling:
  requests are admitted at token boundaries whenever their per-stage KV
  reservation fits the live headroom, newly admitted requests prefill
  while the in-flight group decodes, and a finished request's memory is
  refunded at the very next boundary.  ``engine="des"`` prices each
  iteration with the event-driven task graph instead of the closed form.

Every time and memory figure comes from one
:class:`~repro.cost.stagecosts.StageCostModel` — the same view the
offline simulators, the planner, and the real scheduler use — so the
admission decisions here agree with the runtime's by construction, and
per-iteration pricing hits the cost model's shared tables instead of
re-deriving kernel times from scratch.  Simulator modules are imported
lazily, so trace-only users of this module never pay the sim import.

Admissibility is evaluated *per wave / per iteration* against the
planner's Sec.-4.1 memory model — not against a single trace-wide
maximum — so short waves admit more than the worst-case bound would
allow.  Per-request latency = completion − arrival; throughput =
generated tokens / makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import stats
from ..cost.stagecosts import StageCostModel
from ..workload.spec import Workload

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
    iterations: int = 0        #: token boundaries run (continuous policy)
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


def _quantile(values: np.ndarray, q: float) -> float:
    """NaN-safe percentile: empty samples read as unbounded latency
    instead of tripping numpy's empty-slice warning and returning NaN.

    Thin wrapper over :func:`repro.stats.quantile` keeping the simulator's
    inf-on-empty convention in one obvious place.
    """
    return stats.quantile(values, q, empty=float("inf"))


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


def _simulate_wave(
    plan: "ExecutionPlan",
    cluster: "Cluster",
    reqs: "list[OnlineRequest]",
    *,
    max_batch: int | None,
    engine: str,
    scm: StageCostModel,
    sample_sink: "dict | None" = None,
) -> OnlineResult:
    from .pipeline import simulate_pipeline
    from .pipeline_des import simulate_pipeline_des

    now = 0.0
    i = 0
    latencies: list[float] = []
    ttfts: list[float] = []
    total_tokens = 0
    wave_batches: list[int] = []
    rejected = 0
    while i < len(reqs):
        if reqs[i].arrival > now:
            now = reqs[i].arrival  # idle until next arrival
        wave: list[OnlineRequest] = []
        j = i
        while j < len(reqs) and (not wave or reqs[j].arrival <= now):
            if max_batch is not None:
                if len(wave) >= max_batch:
                    break
            else:
                trial = wave + [reqs[j]]
                fits = scm.batch_fits(
                    len(trial),
                    max(r.prompt_len for r in trial),
                    max(r.gen_len for r in trial),
                )
                if not fits:
                    # per-wave admissibility (not a trace-wide bound): grow
                    # while this wave, at its own maxima, still fits
                    if not wave:
                        rejected += 1  # unfit even alone — skip gracefully
                        j += 1
                        i = j
                        continue
                    break
            wave.append(reqs[j])
            j += 1
        i = j
        if not wave:
            continue
        s = max(r.prompt_len for r in wave)
        n = max(r.gen_len for r in wave)
        w = Workload(prompt_len=s, gen_len=n, global_batch=len(wave))
        wave_plan = replace(
            plan,
            workload=w,
            prefill_microbatch=min(plan.prefill_microbatch, len(wave)),
            decode_microbatch=min(plan.decode_microbatch, len(wave)),
        )
        wave_scm = scm.derive(wave_plan)
        res = simulate_pipeline(wave_plan, cluster, cost_model=wave_scm)
        if not res.feasible:
            raise RuntimeError("wave infeasible despite admissible batch bound")
        total = (
            simulate_pipeline_des(
                wave_plan, cluster, cost_model=wave_scm
            ).total_latency
            if engine == "des"
            else res.total_latency
        )
        ttfts.extend(now + res.prefill_latency - r.arrival for r in wave)
        now += total
        latencies.extend(now - r.arrival for r in wave)
        # useful tokens only: the padding to n_max is wasted compute,
        # not serving throughput
        total_tokens += sum(r.gen_len for r in wave)
        wave_batches.append(len(wave))

    if not latencies:
        return _infeasible("wave", rejected, sample_sink)
    lat = np.array(latencies)
    tt = np.array(ttfts)
    if sample_sink is not None:
        sample_sink["latencies"] = lat
        sample_sink["ttfts"] = tt
    return OnlineResult(
        completed=len(latencies),
        makespan=now,
        mean_latency=float(lat.mean()),
        p95_latency=_quantile(lat, 0.95),
        throughput=total_tokens / now,
        waves=len(wave_batches),
        mean_wave_batch=float(np.mean(wave_batches)),
        policy="wave",
        p50_latency=_quantile(lat, 0.50),
        p99_latency=_quantile(lat, 0.99),
        mean_ttft=float(tt.mean()),
        p95_ttft=_quantile(tt, 0.95),
        rejected=rejected,
        mean_inflight=float(np.mean(wave_batches)),
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

    ``policy="wave"`` batches queued requests into padded waves (the
    offline discipline applied online); ``policy="continuous"`` admits
    and retires requests at token boundaries, replayed by the event-batch
    engine of :mod:`repro.sim.trace_engine`.  ``max_batch`` is an
    optional hard concurrency cap on top of the memory model; a cap
    ``<= 0`` admits nothing, so every request is rejected.
    ``engine="des"`` prices each wave / iteration with the event-driven
    simulator instead of the closed form.  ``source="model"`` (with a
    fitted ``latency_model``) prices with the planner's cost model
    instead of the ground-truth kernels; ``cost_model`` shares an
    existing :class:`StageCostModel`'s tables and, being the run's
    pricing authority, overrides both — a re-cutting migration's cost
    model inherits *its* time source.  Accepts any records with
    ``arrival`` / ``prompt_len`` / ``gen_len`` attributes, including
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
    if policy == "continuous":
        from .trace_engine import simulate_continuous_vectorized, trace_columns

        return simulate_continuous_vectorized(
            trace_columns(trace), max_batch=max_batch, engine=engine,
            scm=cost_model, drift=drift, replanner=replanner,
            sample_sink=sample_sink,
        )
    from ..workload.traces import ArrivalTrace

    # the array view validates the records (one site for both policies)
    reqs = list(ArrivalTrace.from_requests(trace).sorted())
    return _simulate_wave(
        plan, cluster, reqs, max_batch=max_batch, engine=engine,
        scm=cost_model, sample_sink=sample_sink,
    )
