"""Replica facade: one plan, one cost model, one serving state.

A :class:`PipelineReplica` is the unit the fleet layer schedules over.
It owns exactly one :class:`~repro.cost.stagecosts.StageCostModel` (the
single pricing authority for its plan) and hides which execution backend
sits behind it:

* :class:`SimReplica` — the analytic/trace-engine simulator: a
  :func:`~repro.sim.online.simulate_online` run over the replica's
  assigned sub-trace, byte-identical to calling the simulator directly;
* :class:`RuntimeReplica` — a real tiny-model pipeline: a
  :class:`~repro.runtime.scheduler.ContinuousScheduler` over a
  :class:`~repro.runtime.engine.PipelineRuntime`, with the scheduler's
  admission ledger, headroom view, drift detector, and migration log
  all scoped to this replica.

Both expose the same *routing views* the router and autoscaler consult:
the KV token budget (the cost model's, the integer the simulator admits
against) and approximate prefill/service-time estimates.  The time
estimates are deliberately coarse (single-server queue arithmetic at a
reference batch); the replica's own admission control stays exact, so a
bad estimate costs queueing delay, never correctness.
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
    from ..models.transformer import TinyDecoderLM
    from ..runtime.faults import FaultInjector
    from ..runtime.replan import DriftConfig, Replanner
    from ..runtime.scheduler import ServeReport, ServeRequest
    from ..sim.online import OnlineResult

__all__ = [
    "POOL_GENERAL",
    "POOL_PREFILL",
    "POOL_DECODE",
    "POOLS",
    "ReplicaResult",
    "PipelineReplica",
    "SimReplica",
    "RuntimeReplica",
]

#: pool labels for prefill/decode disaggregation: a ``prefill`` pool
#: serves prompt-dominated requests, a ``decode`` pool serves
#: generation-dominated ones, ``general`` serves anything
POOL_GENERAL = "general"
POOL_PREFILL = "prefill"
POOL_DECODE = "decode"
POOLS = (POOL_GENERAL, POOL_PREFILL, POOL_DECODE)

#: reference decode batch for the routing-time service-rate estimate
_REF_BATCH = 8


@dataclass(frozen=True)
class ReplicaResult:
    """One replica's outcome over its assigned share of the trace."""

    replica_id: int
    pool: str
    routed: int                 #: requests the router assigned here
    completed: int
    rejected: int
    generated_tokens: int
    makespan: float             #: absolute trace-clock seconds
    latencies: np.ndarray       #: per-request completion latencies (s)
    ttfts: np.ndarray           #: per-request time-to-first-token (s)
    tpots: np.ndarray           #: per-request mean time-per-output-token (s)
    online: "OnlineResult | None" = None   #: simulator replicas
    report: "ServeReport | None" = None    #: runtime replicas
    gpu_seconds: float = 0.0    #: device-seconds this replica was provisioned


class PipelineReplica:
    """One independently planned pipeline behind a uniform serving facade.

    Subclasses provide :meth:`serve`; the base class owns the plan, the
    pool label, the replica-scoped cost model, and the approximate
    routing views derived from it.
    """

    def __init__(
        self,
        replica_id: int,
        plan: "ExecutionPlan",
        cost: StageCostModel,
        *,
        pool: str = POOL_GENERAL,
    ) -> None:
        if pool not in POOLS:
            raise ValueError(f"unknown pool {pool!r} (expected one of {POOLS})")
        self.replica_id = int(replica_id)
        self.plan = plan
        self.pool = pool
        #: the replica's single pricing authority — admission headroom,
        #: per-request KV charges, and iteration times all come from here
        self.cost = cost
        #: quiesce-and-drain flag: a draining replica finishes what it
        #: holds but the router routes nothing new to it
        self.draining = False
        self._tpot_ref: float | None = None
        self._prefill_ref: dict[int, float] = {}

    # -- routing views (approximate by design) --------------------------
    @property
    def num_devices(self) -> int:
        """Devices this replica occupies while provisioned."""
        return self.plan.num_stages

    @property
    def token_budget(self) -> int:
        """Concurrent KV token slots: the simulator's admission budget."""
        return self.cost.kv_token_budget()

    def prefill_seconds(self, prompt_len: int) -> float:
        """Batch-1 prefill latency for ``prompt_len`` tokens: the stage
        sum of the cost model's prefill unit, the very float the
        simulator charges a prompt that heads an iteration (kept per
        prompt length: the router asks once per candidate per request)."""
        t = self._prefill_ref.get(prompt_len)
        if t is None:
            t = float(self.cost.unit_prefill_times(int(prompt_len)).sum())
            self._prefill_ref[prompt_len] = t
        return t

    def tpot_seconds(self) -> float:
        """Estimated per-request time-per-output-token at a reference
        batch, at the plan workload's typical context."""
        if self._tpot_ref is None:
            w = self.plan.workload
            ctx = float(w.prompt_len + w.gen_len / 2.0)
            row = self.cost.unit_decode_times(_REF_BATCH, ctx)
            self._tpot_ref = float(row.sum()) / _REF_BATCH
        return self._tpot_ref

    def service_seconds(self, prompt_len: int, gen_len: int) -> float:
        """Estimated end-to-end service time of one request (no queueing)."""
        return self.prefill_seconds(prompt_len) + gen_len * self.tpot_seconds()

    # -- serving --------------------------------------------------------
    def serve(self, work) -> ReplicaResult:  # pragma: no cover - interface
        raise NotImplementedError


def _tpots_from_samples(
    sink: dict, gen_lens: np.ndarray
) -> np.ndarray:
    """Join completion-order latency/ttft samples back to requests and
    derive per-request mean time-per-output-token."""
    lat_idx = sink.get("lat_idx")
    tt_idx = sink.get("tt_idx")
    if lat_idx is None or tt_idx is None or lat_idx.size == 0:
        return np.empty(0)
    n = int(gen_lens.size)
    lat_by = np.full(n, np.nan)
    tt_by = np.full(n, np.nan)
    lat_by[lat_idx] = sink["latencies"]
    tt_by[tt_idx] = sink["ttfts"]
    done = ~np.isnan(lat_by) & ~np.isnan(tt_by)
    decode_tokens = np.maximum(gen_lens[done] - 1, 1)
    return (lat_by[done] - tt_by[done]) / decode_tokens


class SimReplica(PipelineReplica):
    """Analytic / trace-engine simulator replica.

    ``serve`` runs ``policy`` (continuous batching or the wave baseline)
    through :func:`~repro.sim.online.simulate_online` with this
    replica's own cost model — for a single replica receiving the whole
    trace this is byte-identical to calling the simulator directly,
    which is the 1-replica fleet equivalence guarantee.
    """

    def __init__(
        self,
        replica_id: int,
        plan: "ExecutionPlan",
        cluster: "Cluster",
        *,
        pool: str = POOL_GENERAL,
        policy: str = "continuous",
        max_batch: int | None = None,
        engine: str = "analytic",
        source: str = "kernels",
        latency_model: "LatencyModel | None" = None,
        drift: "DriftConfig | None" = None,
        replanner: "Replanner | None" = None,
    ) -> None:
        cost = StageCostModel(
            plan, cluster, source=source, latency_model=latency_model
        )
        super().__init__(replica_id, plan, cost, pool=pool)
        self.cluster = cluster
        self.policy = policy
        self.max_batch = max_batch
        self.engine = engine
        self.drift = drift
        self.replanner = replanner

    def serve(self, trace) -> ReplicaResult:
        from ..sim.online import simulate_online
        from ..sim.trace_engine import trace_columns

        sink: dict = {}
        res = simulate_online(
            self.plan, self.cluster, trace,
            max_batch=self.max_batch, policy=self.policy,
            engine=self.engine, cost_model=self.cost,
            drift=self.drift, replanner=self.replanner, sample_sink=sink,
        )
        _, _, sgen = trace_columns(trace)
        makespan = res.makespan if np.isfinite(res.makespan) else 0.0
        lat_idx = sink.get("lat_idx")
        tokens = (
            int(sgen[lat_idx].sum())
            if lat_idx is not None and lat_idx.size
            else 0
        )
        return ReplicaResult(
            replica_id=self.replica_id,
            pool=self.pool,
            routed=len(trace),
            completed=res.completed,
            rejected=res.rejected,
            generated_tokens=tokens,
            makespan=makespan,
            latencies=sink["latencies"],
            ttfts=sink["ttfts"],
            tpots=_tpots_from_samples(sink, sgen),
            online=res,
        )


class RuntimeReplica(PipelineReplica):
    """Real tiny-model replica: scheduler + pipeline runtime, replica-scoped.

    Each ``serve`` call brings up a fresh
    :class:`~repro.runtime.engine.PipelineRuntime` for this replica's
    plan and drives it with a
    :class:`~repro.runtime.scheduler.ContinuousScheduler`, so the
    admission ledger, the dequant-aware headroom view, the drift
    detector, and the migration log all live inside the replica —
    several replicas are safely constructible (and servable) in one
    process.  The shared reference model is read-only.
    """

    def __init__(
        self,
        replica_id: int,
        reference: "TinyDecoderLM",
        plan: "ExecutionPlan",
        *,
        pool: str = POOL_GENERAL,
        policy: str = "continuous",
        max_inflight: int | None = None,
        time_scale: float = 1.0,
        drift: "DriftConfig | None" = None,
        replanner: "Replanner | None" = None,
        fault_injector: "FaultInjector | None" = None,
        dequant_cache_mb: float | None = None,
    ) -> None:
        from ..hardware.cluster import cluster_from_devices

        # Routing views need link/kernel pricing, which the scheduler's
        # cfg-scoped model cannot provide — derive a cluster from the
        # plan's own devices, exactly like the CLI does for strategy
        # files.  Estimates only; the scheduler's admission stays exact.
        cost = StageCostModel(
            plan, cluster_from_devices(st.device for st in plan.stages)
        )
        super().__init__(replica_id, plan, cost, pool=pool)
        self.reference = reference
        self.policy = policy
        self.max_inflight = max_inflight
        self.time_scale = time_scale
        self.drift = drift
        self.replanner = replanner
        self.fault_injector = fault_injector
        self.dequant_cache_mb = dequant_cache_mb
        #: the last serve's scheduler — exposes this replica's token
        #: ledger, headroom, detector, and migration log
        self.scheduler = None
        #: the last serve's runtime counters (``PipelineRuntime.stats``)
        self.runtime_stats = None

    def serve(self, requests: "Sequence[ServeRequest]") -> ReplicaResult:
        from ..runtime.engine import PipelineRuntime
        from ..runtime.scheduler import ContinuousScheduler

        with PipelineRuntime(
            self.reference, self.plan,
            fault_injector=self.fault_injector,
            dequant_cache_mb=self.dequant_cache_mb,
        ) as rt:
            sched = ContinuousScheduler(
                rt, policy=self.policy,
                max_inflight=self.max_inflight,
                time_scale=self.time_scale,
                drift=self.drift, replanner=self.replanner,
            )
            report = sched.serve(list(requests))
            self.scheduler = sched
            self.runtime_stats = rt.stats
        completed = report.completed
        lat = np.array([r.latency for r in completed])
        tt = np.array([r.ttft for r in completed])
        decode_tokens = np.array(
            [max(r.gen_len - 1, 1) for r in completed], dtype=np.float64
        )
        tpots = (lat - tt) / decode_tokens if lat.size else np.empty(0)
        return ReplicaResult(
            replica_id=self.replica_id,
            pool=self.pool,
            routed=len(requests),
            completed=len(completed),
            rejected=len(report.rejected),
            generated_tokens=report.generated_tokens,
            makespan=report.makespan,
            latencies=lat,
            ttfts=tt,
            tpots=tpots,
            report=report,
        )
