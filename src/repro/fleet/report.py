"""Fleet-level aggregation: SLO attainment vs. provisioned cost.

Pools the exact per-request latency/TTFT/TPOT samples from every
replica (no percentile-of-percentiles approximations) and prices the
fleet in GPU-seconds from the autoscaler's activation spans, so the
headline trade-off — p99 TTFT/TPOT SLO attainment against provisioned
cost — is computed from first-class data.

SLO attainment is honest: a request that was rejected (or never served
because its pool was empty) counts as a violation, not a free pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .. import stats

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .autoscaler import ScaleEvent
    from .replica import ReplicaResult

__all__ = ["FleetReport"]


def _pool(parts: "list[np.ndarray]") -> np.ndarray:
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one fleet trace replay."""

    router: str
    autoscaled: bool
    n_requests: int
    completed: int
    rejected: int               #: router rejections + replica rejections
    makespan: float             #: first arrival epoch -> last completion
    generated_tokens: int
    gpu_seconds: float          #: sum over replicas of provisioned time x devices
    replica_results: tuple["ReplicaResult", ...]
    scale_events: tuple["ScaleEvent", ...] = ()
    slo_ttft: float | None = None   #: TTFT SLO threshold (seconds)
    slo_tpot: float | None = None   #: per-output-token SLO threshold (seconds)
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    ttfts: np.ndarray = field(default_factory=lambda: np.empty(0))
    tpots: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def build(
        cls,
        results: "list[ReplicaResult]",
        *,
        router: str,
        autoscaled: bool,
        n_requests: int,
        router_rejected: int,
        scale_events: tuple = (),
        gpu_seconds: float = 0.0,
        slo_ttft: float | None = None,
        slo_tpot: float | None = None,
    ) -> "FleetReport":
        lat = _pool([r.latencies for r in results])
        tt = _pool([r.ttfts for r in results])
        tp = _pool([r.tpots for r in results])
        completed = sum(r.completed for r in results)
        rejected = router_rejected + sum(r.rejected for r in results)
        makespan = max((r.makespan for r in results), default=0.0)
        return cls(
            router=router,
            autoscaled=autoscaled,
            n_requests=n_requests,
            completed=completed,
            rejected=rejected,
            makespan=makespan,
            generated_tokens=sum(r.generated_tokens for r in results),
            gpu_seconds=gpu_seconds,
            replica_results=tuple(results),
            scale_events=tuple(scale_events),
            slo_ttft=slo_ttft,
            slo_tpot=slo_tpot,
            latencies=lat,
            ttfts=tt,
            tpots=tp,
        )

    # -- pooled tail statistics ----------------------------------------
    @property
    def throughput(self) -> float:
        """Generated tokens per second of fleet makespan."""
        return self.generated_tokens / self.makespan if self.makespan else 0.0

    @property
    def latency_p50(self) -> float:
        return stats.quantile(self.latencies, 0.50)

    @property
    def latency_p95(self) -> float:
        return stats.quantile(self.latencies, 0.95)

    @property
    def latency_p99(self) -> float:
        return stats.quantile(self.latencies, 0.99)

    @property
    def ttft_mean(self) -> float:
        return stats.mean(self.ttfts, empty=float("inf"))

    @property
    def ttft_p99(self) -> float:
        return stats.quantile(self.ttfts, 0.99)

    @property
    def tpot_p99(self) -> float:
        return stats.quantile(self.tpots, 0.99)

    def _attainment(self, samples: np.ndarray, slo: float | None) -> float | None:
        """Fraction of *all* requests meeting ``slo`` (unserved = miss)."""
        if slo is None or self.n_requests == 0:
            return None
        return float((samples <= slo).sum()) / self.n_requests

    @property
    def ttft_attainment(self) -> float | None:
        return self._attainment(self.ttfts, self.slo_ttft)

    @property
    def tpot_attainment(self) -> float | None:
        return self._attainment(self.tpots, self.slo_tpot)

    @property
    def gpu_hours(self) -> float:
        return self.gpu_seconds / 3600.0

    def summary(self) -> str:
        """One-line human-readable fleet outcome."""
        n_replicas = len(self.replica_results)
        head = (
            f"[fleet x{n_replicas} router={self.router}] "
            f"{self.completed}/{self.n_requests} completed in "
            f"{self.makespan:.1f}s | {self.throughput:.1f} tok/s | "
            f"p99 latency {self.latency_p99:.2f}s, p99 ttft "
            f"{self.ttft_p99:.2f}s | {self.gpu_seconds / 3600.0:.2f} GPU-h"
        )
        if self.rejected:
            head += f" | {self.rejected} rejected"
        att = self.ttft_attainment
        if att is not None:
            head += f" | ttft SLO {att * 100.0:.1f}%"
        att = self.tpot_attainment
        if att is not None:
            head += f" | tpot SLO {att * 100.0:.1f}%"
        if self.autoscaled:
            ups = sum(1 for e in self.scale_events if e.action == "scale-up")
            downs = len(self.scale_events) - ups
            head += f" | {ups} scale-ups, {downs} scale-downs"
        return head

    def to_json(self) -> dict:
        """JSON-serializable dict (benchmark results artifacts)."""
        per_pool: dict[str, dict] = {}
        for e in self.scale_events:
            per_pool.setdefault(e.pool, {"scale_events": []})
            per_pool[e.pool]["scale_events"].append({
                "at": e.at, "action": e.action,
                "replica_id": e.replica_id,
                "active_after": e.active_after,
                "utilization": e.utilization
                if np.isfinite(e.utilization) else None,
                "reason": e.reason,
            })
        return {
            "router": self.router,
            "autoscaled": self.autoscaled,
            "n_requests": self.n_requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "makespan": self.makespan,
            "generated_tokens": self.generated_tokens,
            "throughput": self.throughput,
            "gpu_hours": self.gpu_hours,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "ttft_p99": self.ttft_p99,
            "tpot_p99": self.tpot_p99,
            "slo_ttft": self.slo_ttft,
            "slo_tpot": self.slo_tpot,
            "ttft_attainment": self.ttft_attainment,
            "tpot_attainment": self.tpot_attainment,
            "pools": per_pool,
            "replicas": [_replica_json(r) for r in self.replica_results],
        }


#: a runtime replica's reconfiguration counters, as ``ServeReport`` names them
_RECONFIG_FIELDS = (
    "crash_recoveries", "migrations", "replans",
    "replayed_tokens", "replay_divergences",
)


def _replica_json(r: "ReplicaResult") -> dict:
    """One replica's JSON record; a runtime replica adds its
    reconfiguration counters."""
    out = {
        "replica_id": r.replica_id,
        "pool": r.pool,
        "routed": r.routed,
        "completed": r.completed,
        "rejected": r.rejected,
        "generated_tokens": r.generated_tokens,
        "makespan": r.makespan,
        "gpu_seconds": r.gpu_seconds,
    }
    if r.report is not None:
        out.update((f, getattr(r.report, f)) for f in _RECONFIG_FIELDS)
    return out
