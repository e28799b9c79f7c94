"""Coordinated per-pool autoscaling from windowed load signals.

The :class:`FleetAutoscaler` watches each replica pool (``prefill`` /
``decode`` / ``general``) through tumbling windows of the routed
traffic, exactly the way the drift detector watches a single pipeline —
each pool embeds a :class:`~repro.runtime.replan.DriftDetector` whose
windowed arrival statistics double as the workload estimate used to
plan freshly scaled-up replicas.

The scaling signal is *offered load*: the sum of routed requests'
estimated service seconds over a window, divided by the window times the
number of active replicas — an M/M/N-style utilization ``rho``.  When
``rho`` stays above ``high`` for ``hysteresis`` consecutive windows (and
the cooldown has elapsed) the pool scales up: reuse a previously drained
slot, activate an idle pre-planned slot, or — when a ``replica_factory``
is given — plan a brand-new replica on idle hardware via the planner's
search engine.  When ``rho`` stays below ``low`` the pool scales down by
quiesce-and-drain: the highest-id active replica stops receiving new
requests and finishes what it holds, the same discipline the migration
path uses to pause a single pipeline.

Everything runs on the virtual trace clock inside the fleet's single
routing pass, so decisions are deterministic and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..runtime.replan import DriftConfig, DriftDetector

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..runtime.replan import DriftEstimate
    from .replica import PipelineReplica

__all__ = ["AutoscaleConfig", "ScaleEvent", "FleetAutoscaler"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Per-pool scaling thresholds (virtual-clock seconds)."""

    window: float = 10.0       #: tumbling utilization window
    high: float = 0.85         #: rho above this counts toward scale-up
    low: float = 0.30          #: rho below this counts toward scale-down
    hysteresis: int = 2        #: consecutive windows before acting
    cooldown: float = 60.0     #: min seconds between scale actions per pool
    min_active: int = 1        #: never drain a pool below this
    provision_seconds: float = 0.0  #: delay before a scaled-up replica serves

    def __post_init__(self) -> None:
        if not 0 < self.window < float("inf"):
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if not 0 < self.low < self.high:
            raise ValueError("need 0 < low < high")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        if not self.cooldown >= 0:  # NaN fails too
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.min_active < 0:
            raise ValueError("min_active must be >= 0")
        if not self.provision_seconds >= 0:
            raise ValueError(
                f"provision_seconds must be >= 0, got {self.provision_seconds}"
            )


@dataclass(frozen=True)
class ScaleEvent:
    """One scaling action, logged for the fleet report."""

    at: float            #: virtual time of the decision
    pool: str
    action: str          #: ``"scale-up"`` or ``"scale-down"``
    replica_id: int
    active_after: int    #: pool's active replica count after the action
    utilization: float   #: the rho that drove the decision
    reason: str


class _PoolState:
    """One pool's windowed accounting and active set."""

    def __init__(
        self,
        name: str,
        replicas: "list[PipelineReplica]",
        active: "list[PipelineReplica]",
        config: AutoscaleConfig,
    ) -> None:
        self.name = name
        self.slots = list(replicas)          # id order, grows via factory
        self.active = list(active)           # id order
        act = {r.replica_id for r in active}
        self.idle = [r for r in self.slots if r.replica_id not in act]
        self.drained: "list[PipelineReplica]" = []
        self.demand = 0.0                    # service-seconds this window
        self.win_end = config.window
        self.streak_high = 0
        self.streak_low = 0
        self.last_scale = -float("inf")
        # DriftDetector reuse: its windowed arrival statistics feed the
        # workload estimate handed to the planner on factory scale-ups
        self.detector = DriftDetector(DriftConfig(
            window=config.window,
            threshold=float("inf"),  # never fires; estimates only
            hysteresis=config.hysteresis,
            cooldown=config.cooldown,
            min_requests=1,
        ))
        #: activation spans per replica id: [(start, end-or-None), ...]
        self.spans: dict[int, list[list[float]]] = {
            r.replica_id: [[0.0, None]] for r in active
        }


class FleetAutoscaler:
    """Scales each replica pool independently from its routed traffic."""

    def __init__(
        self,
        config: AutoscaleConfig | None = None,
        *,
        replica_factory: "Callable[[str, DriftEstimate], PipelineReplica | None] | None" = None,
    ) -> None:
        self.config = config or AutoscaleConfig()
        self.replica_factory = replica_factory
        self.events: list[ScaleEvent] = []
        self._pools: dict[str, _PoolState] = {}
        self._pending: list[tuple[float, _PoolState, "PipelineReplica"]] = []

    # -- wiring ---------------------------------------------------------
    def bind(
        self,
        pools: "dict[str, list[PipelineReplica]]",
        active: "dict[str, list[PipelineReplica]]",
    ) -> None:
        """Attach the fleet's pools (all slots) and their active subsets."""
        self._pools = {
            name: _PoolState(name, reps, active.get(name, reps), self.config)
            for name, reps in pools.items()
        }

    def active(self, pool: str) -> "list[PipelineReplica]":
        """Currently routable replicas of ``pool`` (id order)."""
        st = self._pools[pool]
        return [r for r in st.active if not r.draining]

    def all_replicas(self) -> "list[PipelineReplica]":
        """Every slot across pools, including factory-built ones (id order)."""
        out = [r for st in self._pools.values() for r in st.slots]
        return sorted(out, key=lambda r: r.replica_id)

    # -- signals --------------------------------------------------------
    def observe(self, pool: str, times, prompt_lens, gen_lens, service_seconds) -> None:
        """Account a run of routed requests (aligned arrays, routing
        order) against ``pool``'s open window: demand is the left fold
        of their service seconds onto the open demand (``np.cumsum`` adds
        in order; ``np.sum`` would pair them and move the float)."""
        st = self._pools[pool]
        st.demand = float(np.cumsum(np.append(st.demand, service_seconds))[-1])
        st.detector.observe_arrivals(times, prompt_lens, gen_lens)

    # -- decisions ------------------------------------------------------
    def next_event(self) -> float:
        """Earliest virtual time at which :meth:`advance` would act (a
        window close or a pending activation): before it every pool's
        active set is fixed."""
        return min(
            [st.win_end for st in self._pools.values()]
            + [avail_at for avail_at, _, _ in self._pending]
        )

    def advance(self, now: float) -> list[ScaleEvent]:
        """Close every window ending before ``now``; apply scale actions."""
        fired: list[ScaleEvent] = []
        if self._pending:
            still = []
            for avail_at, st, rep in self._pending:
                if now >= avail_at:
                    self._activate(st, rep, avail_at)
                else:
                    still.append((avail_at, st, rep))
            self._pending = still
        for st in self._pools.values():
            while now >= st.win_end:
                end = st.win_end
                fired.extend(self._close_window(st, end))
                st.win_end = end + self.config.window
        if fired:
            self.events.extend(fired)
        return fired

    def _close_window(self, st: _PoolState, end: float) -> list[ScaleEvent]:
        cfg = self.config
        n_active = len([r for r in st.active if not r.draining])
        if n_active > 0:
            rho = st.demand / (cfg.window * n_active)
        else:
            rho = float("inf") if st.demand > 0 else 0.0
        st.demand = 0.0
        st.detector.poll(end)  # close its windows; estimates stay fresh

        if rho > cfg.high:
            st.streak_high += 1
            st.streak_low = 0
        elif rho < cfg.low:
            st.streak_low += 1
            st.streak_high = 0
        else:
            st.streak_high = st.streak_low = 0

        out: list[ScaleEvent] = []
        cool = end - st.last_scale >= cfg.cooldown
        if st.streak_high >= cfg.hysteresis and cool:
            rep = self._acquire(st, end)
            if rep is not None:
                st.streak_high = 0
                st.last_scale = end
                avail = end + cfg.provision_seconds
                if cfg.provision_seconds > 0:
                    self._pending.append((avail, st, rep))
                else:
                    self._activate(st, rep, end)
                out.append(ScaleEvent(
                    at=end, pool=st.name, action="scale-up",
                    replica_id=rep.replica_id,
                    active_after=len(st.active) + len(
                        [1 for _, s, _ in self._pending if s is st]
                    ),
                    utilization=rho,
                    reason=f"rho>{cfg.high:g} x{cfg.hysteresis}",
                ))
        elif (
            st.streak_low >= cfg.hysteresis
            and cool
            and len([r for r in st.active if not r.draining]) > cfg.min_active
        ):
            rep = max(
                (r for r in st.active if not r.draining),
                key=lambda r: r.replica_id,
            )
            rep.draining = True
            st.active = [r for r in st.active if r is not rep]
            st.drained.append(rep)
            spans = st.spans.setdefault(rep.replica_id, [[end, None]])
            if spans and spans[-1][1] is None:
                spans[-1][1] = end
            st.streak_low = 0
            st.last_scale = end
            out.append(ScaleEvent(
                at=end, pool=st.name, action="scale-down",
                replica_id=rep.replica_id,
                active_after=len(st.active),
                utilization=rho,
                reason=f"rho<{cfg.low:g} x{cfg.hysteresis}",
            ))
        return out

    def _acquire(
        self, st: _PoolState, end: float
    ) -> "PipelineReplica | None":
        """Find capacity to scale up: reuse a drained slot, wake an idle
        pre-planned slot, or plan a new replica on idle hardware."""
        if st.drained:
            rep = st.drained.pop(0)
            rep.draining = False
            return rep
        if st.idle:
            return st.idle.pop(0)
        if self.replica_factory is not None:
            est = st.detector.estimate(end, reason=f"autoscale:{st.name}")
            rep = self.replica_factory(st.name, est)
            if rep is not None:
                st.slots.append(rep)
                return rep
        return None

    def _activate(
        self, st: _PoolState, rep: "PipelineReplica", at: float
    ) -> None:
        rep.draining = False
        st.active.append(rep)
        st.active.sort(key=lambda r: r.replica_id)
        st.spans.setdefault(rep.replica_id, []).append([at, None])

    # -- accounting -----------------------------------------------------
    def activation_spans(self) -> dict[int, list[list[float]]]:
        """Replica id -> [[start, end-or-None], ...] across all pools."""
        out: dict[int, list[list[float]]] = {}
        for st in self._pools.values():
            for rid, spans in st.spans.items():
                out[rid] = spans
        return out
