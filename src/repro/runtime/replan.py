"""Live replanning: drift detection and the replanners.

LLM-PQ's plan is chosen offline for one workload, but production traffic
drifts — arrival rate, prompt-length mix, and the healthy device set all
change — and a stale plan silently burns the latency/quality headroom the
ILP fought for.  This module decides *when* to switch and *to what*:

* :class:`DriftDetector` watches windowed serving signals — arrival rate,
  prompt/generation length distribution, KV occupancy, device-loss
  events — against a self-calibrated baseline and raises a
  :class:`DriftEstimate` once the relative deviation clears a hysteresis
  threshold (with a cooldown so one regime change triggers one re-solve).
* A *replanner* maps ``(current plan, estimate) -> new plan | None``.
  :func:`workload_refit_replanner` is the cheap rung (re-size the plan's
  declared workload, keeping partition and bitwidths — a metadata-only
  switch); :func:`make_search_replanner` is the full rung (re-solve
  through :func:`repro.core.api.plan_llmpq` on the observed workload).

The switch itself belongs to the scheduler:
:meth:`~repro.runtime.scheduler.ContinuousScheduler.migrate` is the one
live-reconfiguration path for drift, manual and crash-recovery switches
alike.  The simulators' drift path consults the same detector and
replanners.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..workload.spec import Workload

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.plan import ExecutionPlan
    from ..hardware.cluster import Cluster

__all__ = [
    "DriftConfig",
    "DriftEstimate",
    "DriftDetector",
    "workload_refit_replanner",
    "make_search_replanner",
]

#: A replanner maps ``(current plan, drift estimate)`` to a new plan, or
#: ``None`` to keep serving the current one.
Replanner = Callable[["ExecutionPlan", "DriftEstimate"], "Optional[ExecutionPlan]"]


@dataclass(frozen=True)
class DriftConfig:
    """Detection thresholds and windows (virtual-clock seconds)."""

    window: float = 10.0        #: tumbling observation window
    threshold: float = 0.5      #: relative deviation that counts as drift
    hysteresis: int = 2         #: consecutive drifted windows before firing
    cooldown: float = 30.0      #: min seconds between triggers
    min_requests: int = 5       #: arrivals needed to trust length statistics
    #: simulator-side pause charged per shard-rebuilding migration (the
    #: real runtime measures its own quiesce; the analytic mirror cannot)
    rebuild_seconds: float = 0.5

    def __post_init__(self) -> None:
        # comparisons written so that NaN fails them; ``threshold=inf``
        # stays legal (a detector that never fires on lengths)
        if not 0 < self.window < float("inf"):
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        if not self.cooldown >= 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.min_requests < 1:
            raise ValueError("min_requests must be >= 1")
        if not 0 <= self.rebuild_seconds < float("inf"):
            raise ValueError(
                f"rebuild_seconds must be >= 0 and finite, got {self.rebuild_seconds}"
            )


@dataclass(frozen=True)
class DriftEstimate:
    """What the detector believes the workload looks like *now*."""

    at: float               #: virtual time of the trigger
    arrival_rate: float     #: requests/s over the recent windows
    mean_prompt: float
    p90_prompt: int
    mean_gen: float
    p90_gen: int
    occupancy: float        #: max per-stage KV usage fraction (0..1+)
    score: float            #: deviation score that fired the trigger
    reason: str             #: e.g. ``"drift:rate"`` or ``"device-loss:stage1"``

    def suggested_workload(self, base: Workload) -> Workload:
        """Re-size ``base`` to the observed p90 lengths (batch unchanged)."""
        return Workload(
            prompt_len=max(4, self.p90_prompt),
            gen_len=max(1, self.p90_gen),
            global_batch=base.global_batch,
        )


def _merged(chunks: list, dtypes: tuple) -> tuple[np.ndarray, ...]:
    """The column chunks as one chunk of aligned arrays (kept in place of
    the chunks, so later merges concatenate only what came since)."""
    if not chunks:
        return tuple(np.empty(0, dtype=d) for d in dtypes)
    if len(chunks) > 1:
        chunks[:] = [tuple(np.concatenate(cols) for cols in zip(*chunks))]
    return chunks[0]


class DriftDetector:
    """Windowed drift detection over serving signals.

    Feed it observations tagged with the caller's (virtual) clock, each
    signal in one array form — :meth:`observe_arrivals` for request
    arrivals, :meth:`observe_occupancies` for token boundaries,
    :meth:`observe_device_loss` from the fault path — and call
    :meth:`poll` at boundaries.  The first closed window with enough
    requests becomes the baseline; each later window scores the maximum
    relative deviation of arrival rate, mean prompt length, and mean
    generation length (plus the absolute occupancy shift), and the
    detector fires once ``hysteresis`` consecutive windows clear
    ``threshold`` and the cooldown has elapsed.  A device loss fires
    immediately.  Call :meth:`rebaseline` after acting on a trigger so
    the detector re-learns the post-migration regime.
    """

    def __init__(self, config: DriftConfig | None = None) -> None:
        self.config = config or DriftConfig()
        # pending observations as column chunks in observation order;
        # window maths runs as array reductions over them
        self._arr_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._occ_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._win_start = 0.0
        self._baseline: tuple[float, float, float, float] | None = None
        self._streak = 0
        self._last_trigger = -float("inf")
        self._loss_stage: int | None = None
        #: last ``hysteresis + 1`` closed windows' arrivals (for estimates)
        self._recent: deque = deque(maxlen=self.config.hysteresis + 1)
        self._last_occ = 0.0
        self.windows_closed = 0
        self.triggers = 0
        self.device_losses = 0

    # -- observations ---------------------------------------------------
    def observe_arrivals(self, times, prompt_lens, gen_lens) -> None:
        """Record request arrivals: aligned arrays of virtual times and
        prompt and generation lengths."""
        self._arr_chunks.append((
            np.asarray(times, dtype=np.float64),
            np.asarray(prompt_lens, dtype=np.int64),
            np.asarray(gen_lens, dtype=np.int64),
        ))

    def observe_occupancies(self, times, fractions) -> None:
        """Record the max per-stage KV usage fraction at token boundaries
        (aligned arrays of virtual times and fractions)."""
        ts = np.asarray(times, dtype=np.float64)
        vs = np.asarray(fractions, dtype=np.float64)
        if vs.size:
            self._occ_chunks.append((ts, vs))
            self._last_occ = float(vs[-1])

    def _arrival_columns(self) -> tuple[np.ndarray, ...]:
        """Pending arrivals as aligned arrays (observation order)."""
        return _merged(self._arr_chunks, (np.float64, np.int64, np.int64))

    def _occupancy_columns(self) -> tuple[np.ndarray, ...]:
        """Pending occupancy samples as aligned arrays."""
        return _merged(self._occ_chunks, (np.float64, np.float64))

    def observe_device_loss(self, t: float, stage_idx: int) -> None:
        """Record a permanent device loss (fires on the next poll)."""
        self._loss_stage = stage_idx
        self.device_losses += 1

    # -- control --------------------------------------------------------
    def next_window_end(self) -> float:
        """When the currently open window closes — the only instant a
        (non-device-loss) trigger can fire, which is what lets the
        vectorized engine skip polling between window boundaries."""
        return self._win_start + self.config.window

    def rebaseline(self, now: float | None = None) -> None:
        """Forget the baseline (post-migration) and restart the cooldown."""
        self._baseline = None
        self._streak = 0
        self._recent.clear()
        if now is not None:
            self._win_start = now
            self._last_trigger = now
        self._arr_chunks.clear()
        self._occ_chunks.clear()

    def estimate(self, now: float, *, reason: str = "estimate") -> DriftEstimate:
        """Current workload estimate from the recent windows, no trigger.

        The fleet autoscaler uses this to size the plan for a replica it
        is about to scale up: same recent-window statistics a drift
        trigger would report, available on demand.
        """
        return self._estimate(now, score=0.0, reason=reason)

    def poll(self, now: float) -> DriftEstimate | None:
        """Close any windows ending before ``now``; return a trigger or None."""
        cfg = self.config
        if self._loss_stage is not None:
            stage = self._loss_stage
            self._loss_stage = None
            self.triggers += 1
            self._last_trigger = now
            return self._estimate(
                now, score=float("inf"), reason=f"device-loss:stage{stage}"
            )
        fired: DriftEstimate | None = None
        while now >= self._win_start + cfg.window:
            end = self._win_start + cfg.window
            pt, ps, pg = self._arrival_columns()
            keep = pt >= end
            in_s, in_g = ps[~keep], pg[~keep]
            self._arr_chunks = [(pt[keep], ps[keep], pg[keep])]
            ot, ov = self._occupancy_columns()
            okeep = ot >= end
            occ_in = ov[~okeep]
            self._occ_chunks = [(ot[okeep], ov[okeep])]
            est = self._close_window(end, in_s, in_g, occ_in)
            if est is not None and fired is None:
                fired = est
            self._win_start = end
        return fired

    # -- internals ------------------------------------------------------
    def _close_window(
        self,
        end: float,
        prompts: np.ndarray,
        gens: np.ndarray,
        occ: np.ndarray,
    ) -> DriftEstimate | None:
        cfg = self.config
        self.windows_closed += 1
        self._recent.append((prompts, gens))
        rate = prompts.size / cfg.window
        occ_mean = float(np.mean(occ)) if occ.size else self._last_occ
        if self._baseline is None:
            if prompts.size >= cfg.min_requests:
                mp = float(np.mean(prompts))
                mg = float(np.mean(gens))
                self._baseline = (rate, mp, mg, occ_mean)
            return None
        base_rate, base_mp, base_mg, base_occ = self._baseline
        eps = 1e-9
        devs = {"rate": abs(rate - base_rate) / max(base_rate, eps)}
        if prompts.size >= cfg.min_requests:
            mp = float(np.mean(prompts))
            mg = float(np.mean(gens))
            devs["prompt"] = abs(mp - base_mp) / max(base_mp, eps)
            devs["gen"] = abs(mg - base_mg) / max(base_mg, eps)
        if occ.size:
            devs["occupancy"] = abs(occ_mean - base_occ)
        axis = max(devs, key=devs.get)
        score = devs[axis]
        if score >= cfg.threshold:
            self._streak += 1
        else:
            self._streak = 0
        if (
            self._streak >= cfg.hysteresis
            and end - self._last_trigger >= cfg.cooldown
        ):
            self._streak = 0
            self.triggers += 1
            self._last_trigger = end
            return self._estimate(end, score=score, reason=f"drift:{axis}")
        return None

    def _estimate(self, at: float, *, score: float, reason: str) -> DriftEstimate:
        _, pend_s, pend_g = self._arrival_columns()
        s_parts = [s for s, _ in self._recent] + [pend_s]
        g_parts = [g for _, g in self._recent] + [pend_g]
        prompts = np.concatenate(s_parts)
        gens = np.concatenate(g_parts)
        cfg = self.config
        spanned = max(len(self._recent), 1) * cfg.window
        rate = prompts.size / spanned if prompts.size else 0.0
        if prompts.size:
            mp, p90p = float(prompts.mean()), int(np.quantile(prompts, 0.9))
            mg, p90g = float(gens.mean()), int(np.quantile(gens, 0.9))
        elif self._baseline is not None:
            mp = p90p = self._baseline[1]
            mg = p90g = self._baseline[2]
            mp, mg = float(mp), float(mg)
            p90p, p90g = int(p90p), int(p90g)
        else:
            mp, p90p, mg, p90g = 0.0, 0, 0.0, 0
        return DriftEstimate(
            at=at, arrival_rate=rate,
            mean_prompt=mp, p90_prompt=p90p,
            mean_gen=mg, p90_gen=p90g,
            occupancy=self._last_occ, score=score, reason=reason,
        )


# ---------------------------------------------------------------------------
# Replanners
# ---------------------------------------------------------------------------


def workload_refit_replanner(
    plan: "ExecutionPlan", estimate: DriftEstimate
) -> "Optional[ExecutionPlan]":
    """Cheap rung: re-size the plan's declared workload to the estimate.

    Partition and per-layer bitwidths are untouched, so the runtime
    switch is metadata-only (no worker rebuild, no KV replay) — it
    re-prices the admission headroom and token budget under the
    observed prompt/generation lengths.  Returns ``None`` when the
    suggested workload already matches.
    """
    wl = estimate.suggested_workload(plan.workload)
    if wl == plan.workload:
        return None
    return replace(plan, workload=wl, meta={**plan.meta, "drift_refit": True})


def make_search_replanner(
    cluster: "Cluster",
    *,
    theta: float = 1.0,
    use_heuristic: bool = True,
    latency_model=None,
    **plan_kwargs,
) -> Replanner:
    """Full rung: re-solve through the warm planner stack.

    The returned replanner calls :func:`repro.core.api.plan_llmpq` on the
    drift estimate's suggested workload (heuristic mode by default so a
    live re-solve stays fast) and hands back the new plan — or ``None``
    when the solve fails or reproduces the current plan.  Passing a
    fitted ``latency_model`` keeps repeated re-solves warm, mirroring the
    planner's own prediction-cache reuse.
    """

    def _replan(
        plan: "ExecutionPlan", estimate: DriftEstimate
    ) -> "Optional[ExecutionPlan]":
        from ..core.api import plan_llmpq

        wl = estimate.suggested_workload(plan.workload)
        result = plan_llmpq(
            plan.model_name, cluster, wl,
            theta=theta, use_heuristic=use_heuristic,
            latency_model=latency_model, **plan_kwargs,
        )
        if result.plan is None or result.plan == plan:
            return None
        return result.plan

    return _replan
