"""The cross-check panel: one small scenario per family.

The benchmark contract wants every metric on every workload, but a
planner workload serves no tokens and a serving workload plans nothing.
So every run also executes this panel — small instances of the same
workload classes — and a metric that the workload's own scenario does
not define takes its value from here (``harness.FOCUS`` for the
end-to-end metrics; for the per-layer metrics, every layer family the
workload itself does not exercise).  The panel is the same code at the
same size in every run, which makes those values a cross-check: if a
change slows the runtime, the panel's ``decode_tok_s`` moves on all
seven workloads at once.

Members: the exact planner search on opt-13b over T4+V100 (traced runs
add the heuristic on the same case); a 16-request mixed serve on a
second tiny-8l runtime; a two-rung SLO ladder of 120 short requests on
the cluster-3 plan; and, traced runs only, a 500-request fleet.  Panel
inputs are low-variance by design: request lengths are the same for
every seed, and ``--seed`` draws the served prompts' token ids and a 1%
jitter on the ladder's regular arrivals.
"""

from __future__ import annotations

import time

from .harness import SpeedGauge
from .spans import Recorder
from .wl_fleet import FleetDiurnal
from .wl_plan import PlanHetero
from .wl_serve import Serve
from .wl_sim import PanelSLO

#: size factor of the planner and fleet members (their small variants)
SMALL = 0.05


class Panel:
    """Set up once, then :meth:`round` runs between the workload's own
    timed passes, so the panel's samples span the same stretch of host
    time as the workload's and its steady estimates are as good."""

    def __init__(self, seed: int, gauge: SpeedGauge, *, traced: bool = False) -> None:
        self.gauge = gauge
        members = [
            PlanHetero(seed, SMALL, heuristic=traced),
            Serve("panel", seed, 1.0),
            PanelSLO(seed),
        ]
        if traced:
            members.append(FleetDiurnal(seed, SMALL))
        # traced: each member records into its own span log
        self.members = [
            (m, [], Recorder(f"panel:{m.name}") if traced else None)
            for m in members
        ]
        self.seconds = 0.0
        self.rounds = 0
        for m in members:
            m.setup()  # includes each member's warm-up

    def close(self) -> None:
        for m, _, _ in self.members:
            m.teardown()

    def round(self) -> None:
        """One pass of every member (under its spans in a traced run)."""
        t0 = time.perf_counter()
        self.gauge.sample()
        for m, passes, rec in self.members:
            if rec is not None:
                m.instrument(rec)
            try:
                passes.append(m.run_pass())
            finally:
                if rec is not None:
                    rec.restore()
                    m.rec = None
        self.seconds += time.perf_counter() - t0
        self.rounds += 1

    def metrics(self) -> dict[str, float]:
        """Every non-universal end-to-end metric, from the panel."""
        out: dict[str, float] = {}
        for m, passes, _ in self.members:
            out.update(m.finish(passes))
        return out

    def layers(self, skip_family: str) -> dict[str, float]:
        """Per-layer metrics of every member outside ``skip_family``."""
        out: dict[str, float] = {}
        for m, passes, rec in self.members:
            if m.FAMILY != skip_family:
                out.update(m.layers(rec, passes))
        return out
