"""``sim_fleet_diurnal``: the only workload where routing, autoscaling
and pooled SLO reporting run.

The fleet half of ``benchmarks/test_ext_fleet.py`` on a 10k-request
diurnal trace: four 2xA100-80G replicas behind the TTFT router, one
active at the trough, autoscaled on windowed utilisation.  Open loop on
the virtual clock (generator lateness 0 by construction).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.fleet import AutoscaleConfig, FleetAutoscaler, SimReplica
from repro.fleet import fleet as fleet_mod
from repro.fleet.report import FleetReport
from repro.fleet.router import Router
from repro.hardware import make_cluster
from repro.sim import online
from repro.workload import Workload
from repro.workload.traces import sample_diurnal_arrivals

from .harness import Outcome, scaled, steady
from .wl_sim import (
    A100X4_CAPACITY_TOK_S, check_golden, instrument_sim, joint_attainment,
    sim_layers,
)

N_REPLICAS = 4
SLO_TTFT, SLO_TPOT = 5.0, 0.2


class FleetDiurnal:
    name = "sim_fleet_diurnal"
    FAMILY = "fleet"
    CONTAINERS = {"sim.online"}

    def __init__(self, seed: int, scale: float) -> None:
        self.seed, self.scale = seed, scale
        self.n_target = scaled(10_000, scale, floor=500)
        self.rec = None
        self.report = None
        self.attainment = 0.0
        self.gen_s = 0.0
        self._pass = 0
        self._sinks: list[tuple[np.ndarray, dict]] = []

    def setup(self) -> None:
        w = Workload(prompt_len=24, gen_len=64, global_batch=16)
        self.cluster = make_cluster([("A100-80G", 2)], name="fleet-replica")
        self.plan = ExecutionPlan.uniform(
            "opt-30b", self.cluster.devices, w, bits=4
        )
        t0 = time.perf_counter()
        kw = dict(seed=self.seed, max_prompt=48, max_gen=96)
        probe = sample_diurnal_arrivals(
            35.0, 200.0, amplitude=0.9, period=6000.0, **kw
        )
        rate = 1.05 * A100X4_CAPACITY_TOK_S / float(probe.gen_lens.mean())
        self.duration = self.n_target / rate
        self.trace = sample_diurnal_arrivals(
            rate, self.duration, amplitude=0.9, period=self.duration / 2.0, **kw
        )
        self.gen_s = time.perf_counter() - t0
        # warm-up: the first tenth of the trace through the same fleet
        cut = max(len(self.trace) // 10, 50)
        self._serve(self.trace[:cut], self.duration / 10.0)

    def teardown(self) -> None:
        self.trace = None

    def _serve(self, trace, duration: float):
        reps = [
            SimReplica(i, self.plan, self.cluster) for i in range(N_REPLICAS)
        ]
        window = duration / 64.0
        scaler = FleetAutoscaler(AutoscaleConfig(
            window=window, high=2.0, low=1.5, hysteresis=2, cooldown=window,
            min_active=1,
        ))
        # FleetReport pools TTFT and TPOT separately; meeting *both*
        # limits needs the per-request join, so keep each replica's raw
        # sample sink as simulate_online fills it
        self._sinks = []
        real = online.simulate_online

        def keep_sink(plan, cluster, sub, **kw):
            self._sinks.append((np.asarray(sub.gen_lens), kw["sample_sink"]))
            return real(plan, cluster, sub, **kw)

        online.simulate_online = keep_sink
        try:
            t0 = time.perf_counter()
            report = fleet_mod.serve_fleet(
                reps, trace, router="ttft", autoscaler=scaler, active=[0],
                slo_ttft=SLO_TTFT, slo_tpot=SLO_TPOT,
            )
            wall = time.perf_counter() - t0
        finally:
            online.simulate_online = real
        return report, wall

    def run_pass(self) -> dict:
        if self.rec is not None:
            self.rec.rid = self._pass
        self._pass += 1
        self.report, wall = self._serve(self.trace, self.duration)
        met = sum(
            joint_attainment(sink, gens, SLO_TTFT, SLO_TPOT)[0] * gens.size
            for gens, sink in self._sinks
        )
        self.attainment = met / len(self.trace)
        return {
            "wall": wall,
            "accounted": self.report.completed + self.report.rejected,
        }

    def finish(self, passes: list[dict]) -> dict[str, float]:
        return {
            "sim_req_per_s": len(self.trace)
            / steady([p["wall"] for p in passes], "lower"),
            "slo_attainment": self.attainment,
            "gpu_hours": self.report.gpu_hours,
        }

    def golden(self) -> dict:
        r = self.report
        ups = sum(1 for e in r.scale_events if e.action == "scale-up")
        return {
            "requests": r.n_requests, "completed": r.completed,
            "rejected": r.rejected,
            "iterations": sum(
                x.online.iterations for x in r.replica_results if x.online
            ),
            "ttft_p99": r.ttft_p99, "slo_attainment": self.attainment,
            "gpu_hours": r.gpu_hours, "scale_ups": ups,
            "scale_downs": len(r.scale_events) - ups,
        }

    def check(self, out: Outcome, passes: list[dict]) -> None:
        n = len(self.trace)
        out.attempted += n * len(passes)
        out.fail(
            sum(n - p["accounted"] for p in passes),
            "requests neither completed nor rejected",
        )
        check_golden(out, self.name, self.seed, self.scale, self.golden())

    # -- traced ---------------------------------------------------------
    def instrument(self, rec) -> None:
        self.rec = rec
        rec.wrap(fleet_mod, "serve_fleet", "fleet.route")
        rec.wrap(SimReplica, "serve", "fleet.replay")
        rec.wrap(Router, "pick", "fleet.router_pick")
        rec.wrap(FleetAutoscaler, "observe", "fleet.autoscale")
        rec.wrap(FleetAutoscaler, "advance", "fleet.autoscale")
        rec.wrap(FleetReport, "build", "fleet.report")
        instrument_sim(rec)

    def layers(self, rec, traced: list[dict]) -> dict[str, float]:
        n = max(len(traced), 1)
        r = self.report
        results = [x.online for x in r.replica_results if x.online is not None]
        out = sim_layers(rec, n, results, r.n_requests)
        routed = np.array([x.routed for x in r.replica_results], dtype=float)
        ups = sum(1 for e in r.scale_events if e.action == "scale-up")
        out.update({
            "fleet.replay_s": rec.total_s("fleet.replay") / n,
            "fleet.route_s": rec.self_s("fleet.route") / n,
            "fleet.router_pick_s": rec.self_s("fleet.router_pick") / n,
            "fleet.router_picks": rec.count("fleet.router_pick") / n,
            "fleet.autoscale_s": rec.self_s("fleet.autoscale") / n,
            "fleet.report_s": rec.self_s("fleet.report") / n,
            "fleet.scale_ups": ups,
            "fleet.scale_downs": len(r.scale_events) - ups,
            "fleet.replica_load_cv": float(routed.std() / routed.mean()),
            "workload.trace_gen_s": self.gen_s,
            "workload.trace_gen_req_per_s": r.n_requests / self.gen_s,
        })
        return out
