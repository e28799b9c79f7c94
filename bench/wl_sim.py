"""``sim_trace_overload`` and ``sim_trace_slo``: the trace engine used
two opposite ways.

Both are open loop on the simulator's virtual clock: every request is
timed from its due arrival, so the generator is never late (lateness 0
by construction).  *Simulated* statistics are deterministic per seed
and checked exactly against ``bench/goldens/``; only the host time of a
replay is noisy.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.hardware import make_cluster, paper_cluster
from repro.runtime.replan import DriftConfig, workload_refit_replanner
from repro.cost.stagecosts import StageCostModel
from repro.sim import online, trace_engine
from repro.workload import DEFAULT_WORKLOAD, Workload
from repro.workload.traces import (
    ArrivalTrace, sample_diurnal_arrivals, sample_poisson_arrivals,
)

from .harness import BENCH_DIR, Outcome, scaled, steady

GOLDENS = BENCH_DIR / "goldens" / "sim.json"

#: decode tokens/s the 4xA100 4-bit opt-30b plan sustains at full batch
#: (the constant ``benchmarks/test_ext_trace_engine.py`` pins its
#: overload to)
A100X4_CAPACITY_TOK_S = 1739.0


def joint_attainment(
    sink: dict, gen_lens: np.ndarray, slo_ttft: float, slo_tpot: float
) -> tuple[float, np.ndarray]:
    """Share of requests *sent* that meet both limits (rejected or
    unserved requests miss), and the per-request TTFT by trace row."""
    n = int(gen_lens.size)
    lat = np.full(n, np.inf)
    ttft = np.full(n, np.inf)
    if "lat_idx" in sink and sink["lat_idx"].size:
        lat[sink["lat_idx"]] = sink["latencies"]
    if "tt_idx" in sink and sink["tt_idx"].size:
        ttft[sink["tt_idx"]] = sink["ttfts"]
    with np.errstate(invalid="ignore"):
        tpot = (lat - ttft) / np.maximum(gen_lens - 1, 1)
    ok = (ttft <= slo_ttft) & (tpot <= slo_tpot)
    return float(ok.sum()) / n, ttft


def check_golden(out: Outcome, workload: str, seed: int, scale: float, got: dict) -> None:
    """Exact comparison with the committed golden of this seed (full
    size only; seeds without a golden are covered by the invariants)."""
    if scale != 1.0 or not GOLDENS.exists():
        return
    want = json.loads(GOLDENS.read_text()).get(workload, {}).get(str(seed))
    if want is None:
        out.notes.append(f"no golden for seed {seed}: invariants only")
        return
    out.attempted += 1
    bad = [
        k for k, v in want.items()
        if k not in got or not np.isclose(got[k], v, rtol=1e-9, atol=0.0)
    ]
    out.fail(1 if bad else 0, f"golden mismatch on {bad}: {[(got.get(k), want[k]) for k in bad]}")


def drift_config(duration: float) -> DriftConfig:
    """The trace-engine benchmark's drift detector, scaled to a trace."""
    return DriftConfig(
        window=duration / 16.0, threshold=0.4, hysteresis=2,
        cooldown=duration / 8.0, rebuild_seconds=1.0,
    )


def replay_wall(plan, cluster, trace, *, drift: bool) -> float:
    """Host seconds of one continuous-policy replay, with or without
    drift replanning."""
    cfg = drift_config(float(trace.arrivals[-1])) if drift else None
    t0 = time.perf_counter()
    online.simulate_online(
        plan, cluster, trace, policy="continuous", drift=cfg,
        replanner=workload_refit_replanner if drift else None,
    )
    return time.perf_counter() - t0


class TraceOverload:
    """opt-30b 4-bit / KV4 on 4xA100-80G, a diurnal trace at 3x decode
    capacity with drift replanning on: the backlog regime."""

    name = "sim_trace_overload"
    FAMILY = "sim"
    CONTAINERS = {"sim.online"}

    def __init__(self, seed: int, scale: float) -> None:
        self.seed, self.scale = seed, scale
        self.n_target = scaled(1_000_000, scale)
        self.rec = None
        self.gen_s = 0.0
        self.result = None
        self.diverged = False
        self._pass = 0

    def setup(self) -> None:
        self.cluster = make_cluster([("A100-80G", 4)], name="bench-a100x4")
        w = Workload(prompt_len=24, gen_len=64, global_batch=16)
        self.plan = ExecutionPlan.uniform(
            "opt-30b", self.cluster.devices, w, bits=4, kv_bits=4
        )
        t0 = time.perf_counter()
        kw = dict(seed=self.seed, max_prompt=48, max_gen=96)
        probe = sample_diurnal_arrivals(
            35.0, 200.0, amplitude=0.35, period=6000.0, **kw
        )
        rate = 3.0 * A100X4_CAPACITY_TOK_S / float(probe.gen_lens.mean())
        duration = self.n_target / rate
        self.trace = sample_diurnal_arrivals(
            rate, duration, amplitude=0.35, period=duration / 4.0, **kw
        )
        self.gen_s = time.perf_counter() - t0
        self.drift = drift_config(duration)
        # warm-up on the first twentieth: a full replay would make set-up
        # time mostly page faults on 1e6-row arrays, which on this host
        # swing 2x with the guest's memory daemons
        online.simulate_online(
            self.plan, self.cluster, self.trace[: len(self.trace) // 20],
            policy="continuous", drift=drift_config(duration / 20.0),
            replanner=workload_refit_replanner,
        )

    def teardown(self) -> None:
        self.trace = None

    def _replay(self):
        t0 = time.perf_counter()
        res = online.simulate_online(
            self.plan, self.cluster, self.trace, policy="continuous",
            drift=self.drift, replanner=workload_refit_replanner,
        )
        return res, time.perf_counter() - t0

    def run_pass(self) -> dict:
        if self.rec is not None:
            self.rec.rid = self._pass
        self._pass += 1
        res, wall = self._replay()
        if self.result is not None and res != self.result:
            self.diverged = True
        self.result = res
        return {"wall": wall, "accounted": res.completed + res.rejected}

    def finish(self, passes: list[dict]) -> dict[str, float]:
        n = len(self.trace)
        return {
            "sim_req_per_s": n / steady([p["wall"] for p in passes], "lower"),
            "sim_tok_s": self.result.throughput,
        }

    def check(self, out: Outcome, passes: list[dict]) -> None:
        n = len(self.trace)
        out.attempted += n * len(passes)
        out.fail(
            sum(n - p["accounted"] for p in passes),
            "requests neither completed nor rejected",
        )
        out.fail(1 if self.diverged else 0, "replays of one trace disagree")
        check_golden(out, self.name, self.seed, self.scale, self.golden())

    def golden(self) -> dict:
        r = self.result
        return {
            "requests": len(self.trace), "iterations": r.iterations,
            "completed": r.completed, "rejected": r.rejected,
            "sim_tok_s": r.throughput, "drift_triggers": r.drift_triggers,
            "migrations": r.migrations,
        }

    # -- traced ---------------------------------------------------------
    def instrument(self, rec) -> None:
        self.rec = rec
        instrument_sim(rec)

    def layers(self, rec, traced: list[dict]) -> dict[str, float]:
        n = max(len(traced), 1)
        out = sim_layers(rec, n, [self.result], len(self.trace))
        out["sim.drift_overhead_s"] = steady(
            [p["wall"] for p in traced], "lower"
        ) - replay_wall(self.plan, self.cluster, self.trace, drift=False)
        out["workload.trace_gen_s"] = self.gen_s
        out["workload.trace_gen_req_per_s"] = len(self.trace) / self.gen_s
        return out


def instrument_sim(rec) -> None:
    """Spans around the public entry points of one trace replay."""
    rec.wrap(online, "simulate_online", "sim.online")
    rec.wrap(trace_engine, "trace_columns", "sim.trace_columns")
    rec.wrap(trace_engine, "simulate_continuous_vectorized", "sim.engine_run")
    rec.wrap(StageCostModel, "__init__", "cost.scm_bind")
    rec.wrap(StageCostModel, "unit_decode_times", "cost.decode_lookup")
    rec.wrap(StageCostModel, "unit_decode_times_batch", "cost.decode_table")
    rec.wrap(StageCostModel, "request_kv_bytes_batch", "cost.kv_bytes_batch")


def sim_layers(rec, n_passes: int, results: list, requests: int) -> dict[str, float]:
    """Per-layer numbers of ``n_passes`` traced passes whose (identical)
    per-pass results are ``results``."""
    engine_s = rec.total_s("sim.engine_run") / n_passes
    iterations = sum(r.iterations for r in results)
    inflight = [r.mean_inflight for r in results]
    return {
        "sim.trace_columns_s": rec.self_s("sim.trace_columns") / n_passes,
        "sim.engine_run_s": engine_s,
        "sim.iterations": iterations,
        "sim.host_us_per_iter": 1e6 * engine_s / iterations if iterations else 0.0,
        "sim.req_per_iter": requests / iterations if iterations else 0.0,
        "sim.mean_inflight": float(np.mean(inflight)) if inflight else 0.0,
        "sim.rejected": sum(r.rejected for r in results),
        "sim.drift_triggers": sum(r.drift_triggers for r in results),
        "sim.migrations": sum(r.migrations for r in results),
        "cost.scm_bind_s": rec.self_s("cost.scm_bind") / n_passes,
    }


class TraceSLO:
    """Uniform 4-bit opt-30b on paper cluster 3 (capacity about 2.7
    req/s) under an open-loop Poisson ladder: the under-loaded regime
    operators provision for, one engine step per token boundary."""

    name = "sim_trace_slo"
    FAMILY = "sim"
    CONTAINERS = {"sim.online"}
    #: 2.6 replaces ISSUE 11's 2.5 req/s rung: at 2.5 the 0.99 verdict
    #: flips with the seed (4 of 10 seeds pass at 4k requests a rung), at 2.6
    #: none does, so ``slo_rate_max_rps`` repeats across seeds
    RATES = (1.0, 2.0, 2.6, 2.8)
    REPORT_RATE = 2.0
    SLO_TTFT, SLO_TPOT = 2.0, 0.5

    def __init__(self, seed: int, scale: float) -> None:
        self.seed, self.scale = seed, scale
        self.n_rung = scaled(2000, scale, floor=100)
        self.rec = None
        self.rungs: dict[float, dict] = {}
        self._pass = 0
        self.gen_s = 0.0

    def setup(self) -> None:
        self.cluster = paper_cluster(3)
        self.plan = ExecutionPlan.uniform(
            "opt-30b", self.cluster.devices, DEFAULT_WORKLOAD, bits=4
        )
        t0 = time.perf_counter()
        self.traces = {
            rate: self._trace(rate, self.seed + i)
            for i, rate in enumerate(self.RATES)
        }
        self.gen_s = time.perf_counter() - t0
        # warm-up: the first tenth of the middle rung
        head = self.traces[self.REPORT_RATE]
        cut = max(len(head) // 10, 10)
        self._replay(head[:cut])

    def teardown(self) -> None:
        self.traces = {}

    def _trace(self, rate: float, seed: int):
        return sample_poisson_arrivals(rate, self.n_rung / rate, seed=seed)

    def _replay(self, trace):
        sink: dict = {}
        t0 = time.perf_counter()
        res = online.simulate_online(
            self.plan, self.cluster, trace, policy="continuous", sample_sink=sink
        )
        return res, sink, time.perf_counter() - t0

    def run_pass(self) -> dict:
        walls = {}
        for rate, trace in self.traces.items():
            if self.rec is not None:
                self.rec.rid = f"pass{self._pass}@{rate}"
            res, sink, walls[rate] = self._replay(trace)
            att, ttft = joint_attainment(
                sink, np.asarray(trace.gen_lens), self.SLO_TTFT, self.SLO_TPOT
            )
            tail = ttft[-max(len(trace) // 5, 1):]
            self.rungs[rate] = {
                "result": res, "attainment": att,
                "ttft_p99": float(np.percentile(sink["ttfts"], 99)),
                # a backlog that grows makes the last arrivals wait: the
                # median TTFT of the last fifth must itself meet the limit
                "backlog_ok": bool(np.median(tail) <= self.SLO_TTFT),
                "requests": len(trace),
            }
        self._pass += 1
        return {"wall": sum(walls.values()), "rungs": walls}

    def finish(self, passes: list[dict]) -> dict[str, float]:
        total = sum(r["requests"] for r in self.rungs.values())
        host = sum(
            steady([p["rungs"][rate] for p in passes], "lower")
            for rate in self.RATES
        )
        passing = [
            rate for rate in self.RATES
            if self.rungs[rate]["attainment"] >= 0.99 and self.rungs[rate]["backlog_ok"]
        ]
        report = self.rungs[self.REPORT_RATE]
        return {
            "sim_req_per_s": total / host,
            "sim_ttft_p99_s": report["ttft_p99"],
            "slo_attainment": report["attainment"],
            "slo_rate_max_rps": max(passing, default=0.0),
            # the report rung's throughput and provisioned device time
            "sim_tok_s": report["result"].throughput,
            "gpu_hours": self.plan.num_stages * report["result"].makespan / 3600.0,
        }

    def golden(self) -> dict:
        out = {}
        for rate, r in self.rungs.items():
            res = r["result"]
            out.update({
                f"requests@{rate}": r["requests"],
                f"iterations@{rate}": res.iterations,
                f"completed@{rate}": res.completed,
                f"rejected@{rate}": res.rejected,
                f"ttft_p99@{rate}": r["ttft_p99"],
                f"attainment@{rate}": r["attainment"],
            })
        return out

    def check(self, out: Outcome, passes: list[dict]) -> None:
        total = sum(r["requests"] for r in self.rungs.values())
        out.attempted += total * len(passes)
        lost = sum(
            r["requests"] - r["result"].completed - r["result"].rejected
            for r in self.rungs.values()
        )
        out.fail(lost, "requests neither completed nor rejected")
        check_golden(out, self.name, self.seed, self.scale, self.golden())

    def instrument(self, rec) -> None:
        self.rec = rec
        instrument_sim(rec)

    def layers(self, rec, traced: list[dict]) -> dict[str, float]:
        n = max(len(traced), 1)
        total = sum(r["requests"] for r in self.rungs.values())
        out = sim_layers(
            rec, n, [r["result"] for r in self.rungs.values()], total
        )
        trace = self.traces[self.REPORT_RATE]
        out["sim.drift_overhead_s"] = replay_wall(
            self.plan, self.cluster, trace, drift=True
        ) - replay_wall(self.plan, self.cluster, trace, drift=False)
        out["workload.trace_gen_s"] = self.gen_s
        out["workload.trace_gen_req_per_s"] = total / self.gen_s
        return out


class PanelSLO(TraceSLO):
    """The cross-check panel's ladder: two rungs, below and above the
    ~10 req/s the same plan sustains on short requests.  Arrivals are
    regular with a 1% seeded jitter and the lengths cycle through fixed
    values, so the simulated statistics move in the fourth digit from
    seed to seed."""

    name = "panel_slo"
    RATES = (6.0, 15.0)
    REPORT_RATE = 6.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed, 1.0)
        self.n_rung = 120

    def _trace(self, rate: float, seed: int):
        n, gap = self.n_rung, 1.0 / rate
        jitter = np.random.default_rng(seed).uniform(0.0, 0.01 * gap, size=n)
        return ArrivalTrace(
            arrivals=np.arange(n) * gap + jitter,
            prompt_lens=np.resize(np.linspace(16, 128, 20).astype(np.int64), n),
            gen_lens=np.resize(np.linspace(8, 32, 7).astype(np.int64), n),
        )
