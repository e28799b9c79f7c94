"""One benchmark run of one workload, and the multi-workload driver.

``run_workload`` is what ``bench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` executes in-process: set-up (several times,
median reported), the timed passes with the cross-check panel between
them (untraced) or the harness-side spans (traced), the correctness
gates after timing, every metric printed as ``name unit value`` and one
JSON object on the last line.  ``orchestrate`` runs several workloads,
each in a fresh subprocess, and writes the collected file that
``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from statistics import median

from .harness import (
    BENCH_DIR, FOCUS, HOST_RATES, HOST_TIMES, ROOT, Outcome, SpeedGauge,
    load_spec, peak_rss_mb, steady, timed_passes,
)
from .kernels import run_kernels
from .panel import Panel
from .spans import Recorder
from .wl_fleet import FleetDiurnal
from .wl_plan import PlanHetero
from .wl_serve import Serve
from .wl_sim import GOLDENS, TraceOverload, TraceSLO

SETUP_REPEATS = 3
#: share of the timed window the panel may use on top of the workload's
#: own ``--seconds``
PANEL_SHARE = 0.35
OUT_DIR = ROOT / ".bench_out"


def make_workload(name: str, seed: int, scale: float):
    if name.startswith("serve_"):
        return Serve(name, seed, scale)
    for cls in (PlanHetero, TraceOverload, TraceSLO, FleetDiurnal):
        if cls.name == name:
            return cls(seed, scale)
    raise SystemExit(f"unknown workload {name!r}")


def _panel_rounds(panel: Panel):
    """``between`` hook: keep the panel at its share of the time used."""
    def between(used: float) -> None:
        while panel.seconds < PANEL_SHARE * used:
            panel.round()
    return between


def _setup(wl, gauge: SpeedGauge) -> list[float]:
    """Set the workload up ``SETUP_REPEATS`` times; the last stays."""
    samples = []
    for i in range(SETUP_REPEATS):
        if i:
            wl.teardown()
        gauge.sample()
        t0 = time.perf_counter()
        wl.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def _untraced(
    wl, seed: int, seconds: float, gauge: SpeedGauge, out: Outcome
) -> list[dict]:
    panel = Panel(seed, gauge)
    try:
        passes = timed_passes(
            wl.run_pass, seconds, gauge, between=_panel_rounds(panel)
        )
        panel_metrics = panel.metrics()
    finally:
        panel.close()
    focus = wl.finish(passes)
    for metric, where in FOCUS.items():
        out.metrics[metric] = (
            focus[metric] if wl.name in where else panel_metrics[metric]
        )
    # host timings at the reference speed (see harness.SpeedGauge)
    slow = gauge.slowness()
    for metric in HOST_TIMES:
        out.metrics[metric] /= slow
    for metric in HOST_RATES:
        out.metrics[metric] *= slow
    out.notes.append(
        f"{len(passes)} timed passes, {panel.rounds} panel rounds "
        f"({panel.seconds:.2f} s); host slowness {slow:.3f} x reference over "
        f"{len(gauge.samples)} gauge samples, normalised out of the host metrics"
    )
    return passes


def _traced(
    wl, seed: int, seconds: float, gauge: SpeedGauge, out: Outcome, spec: dict
) -> list[dict]:
    rec = Recorder(wl.name)
    plain: list[dict] = []
    traced: list[dict] = []
    panel = Panel(seed, gauge, traced=True)
    try:
        def pair() -> dict:
            # one untraced and one traced pass, so both sides of the
            # overhead ratio sample the same stretch of host time
            plain.append(wl.run_pass())
            wl.instrument(rec)
            try:
                with rec.span("pass"):
                    traced.append(wl.run_pass())
            finally:
                rec.restore()
                wl.rec = None
            return traced[-1]

        timed_passes(
            pair, seconds, gauge, min_passes=1, between=_panel_rounds(panel)
        )
        # the panel stands in for the layer families this workload does
        # not exercise; the workload's own layers() overrides the rest
        layer = {m["name"]: 0.0 for m in spec["per_layer"]}
        layer.update(panel.layers(wl.FAMILY))
    finally:
        panel.close()
    root_s, covered = rec.coverage("pass", wl.CONTAINERS)
    layer.update(wl.layers(rec, traced))
    layer.update(run_kernels())
    layer["trace_overhead_pct"] = 100.0 * (
        steady([p["wall"] for p in traced], "lower")
        / steady([p["wall"] for p in plain], "lower")
        - 1.0
    )
    layer["unattributed_share"] = 1.0 - covered / root_s if root_s else 0.0
    out.metrics.update(layer)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}.spans.jsonl"
    rec.write_jsonl(spans_path)
    out.notes.append(
        f"{len(plain)} untraced + {len(traced)} traced passes, "
        f"{len(rec.spans)} spans -> {spans_path.relative_to(ROOT)}; "
        f"{panel.rounds} traced panel rounds ({panel.seconds:.2f} s)"
    )
    if getattr(wl, "hi_note", ""):
        out.notes.append(wl.hi_note)
    return plain + traced


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float, t_start: float
) -> dict:
    spec = load_spec()
    if name not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"unknown workload {name!r}")
    wl = make_workload(name, seed, scale)
    import_s = time.perf_counter() - t_start
    gauge = SpeedGauge()
    setups = _setup(wl, gauge)
    out = Outcome()
    try:
        if trace:
            passes = _traced(wl, seed, seconds, gauge, out, spec)
        else:
            out.metrics["setup_s"] = import_s + median(setups)
            passes = _untraced(wl, seed, seconds, gauge, out)
            out.metrics["peak_rss_mb"] = peak_rss_mb()
        wl.check(out, passes)  # after timing, outside setup_s
    finally:
        wl.teardown()

    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    missing = sorted(set(units) - set(out.metrics))
    extra = sorted(set(out.metrics) - set(units))
    if missing or extra:
        raise SystemExit(f"metric names off contract: missing {missing}, extra {extra}")
    bad = [k for k, v in out.metrics.items() if not math.isfinite(v)]
    out.fail(len(bad), f"non-finite metrics {bad}")

    print(f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print(
        "# open-loop workloads run on the simulator's virtual clock: "
        "generator lateness is 0 by construction"
    )
    for key in units:
        print(f"{key} {units[key]} {out.metrics[key]!r}")
    for note in out.notes:
        print(f"# {note}")
    print(f"# operations attempted {out.attempted} failed {out.failed}")
    result = {
        "correct": out.failed == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {
            k: {"value": out.metrics[k], "unit": units[k]} for k in units
        },
    }
    print(json.dumps(result))
    return result


def orchestrate(args) -> int:
    """Each (workload, run, mode) in a fresh subprocess; collect."""
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    modes = [args.trace] if not args.traced else [0, 1]
    collected: dict[str, dict] = {
        n: {"end_to_end": [], "per_layer": []} for n in names
    }
    status = 0
    for name in names:
        for run in range(args.runs):
            for mode in modes:
                cmd = [
                    sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                    "--seed", str(args.seed + run), "--seconds", str(args.seconds),
                    "--trace", str(mode), "--scale", str(args.scale),
                ]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(proc.stdout)
                sys.stdout.flush()
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    result = None
                if proc.returncode != 0 or result is None:
                    status = 1
                if result is not None:
                    result["seed"] = args.seed + run
                    collected[name]["per_layer" if mode else "end_to_end"].append(
                        result
                    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
                 "workloads": collected},
                fh, indent=1,
            )
    return status


def write_goldens(seeds: range) -> None:
    """Regenerate ``bench/goldens/sim.json`` from the program as it is."""
    data: dict[str, dict] = {}
    for name in ("sim_trace_overload", "sim_trace_slo", "sim_fleet_diurnal"):
        data[name] = {}
        for seed in seeds:
            wl = make_workload(name, seed, 1.0)
            wl.setup()
            wl.run_pass()
            data[name][str(seed)] = wl.golden()
            wl.teardown()
            print(name, seed, data[name][str(seed)])
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv: list[str], t_start: float) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run, per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help="after each untraced run, repeat the workload traced")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, seeds seed, seed+1, ...")
    ap.add_argument("--out", help="write the collected runs as JSON")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (the self-test uses 0.05)")
    ap.add_argument("--write-goldens", type=int, metavar="N",
                    help="regenerate bench/goldens for seeds 0..N-1 and exit")
    args = ap.parse_args(argv)
    if args.write_goldens:
        write_goldens(range(args.write_goldens))
        return 0
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    single = args.workload and len(args.workload) == 1
    if single and args.runs == 1 and not args.traced and not args.out:
        result = run_workload(
            args.workload[0], args.seed, args.seconds, bool(args.trace),
            args.scale, t_start,
        )
        return 0 if result["correct"] else 1
    return orchestrate(args)
