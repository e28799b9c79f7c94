"""Shared pieces of the benchmark harness: the metric registry read from
``BENCHMARK.json``, the host-speed gauge, the steady estimator for host
timings, and the timed-pass loop.

Why host timings are neither raw nor plain medians
--------------------------------------------------
The authoring host is a 2-vCPU VM (``bench/README.md`` has the
measurements).  Two kinds of noise were found:

* Its speed drifts by 10-25% over minutes, for every kind of work alike:
  across ten runs the planner, the runtime and the trace engine slowed
  down together, and dividing one's steady value by another's took a
  10-25% interquartile spread down to 1-5%.  So a small fixed
  calibration kernel is sampled before every timed pass and panel round
  (:class:`SpeedGauge`), and every host timing is reported at the
  *reference* speed ``CALIB_REF_S``: in a run whose steady kernel time
  was 1.15x the reference, times are divided, and rates multiplied, by
  1.15.
* Within a run, bursts of interference slow some passes and never speed
  one up, so each host metric is the median of the best eighth of its
  per-pass samples (:func:`steady`; the best pass itself with up to
  eight passes).

Simulated statistics are deterministic per seed and reported as is.
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

_CALIB_A = np.random.default_rng(0).random((48, 48))

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: workloads on which an end-to-end metric is measured on the workload's
#: own scenario; everywhere else it comes from the cross-check panel
#: (``bench/panel.py``).  ``setup_s`` and ``peak_rss_mb`` belong to the
#: run as a whole.
FOCUS: dict[str, tuple[str, ...]] = {
    "plan_wall_s": ("plan_hetero",),
    "plan_objective_sum": ("plan_hetero",),
    "decode_tok_s": ("serve_decode_fp16", "serve_decode_w4kv4"),
    "tpot_ms_p50": ("serve_decode_fp16", "serve_decode_w4kv4"),
    "prompt_tok_s": ("serve_prefill_fp16",),
    "ttft_service_ms_p50": ("serve_prefill_fp16",),
    "sim_req_per_s": ("sim_trace_overload", "sim_trace_slo", "sim_fleet_diurnal"),
    "sim_tok_s": ("sim_trace_overload",),
    "sim_ttft_p99_s": ("sim_trace_slo",),
    "slo_attainment": ("sim_trace_slo", "sim_fleet_diurnal"),
    "slo_rate_max_rps": ("sim_trace_slo",),
    "gpu_hours": ("sim_fleet_diurnal",),
}


#: host metrics that are times / rates: reported at the reference speed
HOST_TIMES = ("setup_s", "plan_wall_s", "tpot_ms_p50", "ttft_service_ms_p50")
HOST_RATES = ("decode_tok_s", "prompt_tok_s", "sim_req_per_s")

#: seconds :func:`calib_kernel` takes on the authoring host when it is
#: undisturbed; the unit every host timing is normalised to
CALIB_REF_S = 0.0107


def calib_kernel() -> None:
    """A fixed mix of interpreter work and small NumPy calls (~10 ms)."""
    s = 0
    for i in range(240_000):
        s += i
    a = _CALIB_A
    for _ in range(240):
        a = a @ _CALIB_A
        a /= a.max()


class SpeedGauge:
    """Samples the calibration kernel throughout a run.

    :meth:`slowness` is the steady kernel time over the reference —
    the same estimator over the same stretch of host time as the
    metrics it normalises."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        calib_kernel()
        self.samples.append(time.perf_counter() - t0)

    def slowness(self) -> float:
        return steady(self.samples, "lower") / CALIB_REF_S


def load_spec() -> dict:
    """The benchmark contract (names, units, directions, bounds)."""
    return json.loads(SPEC_PATH.read_text())


def steady(samples: list[float], better: str) -> float:
    """Median of the best eighth of ``samples`` (at least one).

    ``better`` is the metric's direction: the best eighth is the
    smallest values for ``"lower"``, the largest for ``"higher"``.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples, reverse=(better == "higher"))
    return float(median(ordered[: max(1, math.ceil(len(ordered) / 8))]))


def best_seconds(fn: Callable[[], object], *, reps: int, inner: int = 1) -> float:
    """Steady per-call seconds of ``fn``: ``reps`` timings of ``inner``
    back-to-back calls each (for micro-kernels)."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return steady(samples, "lower")


def hi_percentile(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with ten samples beyond it.

    Returns ``(value, percentile, n)``; with fewer than 11 samples the
    maximum stands in (percentile 100)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def timed_passes(
    run_pass: Callable[[], dict], seconds: float, gauge: SpeedGauge, *,
    min_passes: int = 2, between: Callable[[float], None] | None = None,
) -> list[dict]:
    """Whole passes until they have used ``seconds`` (at least
    ``min_passes``, so the steady estimator always has a choice).

    The gauge is sampled before every pass and after the last.
    ``between(used)`` runs after each pass with the seconds the passes
    have used so far; its own time does not count."""
    out: list[dict] = []
    used = 0.0
    while len(out) < min_passes or used < seconds:
        gauge.sample()
        t0 = time.perf_counter()
        out.append(run_pass())
        used += time.perf_counter() - t0
        if between is not None:
            between(used)
    gauge.sample()
    return out


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled(n: int, scale: float, floor: int = 1) -> int:
    """Input size under ``--scale`` (the self-test runs at 1/20)."""
    return max(floor, int(round(n * scale)))


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")
