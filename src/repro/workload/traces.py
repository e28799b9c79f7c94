"""Prompt-length traces (ShareGPT-like) and workload sampling.

Sec. 2.1 samples 10k ShareGPT conversations and finds prompt lengths vary
substantially, with a heavy short-prompt mode and a long tail.  We model
that with a mixture of a log-normal body and a uniform long tail, which
the workload-characterization example uses to motivate phase-aware
planning.

Arrival traces are array-backed (:class:`ArrivalTrace`): the generators
draw gaps/lengths in vectorized numpy chunks so a million-request
day-long trace samples in well under a second, and the columns feed the
vectorized online simulator without any per-request Python objects.
Iterating a trace still yields :class:`RequestArrival` records, so every
scalar consumer (the real scheduler, the reference simulator, tests)
keeps working unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .spec import Workload

__all__ = [
    "PromptTrace",
    "RequestArrival",
    "ArrivalTrace",
    "sample_sharegpt_like",
    "sample_poisson_arrivals",
    "sample_bursty_arrivals",
    "sample_diurnal_arrivals",
    "sample_pareto_arrivals",
    "concat_arrival_phases",
    "save_trace",
    "load_trace",
    "workloads_from_trace",
]


@dataclass(frozen=True)
class PromptTrace:
    """Sampled (prompt_len, gen_len) pairs."""

    prompt_lens: np.ndarray
    gen_lens: np.ndarray

    def __post_init__(self) -> None:
        if self.prompt_lens.shape != self.gen_lens.shape:
            raise ValueError("prompt and gen arrays must align")

    @property
    def size(self) -> int:
        """Sampled conversations."""
        return int(self.prompt_lens.size)

    def fraction_short(self, threshold: int = 128) -> float:
        """Share of prompts below ``threshold`` tokens."""
        return float((self.prompt_lens < threshold).mean())


def sample_sharegpt_like(
    n: int = 10_000,
    *,
    seed: int = 0,
    max_prompt: int = 2048,
) -> PromptTrace:
    """Synthetic conversation-length trace shaped like ShareGPT.

    ~45% of prompts are short (<128 tokens); the rest follow a log-normal
    with a fat tail clipped to the context window.
    """
    rng = np.random.default_rng(seed)
    short = rng.integers(4, 128, size=n)
    body = np.exp(rng.normal(5.6, 0.8, size=n)).astype(np.int64)  # ~270 median
    is_short = rng.random(n) < 0.45
    prompts = np.where(is_short, short, np.clip(body, 128, max_prompt))
    gens = np.clip(np.exp(rng.normal(4.6, 0.7, size=n)), 8, 1024).astype(np.int64)
    return PromptTrace(prompt_lens=prompts.astype(np.int64), gen_lens=gens)


@dataclass(frozen=True)
class RequestArrival:
    """One online request: arrival time plus its (s, n) lengths."""

    arrival: float       #: seconds since the trace start
    prompt_len: int      #: prompt tokens
    gen_len: int         #: tokens to generate

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.prompt_len <= 0 or self.gen_len <= 0:
            raise ValueError("prompt_len and gen_len must be positive")


@dataclass(frozen=True)
class ArrivalTrace(Sequence):
    """Array-backed arrival trace: three aligned columns.

    Behaves like a ``Sequence[RequestArrival]`` (len / index / iterate),
    while exposing the raw numpy columns for the vectorized engine.
    """

    arrivals: np.ndarray     #: float64 seconds, one per request
    prompt_lens: np.ndarray  #: int64 prompt tokens
    gen_lens: np.ndarray     #: int64 generation tokens

    def __post_init__(self) -> None:
        a = np.asarray(self.arrivals, dtype=np.float64)
        s = np.asarray(self.prompt_lens)
        g = np.asarray(self.gen_lens)
        if not (a.ndim == s.ndim == g.ndim == 1):
            raise ValueError("trace columns must be 1-D")
        if not (a.shape == s.shape == g.shape):
            raise ValueError("trace columns must align")
        if a.size and (not np.all(np.isfinite(a)) or float(a.min()) < 0.0):
            raise ValueError("arrivals must be finite and >= 0")
        object.__setattr__(self, "arrivals", a)
        for name, col in (("prompt_lens", s), ("gen_lens", g)):
            with np.errstate(invalid="ignore"):
                whole = col.astype(np.int64, copy=False)
            # a cast that changes a value (8.5, NaN) is a malformed length
            if (
                whole is not col and not np.array_equal(whole, col)
            ) or int(whole.min(initial=1)) <= 0:
                raise ValueError(f"{name} must be positive integers")
            object.__setattr__(self, name, whole)

    def __len__(self) -> int:
        return int(self.arrivals.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ArrivalTrace(
                arrivals=self.arrivals[i],
                prompt_lens=self.prompt_lens[i],
                gen_lens=self.gen_lens[i],
            )
        return RequestArrival(
            arrival=float(self.arrivals[i]),
            prompt_len=int(self.prompt_lens[i]),
            gen_len=int(self.gen_lens[i]),
        )

    def __iter__(self) -> Iterator[RequestArrival]:
        for a, s, g in zip(
            self.arrivals.tolist(), self.prompt_lens.tolist(), self.gen_lens.tolist()
        ):
            yield RequestArrival(arrival=a, prompt_len=s, gen_len=g)

    def sorted(self) -> "ArrivalTrace":
        """Stable sort by arrival time (matches ``sorted(list, key=arrival)``)."""
        order = np.argsort(self.arrivals, kind="stable")
        return ArrivalTrace(
            arrivals=self.arrivals[order],
            prompt_lens=self.prompt_lens[order],
            gen_lens=self.gen_lens[order],
        )

    @classmethod
    def from_requests(cls, reqs: Iterable[RequestArrival]) -> "ArrivalTrace":
        """Build the array view of any iterable of request records."""
        if isinstance(reqs, cls):
            return reqs
        rows = list(reqs)
        return cls(
            arrivals=np.array([r.arrival for r in rows], dtype=np.float64),
            prompt_lens=np.array([r.prompt_len for r in rows]),
            gen_lens=np.array([r.gen_len for r in rows]),
        )


def save_trace(trace, path) -> None:
    """Persist an arrival trace as JSON (exact float64 round-trip).

    Accepts an :class:`ArrivalTrace` or any iterable of
    :class:`RequestArrival`; big traces are generated once with
    ``--save-trace`` and replayed with ``--trace-file``.
    """
    tr = ArrivalTrace.from_requests(trace)
    payload = {
        "version": 1,
        "arrivals": tr.arrivals.tolist(),
        "prompt_lens": tr.prompt_lens.tolist(),
        "gen_lens": tr.gen_lens.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_trace(path) -> ArrivalTrace:
    """Load a trace saved by :func:`save_trace`."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "arrivals" not in payload:
        raise ValueError(f"{path}: not a saved arrival trace")
    try:
        return ArrivalTrace(
            arrivals=np.array(payload["arrivals"], dtype=np.float64),
            prompt_lens=np.array(payload["prompt_lens"]),
            gen_lens=np.array(payload["gen_lens"]),
        )
    except (KeyError, TypeError) as e:  # a column missing or not numbers
        raise ValueError(f"{path}: malformed saved trace: {e!r}") from e


def _poisson_times(rng, rate: float, duration: float) -> np.ndarray:
    """Homogeneous Poisson event times in [0, duration), vectorized.

    Draws exponential gaps in chunks sized by the expected count plus a
    generous margin, extending until the horizon is covered.
    """
    chunks: list[np.ndarray] = []
    t = 0.0
    while t < duration:
        expect = rate * (duration - t)
        n = max(int(expect + 10.0 * math.sqrt(expect + 1.0)) + 16, 64)
        block = t + np.cumsum(rng.exponential(1.0 / rate, size=n))
        if block[-1] >= duration:
            chunks.append(block[block < duration])
            break
        chunks.append(block)
        t = float(block[-1])
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


def _sharegpt_lengths_batch(
    rng, n: int, max_prompt: int, max_gen: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (prompt_len, gen_len) draws from the ShareGPT-shaped mixture."""
    is_short = rng.random(n) < 0.45
    short = rng.integers(4, min(128, max_prompt + 1), size=n)
    body = np.clip(np.exp(rng.normal(5.6, 0.8, size=n)), 4, max_prompt)
    prompts = np.where(is_short, short, body.astype(np.int64))
    gens = np.clip(np.exp(rng.normal(4.6, 0.7, size=n)), 4, max_gen).astype(np.int64)
    return prompts.astype(np.int64), gens


def sample_poisson_arrivals(
    rate: float,
    duration: float,
    *,
    seed: int = 0,
    max_prompt: int = 512,
    max_gen: int = 128,
) -> ArrivalTrace:
    """Poisson arrival trace with ShareGPT-shaped request lengths.

    Inter-arrival gaps are exponential at ``rate`` req/s over ``duration``
    seconds; each request's prompt and generation lengths follow the same
    log-normal mixture as :func:`sample_sharegpt_like`, clipped to
    ``max_prompt`` / ``max_gen``.  The trace is sorted by arrival time —
    the canonical input of both the online simulator and the real
    :class:`~repro.runtime.scheduler.ContinuousScheduler`.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    times = _poisson_times(rng, rate, duration)
    prompts, gens = _sharegpt_lengths_batch(rng, times.size, max_prompt, max_gen)
    return ArrivalTrace(arrivals=times, prompt_lens=prompts, gen_lens=gens)


def sample_bursty_arrivals(
    base_rate: float,
    duration: float,
    *,
    burst_rate: float | None = None,
    burst_duration: float = 5.0,
    burst_period: float = 30.0,
    seed: int = 0,
    max_prompt: int = 512,
    max_gen: int = 128,
) -> ArrivalTrace:
    """Bursty arrival trace: a quiet Poisson baseline punctuated by bursts.

    Every ``burst_period`` seconds the rate jumps to ``burst_rate``
    (default ``8 * base_rate``) for ``burst_duration`` seconds, modelling
    flash crowds.  Request lengths follow the ShareGPT-shaped mixture.
    Deterministic per ``seed`` (thinning over a homogeneous envelope).
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if burst_duration <= 0 or burst_period <= burst_duration:
        raise ValueError("need 0 < burst_duration < burst_period")
    peak = float(burst_rate) if burst_rate is not None else 8.0 * base_rate
    if peak < base_rate:
        raise ValueError("burst_rate must be >= base_rate")

    def rate_at(t: np.ndarray) -> np.ndarray:
        return np.where((t % burst_period) < burst_duration, peak, base_rate)

    return _thinned_arrivals(
        rate_at, peak, duration, seed=seed, max_prompt=max_prompt, max_gen=max_gen
    )


def sample_diurnal_arrivals(
    mean_rate: float,
    duration: float,
    *,
    amplitude: float = 0.8,
    period: float = 120.0,
    seed: int = 0,
    max_prompt: int = 512,
    max_gen: int = 128,
) -> ArrivalTrace:
    """Diurnal arrival trace: sinusoidal rate around ``mean_rate``.

    ``rate(t) = mean_rate * (1 + amplitude * sin(2*pi*t/period))`` — a
    compressed day/night cycle (``period`` seconds per "day").  Lengths
    follow the ShareGPT-shaped mixture; deterministic per ``seed``.
    """
    if mean_rate <= 0:
        raise ValueError("mean_rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period <= 0:
        raise ValueError("period must be positive")
    peak = mean_rate * (1.0 + amplitude)

    def rate_at(t: np.ndarray) -> np.ndarray:
        return mean_rate * (1.0 + amplitude * np.sin(2.0 * np.pi * t / period))

    return _thinned_arrivals(
        rate_at, peak, duration, seed=seed, max_prompt=max_prompt, max_gen=max_gen
    )


def sample_pareto_arrivals(
    rate: float,
    duration: float,
    *,
    shape: float = 1.5,
    min_prompt: int = 16,
    min_gen: int = 4,
    seed: int = 0,
    max_prompt: int = 2048,
    max_gen: int = 512,
) -> ArrivalTrace:
    """Poisson arrivals with heavy-tailed (Pareto) prompt/generation lengths.

    Lengths are ``min * (1 + Pareto(shape))`` clipped to the caps — with
    ``shape <= 2`` the length distribution has infinite variance, the
    worst case for padding-based wave scheduling and a stress test for
    drift detection on the length axis.  Deterministic per ``seed``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if shape <= 0:
        raise ValueError("shape must be positive")
    rng = np.random.default_rng(seed)
    times = _poisson_times(rng, rate, duration)
    n = times.size
    prompts = np.clip(
        min_prompt * (1.0 + rng.pareto(shape, size=n)), min_prompt, max_prompt
    ).astype(np.int64)
    gens = np.clip(
        min_gen * (1.0 + rng.pareto(shape, size=n)), min_gen, max_gen
    ).astype(np.int64)
    return ArrivalTrace(arrivals=times, prompt_lens=prompts, gen_lens=gens)


def concat_arrival_phases(phases) -> ArrivalTrace:
    """Concatenate arrival traces back-to-back into one drifting trace.

    Each phase's clock restarts at the end of the previous phase's last
    arrival, so ``[steady, bursty]`` yields a trace whose statistics shift
    mid-stream — the canonical input for drift-detection tests.  Phases
    may be :class:`ArrivalTrace` columns or plain request lists.
    """
    a_chunks: list[np.ndarray] = []
    s_chunks: list[np.ndarray] = []
    g_chunks: list[np.ndarray] = []
    offset = 0.0
    for phase in phases:
        tr = ArrivalTrace.from_requests(phase)
        a_chunks.append(offset + tr.arrivals)
        s_chunks.append(tr.prompt_lens)
        g_chunks.append(tr.gen_lens)
        if len(tr):
            offset += float(tr.arrivals[-1])
    if not a_chunks:
        return ArrivalTrace(
            arrivals=np.empty(0), prompt_lens=np.empty(0, np.int64),
            gen_lens=np.empty(0, np.int64),
        )
    return ArrivalTrace(
        arrivals=np.concatenate(a_chunks),
        prompt_lens=np.concatenate(s_chunks),
        gen_lens=np.concatenate(g_chunks),
    )


def _thinned_arrivals(
    rate_at,
    peak_rate: float,
    duration: float,
    *,
    seed: int,
    max_prompt: int,
    max_gen: int,
) -> ArrivalTrace:
    """Non-homogeneous Poisson process by thinning a ``peak_rate`` envelope."""
    rng = np.random.default_rng(seed)
    cand = _poisson_times(rng, peak_rate, duration)
    keep = rng.random(cand.size) * peak_rate <= rate_at(cand)
    times = cand[keep]
    prompts, gens = _sharegpt_lengths_batch(rng, times.size, max_prompt, max_gen)
    return ArrivalTrace(arrivals=times, prompt_lens=prompts, gen_lens=gens)


def workloads_from_trace(
    trace: PromptTrace,
    *,
    batch: int = 32,
    pad_to: tuple[int, ...] = (128, 256, 512, 1024, 2048),
    gen_quantile: float = 0.9,
) -> list[Workload]:
    """Bucket a trace into padded offline workloads.

    Each prompt is padded up to the smallest bucket that fits (the offline
    task pads to uniform length); the per-bucket generation length is the
    ``gen_quantile`` of the member requests.
    """
    out: list[Workload] = []
    for i, cap in enumerate(pad_to):
        lo = 0 if i == 0 else pad_to[i - 1]
        mask = (trace.prompt_lens > lo) & (trace.prompt_lens <= cap)
        if not mask.any():
            continue
        gen = int(np.quantile(trace.gen_lens[mask], gen_quantile))
        out.append(Workload(prompt_len=cap, gen_len=max(gen, 1), global_batch=batch))
    return out
