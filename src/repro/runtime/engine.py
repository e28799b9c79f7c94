"""Master engine: drives a real pipelined generative-serving run.

The :class:`PipelineRuntime` executes an :class:`~repro.core.plan.
ExecutionPlan` on actual NumPy compute: stage workers (threads) hold the
plan's quantized shards, the master handles pre/post-processing
(embedding lookup, final layer norm + logit projection, token sampling)
and the hybrid micro-batch schedule — prefill micro-batches flow through
the pipeline concurrently, then decode in the larger groups the assigner
planned: each group is the KV slab rows of its prefill units, and each
decode step of a group is one fused
:class:`~repro.runtime.messages.BatchedDecodeMessage` over them, so
regrouping copies no KV and peak KV is the prefill units' charge.

Because the computation is real, a runtime run on a tiny model can be
checked token-for-token against the single-process reference
(:func:`repro.models.generation.generate`), which is what the
integration tests do.

Fault tolerance (paper Sec. 5's recovery story, made concrete): every
blocking wait is bounded, worker health is tracked through a shared
:class:`PipelineControl`, and a stage failure — a crash, a stall, or a
denied KV allocation — takes one step of the recovery ladder, the same
step for offline ``generate`` and the continuous scheduler
(:meth:`PipelineRuntime._ladder`):

1. **retry** — rebuild the workers from the *cached* quantized shards
   (no re-quantization — the point of the on-the-fly loader), up to
   ``max_retries`` consecutive failures (the scheduler ends a run of
   failures at every completed token boundary).  A permanent KV denial
   — one no retry can change — skips this rung.
2. **replan** — on a permanent device loss (a stage that dies on every
   restart), call back into :func:`repro.core.api.replan_after_failure`
   to redistribute its layers over the surviving devices and serve the
   downgraded plan, at most :data:`MAX_REPLANS` times per runtime.

One rebuild, :meth:`PipelineRuntime.recover`, restarts the workers
under the plan the step returns.  Then ``generate`` re-serves the batch
— generation is seeded, so the replay is token-for-token identical to
an undisturbed run — and the scheduler replays its in-flight KV
(:meth:`~repro.runtime.scheduler.ContinuousScheduler.migrate`, which
also adopts drift and manual plan switches, rebuilding through the same
:meth:`~PipelineRuntime.recover` when they re-cut shards).

Deterministic failures for all of this come from
:class:`~repro.runtime.faults.FaultInjector`.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import stats
from ..core.plan import ExecutionPlan
from ..cost.memory import dequant_cache_budget, stage_memory
from ..models.generation import _pick
from ..models.registry import get_model
from ..models.transformer import TinyDecoderLM
from .dequant_cache import DequantCache, DequantCacheStats
from .faults import FaultInjector, KVAllocationError, PipelineStallError
from .loader import StageLoad, load_stage_weights
from .messages import (
    ActivationMessage,
    BatchedDecodeMessage,
    FailureMessage,
    ReleaseMessage,
    ShutdownMessage,
)
from .microbatch import MicroBatchManager
from .worker import StageWorker

__all__ = [
    "RuntimeStats",
    "SupervisionConfig",
    "PipelineControl",
    "StageFailureError",
    "PipelineRuntime",
]

#: Device losses the recovery ladder's replan rung absorbs per runtime.
MAX_REPLANS = 2


@dataclass
class RuntimeStats:
    """Wall-clock and fault accounting of a :class:`PipelineRuntime`."""

    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    prefill_microbatches: int = 0
    decode_groups: int = 0
    tokens_generated: int = 0
    # --- hot-path counters --------------------------------------------
    prefill_tokens: int = 0      #: prompt tokens pushed through prefill
    decode_tokens: int = 0       #: tokens produced by decode steps
    dequant_cache_hits: int = 0      #: layer materializations served cached
    dequant_cache_misses: int = 0    #: layer materializations rebuilt
    dequant_cache_evictions: int = 0  #: LRU drops to respect the byte budget
    dequant_cache_sheds: int = 0      #: drops forced by KV pressure
    dequant_build_seconds: float = 0.0  #: wall-clock unpacking/dequantizing
    dequant_cache_budget_bytes: float = 0.0  #: summed per-stage budgets
    # --- per-request serving metrics ----------------------------------
    #: completion latency (admission/arrival -> last token) per request
    request_latencies: list[float] = field(default_factory=list)
    #: time to first token (admission/arrival -> prefill token) per request
    request_ttfts: list[float] = field(default_factory=list)
    # --- fault-tolerance counters -------------------------------------
    retries: int = 0             #: stage failures the recovery ladder took
    stage_restarts: int = 0      #: workers rebuilt from cached shards
    kv_alloc_failures: int = 0   #: KV allocations denied
    replans: int = 0             #: plans rebuilt after permanent device loss
    replayed_microbatches: int = 0  #: in-flight units lost to failures
    recovery_seconds: float = 0.0   #: wall-clock spent rebuilding workers
    # --- fused-decode counters ------------------------------------------
    fused_iterations: int = 0    #: decode iterations run as one ragged batch
    fused_batch_sum: int = 0     #: total requests across fused iterations
    fused_batch_max: int = 0     #: largest fused decode batch seen
    #: weight bytes *not* re-streamed thanks to fusing: each iteration
    #: charges the stage weight stream once instead of once per request
    fused_weight_bytes_saved: float = 0.0
    # --- KV slab (summed over stages) -----------------------------------
    kv_view_steps: int = 0     #: fused stage steps read as one slab slice
    kv_gather_steps: int = 0   #: fused stage steps gathered row by row
    kv_slab_rows: int = 0      #: rows the live slabs reserve
    kv_slab_bytes: float = 0.0  #: bytes the live slabs reserve (physical)
    kv_peak_bytes: float = 0.0  #: peak logical KV bytes of the live stages

    @property
    def total_seconds(self) -> float:
        """Prefill + decode wall-clock."""
        return self.prefill_seconds + self.decode_seconds

    @property
    def prefill_tokens_per_s(self) -> float:
        """Prompt tokens processed per second of prefill wall-clock."""
        return self.prefill_tokens / self.prefill_seconds if self.prefill_seconds else 0.0

    @property
    def decode_tokens_per_s(self) -> float:
        """Tokens produced per second of steady-state decode wall-clock."""
        return self.decode_tokens / self.decode_seconds if self.decode_seconds else 0.0

    @property
    def fused_batch_mean(self) -> float:
        """Mean decode batch size across fused iterations (0 when none)."""
        return (
            self.fused_batch_sum / self.fused_iterations
            if self.fused_iterations
            else 0.0
        )

    def _latency_pct(self, q: float) -> float:
        return stats.percentile(self.request_latencies, q, empty=0.0)

    @property
    def latency_p50(self) -> float:
        """Median request completion latency (seconds)."""
        return self._latency_pct(50)

    @property
    def latency_p95(self) -> float:
        """95th-percentile request completion latency (seconds)."""
        return self._latency_pct(95)

    @property
    def latency_p99(self) -> float:
        """99th-percentile request completion latency (seconds)."""
        return self._latency_pct(99)

    @property
    def ttft_mean(self) -> float:
        """Mean time-to-first-token across requests (seconds)."""
        return stats.mean(self.request_ttfts, empty=0.0)

    @property
    def ttft_p95(self) -> float:
        """95th-percentile time-to-first-token (seconds)."""
        return stats.percentile(self.request_ttfts, 95, empty=0.0)


@dataclass(frozen=True)
class SupervisionConfig:
    """Bounds and switches for the runtime's fault handling."""

    queue_timeout: float = 30.0      #: master wait for pipeline progress
    heartbeat_interval: float = 0.05  #: worker poll / heartbeat granularity
    join_timeout: float = 5.0        #: per-worker stop() join bound
    max_retries: int = 3             #: batch replays before escalating
    enable_recovery: bool = True     #: False = fail fast with RuntimeError
    replan_on_permanent_failure: bool = False


class PipelineControl:
    """Shared control plane: first-failure record + abort flag.

    Workers report crashes here; every worker (and the master's
    collector) polls :meth:`aborted` between bounded queue waits, so a
    failure propagates to *both* pipeline directions without relying on
    the data path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._abort = threading.Event()
        self.failure: tuple[int, BaseException] | None = None

    def report_failure(self, stage_idx: int, exc: BaseException) -> None:
        """Record the first failure and raise the abort flag."""
        with self._lock:
            if self.failure is None:
                self.failure = (stage_idx, exc)
        self._abort.set()

    def aborted(self) -> bool:
        """True once any stage has failed."""
        return self._abort.is_set()


class StageFailureError(RuntimeError):
    """Internal signal: a serving attempt died and may be retried."""

    def __init__(self, stage_idx: int | None, cause: BaseException, message: str):
        super().__init__(message)
        self.stage_idx = stage_idx
        self.cause = cause


class PipelineRuntime:
    """Supervised thread-pipelined executor for tiny models.

    Parameters
    ----------
    reference:
        Full-precision model providing weights + embedding tables.  The
        loader quantizes each stage's slice per the plan.
    plan:
        The assigner's output.  ``plan.model_name`` must match the
        reference's config.
    fault_injector:
        Optional deterministic fault driver (crashes, stragglers,
        drops, corruption, KV pressure).
    supervision:
        Timeouts and retry/degradation bounds; the defaults recover
        transparently from transient faults.
    dequant_cache_mb:
        Per-stage byte budget (in MiB) for the dequantized-weight cache.
        ``None`` (default) derives each stage's budget from the plan's
        per-device memory slack via
        :func:`repro.cost.memory.dequant_cache_budget`; ``0`` disables
        caching entirely, reproducing the rebuild-every-call baseline.
    """

    def __init__(
        self,
        reference: TinyDecoderLM,
        plan: ExecutionPlan,
        *,
        fault_injector: FaultInjector | None = None,
        supervision: SupervisionConfig | None = None,
        dequant_cache_mb: float | None = None,
    ) -> None:
        cfg = get_model(plan.model_name)
        if cfg != reference.cfg:
            raise ValueError("plan and reference model configs differ")
        if dequant_cache_mb is not None and not (
            math.isfinite(dequant_cache_mb) and dequant_cache_mb >= 0
        ):
            raise ValueError("dequant_cache_mb must be finite and >= 0")
        self.cfg = cfg
        self.reference = reference
        self.plan = plan
        self.original_plan = plan
        self.injector = fault_injector
        self.supervision = supervision or SupervisionConfig()
        self._dequant_cache_mb = dequant_cache_mb

        # prepared (quantized) shard weights are cached so that failure
        # recovery does not pay the quantization cost again — the point
        # of the paper's on-the-fly loader (Sec. 5)
        self._loads: list[StageLoad] = []
        self.dequant_caches: list[DequantCache] = []
        self._folded_cache_stats = DequantCacheStats()
        self._folded_kv_steps = [0, 0]  # slice / gather steps of replaced workers
        self._build_loads()
        self.queues: list[queue.Queue] = []
        self.workers: list[StageWorker] = []
        self.control = PipelineControl()
        self._build_pipeline()
        self._alive = True
        self._failures = 0  # consecutive ladder failures under the current plan
        self.stats = RuntimeStats()
        self._sync_cache_stats()

    def _build_loads(self) -> None:
        # fold counters of caches about to be replaced (replan re-cuts
        # shards) into the running totals so stats stay monotonic
        for cache in getattr(self, "dequant_caches", []):
            self._fold_cache_stats(cache)
        self._loads = []
        self.dequant_caches = []
        offset = 0
        for j, stage in enumerate(self.plan.stages):
            indices = list(range(offset, offset + stage.num_layers))
            offset += stage.num_layers
            load = load_stage_weights(self.reference, indices, stage.layer_bits)
            self._loads.append(load)
            self.dequant_caches.append(
                DequantCache(self._stage_cache_budget(j, load))
            )

    def _fold_cache_stats(self, cache: DequantCache) -> None:
        f, s = self._folded_cache_stats, cache.stats
        f.hits += s.hits
        f.misses += s.misses
        f.evictions += s.evictions
        f.sheds += s.sheds
        f.build_seconds += s.build_seconds

    def _sync_cache_stats(self) -> None:
        """Publish dequant-cache and KV-slab counters (folded + live) onto
        ``stats``."""
        f = self._folded_cache_stats
        live = [c.stats for c in self.dequant_caches]
        self.stats.dequant_cache_hits = f.hits + sum(s.hits for s in live)
        self.stats.dequant_cache_misses = f.misses + sum(s.misses for s in live)
        self.stats.dequant_cache_evictions = (
            f.evictions + sum(s.evictions for s in live)
        )
        self.stats.dequant_cache_sheds = f.sheds + sum(s.sheds for s in live)
        self.stats.dequant_build_seconds = (
            f.build_seconds + sum(s.build_seconds for s in live)
        )
        self.stats.dequant_cache_budget_bytes = float(
            sum(c.budget_bytes for c in self.dequant_caches)
        )
        kvs = [w.kv for w in self.workers]
        view, gather = self._folded_kv_steps
        self.stats.kv_view_steps = view + sum(kv.view_steps for kv in kvs)
        self.stats.kv_gather_steps = gather + sum(kv.gather_steps for kv in kvs)
        self.stats.kv_slab_rows = sum(kv.slab_rows for kv in kvs)
        self.stats.kv_slab_bytes = sum(kv.slab_bytes for kv in kvs)
        self.stats.kv_peak_bytes = sum(kv.peak_bytes for kv in kvs)

    def _stage_cache_budget(self, stage_idx: int, load: StageLoad) -> float:
        """Byte budget of one stage's dequant cache.

        With no explicit override the budget is the device's memory slack
        under the planner's own accounting (Sec.-4.1 model), capped at
        the bytes a full cache of this shard would use — so runtime
        residency stays inside the memory the plan was admitted with.
        """
        if self._dequant_cache_mb is not None:
            return float(self._dequant_cache_mb) * 2**20
        stage = self.plan.stages[stage_idx]
        wl = self.plan.workload
        base = stage_memory(
            self.cfg, stage.layer_bits,
            global_batch=wl.global_batch,
            prompt_len=wl.prompt_len,
            gen_len=wl.gen_len,
            prefill_microbatch=self.plan.prefill_microbatch,
            decode_microbatch=self.plan.decode_microbatch,
            is_first=stage_idx == 0,
            is_last=stage_idx == self.plan.num_stages - 1,
            kv_bits=stage.kv_bits,
        )
        return dequant_cache_budget(
            base, stage.device.spec.memory_bytes,
            want_bytes=load.dense_cache_bytes,
        )

    def _build_pipeline(self) -> None:
        for w in self.workers:  # keep the step counts of workers being replaced
            self._folded_kv_steps[0] += w.kv.view_steps
            self._folded_kv_steps[1] += w.kv.gather_steps
        self.control = PipelineControl()
        self.queues = [queue.Queue() for _ in range(self.plan.num_stages + 1)]
        self.workers = [
            StageWorker(
                j, self.cfg, load, self.queues[j], self.queues[j + 1],
                injector=self.injector,
                control=self.control,
                poll_interval=self.supervision.heartbeat_interval,
                dequant_cache=self.dequant_caches[j],
                kv_bits=self.plan.stages[j].kv_bits,
            )
            for j, load in enumerate(self._loads)
        ]
        for w in self.workers:
            w.start()

    # ------------------------------------------------------------------
    # Recovery machinery
    # ------------------------------------------------------------------
    def _same_shards(self, plan: ExecutionPlan) -> bool:
        """True when ``plan`` keeps the current layer split and per-layer
        weight and KV bitwidths (its shards are the cached ones)."""
        if plan.model_name != self.plan.model_name:
            raise ValueError("a plan switch cannot change the model")
        old, new = (
            [(s.num_layers, s.layer_bits, s.kv_bits) for s in p.stages]
            for p in (self.plan, plan)
        )
        return old == new

    def recover(self, plan: ExecutionPlan | None = None) -> None:
        """Switch to ``plan`` (default: the current one) and restart every
        worker, even when the shards are unchanged.

        The one rebuild behind ``generate``'s recovery, the scheduler's
        shard-changing and forced migrations
        (:meth:`~repro.runtime.scheduler.ContinuousScheduler.migrate`)
        and manual recovery.
        Shards are re-cut from the full-precision reference only when
        the plan changes them; otherwise weight preparation is skipped,
        which is the recovery-speed win the paper's loading plugin
        claims.  KV state is lost: the caller re-serves (offline) or
        replays (online) what was in flight.
        """
        plan = plan or self.plan
        t0 = time.perf_counter()
        recut = not self._same_shards(plan)
        self.plan = plan
        if recut:
            self._build_loads()
        crashed = sum(1 for w in self.workers if w.error is not None)
        stuck: list[str] = []
        for w in self.workers:
            try:
                w.stop(timeout=self.supervision.join_timeout)
            except RuntimeError as e:  # pragma: no cover - defensive
                stuck.append(str(e))
            if self.injector is not None:
                self.injector.notify_restart(w.stage_idx)
        if stuck:  # pragma: no cover - defensive
            raise RuntimeError("; ".join(stuck))
        self._build_pipeline()
        self.stats.stage_restarts += max(crashed, 1)
        self.stats.recovery_seconds += time.perf_counter() - t0
        self._alive = True

    def _ladder(self, err: StageFailureError) -> ExecutionPlan:
        """One step of the recovery ladder, shared by offline ``generate``
        and the continuous scheduler: count ``err`` and return the plan
        to rebuild under.

        Every failure taken counts a retry (and a KV denial when that
        was the cause).  Up to ``max_retries`` consecutive failures the
        plan is the current one; the next — or at once, a permanent KV
        denial, which no retry can change — escalates to the
        bit-preserving :func:`~repro.core.api.replan_after_failure`
        plan, which drops the dead stage's device (retired from fault
        injection) and redistributes its layers to the surviving
        neighbours — counted as a replan, and the retry budget starts
        over on it.  Stops the workers and raises ``RuntimeError`` when
        recovery is off or the ladder is exhausted.
        """
        sup = self.supervision
        if not sup.enable_recovery:
            self._fail_cleanly(err)
        self.stats.retries += 1
        permanent = False
        if isinstance(err.cause, KVAllocationError):
            self.stats.kv_alloc_failures += 1
            permanent = err.cause.permanent
        self._failures += 1
        if self._failures <= sup.max_retries and not permanent:
            return self.plan
        if not (
            sup.replan_on_permanent_failure
            and err.stage_idx is not None
            and self.plan.num_stages > 1
            and self.stats.replans < MAX_REPLANS
        ):
            self._fail_cleanly(err)
        from ..core.api import replan_after_failure

        new_plan = replan_after_failure(self.plan, err.stage_idx)
        if self.injector is not None:
            self.injector.retire_stage(err.stage_idx)
        self.stats.replans += 1
        self._failures = 0
        return new_plan

    def _fail_cleanly(self, err: StageFailureError) -> None:
        """Stop everything and surface a clean RuntimeError (no deadlock)."""
        self._alive = False
        problems: list[str] = []
        for w in self.workers:
            try:
                w.stop(timeout=self.supervision.join_timeout)
            except RuntimeError as e:  # pragma: no cover - defensive
                problems.append(str(e))
        detail = f" ({'; '.join(problems)})" if problems else ""
        where = (
            f"stage {err.stage_idx}" if err.stage_idx is not None else "pipeline"
        )
        raise RuntimeError(f"{where} failed: {err.cause!r}{detail}") from err.cause

    # ------------------------------------------------------------------
    @property
    def head(self) -> queue.Queue:
        """Inbound queue of the first stage."""
        return self.queues[0]

    @property
    def tail(self) -> queue.Queue:
        """Outbound queue of the last stage."""
        return self.queues[-1]

    def _check_health(self) -> None:
        if self.control.failure is not None:
            stage_idx, exc = self.control.failure
            raise StageFailureError(
                stage_idx, exc, f"stage {stage_idx} failed: {exc!r}"
            )
        for w in self.workers:
            if not w.is_alive():
                exc = w.error or RuntimeError(f"stage {w.stage_idx} worker died")
                raise StageFailureError(
                    w.stage_idx, exc, f"stage {w.stage_idx} died: {exc!r}"
                )

    def _next_message(self, what: str):
        """Bounded wait on the tail with health checks between polls.

        The deadline measures *progress*: it spans one message, not the
        whole phase, so slow-but-alive stages (stragglers) never trip it
        while a dropped message or a silent wedge does.
        """
        deadline = time.monotonic() + self.supervision.queue_timeout
        while True:
            self._check_health()
            try:
                msg = self.tail.get(timeout=min(self.supervision.heartbeat_interval, 0.05))
            except queue.Empty:
                if time.monotonic() >= deadline:
                    cause = PipelineStallError(
                        f"no progress for {self.supervision.queue_timeout:.1f}s "
                        f"while waiting for {what}"
                    )
                    raise StageFailureError(None, cause, str(cause))
                continue
            if isinstance(msg, FailureMessage):
                stage_idx = msg.stage_idx
                exc = next(
                    (w.error for w in self.workers
                     if w.stage_idx == stage_idx and w.error is not None),
                    None,
                ) or RuntimeError(msg.error)
                raise StageFailureError(
                    stage_idx, exc, f"stage {stage_idx} failed: {msg.error}"
                )
            if isinstance(msg, ShutdownMessage):
                cause = RuntimeError("pipeline shut down unexpectedly")
                raise StageFailureError(None, cause, str(cause))
            return msg

    def _collect(
        self, count: int
    ) -> dict[int, ActivationMessage | BatchedDecodeMessage]:
        """Drain ``count`` results, keyed by unit id (a fused decode
        message by its first unit)."""
        out: dict[int, ActivationMessage | BatchedDecodeMessage] = {}
        while len(out) < count:
            msg = self._next_message(f"activation {len(out) + 1}/{count}")
            if isinstance(msg, ReleaseMessage):
                continue  # stray control ack; not an activation
            if isinstance(msg, BatchedDecodeMessage):
                out[msg.unit_ids[0]] = msg
            else:
                out[msg.microbatch_id] = msg
        return out

    def _logits_last(self, hidden: np.ndarray) -> np.ndarray:
        """Master post-processing: final LN + tied LM head, last position."""
        return self.reference._logits(hidden[:, -1:])[:, 0]

    # ------------------------------------------------------------------
    def generate(
        self, prompts: np.ndarray, num_tokens: int, *, greedy: bool = True, seed: int = 0
    ) -> np.ndarray:
        """Serve one offline batch; returns ``(batch, num_tokens)`` ids.

        Supervised: stage crashes, stalls and denied KV allocations
        inside the attempt are handled per the ladder (retry → replan)
        within the configured bounds; only when the ladder is exhausted
        — or recovery is disabled — does a :class:`RuntimeError` escape,
        and it does so within the configured timeouts rather than
        deadlocking.
        """
        if not self._alive:
            raise RuntimeError("runtime already shut down")
        prompts = np.asarray(prompts)
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        self.cfg.check_positions(prompts.shape[-1], num_tokens)
        self._failures = 0
        while True:
            try:
                return self._serve_batch(prompts, num_tokens, greedy, seed)
            except StageFailureError as err:
                self._sync_cache_stats()
                self.recover(self._ladder(err))

    def _serve_batch(
        self, prompts: np.ndarray, num_tokens: int, greedy: bool, seed: int
    ) -> np.ndarray:
        """One unsupervised serving attempt (raises StageFailureError).

        Each phase puts every unit in before collecting any, and only a
        collect fails, so a failed attempt loses all its units in flight:
        they count as replayed micro-batches.
        """
        rng = np.random.default_rng(seed)
        batch, s = prompts.shape
        split = MicroBatchManager(
            batch,
            min(self.plan.prefill_microbatch, batch),
            min(self.plan.decode_microbatch, batch),
        )
        units, groups = split.prefill_units, split.decode_groups
        try:
            # ---------------- prefill (all units in flight at once) ----
            t0 = time.perf_counter()
            for uid, sl in units:
                x = self.reference._embed(prompts[sl], 0)
                self.head.put(
                    ActivationMessage(
                        microbatch_id=uid, phase="prefill", start=0,
                        hidden=x, reserve=num_tokens,
                    )
                )
            outs = self._collect(len(units))
            tokens = np.empty((batch, num_tokens), dtype=np.int64)
            current = np.empty(batch, dtype=np.int64)
            for uid, sl in units:
                logits = self._logits_last(outs[uid].hidden)
                current[sl] = _pick(logits, greedy, rng)
            tokens[:, 0] = current
            prefill_elapsed = time.perf_counter() - t0
            self.stats.prefill_seconds += prefill_elapsed
            self.stats.prefill_microbatches += len(units)
            self.stats.prefill_tokens += batch * s

            # ---------------- decode loop -------------------------------
            # one fused message per group and step, over its units' slab
            # rows; every group of a step goes in before collecting, so
            # stages overlap
            t1 = time.perf_counter()
            self.stats.decode_groups = len(groups)
            for step in range(1, num_tokens):
                start = s + step - 1
                for members, sl in groups:
                    x = self.reference._embed(current[sl].reshape(-1, 1), start)
                    self.head.put(
                        BatchedDecodeMessage(
                            unit_ids=members,
                            starts=np.full(len(x), start, dtype=np.int64),
                            hidden=x,
                        )
                    )
                outs = self._collect(len(groups))
                for members, sl in groups:
                    logits = self._logits_last(outs[members[0]].hidden)
                    current[sl] = _pick(logits, greedy, rng)
                tokens[:, step] = current
        except StageFailureError:
            self.stats.replayed_microbatches += len(units)
            raise
        decode_elapsed = time.perf_counter() - t1
        self.stats.decode_seconds += decode_elapsed
        self.stats.tokens_generated += batch * num_tokens
        self.stats.decode_tokens += batch * (num_tokens - 1)
        # offline batches admit everyone at t=0 and finish together, so
        # every request shares the wave's TTFT and completion latency —
        # recorded only on the successful attempt (retries never get here)
        self.stats.request_ttfts.extend([prefill_elapsed] * batch)
        self.stats.request_latencies.extend(
            [prefill_elapsed + decode_elapsed] * batch
        )
        self._sync_cache_stats()

        # free the batch's units for the next batch
        for w in self.workers:
            w.kv.free_all()
        return tokens

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop all stage workers and join with escalation (idempotent)."""
        if not self._alive:
            return
        self._alive = False
        problems: list[str] = []
        for w in self.workers:
            try:
                w.stop(timeout=self.supervision.join_timeout)
            except RuntimeError as e:  # pragma: no cover - defensive
                problems.append(str(e))
        if problems:  # pragma: no cover - defensive
            raise RuntimeError("shutdown leaked threads: " + "; ".join(problems))

    def __enter__(self) -> "PipelineRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

