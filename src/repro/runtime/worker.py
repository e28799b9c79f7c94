"""Pipeline stage worker.

Each worker is a thread owning one model shard (its layers already
quantized by the loader) and a KV manager.  It consumes activation
messages from its inbound queue, runs its decoder blocks with the exact
same :func:`~repro.models.transformer.decoder_block` computation as the
reference model, and forwards the result — the runtime therefore
*executes* plans rather than merely costing them, and its outputs are
bit-for-bit comparable against a single-process run.

Supervision: the message loop never blocks unboundedly.  Every inbound
``get`` uses a short timeout; between polls the worker refreshes its
heartbeat and checks both its own stop flag and the shared control
plane's abort flag, so a failure anywhere in the pipeline propagates in
*both* directions — downstream via a :class:`FailureMessage` riding the
data path, upstream via the abort flag — and no neighbour can deadlock
on a dead stage.

Hot path: the shard's resident representation is the *packed* quantized
codes; each decoder layer is materialized to dense weights through the
stage's :class:`~repro.runtime.dequant_cache.DequantCache`, so
steady-state decode never touches the packed codes while a cold (or
zero-budget) cache rebuilds them per message.  Under KV-allocation
pressure the worker sheds cached dense weights and retries the
allocation once before letting the engine's recovery ladder fire.
"""

from __future__ import annotations

import queue
import threading
import time

from ..models.config import ModelConfig
from ..models.transformer import batched_decode_block, decoder_block
from .dequant_cache import DequantCache
from .faults import FaultInjector, KVAllocationError
from .kvcache import StageKVManager
from .loader import StageLoad
from .messages import (
    ActivationMessage,
    BatchedDecodeMessage,
    FailureMessage,
    ReleaseMessage,
    ShutdownMessage,
)

__all__ = ["StageWorker"]


class StageWorker(threading.Thread):
    """One pipeline stage running on its own thread.

    Parameters
    ----------
    stage_idx:
        Position in the pipeline (0-based).
    cfg:
        Model architecture.
    load:
        The shard's prepared (quantized) weights.
    inbound / outbound:
        Message queues toward the previous / next hop.
    injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` consulted
        on every activation (and on every KV allocation via the
        manager's guard).
    control:
        Optional shared control plane (the engine's
        :class:`~repro.runtime.engine.PipelineControl`): crashes are
        reported to it and its abort flag is polled so the whole
        pipeline unwinds together.
    poll_interval:
        Heartbeat granularity: the bound on every blocking queue wait.
    dequant_cache:
        Optional per-device :class:`DequantCache` the shard's layers are
        materialized through.  ``None`` rebuilds dense weights on every
        message (the zero-budget baseline).
    """

    def __init__(
        self,
        stage_idx: int,
        cfg: ModelConfig,
        load: StageLoad,
        inbound: "queue.Queue",
        outbound: "queue.Queue",
        *,
        injector: FaultInjector | None = None,
        control=None,
        poll_interval: float = 0.05,
        dequant_cache: DequantCache | None = None,
        kv_bits: int = 16,
    ) -> None:
        super().__init__(name=f"stage-{stage_idx}", daemon=True)
        self.stage_idx = stage_idx
        self.cfg = cfg
        self.load = load
        self.inbound = inbound
        self.outbound = outbound
        self.injector = injector
        self.control = control
        self.poll_interval = poll_interval
        self.dequant_cache = dequant_cache
        self.kv_bits = kv_bits
        self.kv = StageKVManager(
            num_layers=load.num_layers,
            hidden_size=cfg.hidden_size,
            alloc_guard=self._make_kv_guard(),
            kv_bits=kv_bits,
            num_heads=cfg.num_heads,
        )
        self.processed_messages = 0
        self.error: BaseException | None = None
        self.heartbeat = time.monotonic()
        self._stop_event = threading.Event()

    def _make_kv_guard(self):
        """KV guard that sheds cached dense weights before failing.

        Cached ``W_hat`` tensors are rebuildable from the resident packed
        codes, so under allocation pressure they are freed first and the
        allocation retried once; only if the guard still denies does the
        :class:`KVAllocationError` escape to the recovery ladder.
        """
        if self.injector is None:
            return None
        inner = self.injector.kv_guard(self.stage_idx)

        def guard(requested_bytes: float) -> None:
            try:
                inner(requested_bytes)
            except KVAllocationError:
                cache = self.dequant_cache
                if cache is None or cache.shed(requested_bytes) <= 0:
                    raise
                inner(requested_bytes)

        return guard

    # ------------------------------------------------------------------
    def _process(self, msg: ActivationMessage) -> ActivationMessage:
        if msg.phase == "prefill":
            cache = self.kv.allocate(
                msg.microbatch_id,
                batch=msg.hidden.shape[0],
                max_len=msg.hidden.shape[1] + msg.reserve,
            )
        else:
            cache = self.kv.get(msg.microbatch_id)
        x = msg.hidden
        for li, qlayer in enumerate(self.load.qlayers):
            lw = qlayer.materialize(self.dequant_cache)
            x = decoder_block(self.cfg, lw, x, cache, li, msg.start)
        cache.length = msg.start + msg.hidden.shape[1]
        return ActivationMessage(
            microbatch_id=msg.microbatch_id,
            phase=msg.phase,
            start=msg.start,
            hidden=x,
            reserve=msg.reserve,
        )

    def _process_batched(self, msg: BatchedDecodeMessage) -> BatchedDecodeMessage:
        """One fused decode step: a single stacked GEMM per layer shared
        by every row of the message's units, ragged attention per row.

        The batched KV view reads and writes the same slab rows the
        batch-1 path sees through each unit's cache, so units still
        retire, migrate and replay individually.
        """
        view = self.kv.batch_view(msg.unit_ids, msg.starts)
        x = msg.hidden
        for li, qlayer in enumerate(self.load.qlayers):
            lw = qlayer.materialize(self.dequant_cache)
            x = batched_decode_block(self.cfg, lw, x, view, li, msg.starts)
        return BatchedDecodeMessage(unit_ids=msg.unit_ids, starts=msg.starts, hidden=x)

    def _should_exit(self) -> bool:
        if self._stop_event.is_set():
            return True
        return self.control is not None and self.control.aborted()

    def run(self) -> None:  # pragma: no cover - exercised via engine tests
        """Message loop: process activations until shutdown or failure."""
        try:
            while True:
                self.heartbeat = time.monotonic()
                if self._should_exit():
                    return
                try:
                    msg = self.inbound.get(timeout=self.poll_interval)
                except queue.Empty:
                    continue
                if isinstance(msg, ShutdownMessage):
                    self.outbound.put(msg)
                    return
                if isinstance(msg, FailureMessage):
                    self.outbound.put(msg)  # forward toward the master
                    continue
                if isinstance(msg, ReleaseMessage):
                    # eager retirement: riding the data path means the
                    # unit's last activation was already processed here
                    for uid in msg.unit_ids:
                        self.kv.release(uid)
                    self.outbound.put(msg)
                    continue
                if self.injector is not None:
                    # fused decode messages count as one activation — the
                    # iteration is one unit of stage work on the wire
                    action = self.injector.on_activation(
                        self.stage_idx, sleep=self._stop_event.wait
                    )
                    if action == "drop":
                        continue
                    if action == "corrupt":
                        corrupted = self.injector.corrupt(
                            self.stage_idx,
                            msg.hidden,
                            self.injector.corruption_scale(self.stage_idx),
                        )
                        if isinstance(msg, BatchedDecodeMessage):
                            msg = BatchedDecodeMessage(
                                unit_ids=msg.unit_ids,
                                starts=msg.starts,
                                hidden=corrupted,
                            )
                        else:
                            msg = ActivationMessage(
                                microbatch_id=msg.microbatch_id,
                                phase=msg.phase,
                                start=msg.start,
                                hidden=corrupted,
                                reserve=msg.reserve,
                            )
                if isinstance(msg, BatchedDecodeMessage):
                    out: ActivationMessage | BatchedDecodeMessage = (
                        self._process_batched(msg)
                    )
                else:
                    out = self._process(msg)
                self.processed_messages += 1
                self.outbound.put(out)
        except BaseException as exc:  # surface worker crashes to the master
            self.error = exc
            if self.control is not None:
                self.control.report_failure(self.stage_idx, exc)
            self.outbound.put(FailureMessage(self.stage_idx, repr(exc)))

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker and join, escalating instead of leaking.

        A polite :class:`ShutdownMessage` wakes a worker blocked on its
        inbound queue immediately; the stop flag covers every other loop
        position.  If the thread still refuses to exit after a second
        grace period (it can only be wedged inside a single layer's
        matmul), a :class:`RuntimeError` names the leaked thread instead
        of silently abandoning it.
        """
        self.inbound.put(ShutdownMessage())
        self._stop_event.set()
        self.join(timeout=timeout)
        if self.is_alive():
            self.join(timeout=timeout)  # escalation grace period
            if self.is_alive():
                raise RuntimeError(
                    f"stage {self.stage_idx} worker thread failed to stop "
                    f"within {2 * timeout:.1f}s (leaked thread {self.name!r})"
                )
