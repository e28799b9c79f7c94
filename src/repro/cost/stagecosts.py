"""Single source of truth for per-stage serving costs.

The paper's argument (Sec. 4.1 + Fig. 7) only holds if the planner, the
simulators, and the runtime's admission control all price a plan with the
*same* cost model: :class:`StageCostModel` is the one place per-stage
prefill/decode busy times, boundary comm, and KV/memory charges are
derived.

Given an :class:`~repro.core.plan.ExecutionPlan` (plus a
:class:`~repro.hardware.cluster.Cluster` when comm times are needed) it
produces every cost view the consumers need:

* ``stage_rows()`` — one :class:`StageRow` per stage, built by
  :func:`stage_row`, the only code that prices a stage's offline terms:
  prefill busy time, the decode row over the full ``s+1 .. s+n`` context
  sweep (embedding/logit work on the head/tail stages and boundary comm
  folded in), the modelled peak memory and the outbound transfers.  The
  closed-form simulator, the DES and the planner's scorer all compose
  from these rows;
* ``unit_prefill_times`` / ``unit_decode_times`` (and their ``_batch``
  forms) — the continuous (iteration-level) scheduler's batch-1 prefill
  unit and fused decode group, both evaluated as one vectorized roofline
  against a precomputed per-(stage, bits) constant table (a single
  decode unit is row 0 of the batch table);
* ``stage_memory_views`` / ``max_admissible_batch`` / ``kv_headroom`` /
  ``request_kv_bytes`` — the planner's Sec.-4.1 memory accounting, shared
  verbatim by the online simulator and the real
  :class:`~repro.runtime.scheduler.ContinuousScheduler`;
* ``kv_token_charges`` / ``kv_token_budget`` — the same KV pool counted
  in token slots: what one slot costs per stage and how many fit, the one
  admission ledger of the trace engine, the fleet router and the runtime
  scheduler — and :func:`admit_run`, the one FIFO admission rule on that
  ledger (its wave prefix is :func:`wave_admits`).

The time source is selectable: ``source="kernels"`` prices with the
ground-truth roofline kernels (the simulated hardware), ``source="model"``
with a fitted :class:`~repro.cost.latency.LatencyModel` — the planner's
view of the world — whose stage rows are memoised in the run's
:class:`~repro.cost.predictions.PredictionCache`, so planner and evaluator
literally share floats.  ``tests/sim/test_costview_equality.py`` pins
every formula here bit for bit against committed goldens and the
layer-at-a-time spec in ``tests/sim/costview_spec.py``.

Simulator modules are imported lazily inside methods, so cost- or
workload-only users never pay the ``repro.sim`` import.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ..models.registry import get_model
from ..ops import ACT_BYTES
from .latency import LatencyModel, Phase
from .memory import FRAMEWORK_OVERHEAD_BYTES, StageMemory, stage_memory
from .predictions import PredictionCache

if TYPE_CHECKING:  # pragma: no cover - type-only imports, no cycles
    from ..core.plan import ExecutionPlan
    from ..hardware.cluster import Cluster
    from ..hardware.gpu import GPUSpec
    from ..hardware.interconnect import Link
    from ..models.config import ModelConfig
    from ..workload.spec import Workload

__all__ = [
    "StageCostModel", "StageRow", "stage_row", "planner_time_tables",
    "admit_run", "wave_admits",
]


def _decode_batches(batches) -> np.ndarray:
    """Decode batch sizes as int64 — the one check both decode-unit entry
    points share: whole numbers >= 1, anything else one ``ValueError``."""
    raw = np.asarray(batches)
    b = raw.astype(np.int64, copy=False)
    if (raw.dtype.kind not in "iu" and not np.array_equal(b, raw)) or (
        b.size and int(b.min()) < 1
    ):
        raise ValueError("decode batch sizes must be whole numbers >= 1")
    return b


# ----------------------------------------------------------------------
# one stage's offline terms: the row every offline consumer composes from
# ----------------------------------------------------------------------
def _prefill_busy(
    cache: PredictionCache | None, cfg: "ModelConfig", gpu: "GPUSpec",
    link: "Link", layer_bits: tuple[int, ...], kv_bits: int, batch: int, s: int,
    *, first: bool, last: bool,
) -> tuple[float, float]:
    """One ``batch x s`` prefill micro-batch on a stage: its busy time and
    its outbound transfer.  The layers are summed in layer order, each
    distinct bitwidth priced once (through ``cache`` with the fitted
    model, else by the kernels); then the embedding lookup (head), the
    logits of the last position (tail) and the transfer over ``link``
    (every stage but the tail, whose transfer is 0) are added in turn."""
    from ..sim.comm import stage_comm_time
    from ..sim.kernels import embedding_exec_time, layer_exec_time

    if cache is None:
        per_bits = {
            b: layer_exec_time(gpu, cfg, b, batch, s, s, kv_bits=kv_bits)
            for b in dict.fromkeys(layer_bits)
        }
    else:
        per_bits = {
            b: cache.layer_time(gpu.name, b, "prefill", batch, s, s, kv_bits)
            for b in dict.fromkeys(layer_bits)
        }
    t = float(sum(per_bits[b] for b in layer_bits))
    if first:
        t += embedding_exec_time(gpu, cfg, batch, s, with_logits=False)
    if last:
        return t + embedding_exec_time(gpu, cfg, batch, 1, with_logits=True), 0.0
    comm = stage_comm_time(link, cfg, batch, s)
    return t + comm, comm


class StageRow(NamedTuple):
    """One stage's complete terms in the offline pipeline at one plan
    shape — what :func:`~repro.sim.pipeline.compose_pipeline` and the
    DES read."""

    prefill: float  #: per-micro-batch prefill busy time, transfer included
    decode: np.ndarray | None  #: decode busy time per context (read-only)
    memory: StageMemory  #: modelled peak memory
    prefill_comm: float  #: outbound prefill transfer (0 on the tail)
    decode_comm: float  #: outbound decode transfer (the tail's: feedback)


def stage_row(
    cache: PredictionCache | None,
    cfg: "ModelConfig",
    workload: "Workload",
    gpu: "GPUSpec",
    link: "Link",
    layer_bits: tuple[int, ...],
    kv_bits: int,
    *,
    first: bool,
    last: bool,
    prefill_microbatch: int,
    decode_microbatch: int,
) -> StageRow:
    """The offline terms of a stage on ``gpu`` holding ``layer_bits`` at
    ``kv_bits``, sending over ``link`` (the tail sends its tokens back to
    the head), at the head and/or tail of the pipeline: prefill busy
    time, the decode row over :func:`~repro.sim.pipeline.decode_contexts`
    (``None`` without decode passes; the layers plus the head's embedding
    and the tail's logits, then the transfer), the modelled peak memory
    and both outbound transfers.

    With a ``cache`` (the fitted model) the row is memoised in
    :meth:`PredictionCache.stage` under everything it reads, so the
    planner's scorer and every simulation of its plans share it; without
    one it is priced by the kernels."""
    mb_p, mb_d = prefill_microbatch, decode_microbatch
    gb, s, n = workload.global_batch, workload.prompt_len, workload.gen_len

    def build() -> StageRow:
        from ..sim.comm import stage_comm_time
        from ..sim.kernels import embedding_exec_time, layer_exec_times_decode_sweep
        from ..sim.pipeline import decode_contexts

        pre, pre_comm = _prefill_busy(
            cache, cfg, gpu, link, layer_bits, kv_bits, mb_p, s,
            first=first, last=last,
        )
        dec_comm = stage_comm_time(link, cfg, mb_d, 1)
        contexts = decode_contexts(workload)
        dec = None
        if contexts is not None:
            dec = np.zeros_like(contexts)
            for bits, count in Counter(layer_bits).items():
                dec += count * (
                    layer_exec_times_decode_sweep(
                        gpu, cfg, bits, mb_d, contexts, kv_bits=kv_bits
                    ) if cache is None
                    else cache.decode_sweep(gpu.name, bits, mb_d, contexts, kv_bits)
                )
            extra = 0.0
            if first:
                extra += embedding_exec_time(gpu, cfg, mb_d, 1, with_logits=False)
            if last:
                extra += embedding_exec_time(gpu, cfg, mb_d, 1, with_logits=True)
            dec = dec + extra
            dec += dec_comm
            dec.setflags(write=False)
        mem = stage_memory(
            cfg, layer_bits, global_batch=gb, prompt_len=s, gen_len=n,
            prefill_microbatch=mb_p, decode_microbatch=mb_d,
            is_first=first, is_last=last, kv_bits=kv_bits,
        )
        return StageRow(pre, dec, mem, pre_comm, dec_comm)

    if cache is None:
        return build()
    key = (first, last, gpu.name, link, layer_bits, kv_bits, mb_p, mb_d, gb, s, n)
    return cache.stage(key, build)


class StageCostModel:
    """Vectorized, memoized per-stage cost tables for one plan.

    Parameters
    ----------
    plan:
        The execution plan being priced.
    cluster:
        Required for any view that includes boundary comm times
        (``stage_rows``, ``unit_*_times``); memory-only consumers may
        omit it.
    source:
        ``"kernels"`` (default) prices layer times with the ground-truth
        roofline kernels; ``"model"`` with the fitted latency model.
        Defaults to ``"model"`` when ``latency_model``/``prediction_cache``
        is given.
    latency_model / prediction_cache:
        The fitted cost model and its shared memo for ``source="model"``.
        Passing only a cache implies its model; passing only a model
        wraps it in a fresh cache.
    cfg:
        Architecture override for plans whose ``model_name`` is not in
        the registry (the runtime's tiny test models).

    KV-cache bitwidths are read from ``StagePlan.kv_bits`` and drive both
    the memory views and the decode/prefill KV stream.
    """

    def __init__(
        self,
        plan: "ExecutionPlan",
        cluster: "Cluster | None" = None,
        *,
        source: str | None = None,
        latency_model: LatencyModel | None = None,
        prediction_cache: PredictionCache | None = None,
        cfg: "ModelConfig | None" = None,
    ) -> None:
        if prediction_cache is not None and latency_model is None:
            latency_model = prediction_cache.model
        if source is None:
            source = "model" if latency_model is not None else "kernels"
        if source not in ("kernels", "model"):
            raise ValueError(f"unknown cost source {source!r}")
        if source == "model":
            if latency_model is None:
                raise ValueError(
                    "source='model' needs a latency_model or prediction_cache"
                )
            if prediction_cache is None:
                prediction_cache = PredictionCache(latency_model)
        self.plan = plan
        self.cluster = cluster
        self.cfg = cfg if cfg is not None else get_model(plan.model_name)
        self.source = source
        self.model = latency_model
        self.prediction_cache = prediction_cache
        # the run's stage-row memo, model source only
        self._stage_cache = prediction_cache if source == "model" else None
        self._kv = plan.kv_bits_per_stage
        self._gpus = [s.device.spec for s in plan.stages]
        self._links = None
        # shape-keyed memos (shared with derive()d re-shapes of the plan)
        self._emb_memo: dict = {}
        self._comm_memo: dict = {}
        self._unit_prefill_memo: dict = {}
        self._mem_memo: dict = {}
        self._pairs = None
        self._decode_table_memo: dict = {}
        self._token_charges = None
        # plan-workload-specific memos (never shared)
        self._views = None
        self._headroom_base = None
        self._token_budget = None

    # ------------------------------------------------------------------
    # infrastructure
    # ------------------------------------------------------------------
    def _require_links(self):
        if self._links is None:
            if self.cluster is None:
                raise ValueError(
                    "comm times need a Cluster; construct the StageCostModel "
                    "with cluster=..."
                )
            from ..sim.comm import boundary_links

            self._links = boundary_links(
                self.cluster, [s.device for s in self.plan.stages]
            )
        return self._links

    def comm_time(self, j: int, microbatch: int, q: int) -> float:
        """Boundary ``j``'s activation-transfer time for one micro-batch."""
        key = (j, microbatch, q)
        t = self._comm_memo.get(key)
        if t is None:
            from ..sim.comm import stage_comm_time

            t = stage_comm_time(self._require_links()[j], self.cfg, microbatch, q)
            self._comm_memo[key] = t
        return t

    def _emb_time(self, j: int, batch: int, q: int, with_logits: bool) -> float:
        gpu = self._gpus[j]
        key = (gpu.name, batch, q, with_logits)
        t = self._emb_memo.get(key)
        if t is None:
            from ..sim.kernels import embedding_exec_time

            t = embedding_exec_time(gpu, self.cfg, batch, q, with_logits=with_logits)
            self._emb_memo[key] = t
        return t

    def layer_time(
        self,
        j: int,
        bits: int,
        phase: Phase,
        batch: int,
        q: int,
        context: int,
        *,
        kv_bits: int = 16,
    ) -> float:
        """Seconds for one layer of stage ``j`` under the active source."""
        gpu = self._gpus[j]
        if self.source == "model":
            return self.prediction_cache.layer_time(
                gpu.name, bits, phase, batch, q, context, kv_bits
            )
        from ..sim.kernels import layer_exec_time

        return layer_exec_time(gpu, self.cfg, bits, batch, q, context, kv_bits=kv_bits)

    # ------------------------------------------------------------------
    # offline pipeline rows (analytic simulator, DES, planner)
    # ------------------------------------------------------------------
    def stage_rows(self) -> tuple[StageRow, ...]:
        """One :func:`stage_row` per plan stage at the plan's own shape —
        what the closed form, the DES and the planner's scorer compose
        from; ``source="model"`` reads them through the run's
        :class:`PredictionCache` row memo."""
        plan, n = self.plan, self.plan.num_stages
        links = self._require_links()
        return tuple(
            stage_row(
                self._stage_cache, self.cfg, plan.workload, self._gpus[j],
                links[j], stage.layer_bits, self._kv[j],
                first=j == 0, last=j == n - 1,
                prefill_microbatch=plan.prefill_microbatch,
                decode_microbatch=plan.decode_microbatch,
            )
            for j, stage in enumerate(plan.stages)
        )

    # ------------------------------------------------------------------
    # continuous-batching units (iteration-level scheduling)
    # ------------------------------------------------------------------
    def unit_prefill_times(self, prompt_len: int) -> np.ndarray:
        """Per-stage busy time of one batch-1 prefill unit at its own
        ``s``: row ``prompt_len`` of the :meth:`unit_prefill_times_batch`
        table, kept per prompt length; treat the result as read-only."""
        out = self._unit_prefill_memo.get(prompt_len)
        if out is None:
            out = self.unit_prefill_times_batch((prompt_len,))[0]
            self._unit_prefill_memo[prompt_len] = out
        return out

    def unit_prefill_times_batch(self, prompt_lens: Sequence[int]) -> np.ndarray:
        """``(k, num_stages)`` prefill-unit table: row ``i`` is the
        batch-1 prefill unit at ``prompt_lens[i]`` (any order, duplicates
        allowed).

        With the kernels source the per-layer roofline is one ``(k,
        pairs)`` evaluation against the :meth:`_decode_pairs` constants,
        every float operation in the order
        :func:`~repro.sim.kernels.layer_exec_time` performs it at ``q =
        context = s``; the layers then fold into their stages in plan
        layer order (float addition does not commute with grouping), and
        the embedding and boundary-comm terms are vectorized over ``s``.
        ``source="model"`` prices layer by layer through the shared
        :class:`PredictionCache`.
        """
        s = np.asarray(prompt_lens, dtype=np.int64)
        if s.ndim != 1:
            raise ValueError("prompt_lens must be a 1-D array")
        if s.size and int(s.min()) <= 0:
            raise ValueError("batch and q must be positive")
        n = self.plan.num_stages
        out = np.zeros((s.size, n))
        if self.source == "model":
            links = self._require_links()
            for i, p in enumerate(s.tolist()):
                for j, stage in enumerate(self.plan.stages):
                    out[i, j] = _prefill_busy(
                        self._stage_cache, self.cfg, self._gpus[j], links[j],
                        stage.layer_bits, self._kv[j], 1, p,
                        first=j == 0, last=j == n - 1,
                    )[0]
            return out
        cfg = self.cfg
        h, f = cfg.hidden_size, cfg.ffn_dim
        p = self._decode_pairs()
        sc = s[:, None]
        sf = sc.astype(np.float64)
        flops = 8.0 * sf * h * h + 4.0 * sf * sf * h + 4.0 * sf * h * f
        compute_t = flops / p.eff_flops
        act = sc * (6 * h + 2 * f) * ACT_BYTES
        scores = cfg.num_heads * sc * sc * ACT_BYTES * 2
        kv_rw = sc * p.kv_token  # written for q new tokens, read for context
        other = (p.w_bytes + act + scores + kv_rw + kv_rw) - p.w_bytes
        vals = np.maximum(compute_t, p.w_term + other / p.eff_bw) + p.launch
        for i in p.layer_pair:
            out[:, p.stage_of[i]] += vals[:, i]
        # the lookup-only embedding and the activation size are plain
        # arithmetic in ``q``, so the scalar kernels take the whole column
        from ..sim.comm import activation_bytes
        from ..sim.kernels import embedding_exec_time

        out[:, 0] += embedding_exec_time(self._gpus[0], cfg, 1, s, with_logits=False)
        out[:, n - 1] += self._emb_time(n - 1, 1, 1, True)
        for j in range(n - 1):
            link = self._require_links()[j]
            out[:, j] += link.latency + activation_bytes(cfg, 1, s) / link.bandwidth
        return out

    def _decode_pairs(self) -> SimpleNamespace:
        """Per-(stage, bits) roofline constants shared by the decode- and
        prefill-unit tables — everything in the kernel formula that does
        not depend on (batch, context, prompt length) — and how pairs and
        plan layers map onto stages."""
        if self._pairs is None:
            from ..sim.kernels import KERNELS_PER_LAYER

            cfg = self.cfg
            rows: list[tuple] = []
            layer_pair: list[int] = []  # plan layer order -> pair index
            for j, stage in enumerate(self.plan.stages):
                gpu = self._gpus[j]
                index: dict[int, int] = {}
                for bits, count in stage.bit_counts.items():
                    index[bits] = len(rows)
                    w_bytes = cfg.layer_weight_bytes(bits)
                    rows.append((
                        j,
                        count,
                        gpu.effective_flops(bits),
                        w_bytes / gpu.effective_weight_bandwidth(bits),
                        gpu.effective_bandwidth,
                        KERNELS_PER_LAYER * gpu.kernel_launch_overhead,
                        cfg.kv_bytes_per_token_per_layer(self._kv[j]),
                        w_bytes,
                    ))
                layer_pair.extend(index[b] for b in stage.layer_bits)
            stage_of, counts, *consts = zip(*rows)
            eff_flops, w_term, eff_bw, launch, kv_token, w_bytes = map(
                np.array, consts
            )
            self._pairs = SimpleNamespace(
                stage_of=stage_of, counts=counts, eff_flops=eff_flops,
                w_term=w_term, eff_bw=eff_bw, launch=launch,
                kv_token=kv_token, w_bytes=w_bytes, layer_pair=layer_pair,
                # batched-roofline forms: float counts, reduceat offsets of
                # each stage's pair segment, one layer's batch-1 FLOPs
                counts_f=np.array(counts, dtype=np.float64),
                seg_starts=np.flatnonzero(np.r_[1, np.diff(stage_of)]),
                one_layer_flops=cfg.layer_flops(1, 1, 0),
            )
        return self._pairs

    def unit_decode_times(self, batch: int, context: float) -> np.ndarray:
        """Per-stage busy time of one fused decode iteration at
        ``context``: row 0 of :meth:`unit_decode_times_batch`."""
        return self.unit_decode_times_batch([batch], [context])[0]

    def unit_decode_times_batch(
        self, batches: np.ndarray, contexts: np.ndarray
    ) -> np.ndarray:
        """``(k, num_stages)`` decode-unit table: row ``i`` is one fused
        decode iteration of ``batches[i]`` requests at ``contexts[i]`` —
        the whole batch shares each layer's weight stream (charged once,
        in ``w_term``).

        The vectorized online engine prices whole decode runs through this
        one call.  With the kernels source the roofline is evaluated as a
        ``(k, pairs)`` matrix against the precomputed per-(stage, bits)
        constants; everything that depends on the batch size alone — the
        embedding/comm add-ons and the batch-only half of the roofline —
        is one row gather from :meth:`_decode_batch_table`.  Every
        floating-point operation mirrors the per-layer walk's order
        (``tests/sim/costview_spec.py``), so equality is exact, not
        approximate.  ``source="model"`` prices row by row through its
        latency model.
        """
        b = _decode_batches(batches)
        c = np.asarray(contexts, dtype=np.float64)
        if b.shape != c.shape or b.ndim != 1:
            raise ValueError("batches/contexts must be aligned 1-D arrays")
        n = self.plan.num_stages
        if self.source == "model" or not b.size:  # row by row; no rows: (0, n)
            out = np.zeros((b.size, n))
            for i, (batch, context) in enumerate(zip(b.tolist(), c.tolist())):
                ctx = np.array([context])
                for j, stage in enumerate(self.plan.stages):
                    t = 0.0
                    # one (batch, context) point per row: priced directly,
                    # a memo keyed on it would only grow
                    for bits, count in stage.bit_counts.items():
                        t += count * float(
                            self.model.decode_step_times(
                                self._gpus[j], bits, batch, ctx, kv_bits=self._kv[j]
                            )[0]
                        )
                    if j == 0:
                        t += self._emb_time(j, batch, 1, False)
                    if j == n - 1:
                        t += self._emb_time(j, batch, 1, True)
                    # the tail->head token feedback rides the last link
                    out[i, j] = t + self.comm_time(j, batch, 1)
            return out
        p = self._decode_pairs()
        row = self._decode_batch_table(int(b.max())).take(b, axis=0)
        cc = c[:, None]
        k = n + 2  # batch-only roofline columns follow the add-ons
        flops = row[:, k:k + 1] + row[:, k + 1:k + 2] * cc
        compute_t = flops / p.eff_flops
        per_ctx = (
            row[:, k + 2:k + 3] * cc * ACT_BYTES * 2
            + row[:, k + 3:k + 4] * cc * p.kv_token
        )
        mem_t = p.w_term + (row[:, k + 4:] + per_ctx) / p.eff_bw
        vals = np.maximum(compute_t, mem_t) + p.launch
        # fold pairs into their stages: reduceat's left fold over each
        # contiguous stage segment matches the scalar ``out[j] +=`` chain
        out = np.add.reduceat(vals * p.counts_f, p.seg_starts, axis=1)
        out[:, 0] += row[:, 0]
        out[:, n - 1] += row[:, 1]
        out += row[:, 2:k]
        return out

    def _decode_batch_table(self, top: int) -> np.ndarray:
        """The dense per-batch-size decode memo, grown to cover batch
        ``top``: row ``b`` holds everything a decode unit's price takes
        from the batch size alone — columns ``(emb_first, emb_last,
        comm..., b * one_layer_flops, 4 b h, b * heads, float(b), fixed
        bytes per pair...)``, each by the float operations, in the
        order, of :func:`~repro.sim.kernels.layer_exec_times_decode_sweep`.
        Whenever the memo grows (doubling) every
        new batch size is filled at once — the kernels are plain
        arithmetic in the batch size, so they take the whole new range as
        a column — and the lookup never tests for holes."""
        table = self._decode_table_memo.get("table")
        have = 0 if table is None else table.shape[0]
        if have <= top:
            from ..sim.comm import activation_bytes
            from ..sim.kernels import embedding_exec_time

            cfg, p, n = self.cfg, self._decode_pairs(), self.plan.num_stages
            h = cfg.hidden_size
            bv = np.arange(have, max(top + 1, 2 * have, 64))
            bc = bv[:, None].astype(np.float64)
            new = np.empty((bv.size, n + 6 + p.kv_token.size))
            new[:, 0] = embedding_exec_time(self._gpus[0], cfg, bv, 1, with_logits=False)
            new[:, 1] = embedding_exec_time(self._gpus[n - 1], cfg, bv, 1, with_logits=True)
            for j, link in enumerate(self._require_links()):
                new[:, 2 + j] = link.latency + activation_bytes(cfg, bv, 1) / link.bandwidth
            # layer_flops(b, 1, 0) == b * layer_flops(1, 1, 0) exactly: the
            # scalar path multiplies the int batch into one float constant
            new[:, n + 2:n + 3] = bc * p.one_layer_flops
            new[:, n + 3:n + 4] = 4.0 * bc * h
            new[:, n + 4:n + 5] = bc * cfg.num_heads
            new[:, n + 5:n + 6] = bc
            new[:, n + 6:] = bc * (6 * h + 2 * cfg.ffn_dim) * ACT_BYTES + bc * p.kv_token
            if table is None:
                new[0] = np.nan  # there is no batch-0 unit
                table = new
            else:
                table = np.concatenate((table, new))
            self._decode_table_memo["table"] = table
        return table

    def decode_price_pieces(self, batch: int) -> tuple[list, list, list]:
        """A decode unit's stage sum — the price the trace engine's clock
        advances by — at batch size ``batch`` as a convex piecewise-linear
        function of the mean context ``c``: ``(xs, al, be)``, the sorted
        breakpoints, then each piece's intercept and slope.  Piece ``k =
        bisect_right(xs, c)`` prices ``al[k] + be[k] * c``.

        Each (stage, bits) pair of :meth:`_decode_pairs` adds, weighted by
        its layer count, the max of a compute and a memory line in ``c``
        (from the :meth:`_decode_batch_table` columns) to the batch-only
        add-ons (launches, embedding, logits, comm); a breakpoint is where
        a pair's steeper line takes over.  ``source="model"`` is one line,
        affine in the truncated context: read it at ``int(c)``.  A guess
        for planning work, never a price: it agrees with
        :meth:`unit_decode_times_batch` to rounding, not bit for bit.
        Memoised per batch size beside the decode table."""
        pieces = self._decode_table_memo.setdefault("pieces", {})
        got = pieces.get(batch)
        if got is None:
            x, al, be, cuts = self._decode_price_folds(batch)
            m = int(cuts[batch])
            got = pieces[batch] = (
                x[batch, :m].tolist(), al[batch, :m + 1].tolist(), be[batch, :m + 1].tolist())
        return got

    def _decode_price_folds(self, top: int) -> tuple[np.ndarray, ...]:
        """:meth:`decode_price_pieces` for every batch size ``0..top`` (at
        least) as arrays: breakpoints (row ``b``'s first ``cuts[b]`` are
        finite), intercepts, slopes, ``cuts``.  Grown like
        :meth:`_decode_batch_table`, every new batch size folded at once;
        row 0 (no batch-0 unit) is NaN."""
        folds = self._decode_table_memo.get("folds")
        have = 0 if folds is None else folds[0].shape[0]
        if have > top:
            return folds
        p, n = self._decode_pairs(), self.plan.num_stages
        k = n + 2
        bv = np.arange(have, max(top + 1, 2 * have, 64))
        row = self._decode_batch_table(int(bv[-1]))[have:bv[-1] + 1]
        w = p.counts_f
        base = row[:, :k].sum(axis=1)
        if self.source == "model":
            # one line per pair: through the prices at contexts 0 and 2^20
            big, lines = float(1 << 20), []
            for j, stage in enumerate(self.plan.stages):
                for bits in stage.bit_counts:
                    lo, hi = (
                        self.model.decode_step_times(
                            self._gpus[j], bits, bv, np.full(bv.size, c), kv_bits=self._kv[j])
                        for c in (0.0, big)
                    )
                    lines.append((lo, (hi - lo) / big))
            i_lo = i_hi = np.stack([v for v, _ in lines], axis=1) * w
            s_lo = s_hi = np.stack([v for _, v in lines], axis=1) * w
        else:
            i_lo = row[:, k:k + 1] / p.eff_flops * w  # compute
            s_lo = row[:, k + 1:k + 2] / p.eff_flops * w
            i_hi = (p.w_term + row[:, k + 4:] / p.eff_bw) * w  # memory
            s_hi = (
                row[:, k + 2:k + 3] * (ACT_BYTES * 2) + row[:, k + 3:k + 4] * p.kv_token
            ) / p.eff_bw * w
            base += float(p.launch @ w)
            flip = s_lo > s_hi  # (i_lo, s_lo): the line that wins at small c
            i_lo, i_hi = np.where(flip, i_hi, i_lo), np.where(flip, i_lo, i_hi)
            s_lo, s_hi = np.where(flip, s_hi, s_lo), np.where(flip, s_lo, s_hi)
        ds, di = s_hi - s_lo, i_hi - i_lo
        tie = ds == 0  # parallel lines: the higher one, no breakpoint
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(tie, np.inf, -di / ds)
        order = np.argsort(x, axis=1)  # breakpoints first, inf and NaN last
        x = np.take_along_axis(x, order, axis=1)
        al = np.take_along_axis(np.where(tie, 0.0, di), order, axis=1)
        be = np.take_along_axis(ds, order, axis=1)
        al = np.cumsum(np.concatenate(
            ((base + np.where(tie, np.maximum(i_lo, i_hi), i_lo).sum(axis=1))[:, None], al),
            axis=1), axis=1)
        be = np.cumsum(np.concatenate((s_lo.sum(axis=1)[:, None], be), axis=1), axis=1)
        new = (x, al, be, np.isfinite(x).sum(axis=1))
        if folds is not None:
            new = tuple(np.concatenate(pair) for pair in zip(folds, new))
        self._decode_table_memo["folds"] = new
        return new

    # ------------------------------------------------------------------
    # memory views (planner Sec.-4.1 accounting)
    # ------------------------------------------------------------------
    def stage_memory_at(
        self,
        j: int,
        *,
        global_batch: int,
        prompt_len: int,
        gen_len: int,
        prefill_microbatch: int,
        decode_microbatch: int,
    ) -> StageMemory:
        """Stage ``j``'s modeled peak memory at an arbitrary shape."""
        key = (j, global_batch, prompt_len, gen_len, prefill_microbatch, decode_microbatch)
        m = self._mem_memo.get(key)
        if m is None:
            m = self._mem_memo[key] = stage_memory(
                self.cfg, self.plan.stages[j].layer_bits,
                global_batch=global_batch, prompt_len=prompt_len,
                gen_len=gen_len, prefill_microbatch=prefill_microbatch,
                decode_microbatch=decode_microbatch, is_first=j == 0,
                is_last=j == self.plan.num_stages - 1, kv_bits=self._kv[j],
            )
        return m

    def stage_memory_views(self) -> tuple[StageMemory, ...]:
        """Every stage's peak memory at the plan's own workload/shape."""
        if self._views is not None:
            return self._views
        p = self.plan
        w = p.workload
        views = tuple(
            self.stage_memory_at(
                j,
                global_batch=w.global_batch,
                prompt_len=w.prompt_len,
                gen_len=w.gen_len,
                prefill_microbatch=p.prefill_microbatch,
                decode_microbatch=p.decode_microbatch,
            )
            for j in range(p.num_stages)
        )
        self._views = views
        return views

    def max_admissible_batch(
        self, *, prompt_len: int, gen_len: int, cap: int = 256
    ) -> int:
        """Largest concurrent batch the plan's memory headroom admits: a
        batch fits when every stage's modelled peak at ``(s, n)``, with
        micro-batches clamped to the batch, fits its device."""
        p = self.plan
        for b in range(1, cap + 1):
            for j, stage in enumerate(p.stages):
                mem = self.stage_memory_at(
                    j,
                    global_batch=b,
                    prompt_len=prompt_len,
                    gen_len=gen_len,
                    prefill_microbatch=min(p.prefill_microbatch, b),
                    decode_microbatch=min(p.decode_microbatch, b),
                )
                if not mem.fits(stage.device.spec.memory_bytes):
                    return b - 1
        return cap

    def kv_headroom(
        self, dequant_cache_budgets: "Sequence[float] | None" = None
    ) -> np.ndarray:
        """Per-stage KV byte pool under the planner's accounting.

        Device capacity minus framework overhead minus every non-KV
        component of the stage's batch-1 modeled peak — and, when the
        runtime carries dequant-weight caches, minus their actual byte
        budgets.  The pool the iteration-level admission control hands
        out in :meth:`request_kv_bytes` slices.
        """
        base = self._headroom_base
        if base is None:
            w = self.plan.workload
            base = np.zeros(self.plan.num_stages)
            for j, stage in enumerate(self.plan.stages):
                m = self.stage_memory_at(
                    j,
                    global_batch=1,
                    prompt_len=w.prompt_len,
                    gen_len=w.gen_len,
                    prefill_microbatch=1,
                    decode_microbatch=1,
                )
                non_kv = m.total - m.kv_cache
                cap = stage.device.spec.memory_bytes
                base[j] = cap - FRAMEWORK_OVERHEAD_BYTES - non_kv
            self._headroom_base = base
        out = base
        if dequant_cache_budgets is not None:
            out = out - np.array([float(b) for b in dequant_cache_budgets])
        return np.maximum(out, 0.0)

    def kv_token_charges(self) -> np.ndarray:
        """Per-stage KV bytes of one token slot (read-only).

        A charge is ``layers * 2 * hidden * kv_bits / 8`` — a multiple of
        1/4 — so ``tokens * kv_token_charges()`` is an exact float64
        product: counting token slots and counting per-stage bytes are the
        same ledger (``tests/cost/test_kv_slots.py`` is the tripwire).
        """
        if self._token_charges is None:
            row = self.request_kv_bytes_batch(np.ones(1, dtype=np.int64))[0]
            row.setflags(write=False)
            self._token_charges = row
        return self._token_charges

    def kv_token_budget(
        self, dequant_cache_budgets: "Sequence[float] | None" = None
    ) -> int:
        """Token slots the KV pool holds: the largest ``T`` with
        ``T * kv_token_charges() <= kv_headroom(dequant_cache_budgets) +
        1e-6`` on every stage — the admission test of the byte ledger,
        solved for tokens.  Memoised for the default pool only."""
        if dequant_cache_budgets is None and self._token_budget is not None:
            return self._token_budget
        fits = []
        for c, room in zip(
            self.kv_token_charges().tolist(),
            (self.kv_headroom(dequant_cache_budgets) + 1e-6).tolist(),
        ):
            t = int(room // c)
            while (t + 1) * c <= room:
                t += 1
            while t > 0 and t * c > room:
                t -= 1
            fits.append(t)
        if dequant_cache_budgets is None:
            self._token_budget = min(fits)
        return min(fits)

    def request_kv_bytes(self, prompt_len: int, gen_len: int) -> np.ndarray:
        """Per-stage KV bytes one request reserves for its lifetime
        (``prompt_len + gen_len`` token slots)."""
        return (prompt_len + gen_len) * self.kv_token_charges()

    def request_kv_bytes_batch(self, total_tokens: np.ndarray) -> np.ndarray:
        """``(k, num_stages)`` KV-charge table: row ``i`` equals
        ``request_kv_bytes(s, n)`` for any ``s + n == total_tokens[i]``
        (the charge depends only on the token count).

        ``kv_cache_bytes`` is ``float(L * 1 * t * per_token)``: the integer
        product is exact, so the single float rounding lands on the same
        value regardless of evaluation order — the rows are bit-identical
        to the memory model's.
        """
        t = np.asarray(total_tokens, dtype=np.int64)
        layers = np.array(
            [s.num_layers for s in self.plan.stages], dtype=np.int64
        )
        per_token = np.array(
            [self.cfg.kv_bytes_per_token_per_layer(kv) for kv in self._kv]
        )
        return (t[:, None] * layers[None, :]) * per_token[None, :]

    # ------------------------------------------------------------------
    def derive(self, plan: "ExecutionPlan") -> "StageCostModel":
        """Cost model for a re-shaped variant of the same plan.

        A same-stages migration (a workload refit: same stages and
        bitwidths, different workload/micro-batches) rebinds through
        this; the derivative shares every shape-keyed memo with its
        parent, so the new plan's lookups hit the old tables.
        """
        if plan.stages != self.plan.stages:
            raise ValueError("derive() requires a plan with identical stages")
        clone = StageCostModel(
            plan,
            self.cluster,
            source=self.source,
            latency_model=self.model,
            prediction_cache=self.prediction_cache,
            cfg=self.cfg,
        )
        clone._links = self._links
        clone._emb_memo = self._emb_memo
        clone._comm_memo = self._comm_memo
        clone._unit_prefill_memo = self._unit_prefill_memo
        clone._mem_memo = self._mem_memo
        clone._pairs = self._pairs
        clone._token_charges = self._token_charges
        clone._decode_table_memo = self._decode_table_memo
        return clone


def planner_time_tables(
    prediction_cache: PredictionCache,
    type_names: Sequence[str],
    bits: Sequence[int],
    *,
    prefill_microbatch: int,
    decode_microbatch: int,
    prompt_len: int,
    avg_context: int,
    kv_bits: int = 16,
) -> tuple[np.ndarray, np.ndarray]:
    """The ILP's per-(device type, bits) layer-time coefficient blocks.

    Prefill is priced at ``q = context = s``; decode at one token against
    the workload's average context.  Both tables come out of the shared
    :class:`PredictionCache`, so the assembled objective uses exactly the
    floats a ``source="model"`` :class:`StageCostModel` serves to the
    simulators — the cross-path equality
    ``tests/sim/test_costview_equality.py`` pins.
    """
    lp = prediction_cache.layer_time_table(
        type_names, bits, "prefill", prefill_microbatch, prompt_len, prompt_len,
        kv_bits,
    )
    ld = prediction_cache.layer_time_table(
        type_names, bits, "decode", decode_microbatch, 1, avg_context, kv_bits
    )
    return lp, ld


def wave_admits(prompt_lens, gen_lens, budget: int) -> int:
    """How many of the queued FIFO candidates one wave admits.

    A wave pads every member to its longest prompt and generation (the
    offline schedule's uniform ``(s, n)``), so ``k`` members hold ``k *
    (s_max + n_max)`` token slots of :meth:`StageCostModel.kv_token_budget`;
    the wave is the longest prefix within ``budget``.  That need only
    grows with ``k``, so the prefix is one ``searchsorted``.
    """
    s_max = np.maximum.accumulate(np.asarray(prompt_lens, dtype=np.int64))
    n_max = np.maximum.accumulate(np.asarray(gen_lens, dtype=np.int64))
    need = np.arange(1, s_max.size + 1) * (s_max + n_max)
    return int(need.searchsorted(budget, side="right"))


def admit_run(
    cumq: np.ndarray, spr: np.ndarray, sgen: np.ndarray, ptr: int, arrived: int,
    *, held: int, b: int, budget: int, cap: int, wave: bool = False,
) -> tuple[int, int]:
    """One token boundary's FIFO admission over the queue columns.

    ``cumq`` is the prefix sum of the queue's ``prompt + gen`` token
    slots (``cumq[0] = 0``), ``spr``/``sgen`` its prompt and generation
    lengths; rows ``[ptr, arrived)`` have arrived, and ``b`` requests
    holding ``held`` of ``budget`` slots are in flight under a cap of
    ``cap``.  Returns ``(r, p)``: rows ``[ptr, r)`` are rejected — only
    into an empty system, the leading run of heads that do not fit even
    alone, so never will — and rows ``[r, p)`` are admitted: the longest
    prefix within the ``budget - held`` free slots and ``cap - b`` free
    places (head-of-line blocking), or for a ``wave``, only into an
    empty system, the prefix :func:`wave_admits` takes.  Its members'
    padded slots are at least their ``sum(s + n)``, so the continuous
    fit end bounds that scan.

    The trace engine's empty-system boundary and every
    :class:`~repro.runtime.scheduler.ContinuousScheduler` boundary admit
    through this function; the engine's speculative advance evaluates
    the same bound vectorised over its schedule.
    """
    if ptr >= arrived:
        return ptr, ptr
    r = ptr
    if not b:
        if cumq[r + 1] - cumq[r] > budget:
            fits = np.flatnonzero(np.diff(cumq[r:arrived + 1]) <= budget)
            r += int(fits[0]) if fits.size else arrived - r
    elif wave:
        return ptr, ptr
    p = min(
        int(cumq.searchsorted(cumq[r] + (budget - held), side="right")) - 1,
        arrived, r + cap - b,
    )
    if p <= r:
        return r, r
    if wave:
        p = r + wave_admits(spr[r:p], sgen[r:p], budget)
    return r, p
