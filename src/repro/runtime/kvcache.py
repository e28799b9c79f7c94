"""Per-stage KV-cache management, with optional KV4/KV8 packing.

Each stage worker owns one cache unit per live prefill micro-batch or
merged decode group, pre-allocated at ``s + n`` slots exactly like the
paper's runtime (Sec. 5: pre-allocated KV cache).  The manager also
keeps a byte ledger so tests can assert the runtime's peak KV memory
matches the analytical cost model.

When a plan assigns a stage ``kv_bits`` below 16, the stage stores its
keys/values *packed*: signed codes quantized with one scale per
(token, head group), bit-packed into a uint8 stream by the same
:func:`~repro.quant.kernels.pack_codes` codec the weight shards use.
Attention reads dequantize on the fly, so the resident footprint is the
real ``hidden * kv_bits / 8`` bytes per token (plus one float64 scale
per head) — the quantity the planner's admission ledger charges.
:class:`QuantizedKVCache` and the fused-decode :class:`BatchedKVView`
share one kernel pair, :func:`_quantize_packed` on append and
:func:`_dequantize_packed` on read, each handling K and V together.

Two reference paths pin the numerics:

* :func:`kv_fake_quant` — quantize+dequantize without packing; the
  oracle a packed cache's :meth:`~QuantizedKVCache.read` must match
  bit-exactly (packing is lossless on codes).
* :class:`FakeQuantKVCache` — a drop-in :class:`KVCache` that fake-
  quantizes on append, used by ``TinyDecoderLM.prefill(kv_bits=...)``
  to produce single-process reference tokens for the runtime tests.

An optional ``alloc_guard`` callable is consulted with the requested
byte count before every allocation (including the transient copy a
merge makes); it may raise
:class:`~repro.runtime.faults.KVAllocationError` to model memory
pressure — the hook the fault injector uses to drive the runtime's
degrade-and-replan ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..models.transformer import KVCache
from ..quant.kernels import pack_codes, unpack_codes
from ..quant.quantizer import qmax_for_bits

__all__ = [
    "StageKVManager",
    "BatchedKVView",
    "QuantizedKVCache",
    "FakeQuantKVCache",
    "quantize_kv",
    "dequantize_kv",
    "kv_fake_quant",
    "packed_kv_nbytes",
]


# ----------------------------------------------------------------------
# KV quantization primitives
# ----------------------------------------------------------------------

def _head_groups(x: np.ndarray, num_heads: int) -> np.ndarray:
    hidden = x.shape[-1]
    if num_heads <= 0 or hidden % num_heads:
        raise ValueError(f"hidden {hidden} not divisible into {num_heads} heads")
    return x.reshape(*x.shape[:-1], num_heads, hidden // num_heads)


def quantize_kv(
    x: np.ndarray, kv_bits: int, num_heads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-(token, head) quantization of K/V activations.

    ``x`` is ``(..., hidden)``; each trailing row is split into
    ``num_heads`` groups and every group gets its own absmax scale —
    the KV granularity QServe-style serving uses, fine enough that one
    outlier channel cannot blow up a whole token.  Returns int16 codes
    shaped like ``x`` and float64 scales shaped ``(..., num_heads)``.
    All-zero groups get scale 1.0 so dequantization is exact for them.
    """
    x = np.asarray(x, dtype=np.float64)
    qmax = qmax_for_bits(kv_bits)
    grouped = _head_groups(x, num_heads)
    scales = np.abs(grouped).max(axis=-1) / qmax
    scales[scales == 0.0] = 1.0
    codes = np.clip(np.rint(grouped / scales[..., None]), -qmax, qmax)
    return codes.astype(np.int16).reshape(x.shape), scales


def dequantize_kv(codes: np.ndarray, scales: np.ndarray, num_heads: int = 1) -> np.ndarray:
    """Inverse of :func:`quantize_kv`: ``codes * scale`` per head group."""
    grouped = _head_groups(np.asarray(codes, dtype=np.float64), num_heads)
    return (grouped * scales[..., None]).reshape(codes.shape)


def kv_fake_quant(x: np.ndarray, kv_bits: int, num_heads: int = 1) -> np.ndarray:
    """Quantize-dequantize round trip — the packed path's numeric oracle."""
    if kv_bits >= 16:
        return np.asarray(x, dtype=np.float64)
    codes, scales = quantize_kv(x, kv_bits, num_heads)
    return dequantize_kv(codes, scales, num_heads)


def packed_kv_nbytes(
    num_layers: int,
    batch: int,
    max_len: int,
    hidden: int,
    kv_bits: int,
    num_heads: int = 1,
) -> float:
    """Resident bytes of one packed cache unit (codes + scales, K and V)."""
    code_bytes = 2.0 * num_layers * batch * max_len * (hidden * kv_bits // 8)
    scale_bytes = 2.0 * num_layers * batch * max_len * num_heads * 8
    return code_bytes + scale_bytes


#: byte -> the float64 codes it holds, for the widths that put several
#: whole codes in a byte: one lookup then replaces unpack + int-to-float
_BYTE_CODES = {
    bits: unpack_codes(np.arange(256, dtype=np.uint8), bits, 256 * 8 // bits)
    .reshape(256, 8 // bits)
    .astype(np.float64)
    for bits in (2, 4)
}


def _quantize_packed(
    k_new: np.ndarray, v_new: np.ndarray, kv_bits: int, num_heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fused append kernel: one quantize and one pack over K and V rows.

    ``(B, q, hidden)`` inputs give packed bytes ``(2, B, q, row_bytes)``
    and scales ``(2, B, q, heads)``, K at 0 and V at 1.  Both steps are
    row-independent, so stacking changes no stored byte.
    """
    codes, scales = quantize_kv(np.stack((k_new, v_new)), kv_bits, num_heads)
    packed = pack_codes(codes, kv_bits).reshape(*codes.shape[:-1], -1)
    return packed, scales


def _dequantize_packed(
    packed: np.ndarray, scales: np.ndarray, kv_bits: int
) -> np.ndarray:
    """Fused read kernel: packed ``(..., row_bytes)`` rows and their
    ``(..., heads)`` scales to dense float64 ``(..., hidden)``.

    Bytes become float64 codes in one lookup (or unpack + convert) and
    the scales are multiplied in place: ``float64(code) * scale`` is the
    single multiply :func:`dequantize_kv` does, so the result is
    bit-identical to :func:`kv_fake_quant` of what was appended.
    """
    table = _BYTE_CODES.get(kv_bits)
    if table is not None:
        vals = np.take(table, packed, axis=0)
    else:
        size = packed.size * 8 // kv_bits
        vals = unpack_codes(packed, kv_bits, size).astype(np.float64)
    vals = vals.reshape(*scales.shape, -1)
    vals *= scales[..., None]
    return vals.reshape(*packed.shape[:-1], -1)


# ----------------------------------------------------------------------
# Cache variants
# ----------------------------------------------------------------------

@dataclass
class FakeQuantKVCache(KVCache):
    """fp16-layout cache that fake-quantizes every append.

    Same dense float64 storage as :class:`KVCache` (no memory savings) —
    this is the *reference* serving path: what attention reads here is
    exactly what a packed cache dequantizes to, so end-to-end token
    streams from this cache define correctness for the packed runtime.
    """

    kv_bits: int = 8
    num_heads: int = 1

    @classmethod
    def allocate_quant(
        cls,
        num_layers: int,
        batch: int,
        max_len: int,
        hidden: int,
        *,
        kv_bits: int,
        num_heads: int = 1,
    ) -> "FakeQuantKVCache":
        shape = (num_layers, batch, max_len, hidden)
        return cls(
            k=np.zeros(shape), v=np.zeros(shape), length=0,
            kv_bits=kv_bits, num_heads=num_heads,
        )

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray, start: int) -> None:
        super().append(
            layer,
            kv_fake_quant(k_new, self.kv_bits, self.num_heads),
            kv_fake_quant(v_new, self.kv_bits, self.num_heads),
            start,
        )


@dataclass
class QuantizedKVCache:
    """Bit-packed KV cache: uint8 code stream + per-(token, head) scales.

    Codes are packed little-endian at ``kv_bits`` per value, so each
    token row occupies exactly ``hidden * kv_bits / 8`` bytes
    (``hidden * kv_bits`` must be byte-aligned — true for KV4/KV8 with
    any even hidden size).  K and V share one array each for codes and
    scales (leading axis: K at 0, V at 1), so every append, read, gather
    and merge touches both in a single operation.  Implements the same
    protocol as :class:`KVCache` (``append`` / ``read`` / ``max_len`` /
    ``kv_nbytes`` / ``length``), so attention and the stage manager use
    it interchangeably; ``read`` returns dense float64 arrays that are
    bit-exact equal to :func:`kv_fake_quant` of what was appended.
    """

    codes: np.ndarray   #: (2, num_layers, batch, max_len, hidden*kv_bits//8) uint8
    scales: np.ndarray  #: (2, num_layers, batch, max_len, num_heads) float64
    hidden_size: int
    kv_bits: int
    num_heads: int = 1
    length: int = 0

    @classmethod
    def allocate(
        cls,
        num_layers: int,
        batch: int,
        max_len: int,
        hidden: int,
        *,
        kv_bits: int,
        num_heads: int = 1,
    ) -> "QuantizedKVCache":
        if kv_bits >= 16 or kv_bits <= 0:
            raise ValueError(f"packed KV needs 0 < kv_bits < 16, got {kv_bits}")
        if (hidden * kv_bits) % 8:
            raise ValueError(
                f"hidden*kv_bits must be byte-aligned, got {hidden}x{kv_bits}"
            )
        if num_heads <= 0 or hidden % num_heads:
            raise ValueError(f"hidden {hidden} not divisible into {num_heads} heads")
        slots = (2, num_layers, batch, max_len)
        return cls(
            codes=np.zeros((*slots, hidden * kv_bits // 8), dtype=np.uint8),
            scales=np.ones((*slots, num_heads)),
            hidden_size=hidden,
            kv_bits=kv_bits,
            num_heads=num_heads,
        )

    @property
    def k_codes(self) -> np.ndarray:
        """The K half of ``codes`` (a view)."""
        return self.codes[0]

    @property
    def k_scales(self) -> np.ndarray:
        """The K half of ``scales`` (a view)."""
        return self.scales[0]

    @property
    def max_len(self) -> int:
        """Reserved KV slots per sequence."""
        return self.codes.shape[3]

    @property
    def kv_nbytes(self) -> float:
        """Resident bytes: packed codes plus scales, K and V."""
        return float(self.codes.nbytes + self.scales.nbytes)

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray, start: int) -> None:
        """Quantize, pack and store new K/V rows at position ``start``."""
        q = k_new.shape[1]
        if start + q > self.max_len:
            raise ValueError("KV cache overflow: reserve s + n slots up front")
        packed, scales = _quantize_packed(k_new, v_new, self.kv_bits, self.num_heads)
        self.codes[:, layer, :, start : start + q] = packed
        self.scales[:, layer, :, start : start + q] = scales

    def read(self, layer: int, total: int) -> tuple[np.ndarray, np.ndarray]:
        """Dequantized K/V rows ``0 .. total`` as dense float64 arrays."""
        return tuple(_dequantize_packed(
            self.codes[:, layer, :, :total], self.scales[:, layer, :, :total],
            self.kv_bits,
        ))


# ----------------------------------------------------------------------
# Batched ragged view (fused decode)
# ----------------------------------------------------------------------

class BatchedKVView:
    """Ragged batch view over ``B`` independent batch-1 cache units.

    The fused decode path stacks one token from every in-flight request
    into a single ``(B, 1, h)`` activation; this view is the matching
    KV adapter: :meth:`append` scatters row ``i``'s new K/V into unit
    ``i`` at its own position ``starts[i]``, and :meth:`read_padded`
    gathers every unit's history into ``(B, Tmax, h)`` arrays padded to
    the batch max context.

    All storage stays inside the per-request cache units — the view owns
    nothing, so requests keep retiring/migrating individually.  The
    batched paths are *bit-exact* per request against the batch-1
    ``append``/``read`` they replace:

    * quantize+pack over the stacked rows is row-independent (per-token
      absmax scales; each token row is a whole number of packed bytes);
    * one big :func:`_dequantize_packed` call is elementwise, so each
      request's slice equals its own small-call result;
    * padded slots hold code 0 / scale 1.0 (dense: literal zeros) and
      dequantize to exactly ``0.0`` — the ragged attention mask relies
      on that to keep padding out of the softmax.

    All units must be batch-1 and share storage parameters (true within
    one stage: kv_bits is a per-stage plan value).
    """

    def __init__(self, caches: list[KVCache], starts: np.ndarray) -> None:
        if not caches:
            raise ValueError("batched view needs at least one cache unit")
        self.caches = list(caches)
        self.starts = np.asarray(starts, dtype=np.int64)
        if self.starts.shape != (len(self.caches),):
            raise ValueError("starts must have one entry per cache unit")
        first = self.caches[0]
        self.packed = isinstance(first, QuantizedKVCache)
        if self.packed:
            # the stream is biased (+qmax), so a zero code is not a zero
            # byte: padding is whatever the codec packs a zero row to
            self._pad_row = pack_codes(
                np.zeros(first.hidden_size, dtype=np.int16), first.kv_bits
            )
        for c, s in zip(self.caches, self.starts):
            if type(c) is not type(first):
                raise ValueError("all cache units must share one storage type")
            batch = c.codes.shape[2] if self.packed else c.k.shape[1]
            if batch != 1:
                raise ValueError("batched view expects batch-1 cache units")
            if s + 1 > c.max_len:
                raise ValueError("KV cache overflow: reserve s + n slots up front")
        self.totals = self.starts + 1
        self.total_max = int(self.totals.max())

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Scatter ``(B, 1, h)`` new K/V rows, one per unit, at ``starts``."""
        first = self.caches[0]
        if self.packed:
            # one vectorized quantize+pack over the whole batch, then a
            # cheap per-unit byte scatter — row-independent, so each
            # unit's stored bytes equal its own batch-1 append
            packed, scales = _quantize_packed(
                k_new, v_new, first.kv_bits, first.num_heads
            )
            for i, c in enumerate(self.caches):
                s = self.starts[i]
                c.codes[:, layer, 0, s] = packed[:, i, 0]
                c.scales[:, layer, 0, s] = scales[:, i, 0]
        else:
            if isinstance(first, FakeQuantKVCache):
                k_new = kv_fake_quant(k_new, first.kv_bits, first.num_heads)
                v_new = kv_fake_quant(v_new, first.kv_bits, first.num_heads)
            for i, c in enumerate(self.caches):
                s = self.starts[i]
                c.k[layer, 0, s] = k_new[i, 0]
                c.v[layer, 0, s] = v_new[i, 0]

    def read_padded(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """K/V histories as ``(B, Tmax, h)``, zero-padded past each length."""
        first, shape = self.caches[0], (len(self.caches), self.total_max)
        if self.packed:
            # gather the packed bytes (K at 0, V at 1), dequantize once;
            # pad slots are code 0 at scale 1.0, i.e. exactly 0.0
            packed = np.tile(self._pad_row, (2, *shape, 1))
            scales = np.ones((2, *shape, first.num_heads))
            for i, c in enumerate(self.caches):
                t = self.totals[i]
                packed[:, i, :t] = c.codes[:, layer, 0, :t]
                scales[:, i, :t] = c.scales[:, layer, 0, :t]
            return tuple(_dequantize_packed(packed, scales, first.kv_bits))
        k = np.zeros((*shape, first.k.shape[-1]))
        v = np.zeros((*shape, first.k.shape[-1]))
        for i, c in enumerate(self.caches):
            t = self.totals[i]
            k[i, :t] = c.k[layer, 0, :t]
            v[i, :t] = c.v[layer, 0, :t]
        return k, v

    def commit_lengths(self) -> None:
        """Mark every unit's new fill length (end of the iteration)."""
        for c, t in zip(self.caches, self.totals):
            c.length = int(t)


# ----------------------------------------------------------------------
# Stage manager
# ----------------------------------------------------------------------

@dataclass
class StageKVManager:
    """Allocates, merges and frees KV caches for one pipeline stage.

    ``kv_bits`` below 16 switches every unit this stage allocates to the
    packed :class:`QuantizedKVCache`; the guard then sees the *packed*
    byte counts, which is exactly how KV4 turns into admission headroom
    under a fixed cache budget.
    """

    num_layers: int
    hidden_size: int
    caches: dict[int, KVCache] = field(default_factory=dict)
    peak_bytes: float = 0.0
    alloc_guard: Callable[[float], None] | None = None
    kv_bits: int = 16
    num_heads: int = 1
    released_units: int = 0      #: units freed eagerly via :meth:`release`
    released_bytes: float = 0.0  #: bytes returned by those releases

    def _track(self) -> None:
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def _check_guard(self, requested_bytes: float) -> None:
        if self.alloc_guard is not None:
            self.alloc_guard(requested_bytes)

    @property
    def current_bytes(self) -> float:
        """Live KV bytes across all cache units."""
        return float(sum(c.kv_nbytes for c in self.caches.values()))

    def allocate(self, unit_id: int, batch: int, max_len: int) -> KVCache:
        """Pre-allocate a cache unit (idempotent per id)."""
        if unit_id in self.caches:
            return self.caches[unit_id]
        if self.kv_bits >= 16:
            # k + v, float64 — checked against the guard before committing
            requested = 2.0 * self.num_layers * batch * max_len * self.hidden_size * 8
            self._check_guard(requested)
            cache = KVCache.allocate(self.num_layers, batch, max_len, self.hidden_size)
        else:
            requested = packed_kv_nbytes(
                self.num_layers, batch, max_len, self.hidden_size,
                self.kv_bits, self.num_heads,
            )
            self._check_guard(requested)
            cache = QuantizedKVCache.allocate(
                self.num_layers, batch, max_len, self.hidden_size,
                kv_bits=self.kv_bits, num_heads=self.num_heads,
            )
        self.caches[unit_id] = cache
        self._track()
        return cache

    def get(self, unit_id: int) -> KVCache:
        """Fetch a unit's cache; KeyError if never allocated."""
        try:
            return self.caches[unit_id]
        except KeyError:
            raise KeyError(f"no KV cache for unit {unit_id}") from None

    def batch_view(self, unit_ids: tuple[int, ...], starts: np.ndarray) -> BatchedKVView:
        """A :class:`BatchedKVView` over the given units (fused decode)."""
        return BatchedKVView([self.get(u) for u in unit_ids], starts)

    def merge(self, group_id: int, member_ids: tuple[int, ...]) -> KVCache:
        """Concatenate member units along the batch axis into one group.

        Members are concatenated in ascending unit-id order regardless of
        the order ``member_ids`` arrives in — unit ids are assigned in
        global-batch order, so this keeps the merged rows aligned with
        the master's batch slices even if control messages are reordered.

        All members must be at the same fill ``length`` (they are — the
        offline task pads prompts to a uniform ``s``).  Members are freed
        after merging, so peak memory is ~2x the group transiently, which
        the ledger records faithfully.  Packed units concatenate their
        code and scale tensors directly — no dequantize/requantize, so
        merging never perturbs stored values.
        """
        members = [self.get(m) for m in sorted(member_ids)]
        lengths = {m.length for m in members}
        if len(lengths) != 1:
            raise ValueError(f"cannot merge units at different lengths: {lengths}")
        self._check_guard(float(sum(m.kv_nbytes for m in members)))
        first = members[0]
        if isinstance(first, QuantizedKVCache):
            merged: KVCache = QuantizedKVCache(
                codes=np.concatenate([m.codes for m in members], axis=2),
                scales=np.concatenate([m.scales for m in members], axis=2),
                hidden_size=first.hidden_size,
                kv_bits=first.kv_bits,
                num_heads=first.num_heads,
                length=first.length,
            )
        else:
            merged = KVCache(
                k=np.concatenate([m.k for m in members], axis=1),
                v=np.concatenate([m.v for m in members], axis=1),
                length=first.length,
            )
        self.caches[group_id] = merged
        self._track()
        for m in member_ids:
            if m != group_id:
                del self.caches[m]
        return merged

    def release(self, unit_id: int) -> float:
        """Eagerly free a finished unit's slots; returns the bytes freed.

        Unlike :meth:`free` this is the continuous-batching retirement
        path: it keeps an accounting of how much memory came back, so the
        scheduler's admission control (and the tests) can confirm that
        ``current_bytes`` actually drops the moment a request finishes
        instead of waiting for the end-of-batch :meth:`free_all`.
        Idempotent — releasing an unknown or already-freed unit returns
        ``0.0``.
        """
        cache = self.caches.pop(unit_id, None)
        if cache is None:
            return 0.0
        freed = float(cache.kv_nbytes)
        self.released_units += 1
        self.released_bytes += freed
        return freed

    def free(self, unit_id: int) -> None:
        """Drop one unit (idempotent)."""
        self.caches.pop(unit_id, None)

    def free_all(self) -> None:
        """Drop every unit (between batches)."""
        self.caches.clear()
