"""Per-stage KV-cache management, with optional KV4/KV8 packing.

Each stage worker owns one cache unit per live prefill micro-batch (or
online request), pre-allocated at ``s + n`` slots exactly like the
paper's runtime (Sec. 5: pre-allocated KV cache).  All units of a stage
live in one *slab* — a single cache whose batch axis is the stage's
rows — and a unit is a window of consecutive rows of it.  Every decode
step is one fused read over slab rows: an offline decode group is the
rows of its prefill units, read as one slice of the slab with no copy,
and an online step one row per request.  The manager also keeps a byte
ledger of the logical (per-unit) bytes, so the runtime's peak KV memory
equals the analytical cost model's charge.

When a plan assigns a stage ``kv_bits`` below 16, the stage stores its
keys/values *packed*: signed codes quantized with one scale per
(token, head group), packed into uint8 rows in the bit layout of the
:func:`~repro.quant.kernels.pack_codes` codec the weight shards use.
Reads unpack on the fly, so the resident footprint is the real
``hidden * kv_bits / 8`` bytes per token (plus one float64 scale per
head) — the quantity the planner's admission ledger charges.
:class:`QuantizedKVCache` and the fused-decode :class:`BatchedKVView`
share one append kernel, :func:`_quantize_packed`, handling K and V
together.  The batch-1 :meth:`~QuantizedKVCache.read` dequantizes; the
fused :meth:`~BatchedKVView.read_padded` hands attention the codes and
their scales, and attention folds the scales into its scores and
softmax weights, so the fused step rounds ``(q · c) · s`` where the
batch-1 path rounds ``q · (c · s)``.

Two reference paths pin the numerics:

* :func:`kv_fake_quant` — quantize+dequantize without packing; the
  oracle a packed cache's :meth:`~QuantizedKVCache.read`, and a fused
  read's ``codes * scales``, must match bit-exactly (packing is
  lossless on codes).
* :class:`FakeQuantKVCache` — a drop-in :class:`KVCache` that fake-
  quantizes on append, used by ``TinyDecoderLM.prefill(kv_bits=...)``
  to produce single-process reference tokens for the runtime tests.

An optional ``alloc_guard`` callable is consulted with the requested
byte count before every allocation; it may raise
:class:`~repro.runtime.faults.KVAllocationError` to model memory
pressure — the hook the fault injector uses to drive the runtime's
retry-and-replan ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
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


#: byte -> the float64 codes it holds, for the widths that put whole
#: codes in a byte (8 // bits of them): one lookup replaces unpack +
#: int-to-float
_BYTE_CODES = {
    bits: unpack_codes(np.arange(256, dtype=np.uint8), bits, 256 * 8 // bits)
    .reshape(256, 8 // bits)
    .astype(np.float64)
    for bits in (2, 4, 8)
}


@lru_cache(maxsize=None)
def _zero_code_row(hidden: int, kv_bits: int) -> np.ndarray:
    """Packed bytes of one all-zero token row (read-only, made once per
    shape).  The stream is biased (+qmax), so a zero code is not a zero
    byte — at whole-byte widths it is one repeated byte (0x77 at KV4) —
    and with scale ``1.0`` this row is what an unwritten slot must hold
    to read back as ``0.0``."""
    row = pack_codes(np.zeros(hidden, dtype=np.int16), kv_bits)
    row.flags.writeable = False
    return row


def _quantize_packed(
    k_new: np.ndarray, v_new: np.ndarray, kv_bits: int, num_heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fused append kernel: one quantize and one pack over K and V rows.

    ``(B, q, hidden)`` inputs give packed bytes ``(2, B, q, row_bytes)``
    and scales ``(2, B, q, heads)``, K at 0 and V at 1.  Both steps are
    row-independent, so stacking changes no stored byte.  Widths that
    divide 8 OR the biased codes straight into bytes, low code in the
    low bits (KV4: ``c[0::2] | c[1::2] << 4``) — the bytes
    :func:`~repro.quant.kernels.pack_codes` writes, since a token row is
    a whole number of bytes; KV3 codes straddle bytes and go through
    the codec.
    """
    codes, scales = quantize_kv(np.stack((k_new, v_new)), kv_bits, num_heads)
    if 8 % kv_bits:
        return pack_codes(codes, kv_bits).reshape(*codes.shape[:-1], -1), scales
    packed = (codes + qmax_for_bits(kv_bits)).astype(np.uint8)
    width = kv_bits
    while width < 8:
        packed = packed[..., 0::2] | (packed[..., 1::2] << width)
        width *= 2
    return packed, scales


def _unpack_rows(packed: np.ndarray, kv_bits: int) -> np.ndarray:
    """Packed ``(..., row_bytes)`` rows to their float64 codes
    ``(..., hidden)``: one table lookup at whole-byte widths, unpack +
    convert otherwise."""
    table = _BYTE_CODES.get(kv_bits)
    if table is not None:
        codes = np.take(table, packed, axis=0)
    else:
        size = packed.size * 8 // kv_bits
        codes = unpack_codes(packed, kv_bits, size).astype(np.float64)
    return codes.reshape(*packed.shape[:-1], -1)


def _dequantize_packed(
    packed: np.ndarray, scales: np.ndarray, kv_bits: int
) -> np.ndarray:
    """Read kernel: packed ``(..., row_bytes)`` rows and their
    ``(..., heads)`` scales to dense float64 ``(..., hidden)``.

    ``float64(code) * scale``, multiplied in place, is the single
    multiply :func:`dequantize_kv` does, so the result is bit-identical
    to :func:`kv_fake_quant` of what was appended.
    """
    vals = _unpack_rows(packed, kv_bits)
    grouped = vals.reshape(*scales.shape, -1)
    grouped *= scales[..., None]
    return vals


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
    scales (leading axis: K at 0, V at 1), so every append, read and
    gather touches both in a single operation.  Implements the same
    protocol as :class:`KVCache` (``append`` / ``read`` / ``max_len`` /
    ``kv_nbytes`` / ``length``), so attention and the stage manager use
    it interchangeably; ``read`` returns dense float64 arrays that are
    bit-exact equal to :func:`kv_fake_quant` of what was appended, and
    slots never written read as exactly ``0.0``.
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
        cache = cls(
            codes=np.empty((*slots, hidden * kv_bits // 8), dtype=np.uint8),
            scales=np.empty((*slots, num_heads)),
            hidden_size=hidden,
            kv_bits=kv_bits,
            num_heads=num_heads,
        )
        _blank(cache)
        return cache

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

def _parts(cache: KVCache) -> tuple[np.ndarray, np.ndarray]:
    """A cache's two storage arrays, both ``(..., batch, slots, x)``."""
    if isinstance(cache, QuantizedKVCache):
        return cache.codes, cache.scales
    return cache.k, cache.v


def _like(cache: KVCache, a: np.ndarray, b: np.ndarray) -> KVCache:
    """An empty-length cache of ``cache``'s kind over storage arrays ``a, b``."""
    if isinstance(cache, QuantizedKVCache):
        return replace(cache, codes=a, scales=b, length=0)
    return KVCache(k=a, v=b)


def _window(cache: KVCache, rows: slice, slots: int) -> KVCache:
    """``cache``'s ``rows`` cut to their first ``slots`` slots (views)."""
    return _like(cache, *(p[..., rows, :slots, :] for p in _parts(cache)))


def _batch(cache: KVCache) -> int:
    return _parts(cache)[0].shape[-3]


def _blank(cache: KVCache) -> None:
    """Make every slot of ``cache`` read back as exactly ``0.0``."""
    a, b = _parts(cache)
    if isinstance(cache, QuantizedKVCache):
        a[...] = _zero_code_row(cache.hidden_size, cache.kv_bits)
        b[...] = 1.0
    else:
        a[...] = b[...] = 0.0


class BatchedKVView:
    """One fused decode step's window onto a multi-row cache (the slab).

    The fused decode path stacks one token per row of its cache units
    into a single ``(B, 1, h)`` activation; this view is the matching KV
    adapter.  Each unit contributes all of its rows, in ``units`` order,
    so row ``i`` of the message is row ``rows[i]`` of ``store`` (a unit
    starting at ``row0[u]`` covers ``row0[u] .. row0[u] + batch``):
    :meth:`append` writes every row's new K/V at its own position
    ``starts[i]`` with one indexed write and :meth:`read_padded` is
    ``store[layer, idx, :Tmax]``.

    ``idx`` is the slice covering the batch's rows when that is cheaper
    than copying them: a dense slice is a zero-copy view, so a
    *passenger* row inside it (another unit's, or a free one) costs
    only its attention, and against one gather the slice wins up to
    about 1.25x the rows read (more on long contexts); a packed read
    unpacks every row it covers, so it takes no passengers.
    Otherwise ``idx`` is the row array and the read one gather in
    message order.  A slice returns rows in slab order: ``pos[i]`` is
    where message row ``i`` sits in it (``None`` when that is ``i``),
    and ``masked`` — the ragged attention mask, ``True`` past each row's
    position and all along a passenger — is built once here in read
    order.  Attention is row-independent, so only its per-row operands
    move; the stacked GEMMs keep the message's order.

    Slots a row's tenant has not written hold exactly ``0.0`` (dense
    zeros; packed: the zero code at scale ``1.0``) — the manager blanks
    a unit's rows when it frees them — so nothing is padded per read,
    passengers are finite, and the mask can rely on zero padding to keep
    it out of the softmax.  A packed read returns codes and scales, not
    values: attention multiplies the K scales into its scores and the V
    scales into its softmax weights, ``rows * heads * Tmax`` multiplies
    per layer instead of one per history element.  The batched paths
    are bit-exact per request against batch-1 ``append``/``read``:
    quantize+pack is row-independent and ``codes * scales`` is the
    elementwise dequantization ``read`` does.

    Without ``store`` the units are loose caches of one storage type and
    capacity and the view works on a private stacked *copy* of them
    (kernels timed outside a stage): its appends do not reach the units.
    """

    def __init__(
        self,
        units: list[KVCache],
        starts: np.ndarray,
        store: KVCache | None = None,
        row0: list[int] | None = None,
    ) -> None:
        if not units:
            raise ValueError("batched view needs at least one cache unit")
        sizes, slots = zip(*(_parts(c)[0].shape[-3:-1] for c in units))
        n = sum(sizes)
        starts = np.asarray(starts, dtype=np.int64)
        if starts.shape != (n,):
            raise ValueError("starts must have one entry per cache unit row")
        # each unit's first message row; per unit, its furthest position
        first = np.cumsum(sizes) - sizes if n != len(units) else None
        self.last = starts if first is None else np.maximum.reduceat(starts, first)
        if any(last >= cap for last, cap in zip(self.last.tolist(), slots)):
            raise ValueError("KV cache overflow: reserve s + n slots up front")
        if store is None:
            kind = type(units[0])
            if kind is FakeQuantKVCache or any(type(c) is not kind for c in units):
                raise ValueError("all cache units must share one storage type")
            store = _like(units[0], *(
                np.concatenate(p, axis=-3) for p in zip(*map(_parts, units))
            ))
            row0 = np.cumsum(sizes) - sizes
        rows = np.asarray(row0, dtype=np.int64)
        if first is not None:  # expand each unit into its rows
            rows = np.repeat(rows - first, sizes) + np.arange(n)
        self.store = store
        self.packed = isinstance(store, QuantizedKVCache)
        self._rows, self._starts = rows, starts
        self.total_max = int(starts.max()) + 1
        low = int(rows.min())
        span = int(rows.max()) + 1 - low
        self.idx, self.pos = rows, None
        if span <= n + (0 if self.packed else n // 4):
            self.idx, self.pos = slice(low, low + span), rows - low
            starts = np.full(span, -1)
            starts[self.pos] = self._starts
            if self.pos.tolist() == list(range(span)):
                self.pos = None
        self.masked = (np.arange(self.total_max) > starts[:, None])[:, None, None, :]

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write ``(B, 1, h)`` new K/V rows, message order, at ``starts``."""
        store, at = self.store, (layer, self._rows, self._starts)
        if self.packed:
            # one quantize+pack over the whole batch: row-independent, so
            # each unit's stored bytes equal its own batch-1 append
            packed, scales = _quantize_packed(
                k_new, v_new, store.kv_bits, store.num_heads
            )
            store.codes[(slice(None), *at)] = packed[:, :, 0]
            store.scales[(slice(None), *at)] = scales[:, :, 0]
        else:
            store.k[at] = k_new[:, 0]
            store.v[at] = v_new[:, 0]

    def read_padded(
        self, layer: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """K/V histories ``(rows read, Tmax, h)``, exactly ``0.0`` past
        each length, and their scales.

        Dense: the values (slices are views of the slab) and ``None``.
        Packed: the float64 *codes* and their ``(2, rows read, Tmax,
        heads)`` scales, K at 0 and V at 1, for attention to fold in;
        ``codes * scales`` per head group is :func:`kv_fake_quant` of
        the history.
        """
        store, t = self.store, self.total_max
        if self.packed:
            k, v = _unpack_rows(store.codes[:, layer, self.idx, :t], store.kv_bits)
            return k, v, store.scales[:, layer, self.idx, :t]
        return store.k[layer, self.idx, :t], store.v[layer, self.idx, :t], None


# ----------------------------------------------------------------------
# Stage manager
# ----------------------------------------------------------------------

@dataclass
class StageKVManager:
    """Allocates and frees KV caches for one pipeline stage.

    ``kv_bits`` below 16 switches every unit this stage allocates to the
    packed :class:`QuantizedKVCache`; the guard then sees the *packed*
    byte counts, which is exactly how KV4 turns into admission headroom
    under a fixed cache budget.

    Storage is one ``slab``: a cache of the stage's storage type whose
    batch axis is the stage's rows and whose slot axis covers the longest
    unit reserved so far.  A unit is ``batch`` consecutive rows, handed
    out lowest-free-first; its cache object holds views of those rows cut
    to its own ``max_len``, so every batch-1 code path runs on the slab's
    bytes.  Every slot outside a live unit's window is blank (reads
    ``0.0``): a fresh slab is, and a unit's window is blanked when it is
    freed, so no tenant ever reads another's values.  Rows double and
    slots grow by a quarter on demand and are never returned; growth
    moves the live units and re-points their cache objects, which
    therefore stay valid.  ``current_bytes``, ``peak_bytes``, guard
    requests and ``released_bytes`` count the units' logical bytes;
    ``slab_bytes`` is what is physically reserved.
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
    view_steps: int = 0    #: fused steps that read their batch as one slice
    gather_steps: int = 0  #: fused steps that gathered through the row array
    slab: KVCache | None = field(default=None, repr=False)
    _row0: dict[int, int] = field(default_factory=dict, repr=False)
    _free: np.ndarray = field(  #: per slab row
        default_factory=lambda: np.empty(0, dtype=bool), repr=False
    )

    def _track(self) -> None:
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def _check_guard(self, requested_bytes: float) -> None:
        if self.alloc_guard is not None:
            self.alloc_guard(requested_bytes)

    @property
    def current_bytes(self) -> float:
        """Live (logical) KV bytes across all cache units."""
        return float(sum(c.kv_nbytes for c in self.caches.values()))

    @property
    def slab_rows(self) -> int:
        """Rows the slab reserves, handed out or not."""
        return len(self._free)

    @property
    def slab_bytes(self) -> float:
        """Bytes the slab reserves (physical, never below the ledger)."""
        return self.slab.kv_nbytes if self.slab is not None else 0.0

    def _place(self, batch: int, max_len: int) -> tuple[int, KVCache]:
        """Hand out the lowest ``batch`` consecutive free rows."""
        free, have = self._free, self.slab_rows
        # a run cut short by the slab's end is completed by growing
        row0 = next((r for r in range(have) if free[r : r + batch].all()), have)
        end, had = row0 + batch, self.slab.max_len if have else 0
        if end > have or max_len > had:
            self._grow(
                max(end, 2 * have) if end > have else have,
                max(max_len, had + had // 4) if max_len > had else had,
            )
        self._free[row0:end] = False
        return row0, _window(self.slab, slice(row0, end), max_len)

    def _grow(self, rows: int, slots: int) -> None:
        """Re-create the slab ``rows`` x ``slots`` large, moving every
        live unit and its cache object across."""
        if self.kv_bits >= 16:
            self.slab = KVCache.allocate(self.num_layers, rows, slots, self.hidden_size)
        else:
            self.slab = QuantizedKVCache.allocate(
                self.num_layers, rows, slots, self.hidden_size,
                kv_bits=self.kv_bits, num_heads=self.num_heads,
            )
        self._free = np.concatenate((self._free, np.ones(rows - self.slab_rows, bool)))
        for unit_id, cache in self.caches.items():
            row0, kept = self._row0[unit_id], _parts(cache)
            moved = _window(self.slab, slice(row0, row0 + _batch(cache)), cache.max_len)
            for new, old in zip(_parts(moved), kept):
                new[...] = old
            # the same object now windows the new slab
            vars(cache).update(vars(moved), length=cache.length)

    def allocate(self, unit_id: int, batch: int, max_len: int) -> KVCache:
        """Pre-allocate a cache unit (idempotent per id)."""
        if unit_id in self.caches:
            return self.caches[unit_id]
        # checked against the guard before committing
        if self.kv_bits >= 16:
            # k + v, float64
            requested = 2.0 * self.num_layers * batch * max_len * self.hidden_size * 8
        else:
            requested = packed_kv_nbytes(
                self.num_layers, batch, max_len, self.hidden_size,
                self.kv_bits, self.num_heads,
            )
        self._check_guard(requested)
        self._row0[unit_id], cache = self._place(batch, max_len)
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
        """A :class:`BatchedKVView` over every row of the given units
        (``starts``: one entry per row, units in order) for one fused
        decode step, whose token is counted into each unit's ``length``
        here (a step that dies takes the stage's KV with it)."""
        units = [self.get(u) for u in unit_ids]
        view = BatchedKVView(units, starts, self.slab, [self._row0[u] for u in unit_ids])
        for cache, last in zip(units, view.last.tolist()):
            cache.length = last + 1
        if isinstance(view.idx, slice):
            self.view_steps += 1
        else:
            self.gather_steps += 1
        return view

    def release(self, unit_id: int) -> float:
        """Eagerly free a finished unit's rows; returns the bytes freed.

        Unlike :meth:`free` this is the continuous-batching retirement
        path: it keeps an accounting of how much memory came back, so the
        scheduler's admission control (and the tests) can confirm that
        ``current_bytes`` actually drops the moment a request finishes
        instead of waiting for the end-of-batch :meth:`free_all`.
        Idempotent — releasing an unknown or already-freed unit returns
        ``0.0``.
        """
        cache = self.free(unit_id)
        if cache is None:
            return 0.0
        freed = float(cache.kv_nbytes)
        self.released_units += 1
        self.released_bytes += freed
        return freed

    def free(self, unit_id: int) -> KVCache | None:
        """Drop one unit (idempotent): blank its rows and push them back."""
        cache = self.caches.pop(unit_id, None)
        if cache is not None:
            row0 = self._row0.pop(unit_id)
            self._free[row0 : row0 + _batch(cache)] = True
            _blank(cache)
        return cache

    def free_all(self) -> None:
        """Drop every unit (between batches); the slab stays reserved."""
        for unit_id in list(self.caches):
            self.free(unit_id)
