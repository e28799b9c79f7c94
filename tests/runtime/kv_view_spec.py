"""The fused decode step before the per-stage slab, kept as the bitwise
reference.

:class:`SpecBatchedKVView` is the loop-gather view that used to ship in
``repro.runtime.kvcache``: it owns nothing, scatters each request's new
K/V row into that request's own loose cache unit and re-gathers every
history into freshly zero-filled ``(B, Tmax, h)`` buffers per layer
(dense, fake-quant and packed units; packed histories are unpacked by
the codec, ``unpack_codes``, not the slab's byte table).
``spec_batched_decode_block`` is the block that ran on it, with the
``mean``/``var`` layer norm, the per-layer ``arange`` mask, the
out-of-place softmax and the out-of-place GELU (``spec_gelu``); its
attention folds packed scales into the scores and softmax weights the
way ``src/`` does.  The slab view, the hoisted mask and the trimmed
kernels in ``src/`` are pinned to these, byte for byte; they exist only
for the tests.
"""

import numpy as np

from repro.models.config import ModelConfig
from repro.models.transformer import (
    KVCache,
    LayerWeights,
    alibi_slopes,
    fused_qkv,
)
from repro.quant.kernels import pack_codes, unpack_codes
from repro.runtime.kvcache import (
    FakeQuantKVCache,
    QuantizedKVCache,
    kv_fake_quant,
    quantize_kv,
)


class SpecBatchedKVView:
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
    * one big ``unpack_codes`` call is elementwise, so each request's
      slice equals its own small-call result;
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
            # one quantize and one codec pack over the whole batch, then
            # a per-unit byte scatter — row-independent, so each unit's
            # stored bytes equal its own batch-1 append
            codes, scales = quantize_kv(
                np.stack((k_new, v_new)), first.kv_bits, first.num_heads
            )
            packed = pack_codes(codes, first.kv_bits).reshape(*codes.shape[:-1], -1)
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

    def read_padded(self, layer: int):
        """K/V histories as ``(B, Tmax, h)``, zero-padded past each
        length, and their scales: dense values and ``None``, or packed
        units' float64 codes and ``(2, B, Tmax, heads)`` scales."""
        first, shape = self.caches[0], (len(self.caches), self.total_max)
        if self.packed:
            # gather the packed bytes (K at 0, V at 1), unpack once through
            # the codec; pad slots are code 0 at scale 1.0, i.e. exactly 0.0
            packed = np.tile(self._pad_row, (2, *shape, 1))
            scales = np.ones((2, *shape, first.num_heads))
            for i, c in enumerate(self.caches):
                t = self.totals[i]
                packed[:, i, :t] = c.codes[:, layer, 0, :t]
                scales[:, i, :t] = c.scales[:, layer, 0, :t]
            size = packed.size * 8 // first.kv_bits
            codes = unpack_codes(packed, first.kv_bits, size).astype(np.float64)
            k, v = codes.reshape(2, *shape, first.hidden_size)
            return k, v, scales
        k = np.zeros((*shape, first.k.shape[-1]))
        v = np.zeros((*shape, first.k.shape[-1]))
        for i, c in enumerate(self.caches):
            t = self.totals[i]
            k[i, :t] = c.k[layer, 0, :t]
            v[i, :t] = c.v[layer, 0, :t]
        return k, v, None

    def commit_lengths(self) -> None:
        """Mark every unit's new fill length (end of the iteration)."""
        for c, t in zip(self.caches, self.totals):
            c.length = int(t)


def spec_layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


_GELU_C = np.sqrt(2.0 / np.pi)


def spec_gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def spec_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


def spec_batched_decode_attention(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    kv,
    cache_layer: int,
    starts: np.ndarray,
) -> np.ndarray:
    """The pre-slab ragged attention.  Packed histories arrive as codes
    and their per-(token, head) scales, folded in as ``(q · c) · s``:
    the K scale into each score before the ``1/sqrt(hd)``, the V scale
    into each softmax weight."""
    batch, q, h = x.shape
    if q != 1:
        raise ValueError("batched decode processes one token per request")
    nh, hd = cfg.num_heads, cfg.hidden_size // cfg.num_heads

    wqkv, bqkv = fused_qkv(lw)
    qkv = x.reshape(batch, h) @ wqkv
    qkv += bqkv
    qp, kp, vp = qkv[:, :h], qkv[:, h : 2 * h], qkv[:, 2 * h :]
    kv.append(cache_layer, kp.reshape(batch, 1, h), vp.reshape(batch, 1, h))
    k_all, v_all, scales = kv.read_padded(cache_layer)
    total = k_all.shape[1]

    qh = qp.reshape(batch, 1, nh, hd).transpose(0, 2, 1, 3)
    kh = k_all.reshape(batch, total, nh, hd).transpose(0, 2, 3, 1)
    vh = v_all.reshape(batch, total, nh, hd).transpose(0, 2, 1, 3)
    scores = qh @ kh
    if scales is not None:
        scores = scores * np.moveaxis(scales[0], 1, 2)[:, :, None, :]
    scores = scores / np.sqrt(hd)

    starts = np.asarray(starts, dtype=np.int64)
    pos_k = np.arange(total)[None, :]
    if cfg.max_position_embeddings == 0:
        # ALiBi: per-request key distance is start_i - pos_k
        dist = (starts[:, None] - pos_k).astype(np.float64)
        scores = scores + (
            -alibi_slopes(nh)[None, :, None, None] * dist[:, None, None, :]
        )
    keep = pos_k <= starts[:, None]
    scores = np.where(keep[:, None, None, :], scores, -1e30)
    attn = spec_softmax(scores, axis=-1)
    if scales is not None:
        attn = attn * np.moveaxis(scales[1], 1, 2)[:, :, None, :]
    mixed = (attn @ vh).transpose(0, 2, 1, 3).reshape(batch, 1, h)
    out = mixed.reshape(batch, h) @ lw.wo
    out += lw.bo
    return out.reshape(batch, 1, h)


def spec_batched_decode_block(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    kv,
    cache_layer: int,
    starts: np.ndarray,
) -> np.ndarray:
    """The parent commit's fused decode block, verbatim."""
    a = spec_batched_decode_attention(
        cfg, lw, spec_layernorm(x, lw.ln1_g, lw.ln1_b), kv, cache_layer, starts
    )
    x = x + a
    h1 = spec_layernorm(x, lw.ln2_g, lw.ln2_b)
    batch, q, h = x.shape
    z1 = h1.reshape(batch * q, h) @ lw.fc1
    z1 += lw.bfc1
    h2 = spec_gelu(z1)
    m = h2 @ lw.fc2
    m += lw.bfc2
    return x + m.reshape(batch, q, h)
