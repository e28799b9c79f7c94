"""A runnable decoder-only transformer in pure NumPy.

This is the *real* model substrate: everything the quality experiments
measure (quantization error, perplexity deltas, layer sensitivity,
Theorem-1 variance bounds) runs through genuine forward passes of this
implementation with genuinely quantized weights.  It mirrors the OPT
block structure (pre-LN, learned position embeddings, GELU MLP) scaled
down to laptop size via the ``tiny-*`` configs.

Weight layout per layer ``i`` (all ``float64`` for numeric headroom):

======================  =========================
``ln1.g / ln1.b``       pre-attention LayerNorm
``q/k/v/out`` (+ bias)  attention projections
``ln2.g / ln2.b``       pre-MLP LayerNorm
``fc1 / fc2`` (+ bias)  MLP
======================  =========================

Both phases mask attention through one in-place
:func:`_masked_softmax`: the prompt pass with its causal ``(q, T)``
mask, fused decode with its ragged per-request mask.  The prompt pass
scores its queries in chunks of ``_QUERY_CHUNK`` rows, each against
only the keys up to its last row, so key blocks wholly above the causal
diagonal are never multiplied or exponentiated.  The block's
elementwise work (scale, GELU, residual adds) runs in place on
temporaries the block owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import ModelConfig

__all__ = [
    "LayerWeights",
    "TinyDecoderLM",
    "KVCache",
    "init_weights",
    "fused_qkv",
    "batched_decode_attention",
    "batched_decode_block",
]


@dataclass
class LayerWeights:
    """Dense weights of one decoder layer."""

    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    fc1: np.ndarray
    bfc1: np.ndarray
    fc2: np.ndarray
    bfc2: np.ndarray

    def linear_weights(self) -> dict[str, np.ndarray]:
        """The quantizable dense matrices, keyed like LayerShape.operators."""
        return {
            "q_proj": self.wq,
            "k_proj": self.wk,
            "v_proj": self.wv,
            "out_proj": self.wo,
            "fc1": self.fc1,
            "fc2": self.fc2,
        }

    def replace_linears(self, new: Mapping[str, np.ndarray]) -> "LayerWeights":
        """Copy of this layer with some dense matrices swapped out."""
        out = LayerWeights(
            ln1_g=self.ln1_g, ln1_b=self.ln1_b,
            wq=new.get("q_proj", self.wq), bq=self.bq,
            wk=new.get("k_proj", self.wk), bk=self.bk,
            wv=new.get("v_proj", self.wv), bv=self.bv,
            wo=new.get("out_proj", self.wo), bo=self.bo,
            ln2_g=self.ln2_g, ln2_b=self.ln2_b,
            fc1=new.get("fc1", self.fc1), bfc1=self.bfc1,
            fc2=new.get("fc2", self.fc2), bfc2=self.bfc2,
        )
        return out


@dataclass
class KVCache:
    """Pre-allocated per-layer key/value cache.

    Shapes: ``(num_layers, batch, max_len, hidden)``.  ``length`` tracks
    how many positions are filled; the runtime reserves ``s + n`` slots up
    front exactly like the paper's serving system.
    """

    k: np.ndarray
    v: np.ndarray
    length: int = 0

    @classmethod
    def allocate(cls, num_layers: int, batch: int, max_len: int, hidden: int) -> "KVCache":
        """Zero-filled pre-allocated cache of the given capacity."""
        shape = (num_layers, batch, max_len, hidden)
        return cls(k=np.zeros(shape), v=np.zeros(shape), length=0)

    @property
    def max_len(self) -> int:
        """Reserved KV slots per sequence."""
        return self.k.shape[2]

    @property
    def kv_nbytes(self) -> float:
        """Resident bytes of this cache's K/V storage."""
        return float(self.k.nbytes + self.v.nbytes)

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray, start: int) -> None:
        """Write new K/V rows at absolute position ``start``."""
        q = k_new.shape[1]
        if start + q > self.max_len:
            raise ValueError("KV cache overflow: reserve s + n slots up front")
        self.k[layer, :, start : start + q] = k_new
        self.v[layer, :, start : start + q] = v_new

    def read(self, layer: int, total: int) -> tuple[np.ndarray, np.ndarray]:
        """K/V rows ``0 .. total`` of ``layer`` as dense ``(batch, total,
        hidden)`` arrays.  The fp16-baseline cache returns zero-copy views;
        packed subclasses dequantize on read."""
        return self.k[layer, :, :total], self.v[layer, :, :total]


def fused_qkv(lw: LayerWeights) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``[wq|wk|wv]`` weight and bias for one fused GEMM.

    Column-block concatenation leaves every output column's dot product
    untouched, so the fused projection is bit-identical to three separate
    GEMMs — it just makes one BLAS call instead of three.  The fused
    arrays are memoized on the (mutable) ``LayerWeights`` instance;
    weight surgery always builds fresh instances, so the memo cannot go
    stale.
    """
    cached = getattr(lw, "_fused_qkv", None)
    if cached is None:
        cached = (
            np.concatenate((lw.wq, lw.wk, lw.wv), axis=1),
            np.concatenate((lw.bq, lw.bk, lw.bv)),
        )
        lw._fused_qkv = cached
    return cached


def _layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    # ``(x - mean) / sqrt(var + eps) * g + b`` in ndarray.mean/var's own
    # operation order (bit-identical), minus their Python dispatch and
    # the second ``x - mean`` — this runs twice per block per token
    n = x.shape[-1]
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(d * d, axis=-1, keepdims=True) / n
    var += eps
    d /= np.sqrt(var, out=var)
    d *= g
    d += b
    return d


_GELU_C = np.sqrt(2.0 / np.pi)

# query rows per causal-attention chunk of the prompt pass
_QUERY_CHUNK = 32


def _gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU, computed in place: ``x`` must be a
    temporary the caller owns.

    The operation order of ``0.5 * x * (1.0 + tanh(C * (x + 0.044715 *
    (x * x * x))))`` with one scratch array (x * x * x instead of x**3:
    npy pow on float64 is ~10x the cost of two multiplies, and this op
    sits on the per-token decode path).
    """
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def _masked_softmax(scores: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with the ``masked`` entries weighted
    ``0.0``, computed in place: ``scores`` must be a temporary the caller
    owns, and ``masked`` broadcasts against it.

    Every row with a kept entry gets the floats ``-1e30`` masking gives:
    the same row max, the same exps, exact zeros at the same places and
    so the same sum.  The masked entries are zeroed before ``exp`` as
    well as after it, so ``exp`` never takes its underflow slow path on
    them.  A row masked end to end (a decode passenger) comes out all
    zeros.
    """
    np.copyto(scores, -1e30, where=masked)
    scores -= scores.max(axis=-1, keepdims=True)
    np.copyto(scores, 0.0, where=masked)
    np.exp(scores, out=scores)
    np.copyto(scores, 0.0, where=masked)
    total = scores.sum(axis=-1, keepdims=True)
    # a row with a kept entry sums to >= 1 (its max contributes exp(0));
    # only a row masked end to end sums to 0, and 0 / 1 keeps it finite
    np.maximum(total, 1.0, out=total)
    scores /= total
    return scores


def init_weights(cfg: ModelConfig, seed: int = 0) -> tuple[np.ndarray, np.ndarray, list[LayerWeights], np.ndarray, np.ndarray]:
    """Random-but-stable initialization (scaled normal, OPT-style).

    Returns ``(embed_tokens, embed_positions, layers, final_ln_g, final_ln_b)``.
    """
    rng = np.random.default_rng(seed)
    h, f = cfg.hidden_size, cfg.ffn_dim
    std = 0.02
    # residual-branch scaling keeps deep stacks stable
    res_std = std / np.sqrt(2.0 * cfg.num_layers)

    embed_tokens = rng.normal(0, std, size=(cfg.vocab_size, h))
    n_pos = max(cfg.max_position_embeddings, 1)
    embed_positions = rng.normal(0, std, size=(n_pos, h))

    layers: list[LayerWeights] = []
    for _ in range(cfg.num_layers):
        layers.append(
            LayerWeights(
                ln1_g=np.ones(h), ln1_b=np.zeros(h),
                wq=rng.normal(0, std, (h, h)), bq=np.zeros(h),
                wk=rng.normal(0, std, (h, h)), bk=np.zeros(h),
                wv=rng.normal(0, std, (h, h)), bv=np.zeros(h),
                wo=rng.normal(0, res_std, (h, h)), bo=np.zeros(h),
                ln2_g=np.ones(h), ln2_b=np.zeros(h),
                fc1=rng.normal(0, std, (h, f)), bfc1=np.zeros(f),
                fc2=rng.normal(0, res_std, (f, h)), bfc2=np.zeros(h),
            )
        )
    return embed_tokens, embed_positions, layers, np.ones(h), np.zeros(h)


def alibi_slopes(num_heads: int) -> np.ndarray:
    """ALiBi per-head slopes (Press et al.): geometric in ``2^(-8/n)``.

    BLOOM uses these linear attention biases instead of learned position
    embeddings.  For non-power-of-two head counts the standard
    interpolation scheme is applied.
    """
    def pow2_slopes(n: int) -> list[float]:
        start = 2.0 ** (-(2.0 ** -(np.log2(n) - 3)))
        return [start * (start**i) for i in range(n)]

    if num_heads < 1:
        raise ValueError("num_heads must be positive")
    n = 2 ** int(np.floor(np.log2(num_heads)))
    slopes = pow2_slopes(n)
    if n < num_heads:
        extra = pow2_slopes(2 * n)[0::2][: num_heads - n]
        slopes += extra
    return np.asarray(slopes)


def attention_forward(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    cache: KVCache,
    cache_layer: int,
    start: int,
    recorder=None,
) -> np.ndarray:
    """Multi-head attention for ``q`` new tokens at absolute positions
    ``start .. start+q`` against everything already in ``cache``.

    Standalone so pipeline-stage shards (which hold only a slice of the
    model) run the byte-identical computation as :class:`TinyDecoderLM`.
    Models with ``max_position_embeddings == 0`` (the BLOOM family) use
    ALiBi biases instead of learned positions.

    Queries run in chunks of ``_QUERY_CHUNK`` rows: chunk ``[c0, c1)``
    scores only keys ``[0, start + c1)``, so key blocks wholly above the
    causal diagonal are never multiplied, scaled or exponentiated.  A prompt of at most
    ``_QUERY_CHUNK`` tokens is one chunk, byte-identical to scoring the
    whole ``q x total`` tile; a longer one agrees with it to ~1e-16, as
    a chunk's softmax sums over fewer keys (and a 1-row tail chunk runs
    as a GEMV).  The KV cache is written before any chunk runs, so it
    is the same bytes either way.
    """
    batch, q, h = x.shape
    nh, hd = cfg.num_heads, cfg.hidden_size // cfg.num_heads

    if recorder is not None:
        recorder(cache_layer, "q_proj", x)
        recorder(cache_layer, "k_proj", x)
        recorder(cache_layer, "v_proj", x)
    # one fused QKV GEMM on the flattened (batch*q, h) tokens: a 3-D
    # ndarray @ 2-D matmul loops a GEMM per batch row, which is the slow
    # shape decode hits (q == 1), so flatten once and split by columns
    wqkv, bqkv = fused_qkv(lw)
    qkv = x.reshape(batch * q, h) @ wqkv
    qkv += bqkv
    qkv = qkv.reshape(batch, q, 3 * h)
    qp, kp, vp = qkv[..., :h], qkv[..., h : 2 * h], qkv[..., 2 * h :]
    cache.append(cache_layer, kp, vp, start)
    total = start + q
    k_all, v_all = cache.read(cache_layer, total)

    qh = qp.reshape(batch, q, nh, hd).transpose(0, 2, 1, 3)
    kh = k_all.reshape(batch, total, nh, hd).transpose(0, 2, 3, 1)
    vh = v_all.reshape(batch, total, nh, hd).transpose(0, 2, 1, 3)
    pos_q = start + np.arange(q)[:, None]
    pos_k = np.arange(total)[None, :]
    masked = pos_k > pos_q
    alibi = cfg.max_position_embeddings == 0
    if alibi:
        neg_slopes = -alibi_slopes(nh)[:, None, None]
    mixed = np.empty((batch, q, nh, hd))
    for c0 in range(0, q, _QUERY_CHUNK):
        c1 = min(c0 + _QUERY_CHUNK, q)
        t = start + c1
        scores = qh[:, :, c0:c1] @ kh[..., :t]
        scores /= np.sqrt(hd)
        if alibi:
            # ALiBi: penalize attention linearly in key distance, per head
            dist = (pos_q[c0:c1] - pos_k[:, :t]).astype(np.float64)
            scores += neg_slopes * dist
        attn = _masked_softmax(scores, masked[c0:c1, :t])
        np.matmul(attn, vh[:, :, :t], out=mixed[:, c0:c1].transpose(0, 2, 1, 3))
    mixed = mixed.reshape(batch, q, h)
    if recorder is not None:
        recorder(cache_layer, "out_proj", mixed)
    out = mixed.reshape(batch * q, h) @ lw.wo
    out += lw.bo
    return out.reshape(batch, q, h)


def batched_decode_attention(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    kv,
    cache_layer: int,
    starts: np.ndarray,
) -> np.ndarray:
    """Ragged-length attention for one fused decode iteration.

    ``x`` stacks ``B`` independent requests' single-token activations as
    ``(B, 1, h)``; row ``i`` sits at absolute position ``starts[i]`` of
    its own sequence.  ``kv`` is a batched cache view (duck-typed, e.g.
    :class:`repro.runtime.kvcache.BatchedKVView`) exposing

    * ``append(layer, k_new, v_new)`` — write row ``i``'s new K/V at
      ``starts[i]`` of request ``i``'s cache unit;
    * ``read_padded(layer)`` — ``(R, Tmax, h)`` K and V up to the batch
      max context, exactly ``0.0`` past each request's length, and
      their scales: ``None`` when K and V are values, or ``(2, R, Tmax,
      nh)`` per-(token, head) scales (K at 0, V at 1) when they are
      quantization codes.  The K scales are multiplied into the scores
      and the V scales into the softmax weights, so attention reads
      ``codes * scales`` without forming it.  The view reads in its
      storage's order and may carry *passenger* rows that belong to no
      request of the batch (``R >= B``);
    * ``pos`` — where in those ``R`` rows request ``i`` sits, or ``None``
      when that is row ``i``; and
    * ``masked`` — ``(R, 1, 1, Tmax)``, ``True`` past each request's
      position and all along a passenger.

    Attention is independent per row, so only its per-request operands
    (``q``, ``starts``, the mixed output) move to and from the view's
    order; the QKV/out projections run as one stacked GEMM over the
    ``B`` rows in ``x``'s order — the whole point of fusing — which is
    *not* bitwise row-stable against ``B`` separate batch-1 GEMVs, nor
    are folded scales (``(q · c) · s`` against ``q · (c · s)``);
    equality with batch-1 execution is therefore asserted at
    token-stream level (argmax), not on logit bytes.

    Padding never leaks into the output: :func:`_masked_softmax` gives
    masked scores weights of exactly ``0.0``, and the padded V rows
    those zero weights multiply are themselves exact zeros (at scale
    ``1.0`` when packed).
    """
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
    rows, total = k_all.shape[:2]
    pos = kv.pos
    if pos is not None:
        q_rows = np.zeros((rows, h))
        q_rows[pos] = qp
        qp = q_rows

    qh = qp.reshape(rows, 1, nh, hd).transpose(0, 2, 1, 3)
    kh = k_all.reshape(rows, total, nh, hd).transpose(0, 2, 3, 1)
    vh = v_all.reshape(rows, total, nh, hd).transpose(0, 2, 1, 3)
    scores = qh @ kh
    if scales is not None:
        # K/V are codes: lay their (2, rows, total, nh) scales out like
        # the (rows, nh, 1, total) scores
        k_scales, v_scales = scales.transpose(0, 1, 3, 2)[:, :, :, None, :]
        scores *= k_scales
    scores /= np.sqrt(hd)

    if cfg.max_position_embeddings == 0:
        # ALiBi: per-request key distance is start_i - pos_k
        at = np.zeros(rows, dtype=np.int64)
        at[slice(None) if pos is None else pos] = starts
        dist = (at[:, None] - np.arange(total)[None, :]).astype(np.float64)
        scores += -alibi_slopes(nh)[None, :, None, None] * dist[:, None, None, :]
    attn = _masked_softmax(scores, kv.masked)
    if scales is not None:
        attn *= v_scales
    mixed = (attn @ vh).transpose(0, 2, 1, 3).reshape(rows, h)
    if pos is not None:
        mixed = mixed[pos]
    out = mixed @ lw.wo
    out += lw.bo
    return out.reshape(batch, 1, h)


def batched_decode_block(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    kv,
    cache_layer: int,
    starts: np.ndarray,
) -> np.ndarray:
    """One pre-LN decoder block over a fused ragged decode batch.

    Same structure as :func:`decoder_block` with ``q == 1`` but all
    ``B`` requests share each GEMM; attention is ragged per request.
    """
    a = batched_decode_attention(
        cfg, lw, _layernorm(x, lw.ln1_g, lw.ln1_b), kv, cache_layer, starts
    )
    a += x
    x = a
    h1 = _layernorm(x, lw.ln2_g, lw.ln2_b)
    batch, q, h = x.shape
    z1 = h1.reshape(batch * q, h) @ lw.fc1
    z1 += lw.bfc1
    h2 = _gelu(z1)
    m = h2 @ lw.fc2
    m += lw.bfc2
    m = m.reshape(batch, q, h)
    m += x
    return m


def decoder_block(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    cache: KVCache,
    cache_layer: int,
    start: int,
    recorder=None,
) -> np.ndarray:
    """One full pre-LN decoder block (attention + MLP with residuals)."""
    a = attention_forward(
        cfg, lw, _layernorm(x, lw.ln1_g, lw.ln1_b), cache, cache_layer, start, recorder
    )
    a += x
    x = a
    h1 = _layernorm(x, lw.ln2_g, lw.ln2_b)
    if recorder is not None:
        recorder(cache_layer, "fc1", h1)
    batch, q, h = x.shape
    z1 = h1.reshape(batch * q, h) @ lw.fc1
    z1 += lw.bfc1
    h2 = _gelu(z1)
    if recorder is not None:
        recorder(cache_layer, "fc2", h2.reshape(batch, q, -1))
    m = h2 @ lw.fc2
    m += lw.bfc2
    m = m.reshape(batch, q, h)
    m += x
    return m


class TinyDecoderLM:
    """Decoder-only LM with pre-allocated KV cache and two-phase inference.

    Use :meth:`prefill` once per batch and then :meth:`decode_step`
    repeatedly — exactly the generative-serving pattern of Fig. 2.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0) -> None:
        if cfg.hidden_size > 1024 or cfg.num_layers > 48:
            raise ValueError(
                f"{cfg.name} is too large to run in NumPy; use the cost models"
            )
        self.cfg = cfg
        (
            self.embed_tokens,
            self.embed_positions,
            self.layers,
            self.final_ln_g,
            self.final_ln_b,
        ) = init_weights(cfg, seed)

    # ------------------------------------------------------------------
    # Weight surgery (used by the quantization experiments)
    # ------------------------------------------------------------------
    def clone(self) -> "TinyDecoderLM":
        """Deep-copied model (for weight surgery without aliasing)."""
        import copy

        return copy.deepcopy(self)

    def apply_to_layer(self, layer_idx: int, fn) -> None:
        """Replace layer ``layer_idx``'s dense matrices with ``fn(name, W)``."""
        layer = self.layers[layer_idx]
        new = {name: fn(name, w) for name, w in layer.linear_weights().items()}
        self.layers[layer_idx] = layer.replace_linears(new)

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def _block(
        self, layer_idx: int, x: np.ndarray, cache: KVCache, start: int, recorder=None
    ) -> np.ndarray:
        return decoder_block(
            self.cfg, self.layers[layer_idx], x, cache, layer_idx, start, recorder
        )

    def _embed(self, tokens: np.ndarray, start: int) -> np.ndarray:
        x = self.embed_tokens[tokens]
        if self.cfg.max_position_embeddings > 0:
            pos = start + np.arange(tokens.shape[1])
            x = x + self.embed_positions[pos]
        return x

    def _embed_ragged(self, tokens: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Embed ``(B, 1)`` next tokens at per-request positions ``starts``.

        Elementwise per row, so bitwise identical to ``B`` separate
        ``_embed(tokens[i:i+1], starts[i])`` calls.
        """
        x = self.embed_tokens[tokens]
        if self.cfg.max_position_embeddings > 0:
            x = x + self.embed_positions[np.asarray(starts)][:, None, :]
        return x

    def _logits(self, x: np.ndarray) -> np.ndarray:
        x = _layernorm(x, self.final_ln_g, self.final_ln_b)
        batch, q, h = x.shape
        out = x.reshape(batch * q, h) @ self.embed_tokens.T
        return out.reshape(batch, q, -1)

    def prefill(
        self,
        tokens: np.ndarray,
        *,
        reserve: int = 0,
        logits: str = "all",
        kv_bits: int = 16,
    ) -> tuple[np.ndarray | None, KVCache]:
        """Process prompts; returns logits and the filled KV cache.

        ``reserve`` extra KV slots are pre-allocated for decoding — the
        paper's runtime reserves ``s + n`` up front to avoid reallocation.

        ``kv_bits`` below 16 serves the KV cache through the fake-quant
        reference path (per-token, per-head scales) — the single-process
        oracle the packed runtime caches are asserted bit-identical to.

        ``logits`` selects how much of the ``(batch, s, vocab)`` logit
        tensor to materialize:

        * ``"all"`` — every position (teacher forcing / perplexity);
        * ``"last"`` — only the final position, shape ``(batch, 1,
          vocab)``: what generation actually consumes, skipping the
          ``(batch, s, vocab)`` projection it would throw away;
        * ``"none"`` — no logits at all (cache warm-up), returns ``None``.
        """
        if logits not in ("all", "last", "none"):
            raise ValueError(f"logits must be 'all', 'last' or 'none', got {logits!r}")
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError("tokens must be (batch, seq)")
        batch, s = tokens.shape
        if kv_bits >= 16:
            cache = KVCache.allocate(
                self.cfg.num_layers, batch, s + reserve, self.cfg.hidden_size
            )
        else:
            # runtime import: repro.runtime.kvcache imports this module
            from ..runtime.kvcache import FakeQuantKVCache

            cache = FakeQuantKVCache.allocate_quant(
                self.cfg.num_layers, batch, s + reserve, self.cfg.hidden_size,
                kv_bits=kv_bits, num_heads=self.cfg.num_heads,
            )
        x = self._embed(tokens, 0)
        for i in range(self.cfg.num_layers):
            x = self._block(i, x, cache, 0)
        cache.length = s
        if logits == "none":
            return None, cache
        if logits == "last":
            return self._logits(x[:, -1:]), cache
        return self._logits(x), cache

    def capture_activation_stats(self, tokens: np.ndarray) -> dict[tuple[int, str], tuple[float, float]]:
        """Calibration pass: per-(layer, operator) input mean and variance.

        Used by the variance indicator (Prop. 2) to evaluate ``G(X_o)``.
        Returns ``{(layer_idx, op_name): (mean, var)}``.
        """
        tokens = np.asarray(tokens)
        batch, s = tokens.shape
        cache = KVCache.allocate(self.cfg.num_layers, batch, s, self.cfg.hidden_size)
        stats: dict[tuple[int, str], tuple[float, float]] = {}

        def recorder(layer: int, op: str, x: np.ndarray) -> None:
            stats[(layer, op)] = (float(x.mean()), float(x.var()))

        x = self._embed(tokens, 0)
        for i in range(self.cfg.num_layers):
            x = self._block(i, x, cache, 0, recorder)
        return stats

    def decode_step(self, tokens: np.ndarray, cache: KVCache) -> np.ndarray:
        """One decode step: ``tokens`` is ``(batch,)``; returns ``(batch, vocab)``."""
        tokens = np.asarray(tokens).reshape(-1, 1)
        start = cache.length
        x = self._embed(tokens, start)
        for i in range(self.cfg.num_layers):
            x = self._block(i, x, cache, start)
        cache.length = start + 1
        return self._logits(x)[:, 0]

    # ------------------------------------------------------------------
    def forward_full(self, tokens: np.ndarray) -> np.ndarray:
        """Teacher-forced full forward (for perplexity): logits for all pos."""
        logits, _ = self.prefill(np.asarray(tokens), logits="all")
        return logits

    def nll(self, tokens: np.ndarray) -> float:
        """Mean next-token negative log-likelihood over a token matrix."""
        tokens = np.asarray(tokens)
        logits = self.forward_full(tokens)
        logp = logits - _log_sum_exp(logits)
        tgt = tokens[:, 1:]
        batch_idx = np.arange(tokens.shape[0])[:, None]
        pos_idx = np.arange(tokens.shape[1] - 1)[None, :]
        picked = logp[batch_idx, pos_idx, tgt]
        return float(-picked.mean())

    def perplexity(self, tokens: np.ndarray) -> float:
        """``exp`` of the mean next-token NLL over ``tokens``."""
        return float(np.exp(self.nll(tokens)))


def _log_sum_exp(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
