"""The prompt pass before causal query chunks, kept as the reference.

``spec_attention_forward`` scores every query against every key of the
``q x total`` tile, masks the triangle above the diagonal to ``-1e30``
and takes an out-of-place softmax of the whole tile;
``spec_decoder_block`` is the block that ran it, with out-of-place
residual adds and GELU.  They are the previous commit's functions
verbatim, except that they call the test specs of the softmax and GELU
they used (``spec_softmax`` was pinned byte for byte to that in-place
softmax), so the chunked ``attention_forward`` and ``decoder_block`` in
``src/`` can be held to them: KV caches byte for byte, single-chunk
prompts byte for byte, longer prompts to ~1e-16.  They exist only for
the tests.
"""

import numpy as np

from repro.models.config import ModelConfig
from repro.models.transformer import (
    KVCache,
    LayerWeights,
    _layernorm,
    alibi_slopes,
    fused_qkv,
)

from ..runtime.kv_view_spec import spec_gelu, spec_softmax


def spec_attention_forward(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    cache: KVCache,
    cache_layer: int,
    start: int,
    recorder=None,
) -> np.ndarray:
    """Multi-head attention for ``q`` new tokens at absolute positions
    ``start .. start+q`` against everything already in ``cache``, over
    the whole ``q x total`` score tile."""
    batch, q, h = x.shape
    nh, hd = cfg.num_heads, cfg.hidden_size // cfg.num_heads

    if recorder is not None:
        recorder(cache_layer, "q_proj", x)
        recorder(cache_layer, "k_proj", x)
        recorder(cache_layer, "v_proj", x)
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
    scores = (qh @ kh) / np.sqrt(hd)

    pos_q = start + np.arange(q)[:, None]
    pos_k = np.arange(total)[None, :]
    if cfg.max_position_embeddings == 0:
        # ALiBi: penalize attention linearly in key distance, per head
        dist = (pos_q - pos_k).astype(np.float64)  # (q, total), >=0 causal
        bias = -alibi_slopes(nh)[:, None, None] * dist[None]
        scores = scores + bias[None]
    scores = np.where(pos_k <= pos_q, scores, -1e30)
    attn = spec_softmax(scores, axis=-1)
    mixed = (attn @ vh).transpose(0, 2, 1, 3).reshape(batch, q, h)
    if recorder is not None:
        recorder(cache_layer, "out_proj", mixed)
    out = mixed.reshape(batch * q, h) @ lw.wo
    out += lw.bo
    return out.reshape(batch, q, h)


def spec_decoder_block(
    cfg: ModelConfig,
    lw: LayerWeights,
    x: np.ndarray,
    cache: KVCache,
    cache_layer: int,
    start: int,
    recorder=None,
) -> np.ndarray:
    """One full pre-LN decoder block (attention + MLP with residuals)."""
    a = spec_attention_forward(
        cfg, lw, _layernorm(x, lw.ln1_g, lw.ln1_b), cache, cache_layer, start, recorder
    )
    x = x + a
    h1 = _layernorm(x, lw.ln2_g, lw.ln2_b)
    if recorder is not None:
        recorder(cache_layer, "fc1", h1)
    batch, q, h = x.shape
    z1 = h1.reshape(batch * q, h) @ lw.fc1
    z1 += lw.bfc1
    h2 = spec_gelu(z1)
    if recorder is not None:
        recorder(cache_layer, "fc2", h2.reshape(batch, q, -1))
    m = h2 @ lw.fc2
    m += lw.bfc2
    return x + m.reshape(batch, q, h)
