"""Ground-truth kernel timing on the simulated devices.

This module plays the role of *the hardware*: every latency "measurement"
in the reproduction — profiler samples, pipeline stage times, runtime
sleeps — comes from :func:`layer_exec_time` and friends.  The model is a
roofline with per-precision effectiveness factors:

``t = max(FLOPs / effective_flops(bits),  bytes / effective_bandwidth)
    + kernel launch overheads``

which reproduces the paper's two-phase asymmetry by construction:

* prefill processes ``s`` tokens per pass — arithmetic intensity in the
  thousands, far above every GPU's ridge point, hence compute-bound;
* decode processes 1 token per pass but must stream all layer weights and
  the KV cache — intensity ~tens, memory-bound, so weight-only
  quantization speeds it up by shrinking the bytes.

Optional multiplicative log-normal noise stands in for real measurement
jitter when the profiler collects samples.
"""

from __future__ import annotations

import numpy as np

from ..hardware.gpu import GPUSpec
from ..models.config import ModelConfig

from ..ops import ACT_BYTES, layer_memory_traffic

__all__ = [
    "layer_exec_time",
    "layer_exec_times_decode_sweep",
    "embedding_exec_time",
    "layer_memory_traffic",
    "KERNELS_PER_LAYER",
]

#: Distinct kernel launches in one decoder layer (4 linears + 2 LN +
#: 2 attention matmuls + softmax + GELU + 2 residual adds).
KERNELS_PER_LAYER = 12


def layer_exec_time(
    gpu: GPUSpec,
    cfg: ModelConfig,
    bits: int,
    batch: int,
    q: int,
    context: int,
    *,
    kv_bits: int = 16,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
) -> float:
    """Seconds for one decoder layer to process ``batch`` x ``q`` tokens
    against ``context`` total positions, at weight precision ``bits``."""
    if batch <= 0 or q <= 0:
        raise ValueError("batch and q must be positive")
    flops = cfg.layer_flops(batch, q, context)
    compute_t = flops / gpu.effective_flops(bits)

    w_bytes = cfg.layer_weight_bytes(bits)
    other_bytes = layer_memory_traffic(cfg, bits, batch, q, context, kv_bits=kv_bits) - w_bytes
    mem_t = w_bytes / gpu.effective_weight_bandwidth(bits) + other_bytes / gpu.effective_bandwidth

    t = max(compute_t, mem_t) + KERNELS_PER_LAYER * gpu.kernel_launch_overhead
    if noise > 0.0:
        if rng is None:
            raise ValueError("noise requires an rng")
        t *= float(np.exp(rng.normal(0.0, noise)))
    return t


def layer_exec_times_decode_sweep(
    gpu: GPUSpec,
    cfg: ModelConfig,
    bits: int,
    batch: int,
    contexts: np.ndarray,
    *,
    kv_bits: int = 16,
) -> np.ndarray:
    """Vectorized decode-step times for every context length in
    ``contexts`` — used by the pipeline simulator to cost all ``n`` decode
    steps without a Python loop."""
    contexts = np.asarray(contexts, dtype=np.float64)
    h = cfg.hidden_size
    flops = cfg.layer_flops(batch, 1, 0) + 4.0 * batch * h * contexts
    compute_t = flops / gpu.effective_flops(bits)

    w_bytes = cfg.layer_weight_bytes(bits)
    kv_token = cfg.kv_bytes_per_token_per_layer(kv_bits)
    fixed = batch * 1 * (6 * h + 2 * cfg.ffn_dim) * ACT_BYTES + batch * kv_token
    per_ctx = (
        batch * cfg.num_heads * contexts * ACT_BYTES * 2
        + batch * contexts * kv_token
    )
    mem_t = w_bytes / gpu.effective_weight_bandwidth(bits) + (fixed + per_ctx) / gpu.effective_bandwidth
    return (
        np.maximum(compute_t, mem_t)
        + KERNELS_PER_LAYER * gpu.kernel_launch_overhead
    )


def embedding_exec_time(
    gpu: GPUSpec,
    cfg: ModelConfig,
    batch: int,
    q: int,
    *,
    with_logits: bool,
) -> float:
    """Pre/post-processing time: embedding lookup (pure traffic) and, when
    ``with_logits``, the hidden->vocab projection (a real matmul)."""
    h = cfg.hidden_size
    lookup_bytes = batch * q * h * ACT_BYTES * 2
    t = lookup_bytes / gpu.effective_bandwidth + gpu.kernel_launch_overhead
    if with_logits:
        flops = cfg.embedding_flops(batch, q)
        head_bytes = cfg.vocab_size * h * ACT_BYTES + batch * q * cfg.vocab_size * ACT_BYTES
        t += np.maximum(
            flops / gpu.effective_flops(16), head_bytes / gpu.effective_bandwidth
        )
        t += gpu.kernel_launch_overhead
    return t
