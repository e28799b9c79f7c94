"""Fixed-shape micro-benchmarks of the ``models``, ``quant`` and ``cost``
kernels plus the host calibration, run once per traced run.

Each number is the steady per-call time of the public kernel on one
fixed shape (tiny-8l: hidden 64, 4 heads, FFN 256), so a kernel change
shows here before it shows in ``decode_tok_s``.  ``calib.*`` lets files
from different hosts be normalised.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.cost.stagecosts import StageCostModel
from repro.hardware import paper_cluster
from repro.models import TinyDecoderLM, get_model
from repro.models.transformer import (
    KVCache, batched_decode_attention, batched_decode_block, decoder_block,
)
from repro.quant import (
    QuantConfig, QuantizedLinear, pack_codes, quantize, unpack_codes,
)
from repro.runtime.dequant_cache import DequantCache
from repro.runtime.kvcache import BatchedKVView, QuantizedKVCache, quantize_kv
from repro.runtime.loader import load_stage_weights
from repro.sim.pipeline import simulate_pipeline
from repro.workload import DEFAULT_WORKLOAD

from .harness import best_seconds
from .wl_serve import MODEL, MODEL_SEED

B, CONTEXT, PREFILL_S, KV_T = 16, 40, 128, 64


def calibration() -> dict[str, float]:
    a = np.random.default_rng(0).random((512, 512), dtype=np.float32)
    gemm = best_seconds(lambda: a @ a, reps=12, inner=2)

    def loop():
        s = 0
        for i in range(100_000):
            s += i
        return s

    return {
        "calib.gemm_gflops": 2 * 512**3 / gemm / 1e9,
        "calib.py_loop_ns": 1e9 * best_seconds(loop, reps=12) / 100_000,
    }


def _cache_units(cfg, rng, kv_bits: int = 16) -> list:
    """B batch-1 cache units (dense or packed) filled with KV_T tokens."""
    units = []
    for _ in range(B):
        if kv_bits >= 16:
            c = KVCache.allocate(1, 1, KV_T + 1, cfg.hidden_size)
        else:
            c = QuantizedKVCache.allocate(
                1, 1, KV_T + 1, cfg.hidden_size, kv_bits=kv_bits,
                num_heads=cfg.num_heads,
            )
        fill = rng.standard_normal((1, KV_T, cfg.hidden_size))
        c.append(0, fill, fill, 0)
        units.append(c)
    return units


def models_kernels() -> dict[str, float]:
    cfg = get_model(MODEL)
    lw = TinyDecoderLM(cfg, seed=MODEL_SEED).layers[0]
    rng = np.random.default_rng(0)
    h, f = cfg.hidden_size, cfg.ffn_dim
    starts = np.full(B, CONTEXT, dtype=np.int64)
    view = BatchedKVView(_cache_units(cfg, rng), starts)
    x = rng.standard_normal((B, 1, h))
    block = best_seconds(
        lambda: batched_decode_block(cfg, lw, x, view, 0, starts), reps=12, inner=20
    )
    attn = best_seconds(
        lambda: batched_decode_attention(cfg, lw, x, view, 0, starts),
        reps=12, inner=20,
    )
    xp = rng.standard_normal((1, PREFILL_S, h))

    def prefill():
        cache = KVCache.allocate(1, 1, PREFILL_S, h)
        decoder_block(cfg, lw, xp, cache, 0, 0)

    x2 = x.reshape(B, h)
    z = rng.standard_normal((B, f))
    wqkv = rng.standard_normal((h, 3 * h))

    def gemms():
        x2 @ wqkv
        x2 @ lw.wo
        x2 @ lw.fc1
        z @ lw.fc2

    return {
        "models.decode_block_us": 1e6 * block,
        "models.decode_attn_us": 1e6 * attn,
        "models.prefill_block_us": 1e6 * best_seconds(prefill, reps=12, inner=3),
        "models.gemm_share_b16": best_seconds(gemms, reps=12, inner=50) / block,
    }


def quant_kernels() -> dict[str, float]:
    cfg = get_model(MODEL)
    model = TinyDecoderLM(cfg, seed=MODEL_SEED)
    w = model.layers[0].fc1  # 64 x 256
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for bits in (3, 4, 8):
        codes = quantize(w, QuantConfig(bits=bits)).codes
        packed = pack_codes(codes, bits)
        out[f"quant.pack_us.b{bits}"] = 1e6 * best_seconds(
            lambda: pack_codes(codes, bits), reps=10, inner=5
        )
        out[f"quant.unpack_us.b{bits}"] = 1e6 * best_seconds(
            lambda: unpack_codes(packed, bits, codes.size), reps=10, inner=5
        )
    ql = QuantizedLinear.from_float(w, None, 4)
    out["quant.dequant_linear_us.b4"] = 1e6 * best_seconds(
        ql.dequantized, reps=10, inner=5
    )
    qlayer = load_stage_weights(model, [0], [4]).qlayers[0]
    warm = DequantCache(float(qlayer.cache_entry_bytes))
    qlayer.materialize(warm)
    out["quant.materialize_miss_us"] = 1e6 * best_seconds(
        lambda: qlayer.materialize(DequantCache(float(qlayer.cache_entry_bytes))),
        reps=10, inner=2,
    )
    out["quant.materialize_hit_us"] = 1e6 * best_seconds(
        lambda: qlayer.materialize(warm), reps=10, inner=200
    )
    rows = rng.standard_normal((B, 1, cfg.hidden_size))
    out["quant.kv_quantize_us.kv4"] = 1e6 * best_seconds(
        lambda: quantize_kv(rows, 4, cfg.num_heads), reps=10, inner=20
    )
    starts = np.full(B, KV_T - 1, dtype=np.int64)
    view = BatchedKVView(_cache_units(cfg, rng, kv_bits=4), starts)
    out["quant.kv_read_us.kv4"] = 1e6 * best_seconds(
        lambda: view.read_padded(0), reps=10, inner=3
    )
    return out


def cost_kernels() -> dict[str, float]:
    cluster = paper_cluster(3)
    plan = ExecutionPlan.uniform("opt-30b", cluster.devices, DEFAULT_WORKLOAD, bits=4)
    scm = StageCostModel(plan, cluster)
    scm.unit_decode_times(16, 600.0)  # warm the per-(stage, bits) constants
    rng = np.random.default_rng(0)
    batches = rng.integers(1, 64, size=100_000)
    contexts = rng.uniform(64.0, 1024.0, size=100_000)
    tokens = rng.integers(16, 640, size=1_000_000)
    return {
        "cost.decode_lookup_us": 1e6 * best_seconds(
            lambda: scm.unit_decode_times(16, 600.0), reps=10, inner=200
        ),
        "cost.decode_table_s": best_seconds(
            lambda: scm.unit_decode_times_batch(batches, contexts), reps=5
        ),
        "cost.kv_bytes_batch_s": best_seconds(
            lambda: scm.request_kv_bytes_batch(tokens), reps=5
        ),
        "sim.pipeline_eval_us": 1e6 * best_seconds(
            lambda: simulate_pipeline(plan, cluster), reps=8
        ),
    }


def run_kernels() -> dict[str, float]:
    out = calibration()
    out.update(models_kernels())
    out.update(quant_kernels())
    out.update(cost_kernels())
    return out
