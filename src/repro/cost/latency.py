"""Latency cost model: linear regression over phase-aware features.

Profiling every (precision, GPU, input-shape) combination for every
candidate partition would be prohibitively slow, so — following Sec. 4.1 —
we fit, per ``(gpu, bitwidth, phase)``, a small linear model

``t ≈ c_flops * FLOPs + c_mem * DRAM-bytes + c_0``

on profiler samples of a *single decoder layer*.  The rationale is the
paper's: GEMMs take >80% of serving latency and scale with FLOPs and
MOPs, the rest scales with MOPs, so the workload is shaped and scaled by
exactly these features.  Coefficients are constrained non-negative
(scipy NNLS) so the model extrapolates sanely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

import numpy as np

from ..hardware.gpu import GPUSpec
from ..models.config import ModelConfig
from ..ops import ACT_BYTES, layer_memory_traffic

__all__ = ["Phase", "LatencySample", "LatencyModel", "features_for"]

Phase = Literal["prefill", "decode"]


@dataclass(frozen=True)
class LatencySample:
    """One profiled observation of a single decoder layer."""

    gpu_name: str
    bits: int
    phase: Phase
    batch: int
    q: int
    context: int
    seconds: float


def features_for(
    cfg: ModelConfig,
    bits: int,
    batch: int,
    q: int,
    context: int,
    *,
    kv_bits: int = 16,
) -> np.ndarray:
    """Feature vector ``[FLOPs, bytes, 1]`` for one layer invocation.

    ``kv_bits`` shrinks the KV term of the byte feature, so predictions
    made from fp16-profiled coefficients honor a plan's quantized KV
    stream through the fitted ``c_mem`` coefficient.
    """
    flops = cfg.layer_flops(batch, q, context)
    mem = layer_memory_traffic(cfg, bits, batch, q, context, kv_bits=kv_bits)
    return np.array([flops, mem, 1.0])


@dataclass
class LatencyModel:
    """Per-(gpu, bits, phase) NNLS regression of layer execution time.

    Build with :meth:`fit` on profiler samples, then query with
    :meth:`predict_layer` / :meth:`predict_layers`.  ``residual_stats``
    records in-sample relative error per key for diagnostics.
    """

    cfg: ModelConfig
    coef: dict[tuple[str, int, str], np.ndarray] = field(default_factory=dict)
    residual_stats: dict[tuple[str, int, str], float] = field(default_factory=dict)

    def fit(self, samples: Iterable[LatencySample]) -> "LatencyModel":
        """NNLS-fit one coefficient vector per (gpu, bits, phase) group."""
        from scipy.optimize import nnls  # loaded by the first fit, not by import

        groups: dict[tuple[str, int, str], list[LatencySample]] = {}
        for s in samples:
            groups.setdefault((s.gpu_name, s.bits, s.phase), []).append(s)
        if not groups:
            raise ValueError("no samples to fit")
        for key, rows in groups.items():
            if len(rows) < 3:
                raise ValueError(f"need >=3 samples per key, got {len(rows)} for {key}")
            X = np.vstack(
                [features_for(self.cfg, s.bits, s.batch, s.q, s.context) for s in rows]
            )
            y = np.array([s.seconds for s in rows])
            # scale columns for conditioning; NNLS keeps coefficients >= 0
            col_scale = X.max(axis=0)
            col_scale[col_scale == 0] = 1.0
            beta_scaled, _ = nnls(X / col_scale, y)
            beta = beta_scaled / col_scale
            self.coef[key] = beta
            pred = X @ beta
            self.residual_stats[key] = float(
                np.mean(np.abs(pred - y) / np.maximum(y, 1e-12))
            )
        return self

    # ------------------------------------------------------------------
    def _key(self, gpu: GPUSpec | str, bits: int, phase: Phase) -> tuple[str, int, str]:
        name = gpu if isinstance(gpu, str) else gpu.name
        key = (name, bits, phase)
        if key not in self.coef:
            known = sorted({k[0] for k in self.coef})
            raise KeyError(f"no coefficients for {key}; profiled GPUs: {known}")
        return key

    def predict_layer(
        self,
        gpu: GPUSpec | str,
        bits: int,
        phase: Phase,
        batch: int,
        q: int,
        context: int,
        *,
        kv_bits: int = 16,
    ) -> float:
        """Predicted seconds for one layer invocation."""
        beta = self.coef[self._key(gpu, bits, phase)]
        return float(
            features_for(self.cfg, bits, batch, q, context, kv_bits=kv_bits) @ beta
        )

    def predict_layers(
        self,
        gpu: GPUSpec | str,
        layer_bits: Iterable[int],
        phase: Phase,
        batch: int,
        q: int,
        context: int,
        *,
        kv_bits: int = 16,
    ) -> float:
        """Predicted seconds for a shard = sum over its layers' bits."""
        return float(
            sum(
                self.predict_layer(gpu, b, phase, batch, q, context, kv_bits=kv_bits)
                for b in layer_bits
            )
        )

    def _decode_feature_matrix(
        self,
        bits: int,
        batch: int | np.ndarray,
        contexts: np.ndarray,
        *,
        kv_bits: int = 16,
    ) -> np.ndarray:
        """``(K, 3)`` decode feature rows, stacked analytically.

        Builds the same rows :func:`features_for` would produce at
        ``q=1`` for each (truncated) context — term for term, in the same
        association order, so every entry is bitwise equal to the
        per-context Python loop it replaces.

        ``batch`` may be a ``(K,)`` vector aligned with ``contexts`` —
        the batched-decode pricing shape: every per-request term (FLOPs,
        activations, scores, KV write/read) scales with that row's
        batch, while the weight stream ``w_bytes`` is charged once per
        iteration regardless of how many requests share it.  Scalar
        ``batch`` stays bitwise identical to the original path.
        """
        cfg = self.cfg
        ctx = np.trunc(np.asarray(contexts, dtype=np.float64))  # int(c) semantics
        batch = np.asarray(batch, dtype=np.float64) if np.ndim(batch) else batch
        h, f = cfg.hidden_size, cfg.ffn_dim
        q = 1
        # layer_flops: proj + attn + mlp, attn is the only context term
        proj = 8.0 * q * h * h
        attn = 4.0 * q * ctx * h
        mlp = 4.0 * q * h * f
        flops = batch * (proj + attn + mlp)
        # scores and kv_read scale with c; the KV stream is priced at the
        # plan's bitwidth via the shared per-token formula
        kv_token = cfg.kv_bytes_per_token_per_layer(kv_bits)
        w_bytes = cfg.layer_weight_bytes(bits)
        act = batch * q * (6 * h + 2 * f) * ACT_BYTES
        scores = batch * cfg.num_heads * q * ctx * ACT_BYTES * 2
        kv_write = batch * q * kv_token
        kv_read = batch * ctx * kv_token
        mem = w_bytes + act + scores + kv_write + kv_read
        return np.stack([flops, mem, np.ones_like(ctx)], axis=1)

    def decode_step_times(
        self,
        gpu: GPUSpec | str,
        bits: int,
        batch: int | np.ndarray,
        contexts: np.ndarray,
        *,
        kv_bits: int = 16,
    ) -> np.ndarray:
        """Vectorized decode predictions across context lengths.

        ``batch`` may be a per-row vector aligned with ``contexts`` (see
        :meth:`_decode_feature_matrix`): one fused iteration per row,
        weight bytes charged once per row, per-request terms scaled by
        that row's in-flight count.
        """
        beta = self.coef[self._key(gpu, bits, "decode")]
        return self._decode_feature_matrix(bits, batch, contexts, kv_bits=kv_bits) @ beta

    def max_relative_residual(self) -> float:
        """Worst in-sample mean relative error across fitted groups."""
        return max(self.residual_stats.values()) if self.residual_stats else float("nan")
