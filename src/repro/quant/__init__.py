"""Quantization substrate: quantizers, GPTQ, Theorem-1 theory, indicators."""

from .quantizer import (
    QuantConfig,
    QuantizedTensor,
    dequantize,
    qmax_for_bits,
    quantize,
    quantize_dequantize,
)
from .theory import (
    ActivationStats,
    g_deterministic,
    g_stochastic,
    measured_variance_inflation,
    variance_inflation_bound,
)
from .gptq import calibration_objective, gptq_quantize, rtn_quantize
from .indicator import (
    DEFAULT_BITS,
    DEFAULT_KV_BITS,
    IndicatorTable,
    hessian_indicator,
    kv_error_indicator,
    random_indicator,
    synthetic_indicator,
    synthetic_kv_indicator,
    variance_indicator,
)
from .kernels import (
    QuantizedLinear,
    pack_codes,
    unpack_codes,
)
from .smoothquant import (
    W8A8Result,
    llm_int8_matmul,
    smooth_factors,
    smoothquant_matmul,
    w8a8_matmul,
)
from .schemes import (
    DoubleQuantResult,
    SpqrResult,
    awq_quantize_dequantize,
    double_quantize_scales,
    spqr_quantize,
)

__all__ = [
    "QuantConfig",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "quantize_dequantize",
    "qmax_for_bits",
    "ActivationStats",
    "g_deterministic",
    "g_stochastic",
    "variance_inflation_bound",
    "measured_variance_inflation",
    "gptq_quantize",
    "rtn_quantize",
    "calibration_objective",
    "IndicatorTable",
    "variance_indicator",
    "hessian_indicator",
    "random_indicator",
    "synthetic_indicator",
    "kv_error_indicator",
    "synthetic_kv_indicator",
    "DEFAULT_BITS",
    "DEFAULT_KV_BITS",
    "QuantizedLinear",
    "pack_codes",
    "unpack_codes",
    "awq_quantize_dequantize",
    "SpqrResult",
    "spqr_quantize",
    "DoubleQuantResult",
    "double_quantize_scales",
    "W8A8Result",
    "smooth_factors",
    "w8a8_matmul",
    "llm_int8_matmul",
    "smoothquant_matmul",
]
