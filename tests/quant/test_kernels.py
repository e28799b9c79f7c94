"""Unit + property tests for bit-packing and quantized linear kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    QuantConfig,
    QuantizedLinear,
    pack_codes,
    qmax_for_bits,
    quantize,
    unpack_codes,
)

from .codec_spec import pack_codes_reference, unpack_codes_reference

ALL_BITS = list(range(2, 9))
#: empty, below / at / above one byte group, and odd sizes
EDGE_SIZES = [0, 1, 7, 8, 9, 63, 64, 65, 255]


def _assert_codec_matches_spec(codes, bits):
    """Byte-identity with the spec both ways, plus the round trip."""
    packed = pack_codes(codes, bits)
    assert packed.dtype == np.uint8
    np.testing.assert_array_equal(packed, pack_codes_reference(codes, bits))
    recovered = unpack_codes(packed, bits, codes.size)
    assert recovered.dtype == np.int16
    np.testing.assert_array_equal(recovered, codes.ravel())
    np.testing.assert_array_equal(
        recovered, unpack_codes_reference(packed, bits, codes.size)
    )


@settings(max_examples=150, deadline=None)
@given(
    bits=st.sampled_from(ALL_BITS),
    n=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 300)),
    seed=st.integers(0, 1000),
)
def test_codec_matches_spec(bits, n, seed):
    """Every width 2..8 and any size: the word-level codec is the
    per-bit spec, byte for byte, in both directions."""
    rng = np.random.default_rng(seed)
    qmax = qmax_for_bits(bits)
    codes = rng.integers(-qmax, qmax + 1, size=n).astype(np.int16)
    _assert_codec_matches_spec(codes, bits)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from(ALL_BITS),
    shape=st.lists(st.integers(0, 7), min_size=2, max_size=4).map(tuple),
    seed=st.integers(0, 1000),
)
def test_codec_flattens_nd_inputs(bits, shape, seed):
    """n-d codes pack as their C-order flattening (non-contiguous too),
    and an n-d packed buffer unpacks as its flattening."""
    rng = np.random.default_rng(seed)
    qmax = qmax_for_bits(bits)
    codes = rng.integers(-qmax, qmax + 1, size=shape).astype(np.int16)
    _assert_codec_matches_spec(codes, bits)
    np.testing.assert_array_equal(
        pack_codes(codes.T, bits), pack_codes(codes.T.copy().ravel(), bits)
    )
    packed = pack_codes(codes, bits)
    if packed.size % 2 == 0:
        np.testing.assert_array_equal(
            unpack_codes(packed.reshape(2, -1), bits, codes.size), codes.ravel()
        )


@pytest.mark.parametrize("bits", ALL_BITS)
@pytest.mark.parametrize("n", EDGE_SIZES)
def test_codec_extremes_at_edge_sizes(bits, n):
    """Sizes straddling group boundaries, with every code at an extreme."""
    qmax = qmax_for_bits(bits)
    for fill in (-qmax, qmax, 0):
        _assert_codec_matches_spec(np.full(n, fill, dtype=np.int16), bits)
    # alternating extremes exercises carry across bit boundaries
    codes = np.tile(np.array([-qmax, qmax], dtype=np.int16), (n + 1) // 2)[:n]
    _assert_codec_matches_spec(codes, bits)


def test_forward_bias_added_in_place_result():
    """Bias path must match explicit broadcast add exactly."""
    rng = np.random.default_rng(7)
    w = rng.normal(0, 0.05, size=(12, 9))
    bias = rng.normal(0, 0.01, size=9)
    x = rng.normal(size=(4, 12))
    ql = QuantizedLinear.from_float(w, bias, 4)
    np.testing.assert_array_equal(ql.forward(x), x @ ql.dequantized() + bias)
    # and the input is never mutated
    x0 = x.copy()
    ql.forward(x)
    np.testing.assert_array_equal(x, x0)


def test_packed_density():
    codes = np.zeros(64, dtype=np.int16)
    assert pack_codes(codes, 4).nbytes == 32   # two nibbles per byte
    assert pack_codes(codes, 3).nbytes == 24   # 192 bits
    assert pack_codes(codes, 8).nbytes == 64


def test_pack_rejects_wide_codes():
    with pytest.raises(ValueError, match="bits <= 8"):
        pack_codes(np.zeros(4, dtype=np.int16), 16)
    with pytest.raises(ValueError, match="bits <= 8"):
        unpack_codes(np.zeros(8, dtype=np.uint8), 16, 4)
    for bad in (100, -100, 5, -5):  # 3-bit biased codes span 0..7
        with pytest.raises(ValueError, match="out of range"):
            pack_codes(np.array([0, bad, 0], dtype=np.int16), 3)


@pytest.mark.parametrize("bits,size,need", [(3, 9, 4), (4, 5, 3), (8, 2, 2)])
def test_unpack_rejects_short_buffer(bits, size, need):
    """A buffer shorter than ``size * bits`` bits names both byte counts;
    a longer one is read from the front."""
    packed = pack_codes(np.zeros(size, dtype=np.int16), bits)
    assert packed.size == need
    with pytest.raises(ValueError, match=f"needs {need} bytes.*got {need - 1}"):
        unpack_codes(packed[:-1], bits, size)
    longer = np.concatenate([packed, np.full(3, 0xFF, dtype=np.uint8)])
    np.testing.assert_array_equal(unpack_codes(longer, bits, size), np.zeros(size))


def test_quantized_linear_matches_fake_quant():
    rng = np.random.default_rng(0)
    w = rng.normal(0, 0.05, size=(24, 16))
    bias = rng.normal(0, 0.01, size=16)
    x = rng.normal(size=(5, 24))
    for bits in (3, 4, 8):
        ql = QuantizedLinear.from_float(w, bias, bits)
        qt = quantize(w, QuantConfig(bits=bits))
        np.testing.assert_allclose(ql.dequantized(), qt.dequantize(), atol=1e-12)
        np.testing.assert_allclose(ql.forward(x), x @ qt.dequantize() + bias, atol=1e-12)


def test_quantized_linear_fp16_identity():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(8, 8))
    ql = QuantizedLinear.from_float(w, None, 16)
    np.testing.assert_array_equal(ql.dequantized(), w)
    assert ql.weight_nbytes == 8 * 8 * 2


def test_weight_nbytes_scale_with_bits():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(64, 64))
    sizes = {b: QuantizedLinear.from_float(w, None, b).weight_nbytes for b in (3, 4, 8, 16)}
    assert sizes[3] < sizes[4] < sizes[8] < sizes[16]
    # 4-bit: half a byte per weight + 2-byte scale per column
    assert sizes[4] == 64 * 64 // 2 + 64 * 2


def test_from_quantized_constructor():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(10, 6))
    qt = quantize(w, QuantConfig(bits=4))
    ql = QuantizedLinear.from_quantized(qt, None)
    np.testing.assert_allclose(ql.dequantized(), qt.dequantize(), atol=1e-12)
