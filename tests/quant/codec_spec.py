"""The packed-code format, written one bit at a time.

This is the specification ``repro.quant.pack_codes`` / ``unpack_codes``
are pinned to, byte for byte: biased codes (``code + qmax``) laid into a
flat little-endian bitstream, ``bits`` bits each.  Deliberately slow and
obvious; it exists only for the tests.
"""

import numpy as np

from repro.quant import qmax_for_bits


def pack_codes_reference(codes: np.ndarray, bits: int) -> np.ndarray:
    """Per-bit-offset packing loop."""
    qmax = qmax_for_bits(bits)
    flat = (codes.astype(np.int32).ravel() + qmax).astype(np.uint32)
    n = flat.size
    out = np.zeros((n * bits + 7) // 8, dtype=np.uint8)
    positions = np.arange(n, dtype=np.int64) * bits
    for offset in range(bits):
        bitpos = positions + offset
        bit_vals = (((flat >> offset) & 1) << (bitpos & 7)).astype(np.uint8)
        np.bitwise_or.at(out, bitpos >> 3, bit_vals)
    return out


def unpack_codes_reference(packed: np.ndarray, bits: int, size: int) -> np.ndarray:
    """Per-bit-offset unpacking loop."""
    qmax = qmax_for_bits(bits)
    positions = np.arange(size, dtype=np.int64) * bits
    vals = np.zeros(size, dtype=np.uint32)
    for offset in range(bits):
        bitpos = positions + offset
        bit = (packed[bitpos >> 3] >> (bitpos & 7)) & 1
        vals |= bit.astype(np.uint32) << offset
    return (vals.astype(np.int32) - qmax).astype(np.int16)
