"""Quantized linear "kernels": packed storage + numerically real execution.

The runtime executes plans on simulated devices, but the *numerics* are
real: a :class:`QuantizedLinear` stores bit-packed integer codes exactly
as a serving kernel would (4-bit nibbles, 3-bit fields, 8-bit bytes) and
dequantizes on the fly at matmul time.  The packed byte counts feed the
memory bookkeeping; the dequantize-matmul path feeds the quality
measurements.

``pack_codes`` / ``unpack_codes`` are the one codec every packed tensor
goes through (weight shards and the packed KV cache alike).  The format
is a flat little-endian bitstream of biased codes (``code + qmax``),
``bits`` bits each.  Both directions work on whole machine words, never
single bits: ``8 // gcd(bits, 8)`` consecutive codes fill a whole
number of bytes (2 nibbles -> 1 byte, 8 three-bit fields -> 3 bytes),
so packing ORs neighbouring codes pairwise into ever wider words until
the word is byte-aligned, and unpacking shifts-and-masks every code
back out of its word.  The layout follows from ``bits`` alone; the
per-bit loops that define it live in ``tests/quant/codec_spec.py``.

Dequantization is the decode hot path's dominant cost when repeated, so
``dequantized()`` can be served from a
:class:`~repro.runtime.dequant_cache.DequantCache` attached via
:meth:`QuantizedLinear.attach_cache` — with no cache (or a zero-byte
budget) every call re-unpacks, which is the naive baseline behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .quantizer import QuantizedTensor, qmax_for_bits

__all__ = [
    "pack_codes",
    "unpack_codes",
    "QuantizedLinear",
]

#: little-endian word types, narrowest first
_WORDS = ("<u1", "<u2", "<u4", "<u8")


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Bit-pack signed integer codes into a uint8 buffer.

    Codes are biased to unsigned (``code + qmax``) then written little-
    endian into a flat bitstream of ``ceil(size * bits / 8)`` bytes.
    Works for any ``bits <= 8`` and any input shape (flattened in C
    order); 16-bit tensors are stored as int16 directly and never hit
    this path.
    """
    if bits > 8:
        raise ValueError("pack_codes handles bits <= 8")
    flat = np.asarray(codes).astype(np.int32).ravel() + qmax_for_bits(bits)
    n = flat.size
    # viewed unsigned, a negative biased code is huge: one reduction
    # rejects both ends of the range
    if n and int(flat.view(np.uint32).max()) >> bits:
        raise ValueError("codes out of range for bitwidth")
    vals = np.zeros(n + -n % 8, dtype=np.uint8)
    vals[:n] = flat
    # OR neighbours pairwise into words twice as wide until the word is
    # a whole number of bytes: its low ``width // 8`` bytes are the stream
    width = bits
    for word in _WORDS[1:]:
        if width % 8 == 0:
            break
        vals = vals.astype(word)
        vals = vals[0::2] | (vals[1::2] << width)
        width *= 2
    stream = vals.view(np.uint8).reshape(-1, vals.itemsize)[:, : width // 8]
    return stream.ravel()[: (n * bits + 7) // 8]


def unpack_codes(packed: np.ndarray, bits: int, size: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns ``size`` signed int16 codes.

    ``packed`` may be any shape (read flat, C order) and may be longer
    than the ``ceil(size * bits / 8)`` bytes needed, never shorter.
    """
    if bits > 8:
        raise ValueError("unpack_codes handles bits <= 8")
    packed = np.asarray(packed, dtype=np.uint8).ravel()
    need = (size * bits + 7) // 8
    if packed.size < need:
        raise ValueError(
            f"unpack_codes needs {need} bytes for {size} {bits}-bit codes, "
            f"got {packed.size}"
        )
    # ``per`` codes fill ``nbytes`` whole bytes; read each such group as
    # one little-endian word and shift-and-mask every code out of it
    per = 8 // gcd(bits, 8)
    nbytes = per * bits // 8
    word = next(w for w in _WORDS if np.dtype(w).itemsize >= nbytes)
    groups = -(-size // per)
    stream = np.zeros(groups * nbytes, dtype=np.uint8)  # may end mid-group
    stream[:need] = packed[:need]
    buf = np.zeros((groups, np.dtype(word).itemsize), dtype=np.uint8)
    buf[:, :nbytes] = stream.reshape(groups, nbytes)
    # one row per position in the group, so every ufunc loop runs over
    # all groups rather than over the (as short as 2) codes of one group
    shifts = np.arange(per, dtype=word)[:, None] * bits
    vals = (buf.view(word).ravel() >> shifts) & ((1 << bits) - 1)
    codes = vals.T.astype(np.int16, order="C").ravel()[:size]
    return codes - qmax_for_bits(bits)


@dataclass
class QuantizedLinear:
    """A dense layer held in packed quantized form.

    16-bit layers skip packing and keep the float weights.  ``forward``
    computes ``x @ W_hat + b`` where ``W_hat`` is the dequantized weight —
    numerically identical to what a real weight-only kernel produces.

    ``cache`` / ``cache_key`` are the cached-``W_hat`` slot: when a
    :class:`~repro.runtime.dequant_cache.DequantCache` is attached,
    ``dequantized()`` is served from it (subject to the cache's byte
    budget) instead of re-unpacking the codes on every call.
    """

    shape: tuple[int, int]
    bits: int
    packed: np.ndarray | None
    scale: np.ndarray | None
    bias: np.ndarray | None
    fp_weight: np.ndarray | None = None
    cache: object | None = field(default=None, repr=False, compare=False)
    cache_key: object | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_float(cls, w: np.ndarray, bias: np.ndarray | None, bits: int) -> "QuantizedLinear":
        """Quantize + bit-pack a float weight into kernel storage."""
        w = np.asarray(w, dtype=np.float64)
        if bits >= 16:
            return cls(shape=w.shape, bits=16, packed=None, scale=None,
                       bias=bias, fp_weight=w)
        from .quantizer import QuantConfig, quantize

        qt = quantize(w, QuantConfig(bits=bits))
        if bits <= 8:
            packed = pack_codes(qt.codes, bits)
        else:
            packed = qt.codes.astype(np.int16).view(np.uint8)
        return cls(shape=w.shape, bits=bits, packed=packed, scale=qt.scale, bias=bias)

    @classmethod
    def from_quantized(cls, qt: QuantizedTensor, bias: np.ndarray | None) -> "QuantizedLinear":
        """Wrap an existing quantized tensor (e.g. GPTQ output)."""
        packed = pack_codes(qt.codes, qt.bits) if qt.bits <= 8 else None
        return cls(shape=qt.shape, bits=qt.bits, packed=packed, scale=qt.scale, bias=bias)

    @property
    def weight_nbytes(self) -> int:
        """Actual bytes held for the weight (packed codes or FP16)."""
        if self.bits >= 16:
            return int(np.prod(self.shape)) * 2
        assert self.packed is not None
        meta = 0 if self.scale is None else self.scale.size * 2
        return int(self.packed.nbytes) + meta

    @property
    def dense_nbytes(self) -> int:
        """Bytes of the dequantized ``W_hat`` (float64 in this substrate)."""
        return int(np.prod(self.shape)) * 8

    def attach_cache(self, cache: object, key: object) -> None:
        """Serve ``dequantized()`` from ``cache`` under ``key`` from now on."""
        self.cache = cache
        self.cache_key = key

    def _build_dense(self) -> np.ndarray:
        """Unpack + rescale the packed codes into the dense ``W_hat``."""
        assert self.packed is not None and self.scale is not None
        size = int(np.prod(self.shape))
        if self.bits <= 8:
            codes = unpack_codes(self.packed, self.bits, size)
        else:
            codes = self.packed.view(np.int16)[:size]
        return codes.reshape(self.shape).astype(np.float64) * self.scale

    def dequantized(self) -> np.ndarray:
        """Reconstruct the float weight from packed codes (the kernel math)."""
        if self.bits >= 16:
            assert self.fp_weight is not None
            return self.fp_weight
        if self.cache is not None:
            return self.cache.get(
                self.cache_key, lambda: (self._build_dense(), self.dense_nbytes)
            )
        return self._build_dense()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``x @ W_hat + b`` exactly as a weight-only serving kernel computes."""
        y = x @ self.dequantized()
        if self.bias is not None:
            y += self.bias
        return y
