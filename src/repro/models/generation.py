"""Generative inference loop for the NumPy model (Fig. 2's two phases)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ops import greedy_pick
from .transformer import TinyDecoderLM

__all__ = ["GenerationResult", "generate"]


@dataclass(frozen=True)
class GenerationResult:
    """Output of :func:`generate`.

    Attributes
    ----------
    tokens:
        Generated tokens, ``(batch, n)``.
    prefill_logits:
        Last-position prompt logits, ``(batch, vocab)``.
    """

    tokens: np.ndarray
    prefill_logits: np.ndarray


def generate(
    model: TinyDecoderLM,
    prompts: np.ndarray,
    num_tokens: int,
    *,
    greedy: bool = True,
    seed: int = 0,
    kv_bits: int = 16,
) -> GenerationResult:
    """Run prefill once, then ``num_tokens`` decode steps.

    Follows the paper's offline-task setup (Sec. 6.1 / ORCA protocol):
    EOS is never emitted early — generation always runs the full
    ``num_tokens`` steps.

    ``kv_bits`` below 16 serves the whole run through the fake-quant KV
    reference path — the oracle for the packed pipeline runtime.
    """
    prompts = np.asarray(prompts)
    if prompts.ndim != 2:
        raise ValueError("prompts must be (batch, s)")
    if num_tokens < 0:
        raise ValueError("num_tokens must be non-negative")
    rng = np.random.default_rng(seed)

    # only the last prompt position feeds generation — skip the
    # (batch, s, vocab) projection the "all" mode would throw away
    logits, cache = model.prefill(
        prompts, reserve=num_tokens, logits="last", kv_bits=kv_bits
    )
    last = logits[:, -1]
    out = np.empty((prompts.shape[0], num_tokens), dtype=np.int64)
    cur = _pick(last, greedy, rng)
    for t in range(num_tokens):
        out[:, t] = cur
        if t == num_tokens - 1:
            break
        step_logits = model.decode_step(cur, cache)
        cur = _pick(step_logits, greedy, rng)
    if num_tokens == 0:
        out = out.reshape(prompts.shape[0], 0)
    return GenerationResult(tokens=out, prefill_logits=last)


def _pick(logits: np.ndarray, greedy: bool, rng: np.random.Generator) -> np.ndarray:
    """Next-token ids per row: greedy, or sampled from ``rng`` — the one
    sampler of this reference and the runtime's offline engine."""
    if greedy:
        # shared first-index tie-break rule (see repro.ops.greedy_pick)
        return greedy_pick(logits)
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return np.array([rng.choice(p.shape[1], p=row) for row in p])
