"""Causal prefill attention in query chunks, against the whole-tile block.

``attention_forward`` scores its queries ``_QUERY_CHUNK`` rows at a
time, each chunk against only the keys up to its last row.  What this
file pins, against :mod:`.prefill_spec` (the block that scored the whole
``q x total`` tile):

1. every stored KV byte is the same, for dense, fake-quant and slab
   caches at 16, 8 and 4 bits;
2. a prompt of at most ``_QUERY_CHUNK`` tokens is one chunk and gives
   the same bytes;
3. a longer prompt agrees to 1e-12 relative (a chunk's softmax sums over
   fewer keys, and a 1-row tail chunk runs as a GEMV);
4. ``generate()``'s greedy streams over 96-160-token prompts are the
   whole-tile model's.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import TinyDecoderLM, generate, get_model, make_corpus
from repro.models.transformer import _QUERY_CHUNK, KVCache, decoder_block
from repro.runtime.kvcache import FakeQuantKVCache, StageKVManager, _parts

from .prefill_spec import spec_decoder_block

C = _QUERY_CHUNK


@pytest.fixture(scope="module")
def models():
    return {
        name: TinyDecoderLM(get_model(name), seed=3)
        for name in ("tiny-8l", "tiny-bloom-4l")
    }


def _cache(kind, cfg, batch, max_len):
    """A fresh cache of ``kind``: ``dense``, ``fake<bits>`` (the
    single-process reference) or ``slab<bits>`` (a stage slab unit)."""
    if kind == "dense":
        return KVCache.allocate(1, batch, max_len, cfg.hidden_size)
    if kind.startswith("fake"):
        return FakeQuantKVCache.allocate_quant(
            1, batch, max_len, cfg.hidden_size,
            kv_bits=int(kind[4:]), num_heads=cfg.num_heads,
        )
    manager = StageKVManager(
        num_layers=1, hidden_size=cfg.hidden_size,
        kv_bits=int(kind[4:]), num_heads=cfg.num_heads,
    )
    return manager.allocate(0, batch=batch, max_len=max_len)


_q = st.one_of(
    st.sampled_from([1, C - 1, C, C + 1, 2 * C + 1, 3 * C + 1, 4 * C, 8 * C]),
    st.integers(1, 256),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["tiny-8l", "tiny-bloom-4l"]),
    kind=st.sampled_from(["dense", "fake8", "fake4", "slab16", "slab8", "slab4"]),
    q=_q,
    start=st.integers(0, 40),
    batch=st.integers(1, 2),
    layer=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_block_keeps_the_numerics_contract(
    models, name, kind, q, start, batch, layer, seed
):
    model = models[name]
    cfg = model.cfg
    if cfg.max_position_embeddings:
        start = min(start, cfg.max_position_embeddings - q)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, q, cfg.hidden_size))
    history = rng.normal(size=(2, batch, start, cfg.hidden_size))
    caches = [_cache(kind, cfg, batch, start + q + 1) for _ in range(2)]
    for c in caches:
        c.append(0, *history, 0)
    lw = model.layers[layer]

    with np.errstate(all="raise"):
        got = decoder_block(cfg, lw, x, caches[0], 0, start)
    want = spec_decoder_block(cfg, lw, x, caches[1], 0, start)

    for a, b in zip(_parts(caches[0]), _parts(caches[1])):
        assert a.tobytes() == b.tobytes()
    if q <= C:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class _WholeTileLM(TinyDecoderLM):
    """The same weights, every block run through the whole-tile spec."""

    def _block(self, layer_idx, x, cache, start, recorder=None):
        return spec_decoder_block(
            self.cfg, self.layers[layer_idx], x, cache, layer_idx, start, recorder
        )


@pytest.mark.parametrize("kv_bits", [16, 4])
def test_generate_streams_over_long_prompts_match_the_whole_tile_model(
    sharp, kv_bits
):
    """Greedy streams of the sharp tiny-8l (weights x10, so streams move)
    over prompts of 96-160 tokens: every length class of the
    ``serve_prefill_fp16`` workload, each more than one chunk long."""
    spec = copy.copy(sharp)
    spec.__class__ = _WholeTileLM
    rng = np.random.default_rng(11)
    for s in (96, 97, 127, 128, 129, 160):
        prompts = make_corpus(
            sharp.cfg.vocab_size, num_seqs=2, seq_len=s, seed=int(rng.integers(1 << 30))
        ).tokens
        got = generate(sharp, prompts, 8, kv_bits=kv_bits)
        want = generate(spec, prompts, 8, kv_bits=kv_bits)
        np.testing.assert_array_equal(got.tokens, want.tokens)
        assert len(np.unique(want.tokens)) > 1
