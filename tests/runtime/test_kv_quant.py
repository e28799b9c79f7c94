"""Quantized KV cache: pack/unpack round trips and runtime token equality.

The contract chain this file pins:

1. packing is lossless on codes — the whole-byte packer writes the
   codec's bytes — so a packed cache's ``read``, and a fused read's
   ``codes * scales``, are **bit-exact** equal to the fake-quant oracle
   (:func:`kv_fake_quant`);
2. the fake-quant values are within half a scale step of the original
   activations (symmetric absmax quantization error bound);
3. therefore the pipeline runtime serving packed KV4/KV8 produces
   **token-identical** output to a single-process model running the
   fake-quant reference path — for uniform and mixed per-stage KV, and
   with ALiBi — although its fused step folds the scales into the
   attention rather than dequantizing first.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate, get_model, make_corpus
from repro.models.transformer import KVCache
from repro.quant.kernels import pack_codes
from repro.runtime import ContinuousScheduler, PipelineRuntime, ServeRequest, kvcache
from repro.runtime.kvcache import (
    FakeQuantKVCache,
    QuantizedKVCache,
    StageKVManager,
    _quantize_packed,
    dequantize_kv,
    kv_fake_quant,
    packed_kv_nbytes,
    quantize_kv,
)
from repro.workload import Workload


# ---------------------------------------------------------------------------
# quantize/dequantize/pack round trips
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 3),
    tokens=st.integers(1, 5),
    heads=st.sampled_from([1, 2, 4]),
    kv_bits=st.sampled_from([4, 8]),
    scale_pow=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_within_quantization_error(
    batch, tokens, heads, kv_bits, scale_pow, seed
):
    """Dequantized values sit within half a quantization step of the
    input, per (token, head) scale — the absmax symmetric-quant bound."""
    rng = np.random.default_rng(seed)
    hidden = 8 * heads
    x = rng.normal(size=(batch, tokens, hidden)) * 10.0**scale_pow
    codes, scales = quantize_kv(x, kv_bits, heads)
    back = dequantize_kv(codes, scales, heads)
    tol = np.repeat(scales / 2.0, hidden // heads, axis=-1)
    assert np.all(np.abs(back - x) <= tol + 1e-15)
    # and the one-call oracle is exactly this round trip
    np.testing.assert_array_equal(back, kv_fake_quant(x, kv_bits, heads))


@settings(max_examples=30, deadline=None)
@given(
    heads=st.sampled_from([1, 2]),
    kv_bits=st.sampled_from([4, 8]),
    steps=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_cache_bitexact_vs_fake_quant(heads, kv_bits, steps, seed):
    """Packing never perturbs codes: a packed cache reads back exactly
    what the fake-quant reference cache stores, append after append."""
    rng = np.random.default_rng(seed)
    L, B, H = 2, 2, 8 * heads
    T = sum(steps)
    packed = QuantizedKVCache.allocate(L, B, T, H, kv_bits=kv_bits, num_heads=heads)
    ref = FakeQuantKVCache.allocate_quant(
        L, B, T, H, kv_bits=kv_bits, num_heads=heads
    )
    start = 0
    for q in steps:
        k = rng.normal(size=(B, q, H)) * (1.0 + 9.0 * rng.random((B, q, 1)))
        v = rng.normal(size=(B, q, H))
        for li in range(L):
            packed.append(li, k, v, start)
            ref.append(li, k, v, start)
        start += q
    for li in range(L):
        kp, vp = packed.read(li, start)
        kr, vr = ref.read(li, start)
        np.testing.assert_array_equal(kp, kr)
        np.testing.assert_array_equal(vp, vr)


def test_zero_rows_roundtrip_exact():
    """All-zero head groups take scale 1.0 and decode back to exact 0."""
    x = np.zeros((1, 3, 8))
    codes, scales = quantize_kv(x, 4, 2)
    assert np.all(scales == 1.0)
    np.testing.assert_array_equal(dequantize_kv(codes, scales, 2), x)


def test_kv16_fake_quant_is_identity():
    x = np.random.default_rng(0).normal(size=(2, 3, 8))
    np.testing.assert_array_equal(kv_fake_quant(x, 16, 2), x)


def test_packed_allocate_validation():
    with pytest.raises(ValueError, match="byte-aligned"):
        QuantizedKVCache.allocate(1, 1, 4, 9, kv_bits=4)
    with pytest.raises(ValueError, match="kv_bits"):
        QuantizedKVCache.allocate(1, 1, 4, 8, kv_bits=16)
    with pytest.raises(ValueError, match="heads"):
        QuantizedKVCache.allocate(1, 1, 4, 8, kv_bits=4, num_heads=3)


def test_packed_overflow_guarded():
    c = QuantizedKVCache.allocate(1, 1, 4, 8, kv_bits=4, num_heads=2)
    with pytest.raises(ValueError, match="overflow"):
        c.append(0, np.zeros((1, 3, 8)), np.zeros((1, 3, 8)), 2)


@settings(max_examples=80, deadline=None)
@given(
    kv_bits=st.sampled_from([2, 4, 8]),
    batch=st.integers(1, 4),
    tokens=st.integers(1, 5),
    heads=st.sampled_from([1, 2, 4]),
    head_dim=st.sampled_from([4, 8, 12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_whole_byte_packer_equals_the_codec(
    kv_bits, batch, tokens, heads, head_dim, seed
):
    """At widths that divide 8 the append kernel ORs codes into bytes
    itself: its bytes and scales are ``pack_codes(quantize_kv(...))``'s,
    on ragged shapes, all-zero head groups and codes at +-qmax."""
    rng = np.random.default_rng(seed)
    hidden = heads * head_dim
    k, v = (
        rng.normal(size=(batch, tokens, hidden)) * 10.0 ** rng.uniform(-3, 3)
        for _ in range(2)
    )
    for x in (k, v):
        groups = x.reshape(batch, tokens, heads, head_dim)  # a view of x
        groups[rng.random(groups.shape[:-1]) < 0.25] = 0.0
        # a group whose extremes are m and -m holds both +qmax and -qmax
        edge = rng.random(groups.shape[:-1]) < 0.5
        m = np.abs(groups[edge]).max(axis=-1)
        groups[edge, 0], groups[edge, 1] = m, -m
    packed, scales = _quantize_packed(k, v, kv_bits, heads)
    codes, want_scales = quantize_kv(np.stack((k, v)), kv_bits, heads)
    want = pack_codes(codes, kv_bits).reshape(2, batch, tokens, -1)
    assert packed.dtype == np.uint8 and packed.shape == want.shape
    assert packed.tobytes() == want.tobytes()
    assert scales.tobytes() == want_scales.tobytes()


@pytest.mark.parametrize("kv_bits", [2, 3, 4, 8])
def test_only_kv3_appends_through_the_codec(monkeypatch, kv_bits):
    """KV3 codes straddle bytes, so its appends still call ``pack_codes``
    and still round-trip to ``kv_fake_quant``; the whole-byte widths
    never call it.  The blank row is made once per shape (one repeated
    biased-zero byte at whole-byte widths, 0x77 at KV4)."""
    rng = np.random.default_rng(kv_bits)
    cache = QuantizedKVCache.allocate(2, 2, 5, 16, kv_bits=kv_bits, num_heads=2)
    calls = []

    def spy(codes, bits):
        calls.append(bits)
        return pack_codes(codes, bits)

    monkeypatch.setattr(kvcache, "pack_codes", spy)
    k, v = rng.normal(size=(2, 2, 4, 16)) * 3.0
    for li in range(2):
        cache.append(li, k[:, :3], v[:, :3], 0)
        cache.append(li, k[:, 3:], v[:, 3:], 3)
    assert calls == ([3] * 4 if kv_bits == 3 else [])
    for li in range(2):
        for got, x in zip(cache.read(li, 4), (k, v)):
            np.testing.assert_array_equal(got, kv_fake_quant(x, kv_bits, 2))
    blank = kvcache._zero_code_row(16, kv_bits)
    assert blank is kvcache._zero_code_row(16, kv_bits) and not blank.flags.writeable
    if kv_bits == 4:
        assert (blank == 0x77).all()


# ---------------------------------------------------------------------------
# the fused read/append kernels behind both cache shapes
# ---------------------------------------------------------------------------


def _filled_units(rng, lens, hidden, kv_bits, heads, layers=2, manager=None):
    """One batch-1 packed unit per entry of ``lens``, each holding that
    many tokens of its own history (returned as float K/V per unit).
    Units are loose caches, or unit ``i`` of ``manager`` when given."""
    units, hist = [], []
    for i, n in enumerate(lens):
        if manager is not None:
            unit = manager.allocate(i, batch=1, max_len=n + 1)
        else:
            unit = QuantizedKVCache.allocate(
                layers, 1, n + 1, hidden, kv_bits=kv_bits, num_heads=heads
            )
        k = rng.normal(size=(1, n + 1, hidden)) * 10.0 ** rng.uniform(-2, 2)
        v = rng.normal(size=(1, n + 1, hidden))
        for li in range(layers):
            unit.append(li, k[:, :n], v[:, :n], 0)
        unit.length = n
        units.append(unit)
        hist.append((k, v))
    return units, hist


@settings(max_examples=60, deadline=None)
@given(
    heads=st.sampled_from([1, 2]),
    # 4 and 8 are what plans assign; 2 shares their byte-table read and
    # whole-byte pack, 3 (codes straddle bytes) takes the codec both ways
    kv_bits=st.sampled_from([2, 3, 4, 8]),
    lens=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_ragged_view_bitexact_and_zero_padded(heads, kv_bits, lens, seed):
    """On ragged lengths the batched view's ``codes * scales`` and the
    per-unit read both return exactly ``kv_fake_quant`` of the history,
    every pad slot is exactly +0.0 (code +0.0 at scale 1.0), and the
    batched append stores the very bytes B batch-1 appends store."""
    rng = np.random.default_rng(seed)
    hidden, layers = 8 * heads, 2
    manager = StageKVManager(
        num_layers=layers, hidden_size=hidden, kv_bits=kv_bits, num_heads=heads
    )
    units, hist = _filled_units(rng, lens, hidden, kv_bits, heads, layers, manager)
    solo, _ = _filled_units(
        np.random.default_rng(seed), lens, hidden, kv_bits, heads, layers
    )
    view = manager.batch_view(tuple(range(len(lens))), np.array(lens, dtype=np.int64))
    k_new = np.concatenate([k[:, n:] for (k, _), n in zip(hist, lens)])
    v_new = np.concatenate([v[:, n:] for (_, v), n in zip(hist, lens)])
    shape = (len(lens), max(lens) + 1)
    for li in range(layers):
        view.append(li, k_new, v_new)
        k_codes, v_codes, scales = view.read_padded(li)
        assert k_codes.shape == v_codes.shape == (*shape, hidden)
        assert scales.shape == (2, *shape, heads)
        for i, n in enumerate(lens):
            reads = units[i].read(li, n + 1)
            for codes, s, full, one in zip((k_codes, v_codes), scales, hist[i], reads):
                want = kv_fake_quant(full, kv_bits, heads)
                padded = dequantize_kv(codes, s, heads)
                np.testing.assert_array_equal(padded[i, : n + 1], want[0])
                np.testing.assert_array_equal(one, want)
                for pad in (codes[i, n + 1 :], padded[i, n + 1 :]):
                    assert not pad.any() and not np.signbit(pad).any()
                assert (s[i, n + 1 :] == 1.0).all()
            solo[i].append(li, k_new[i : i + 1], v_new[i : i + 1], n)
    for unit, alone in zip(units, solo):
        np.testing.assert_array_equal(unit.codes, alone.codes)
        np.testing.assert_array_equal(unit.scales, alone.scales)


def test_kv3_padding_reads_exact_zero():
    """Regression: a 3-bit zero code is not one repeated byte, so the
    pad row has to come from the codec (the old lane-repeat fill decoded
    KV3 padding to non-zero values)."""
    rng = np.random.default_rng(0)
    manager = StageKVManager(num_layers=1, hidden_size=8, kv_bits=3, num_heads=2)
    _filled_units(rng, [1, 5], 8, 3, 2, layers=1, manager=manager)
    view = manager.batch_view((0, 1), np.array([1, 5], dtype=np.int64))
    view.append(0, rng.normal(size=(2, 1, 8)), rng.normal(size=(2, 1, 8)))
    k_codes, v_codes, scales = view.read_padded(0)
    for codes, s in zip((k_codes, v_codes), scales):
        for pad in (codes[0, 2:], dequantize_kv(codes, s, 2)[0, 2:]):
            np.testing.assert_array_equal(pad, np.zeros((4, 8)))


@pytest.mark.parametrize("kv_bits", [4, 8])
def test_decode_group_reads_its_units_rows_in_place(kv_bits):
    """An offline decode group is its prefill units' slab rows: one fused
    view over units of 2 and 1 rows reads them as one slice, allocates
    nothing, and returns exactly what each unit's own read does."""
    rng = np.random.default_rng(2)
    m = StageKVManager(num_layers=2, hidden_size=8, kv_bits=kv_bits, num_heads=2)
    units = [m.allocate(u, batch=b, max_len=5) for u, b in enumerate((2, 1))]
    for unit, b in zip(units, (2, 1)):
        for li in range(2):
            unit.append(li, rng.normal(size=(b, 4, 8)), rng.normal(size=(b, 4, 8)), 0)
        unit.length = 4
    before = m.current_bytes
    view = m.batch_view((0, 1), np.full(3, 4, dtype=np.int64))
    assert isinstance(view.idx, slice) and view.pos is None
    assert (view.idx.start, view.idx.stop) == (0, 3)
    view.append(1, *rng.normal(size=(2, 3, 1, 8)))
    k_codes, v_codes, scales = view.read_padded(1)
    for codes, s, axis in zip((k_codes, v_codes), scales, (0, 1)):
        np.testing.assert_array_equal(
            dequantize_kv(codes, s, 2),
            np.concatenate([u.read(1, 5)[axis] for u in units]),
        )
    assert [u.length for u in units] == [5, 5]
    assert m.current_bytes == m.peak_bytes == before


# ---------------------------------------------------------------------------
# the stage manager under packed KV
# ---------------------------------------------------------------------------


def test_manager_packed_bytes_and_guard():
    """The guard and the ledger see the real packed footprint — the 4x
    (KV4) / 2x (KV8) shrink that buys admission headroom."""
    seen = []
    sizes = {}
    for bits in (16, 8, 4):
        m = StageKVManager(
            num_layers=2, hidden_size=8, alloc_guard=seen.append,
            kv_bits=bits, num_heads=2,
        )
        m.allocate(0, batch=3, max_len=10)
        sizes[bits] = m.current_bytes
        assert seen[-1] == m.current_bytes
    assert sizes[16] == 2 * (2 * 3 * 10 * 8 * 8)  # fp16 formula unchanged
    assert sizes[8] == packed_kv_nbytes(2, 3, 10, 8, 8, 2)
    assert sizes[4] == packed_kv_nbytes(2, 3, 10, 8, 4, 2)
    assert sizes[8] < sizes[16] and sizes[4] < sizes[8]


def test_manager_packed_release():
    """Releasing a multi-row packed unit returns its packed bytes."""
    m = StageKVManager(num_layers=2, hidden_size=8, kv_bits=4, num_heads=2)
    unit = m.allocate(0, batch=2, max_len=6)
    m.allocate(1, batch=1, max_len=6)
    assert m.release(0) == unit.kv_nbytes == packed_kv_nbytes(2, 2, 6, 8, 4, 2)
    assert m.current_bytes == packed_kv_nbytes(2, 1, 6, 8, 4, 2)


# ---------------------------------------------------------------------------
# runtime end-to-end vs fake-quant reference
# ---------------------------------------------------------------------------


def _dev(i):
    return Device(get_gpu("T4-16G"), node_id=0, local_rank=i)


def _plan(bits_per_stage, kv_per_stage, *, workload, model="tiny-8l"):
    stages = tuple(
        StagePlan(_dev(i), tuple(bits), kv_bits=kv)
        for i, (bits, kv) in enumerate(zip(bits_per_stage, kv_per_stage))
    )
    return ExecutionPlan(
        model_name=model, stages=stages,
        prefill_microbatch=2, decode_microbatch=4, workload=workload,
    )


@pytest.fixture(scope="module")
def reference(tiny8l):
    return TinyDecoderLM(tiny8l, seed=3)


@pytest.fixture(scope="module")
def prompts(tiny8l):
    return make_corpus(tiny8l.vocab_size, num_seqs=8, seq_len=12, seed=5).tokens


@pytest.fixture(scope="module")
def workload8():
    return Workload(prompt_len=12, gen_len=6, global_batch=8)


@pytest.mark.parametrize("kv_bits", [4, 8])
def test_uniform_kv_pipeline_matches_fake_quant_reference(
    reference, prompts, workload8, kv_bits
):
    """Packed uniform KV4/KV8 serving is token-identical to the
    single-process fake-quant reference run."""
    plan = _plan(
        [(16,) * 3, (16,) * 3, (16,) * 2], [kv_bits] * 3, workload=workload8
    )
    with PipelineRuntime(reference, plan) as rt:
        out = rt.generate(prompts, 6)
    expected = generate(reference, prompts, 6, kv_bits=kv_bits).tokens
    np.testing.assert_array_equal(out, expected)


@dataclass
class _PerLayerFakeQuantCache(KVCache):
    """Reference cache for mixed per-stage KV: each layer fake-quantizes
    at its own bitwidth (16 = passthrough)."""

    layer_kv: tuple = ()
    num_heads: int = 1

    def append(self, layer, k_new, v_new, start):
        b = self.layer_kv[layer]
        super().append(
            layer,
            kv_fake_quant(k_new, b, self.num_heads),
            kv_fake_quant(v_new, b, self.num_heads),
            start,
        )


def _generate_per_layer_kv(model, prompts, num_tokens, layer_kv):
    """Greedy loop mirroring :func:`repro.models.generate` but with a
    per-layer fake-quant cache — the oracle for mixed-KV pipelines."""
    cfg = model.cfg
    batch, s = prompts.shape
    shape = (cfg.num_layers, batch, s + num_tokens, cfg.hidden_size)
    cache = _PerLayerFakeQuantCache(
        k=np.zeros(shape), v=np.zeros(shape), length=0,
        layer_kv=tuple(layer_kv), num_heads=cfg.num_heads,
    )
    x = model._embed(prompts, 0)
    for i in range(cfg.num_layers):
        x = model._block(i, x, cache, 0)
    cache.length = s
    cur = model._logits(x[:, -1:])[:, 0].argmax(axis=-1)
    out = np.empty((batch, num_tokens), dtype=np.int64)
    for t in range(num_tokens):
        out[:, t] = cur
        if t == num_tokens - 1:
            break
        cur = model.decode_step(cur, cache).argmax(axis=-1)
    return out


def test_mixed_kv_pipeline_matches_per_layer_reference(
    reference, prompts, workload8
):
    """Stages at KV4 / KV8 / fp16 side by side: the pipeline must equal a
    single-process run quantizing each layer at its stage's bitwidth."""
    kv_per_stage = [4, 8, 16]
    plan = _plan(
        [(16,) * 3, (16,) * 3, (16,) * 2], kv_per_stage, workload=workload8
    )
    layer_kv = [4] * 3 + [8] * 3 + [16] * 2
    with PipelineRuntime(reference, plan) as rt:
        out = rt.generate(prompts, 6)
    expected = _generate_per_layer_kv(reference, prompts, 6, layer_kv)
    np.testing.assert_array_equal(out, expected)


def test_kv4_quantized_weights_pipeline_runs(reference, prompts, workload8):
    """Weight quantization and KV quantization compose in the runtime."""
    plan = _plan(
        [(8,) * 3, (4,) * 3, (16,) * 2], [4, 4, 8], workload=workload8
    )
    with PipelineRuntime(reference, plan) as rt:
        out = rt.generate(prompts, 5)
    assert out.shape == (8, 5)


def test_kv_peak_matches_packed_footprint(reference, prompts, workload8, tiny8l):
    """The runtime's KV ledger records the packed bytes for quantized
    stages — the same quantity the planner's memory model charges."""
    kv_bits = 4
    plan = _plan([(16,) * 4, (16,) * 4], [kv_bits, kv_bits], workload=workload8)
    with PipelineRuntime(reference, plan) as rt:
        rt.generate(prompts, 6)
        for w in rt.workers:
            expected = packed_kv_nbytes(
                4, 8, 12 + 6, tiny8l.hidden_size, kv_bits, tiny8l.num_heads
            )
            assert w.kv.peak_bytes == expected


@pytest.mark.parametrize("kv_bits", [4, 8])
def test_packed_alibi_serving_matches_generate(kv_bits):
    """ALiBi (tiny-bloom-4l) over packed KV, through the continuous
    scheduler: ragged lengths keep the fused batch's histories, and so
    the key distances the bias charges, different row by row, and
    requests join as others retire.  The fused step folds the scales
    into its scores and softmax weights; every stream still equals
    ``generate(kv_bits=...)``."""
    cfg = get_model("tiny-bloom-4l")
    model = TinyDecoderLM(cfg, seed=7)
    workload = Workload(prompt_len=16, gen_len=14, global_batch=8)
    plan = _plan([(16,) * 2] * 2, [kv_bits] * 2, workload=workload, model=cfg.name)
    rng = np.random.default_rng(kv_bits)
    requests = [
        ServeRequest(
            request_id=i, gen_len=int(rng.integers(2, 15)),
            prompt=rng.integers(0, cfg.vocab_size, size=int(rng.integers(2, 17))),
        )
        for i in range(60)
    ]
    with PipelineRuntime(model, plan) as rt:
        report = ContinuousScheduler(rt, time_scale=0.0, max_inflight=8).serve(requests)
        assert rt.stats.fused_iterations > 0
    assert len(report.completed) == len(requests)
    by_id = {r.request_id: r for r in report.completed}
    for req in requests:
        want = generate(model, req.prompt[None, :], req.gen_len, kv_bits=kv_bits)
        np.testing.assert_array_equal(by_id[req.request_id].tokens, want.tokens[0])
