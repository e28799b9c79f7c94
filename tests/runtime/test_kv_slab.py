"""The per-stage KV slab: one storage, read as slices, never leaking.

What this file pins:

1. one fused stage step on the slab (``StageWorker._process_batched``)
   is **byte-identical** to the pre-slab step kept in
   :mod:`.kv_view_spec` — dense and packed, consecutive rows, rows with
   passengers, rows far enough apart to gather, permuted ``unit_ids`` —
   and a packed step, which folds its scales into the attention, stays
   within 1e-12 of dequantize-then-attend;
2. the trimmed kernels (``_layernorm``, in-place ``_gelu`` and
   ``_masked_softmax``, the mask hoisted onto the view) equal the
   expressions they replaced;
3. a freed row never reaches its next tenant, even through the padding
   and passenger rows a fused batch reads without having written;
4. a model-based state machine over every manager operation, against
   loose spec caches, for kv_bits 16/8/4/3;
5. the slab's counters say how the fused steps read it, exactly the same
   from run to run.
"""

import queue

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate, get_model
from repro.models.transformer import (
    KVCache,
    _gelu,
    _layernorm,
    _masked_softmax,
    batched_decode_block,
)
from repro.ops import greedy_pick
from repro.runtime import ContinuousScheduler, PipelineRuntime, ServeRequest
from repro.runtime.kvcache import (
    QuantizedKVCache,
    StageKVManager,
    _parts,
    _window,
    _zero_code_row,
    kv_fake_quant,
)
from repro.runtime.loader import load_stage_weights
from repro.runtime.messages import BatchedDecodeMessage
from repro.runtime.worker import StageWorker
from repro.workload import Workload

from .kv_view_spec import (
    SpecBatchedKVView,
    spec_batched_decode_block,
    spec_gelu,
    spec_layernorm,
    spec_softmax,
)

LAYERS, HIDDEN, HEADS = 2, 8, 2


def _loose(kv_bits, batch, max_len, *, layers=LAYERS, hidden=HIDDEN, heads=HEADS):
    """A cache unit that owns its arrays, the way units were before the slab."""
    if kv_bits >= 16:
        return KVCache.allocate(layers, batch, max_len, hidden)
    return QuantizedKVCache.allocate(
        layers, batch, max_len, hidden, kv_bits=kv_bits, num_heads=heads
    )


# ---------------------------------------------------------------------------
# 1. one fused stage step, byte for byte
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def model4(tiny4l):
    return TinyDecoderLM(tiny4l, seed=7)


@pytest.fixture(scope="module")
def bloom4():
    """ALiBi instead of learned positions: the bias follows the read order."""
    return TinyDecoderLM(get_model("tiny-bloom-4l"), seed=7)


def _stage(model, cfg, kv_bits):
    load = load_stage_weights(model, [0, 1], [16, 4])
    return StageWorker(0, cfg, load, queue.Queue(), queue.Queue(), kv_bits=kv_bits)


def _fill(rng, worker, loose, unit_id, length, max_len, cfg):
    """Allocate ``unit_id`` on the worker's slab and as a loose unit, both
    holding the same ``length`` tokens of history."""
    unit = worker.kv.allocate(unit_id, batch=1, max_len=max_len)
    loose[unit_id] = _loose(
        worker.kv_bits, 1, max_len,
        layers=len(worker.load.qlayers), hidden=cfg.hidden_size, heads=cfg.num_heads,
    )
    for li in range(len(worker.load.qlayers)):
        k = rng.normal(size=(1, length, cfg.hidden_size)) * 10.0 ** rng.uniform(-1, 1)
        v = rng.normal(size=(1, length, cfg.hidden_size))
        for cache in (unit, loose[unit_id]):
            cache.append(li, k, v, 0)
    unit.length = loose[unit_id].length = length


@settings(max_examples=40, deadline=None)
@given(
    kv_bits=st.sampled_from([16, 8, 4]),
    lens=st.lists(st.integers(1, 9), min_size=1, max_size=9),
    alibi=st.booleans(),
    data=st.data(),
)
def test_fused_stage_step_is_byte_identical_to_the_pre_slab_step(
    model4, bloom4, kv_bits, lens, alibi, data
):
    """Same message, same KV contents: the slab step's output and every
    stored byte equal the loop-gather step's — whichever rows the batch
    sits in, and in whatever order the message names them."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    model = bloom4 if alibi else model4
    tiny4l = model.cfg
    worker, loose = _stage(model, tiny4l, kv_bits), {}
    for u, n in enumerate(lens):
        _fill(rng, worker, loose, u, n, n + 3, tiny4l)
    # retire some units and admit others into their rows, so unit order
    # and row order part ways and some freed rows stay free
    gone = data.draw(st.lists(st.sampled_from(range(len(lens))), unique=True))
    for u in gone:
        worker.kv.release(u)
        del loose[u]
    for u in range(len(lens), len(lens) + data.draw(st.integers(0, len(gone)))):
        n = data.draw(st.integers(1, 9))
        _fill(rng, worker, loose, u, n, n + 2, tiny4l)
    if not loose:
        return
    unit_ids = tuple(data.draw(st.permutations(sorted(loose)))[
        : data.draw(st.integers(1, len(loose)))
    ])
    starts = np.array([loose[u].length for u in unit_ids], dtype=np.int64)
    x = rng.normal(size=(len(unit_ids), 1, tiny4l.hidden_size))

    out = worker._process_batched(
        BatchedDecodeMessage(unit_ids=unit_ids, starts=starts, hidden=x)
    )
    spec_view = SpecBatchedKVView([loose[u] for u in unit_ids], starts)
    want = x
    for li, qlayer in enumerate(worker.load.qlayers):
        want = spec_batched_decode_block(
            tiny4l, qlayer.materialize(None), want, spec_view, li, starts
        )
    spec_view.commit_lengths()

    assert out.unit_ids == unit_ids
    assert out.hidden.tobytes() == want.tobytes()
    for u, spec_unit in loose.items():
        unit = worker.kv.get(u)
        assert unit.length == spec_unit.length
        for got, kept in zip(_parts(unit), _parts(spec_unit)):
            assert got.tobytes() == kept.tobytes()


class _FakeQuantAppends:
    """A dense slab view whose appends fake-quantize, as
    :class:`FakeQuantKVCache` does: attention then reads dequantized
    values where the packed view hands it codes and scales."""

    def __init__(self, view, kv_bits, heads):
        self.view, self.kv_bits, self.heads = view, kv_bits, heads

    def append(self, layer, k_new, v_new):
        self.view.append(
            layer,
            kv_fake_quant(k_new, self.kv_bits, self.heads),
            kv_fake_quant(v_new, self.kv_bits, self.heads),
        )

    def __getattr__(self, name):
        return getattr(self.view, name)


@pytest.mark.parametrize("kv_bits", [8, 4, 3])
def test_folded_scales_stay_within_1e12_of_dequantize_then_attend(
    model4, bloom4, kv_bits
):
    """The fused packed step rounds ``(q · c) · s`` where dequantizing
    first rounds ``q · (c · s)``: over seeded messages (ALiBi or not) a
    whole-model step on the packed slab stays within 1e-12 relative of
    the same step on a dense slab of the fake-quantized history, and
    picks the same greedy tokens."""
    for seed in range(16):
        rng = np.random.default_rng(seed)
        model = bloom4 if seed % 2 else model4
        cfg = model.cfg
        managers = [
            StageKVManager(
                num_layers=cfg.num_layers, hidden_size=cfg.hidden_size,
                kv_bits=bits, num_heads=cfg.num_heads,
            )
            for bits in (kv_bits, 16)
        ]
        lens = rng.integers(1, 40, size=int(rng.integers(1, 13)))
        for u, n in enumerate(lens.tolist()):
            packed, dense = (m.allocate(u, batch=1, max_len=n + 1) for m in managers)
            for li in range(cfg.num_layers):
                k, v = rng.normal(size=(2, 1, n, cfg.hidden_size))
                k *= 10.0 ** rng.uniform(-1, 1)
                packed.append(li, k, v, 0)
                dense.append(
                    li, *(kv_fake_quant(a, kv_bits, cfg.num_heads) for a in (k, v)), 0
                )
            packed.length = dense.length = n
        unit_ids = tuple(rng.permutation(len(lens)).tolist())
        starts = lens[list(unit_ids)]
        packed_view = managers[0].batch_view(unit_ids, starts)
        dense_view = _FakeQuantAppends(
            managers[1].batch_view(unit_ids, starts), kv_bits, cfg.num_heads
        )
        got = want = model._embed_ragged(
            rng.integers(0, cfg.vocab_size, size=(len(unit_ids), 1)), starts
        )
        for li, lw in enumerate(model.layers):
            got = batched_decode_block(cfg, lw, got, packed_view, li, starts)
            want = batched_decode_block(cfg, lw, want, dense_view, li, starts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_array_equal(
            greedy_pick(model._logits(got)), greedy_pick(model._logits(want))
        )


@pytest.mark.parametrize(
    "live, unit_ids, reads",
    [
        (range(6), (0, 1, 2, 3, 4, 5), "slice"),        # consecutive
        (range(6), (5, 2, 0, 1, 4, 3), "slice"),        # permuted
        ((0, 1, 2, 4, 5), (0, 1, 2, 4, 5), "slice"),    # one free passenger
        (range(6), (0, 1, 2, 4, 5), "slice"),           # one live passenger
        ((0, 5), (0, 5), "gather"),                     # too sparse to cover
    ],
)
@pytest.mark.parametrize("kv_bits", [16, 4])
def test_row_layouts_take_the_read_they_should(
    model4, tiny4l, kv_bits, live, unit_ids, reads
):
    rng = np.random.default_rng(3)
    worker, loose = _stage(model4, tiny4l, kv_bits), {}
    for u in range(6):
        _fill(rng, worker, loose, u, 2 + u, 12, tiny4l)
    for u in set(range(6)) - set(live):
        worker.kv.release(u)
    starts = np.array([loose[u].length for u in unit_ids], dtype=np.int64)
    view = worker.kv.batch_view(unit_ids, starts)
    passengers = max(unit_ids) + 1 - min(unit_ids) - len(unit_ids)
    if kv_bits < 16 and passengers:
        reads = "gather"  # a packed read would dequantize the passenger
    assert isinstance(view.idx, slice) == (reads == "slice")
    assert (worker.kv.view_steps, worker.kv.gather_steps) == (
        (1, 0) if reads == "slice" else (0, 1)
    )


# ---------------------------------------------------------------------------
# 2. trimmed kernels equal the expressions they replaced
# ---------------------------------------------------------------------------

_shapes = st.tuples(st.integers(1, 5), st.integers(1, 4), st.sampled_from([1, 2, 8, 64]))


@settings(max_examples=80, deadline=None)
@given(shape=_shapes, scale=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1),
       strided=st.booleans())
def test_layernorm_bit_identical(shape, scale, seed, strided):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * 10.0**scale
    if strided:  # a column slice, like the q/k/v thirds of a fused GEMM
        x = np.concatenate((x, x), axis=-1)[..., : shape[-1]]
    g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    kept = x.copy()
    assert _layernorm(x, g, b).tobytes() == spec_layernorm(x, g, b).tobytes()
    np.testing.assert_array_equal(x, kept)  # the input is not the scratch


@settings(max_examples=80, deadline=None)
@given(shape=_shapes, seed=st.integers(0, 2**32 - 1), causal=st.booleans())
def test_inplace_softmax_and_masked_fill_bit_identical(shape, seed, causal):
    """``_masked_softmax`` equals ``-1e30`` masking then the softmax on
    every row a request reads, over both mask shapes it is handed: the
    prompt pass's causal ``(q, T)`` and fused decode's ragged ``(R, 1,
    1, T)`` with passengers masked end to end.  It never underflows, and
    a passenger row stays finite."""
    rng = np.random.default_rng(seed)
    rows, t = shape[0], shape[2]
    if causal:
        q = int(rng.integers(1, t + 1))
        scores = rng.normal(size=(shape[1], 2, q, t)) * 5.0
        keep = np.arange(t)[None, :] <= t - q + np.arange(q)[:, None]
        read = np.ones(scores.shape[:-1], dtype=bool)
    else:
        scores = rng.normal(size=(rows, 2, 1, t)) * 5.0
        starts = rng.integers(0, t, size=rows)
        read = rng.random(rows) < 0.7
        keep = (np.arange(t)[None, :] <= starts[:, None]) & read[:, None]
        keep = keep[:, None, None, :]
        read = np.broadcast_to(read[:, None, None], scores.shape[:-1])
    want = spec_softmax(np.where(keep, scores, -1e30))
    with np.errstate(all="raise"):
        got = _masked_softmax(scores, ~keep)
    assert got is scores and np.isfinite(got).all()
    assert got[read].tobytes() == want[read].tobytes()


@settings(max_examples=80, deadline=None)
@given(shape=_shapes, scale=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
def test_inplace_gelu_bit_identical(shape, scale, seed):
    x = np.random.default_rng(seed).normal(size=shape) * 10.0**scale
    want = spec_gelu(x)
    got = _gelu(x)
    assert got is x and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(lens=st.lists(st.integers(0, 9), min_size=1, max_size=6), seed=st.integers(0, 99))
def test_hoisted_mask_is_the_per_layer_mask(lens, seed):
    """``view.masked`` is ``~(pos_k <= starts)`` of the requests in read
    order, and all ``True`` along a passenger."""
    m = StageKVManager(num_layers=1, hidden_size=HIDDEN)
    for u in range(len(lens)):
        m.allocate(u, 1, 10)
    order = np.random.default_rng(seed).permutation(len(lens))
    unit_ids = tuple(int(u) for u in order[: max(1, len(lens) - seed % 2)])
    starts = np.array([lens[u] for u in unit_ids], dtype=np.int64)
    view = m.batch_view(unit_ids, starts)
    total = int(starts.max()) + 1
    keep = np.arange(total)[None, :] <= starts[:, None]
    pos = view.pos if view.pos is not None else np.arange(len(unit_ids))
    got = view.masked[:, 0, 0, :]
    np.testing.assert_array_equal(got[pos], ~keep)
    assert got[np.setdiff1d(np.arange(len(got)), pos)].all()


# ---------------------------------------------------------------------------
# 3. tenant isolation
# ---------------------------------------------------------------------------


def _plan(kv_bits, workload):
    stages = tuple(
        StagePlan(
            Device(get_gpu("T4-16G"), node_id=0, local_rank=i), (16,) * 4,
            kv_bits=kv_bits,
        )
        for i in range(2)
    )
    return ExecutionPlan(
        model_name="tiny-8l", stages=stages, prefill_microbatch=2,
        decode_microbatch=4, workload=workload,
    )


def _requests(cfg, shapes, seed):
    rng = np.random.default_rng(seed)
    return [
        ServeRequest(
            request_id=i, gen_len=g,
            prompt=rng.integers(0, cfg.vocab_size, size=s, dtype=np.int64),
        )
        for i, (s, g) in enumerate(shapes)
    ]


@pytest.mark.parametrize("kv_bits", [16, 4])
def test_poisoned_rows_never_reach_the_next_tenant(tiny8l, monkeypatch, kv_bits):
    """Every retiring request leaves ``nan``/``inf`` (packed: all-ones
    bytes) in its whole row.  Shorter requests are then admitted into
    those rows, inside fused batches with longer neighbours that read
    past the newcomer's length: every stream still equals
    ``generate()``."""
    reference = TinyDecoderLM(tiny8l, seed=3)
    release = StageKVManager.release

    def poisoned_release(self, unit_id):
        cache = self.caches.get(unit_id)
        if cache is not None:
            a, b = _parts(cache)
            a[...] = 255 if kv_bits < 16 else np.nan
            b[...] = np.inf
        return release(self, unit_id)

    monkeypatch.setattr(StageKVManager, "release", poisoned_release)
    # long requests first, so their rows are the ones shorter ones inherit
    shapes = [(12, 9), (10, 3), (11, 8), (9, 2), (4, 3), (3, 6), (5, 2), (2, 7),
              (6, 4), (3, 3)]
    requests = _requests(tiny8l, shapes, seed=5)
    plan = _plan(kv_bits, Workload(prompt_len=12, gen_len=9, global_batch=4))
    with PipelineRuntime(reference, plan) as rt:
        report = ContinuousScheduler(rt, time_scale=0.0, max_inflight=4).serve(requests)
        assert rt.stats.kv_view_steps > 0
        assert all(w.kv.released_units == len(shapes) for w in rt.workers)
    assert len(report.completed) == len(requests)
    by_id = {r.request_id: r for r in report.completed}
    for req in requests:
        want = generate(
            reference, np.asarray(req.prompt)[None, :], req.gen_len, kv_bits=kv_bits
        ).tokens[0]
        np.testing.assert_array_equal(by_id[req.request_id].tokens, want)


# ---------------------------------------------------------------------------
# 4. the manager against a model of loose caches
# ---------------------------------------------------------------------------


class SlabMachine(RuleBasedStateMachine):
    """Every manager operation, mirrored on loose spec caches."""

    kv_bits = 16

    @initialize()
    def setup(self):
        self.mgr = StageKVManager(
            num_layers=LAYERS, hidden_size=HIDDEN, kv_bits=self.kv_bits,
            num_heads=HEADS,
        )
        self.model: dict[int, KVCache] = {}
        self.handles: dict[int, KVCache] = {}  # from allocate(), kept across growth
        self.next_id = 0
        self.rng = np.random.default_rng(0)

    def _new(self, q, batch=1):
        return (
            self.rng.normal(size=(batch, q, HIDDEN)) * 10.0 ** self.rng.uniform(-2, 2),
            self.rng.normal(size=(batch, q, HIDDEN)),
        )

    @staticmethod
    def _batch(cache):
        return _parts(cache)[0].shape[-3]

    @rule(batch=st.integers(1, 3), max_len=st.integers(1, 12))
    def allocate(self, batch, max_len):
        uid, self.next_id = self.next_id, self.next_id + 1
        before = {u: self.mgr.get(u) for u in self.model}
        self.handles[uid] = self.mgr.allocate(uid, batch, max_len)
        self.model[uid] = _loose(self.kv_bits, batch, max_len)
        assert self.mgr.allocate(uid, batch + 1, max_len + 1) is self.handles[uid]
        for u, cache in before.items():  # growth re-points, never replaces
            assert self.mgr.get(u) is cache

    @precondition(lambda self: self.model)
    @rule(data=st.data(), q=st.integers(1, 4))
    def append(self, data, q):
        uid = data.draw(st.sampled_from(sorted(self.model)))
        spec, unit = self.model[uid], self.handles[uid]
        k, v = self._new(q, self._batch(spec))
        for li in range(LAYERS):
            if spec.length + q > spec.max_len:
                with pytest.raises(ValueError, match="overflow"):
                    unit.append(li, k, v, spec.length)
                return
            unit.append(li, k, v, spec.length)
            spec.append(li, k, v, spec.length)
        unit.length = spec.length = spec.length + q

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def batch_append_and_read_padded(self, data):
        """A fused step over every row of the drawn units (an offline
        decode group's units have several), against the spec view over
        each row of their loose caches."""
        fusable = sorted(u for u, c in self.model.items() if c.length < c.max_len)
        if not fusable:
            return
        ids = tuple(data.draw(st.permutations(fusable))[
            : data.draw(st.integers(1, len(fusable)))
        ])
        rows = [
            _window(spec, slice(r, r + 1), spec.max_len)
            for spec in (self.model[u] for u in ids)
            for r in range(self._batch(spec))
        ]
        starts = np.array(
            [self.model[u].length for u in ids for _ in range(self._batch(self.model[u]))],
            dtype=np.int64,
        )
        view = self.mgr.batch_view(ids, starts)
        spec_view = SpecBatchedKVView(rows, starts)
        pos = view.pos if view.pos is not None else np.arange(len(rows))
        for li in range(LAYERS):
            k, v = self._new(1, len(rows))
            view.append(li, k, v)
            spec_view.append(li, k, v)
            *got, scales = view.read_padded(li)
            *want, want_scales = spec_view.read_padded(li)
            assert (scales is None) == (want_scales is None) == (self.kv_bits >= 16)
            if scales is not None:  # packed: codes, and their scales (rows on axis 1)
                got.append(scales.swapaxes(0, 1))
                want.append(want_scales.swapaxes(0, 1))
            for g, w in zip(got, want):
                assert g[pos].tobytes() == w.tobytes()
                assert np.isfinite(g).all()  # passengers too
        for u in ids:
            self.model[u].length += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def read(self, data):
        uid = data.draw(st.sampled_from(sorted(self.model)))
        spec = self.model[uid]
        total = data.draw(st.integers(1, spec.max_len))
        for li in range(LAYERS):
            for got, want in zip(self.handles[uid].read(li, total), spec.read(li, total)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @precondition(lambda self: self.model)
    @rule(data=st.data(), eager=st.booleans())
    def drop(self, data, eager):
        uid = data.draw(st.sampled_from(sorted(self.model)))
        nbytes = self.model.pop(uid).kv_nbytes
        del self.handles[uid]
        if eager:
            freed_before = self.mgr.released_bytes
            assert self.mgr.release(uid) == nbytes
            assert self.mgr.released_bytes == freed_before + nbytes
            assert self.mgr.release(uid) == 0.0
        else:
            self.mgr.free(uid)
        with pytest.raises(KeyError):
            self.mgr.get(uid)

    @rule()
    def free_all(self):
        self.mgr.free_all()
        self.model.clear()
        self.handles.clear()
        assert not self.mgr.caches and self.mgr.current_bytes == 0.0

    @invariant()
    def live_units_hold_the_models_bytes(self):
        assert set(self.mgr.caches) == set(self.model)
        for uid, spec in self.model.items():
            unit = self.mgr.get(uid)
            assert unit is self.handles[uid]
            assert (unit.length, unit.max_len) == (spec.length, spec.max_len)
            for got, want, base in zip(_parts(unit), _parts(spec), _parts(self.mgr.slab)):
                assert got.tobytes() == want.tobytes()
                assert np.shares_memory(got, base)  # a window, not a stale copy

    @invariant()
    def rows_are_exclusive_and_the_rest_is_blank(self):
        mgr = self.mgr
        if mgr.slab is None:
            assert not self.model
            return
        owner = np.full(mgr.slab_rows, -1)
        outside = [np.ones(p.shape[-3:-1], dtype=bool) for p in _parts(mgr.slab)]
        for uid, spec in self.model.items():
            rows = slice(mgr._row0[uid], mgr._row0[uid] + self._batch(spec))
            assert (owner[rows] == -1).all(), "two live units share a row"
            owner[rows] = uid
            assert not mgr._free[rows].any()
            for mask in outside:
                mask[rows, : spec.max_len] = False
        assert mgr._free[owner == -1].all()
        blank = (
            (_zero_code_row(HIDDEN, self.kv_bits), 1.0) if self.kv_bits < 16
            else (0.0, 0.0)
        )
        for part, mask, fill in zip(_parts(mgr.slab), outside, blank):
            assert (part[..., mask, :] == fill).all(), "a freed slot is not blank"

    @invariant()
    def ledger_is_logical_and_inside_the_slab(self):
        logical = sum(c.kv_nbytes for c in self.model.values())
        assert self.mgr.current_bytes == logical <= self.mgr.slab_bytes
        assert self.mgr.peak_bytes >= logical


def _machine(kv_bits):
    cls = type(f"SlabMachineKV{kv_bits}", (SlabMachine,), {"kv_bits": kv_bits})
    cls.TestCase.settings = settings(
        max_examples=25, stateful_step_count=30, deadline=None
    )
    return cls.TestCase


TestSlabKV16 = _machine(16)
TestSlabKV8 = _machine(8)
TestSlabKV4 = _machine(4)
TestSlabKV3 = _machine(3)


def test_growth_keeps_contents_and_outstanding_handles():
    """Rows double and slots widen under live units: their bytes move
    with them and the cache objects handed out earlier stay current."""
    rng = np.random.default_rng(1)
    m = StageKVManager(num_layers=LAYERS, hidden_size=HIDDEN)
    first = m.allocate(0, batch=1, max_len=4)
    k, v = rng.normal(size=(1, 3, HIDDEN)), rng.normal(size=(1, 3, HIDDEN))
    first.append(0, k, v, 0)
    shapes = [(m.slab_rows, m.slab.max_len)]
    for u in range(1, 6):
        m.allocate(u, batch=1, max_len=4 + 3 * u)
        shapes.append((m.slab_rows, m.slab.max_len))
    assert shapes[0] == (1, 4) and shapes[-1][0] >= 6 and shapes[-1][1] >= 19
    assert len(set(shapes)) < len(shapes) + 1 and shapes == sorted(shapes)
    assert first is m.get(0) and first.max_len == 4
    np.testing.assert_array_equal(first.read(0, 3)[0], k)
    first.append(0, k[:, :1], v[:, :1], 3)  # writes land in the live slab
    np.testing.assert_array_equal(m.slab.k[0, 0, 3], k[0, 0])
    assert m.current_bytes == sum(c.kv_nbytes for c in m.caches.values())
    assert m.current_bytes < m.slab_bytes


# ---------------------------------------------------------------------------
# 5. observability
# ---------------------------------------------------------------------------


def _closed_loop(reference, cfg):
    rng = np.random.default_rng(17)
    shapes = [(int(rng.integers(4, 9)), int(rng.integers(24, 33))) for _ in range(48)]
    plan = _plan(16, Workload(prompt_len=8, gen_len=32, global_batch=16))
    with PipelineRuntime(reference, plan) as rt:
        report = ContinuousScheduler(rt, time_scale=0.0, max_inflight=16).serve(
            _requests(cfg, shapes, seed=2)
        )
        return report, rt.stats


def test_closed_loop_reads_slices_and_counts_repeat(tiny8l):
    """16 clients, 48 short requests: holes last one iteration (the next
    admission refills the row) and small ones ride along as passengers,
    so at least four fused steps in five read a slice — and the counts
    are a property of the schedule, not of timing."""
    reference = TinyDecoderLM(tiny8l, seed=3)
    report, stats = _closed_loop(reference, tiny8l)
    assert len(report.completed) == 48
    steps = stats.kv_view_steps + stats.kv_gather_steps
    assert steps == 2 * stats.fused_iterations  # one per stage per iteration
    assert stats.kv_view_steps >= 0.8 * steps
    assert stats.kv_slab_rows >= 2 * 16
    # reserved vs in use: never below, and not a fixed oversize slab
    assert stats.kv_peak_bytes <= stats.kv_slab_bytes <= 2 * stats.kv_peak_bytes
    _, again = _closed_loop(reference, tiny8l)
    for name in ("kv_view_steps", "kv_gather_steps", "kv_slab_rows",
                 "kv_slab_bytes", "kv_peak_bytes", "fused_iterations"):
        assert getattr(again, name) == getattr(stats, name), name
