"""Fused ragged-batch decode: how the scheduler executes decode.

The contract this file pins:

1. fused decode produces **token streams identical** to the
   single-process ``generate()`` reference (fake-quantised where the
   plan quantises) and — where per-stage KV / weight bitwidths differ,
   which ``generate()`` cannot express — to the batch-1-message drive of
   the same workers in ``per_request_spec``: fp16, KV8 and KV4, uniform
   and mixed per-stage, across a hypothesis sweep of batch size x weight
   bitwidth x kv_bits;
2. the batched KV append/gather primitives (:class:`BatchedKVView`) are
   **bit-exact** per request against looped batch-1 cache ops, with
   exact-zero padding beyond each request's length;
3. both the reference model and the runtime resolve greedy argmax ties
   with the same first-index rule (:func:`repro.ops.greedy_pick`);
4. the scheduler's fused counters account for every fused iteration and
   the weight-stream bytes it saved.

Equality is at the token-stream level, not bitwise logits: a stacked
``(B, h) @ W`` GEMM is not row-for-row bitwise equal to B separate
GEMVs (~1e-14 drift), so divergence diagnostics report the argmax
margin of the reference logits instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate
from repro.ops import argmax_margin, greedy_pick
from repro.quant import quantize_dequantize
from repro.runtime import ContinuousScheduler, PipelineRuntime, ServeRequest
from repro.runtime.kvcache import (
    BatchedKVView,
    FakeQuantKVCache,
    KVCache,
    QuantizedKVCache,
    StageKVManager,
    dequantize_kv,
)
from repro.workload import Workload

from .per_request_spec import spec_serve_per_request


def _dev(i):
    return Device(get_gpu("T4-16G"), node_id=0, local_rank=i)


def _plan(bits_per_stage, kv_per_stage=None, *, workload, model="tiny-8l"):
    if kv_per_stage is None:
        kv_per_stage = [16] * len(bits_per_stage)
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
def reference4(tiny4l):
    return TinyDecoderLM(tiny4l, seed=7)


@pytest.fixture(scope="module")
def workload12():
    return Workload(prompt_len=12, gen_len=8, global_batch=8)


def _mixed_requests(cfg, *, n=7, seed=11, gap=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        s = int(rng.integers(4, 13))
        g = int(rng.integers(2, 9))
        prompt = rng.integers(0, cfg.vocab_size, size=s, dtype=np.int64)
        out.append(
            ServeRequest(request_id=i, prompt=prompt, gen_len=g, arrival=i * gap)
        )
    return out


def _serve(model, plan, requests):
    with PipelineRuntime(model, plan) as rt:
        report = ContinuousScheduler(rt, policy="continuous").serve(requests)
        stats = rt.stats
    return report, stats


def _generate_streams(model, plan, requests):
    """``generate()`` per request on the reference, weights fake-quantised
    to the plan's per-layer bits and KV to its (uniform) ``kv_bits``."""
    (kv_bits,) = set(plan.kv_bits_per_stage)
    model = model.clone()
    for i, b in enumerate(plan.layer_bits):
        if b < 16:
            model.apply_to_layer(i, lambda _n, w, b=b: quantize_dequantize(w, b))
    return {
        r.request_id: generate(
            model, np.asarray(r.prompt)[None, :], r.gen_len, kv_bits=kv_bits
        ).tokens[0]
        for r in requests
    }


def _streams(report):
    return {r.request_id: np.asarray(r.tokens) for r in report.completed}


def _assert_fused_matches_oracle(model, requests, fused, oracle):
    """Token-stream equality with an argmax-margin diagnostic: if a
    request diverges, replay the reference logits at the first mismatch
    and report how close the top-2 logits were."""
    by_id = {r.request_id: r for r in requests}
    assert fused.keys() == oracle.keys()
    for rid in sorted(fused):
        got, want = fused[rid], oracle[rid]
        if np.array_equal(got, want):
            continue
        t = int(np.flatnonzero(got != want)[0])
        req = by_id[rid]
        ref = generate(model, np.asarray(req.prompt)[None, :], req.gen_len)
        margin = float(argmax_margin(ref.logits[0, t])[0]) if hasattr(
            ref, "logits"
        ) else float("nan")
        raise AssertionError(
            f"request {rid} diverged at decode step {t}: fused={got[t]} "
            f"oracle={want[t]} (reference argmax margin {margin:.3e}; "
            f"a zero margin means an unbroken tie, anything larger is a "
            f"real numeric divergence)"
        )


# ---------------------------------------------------------------------------
# fused streams equal the oracles
# ---------------------------------------------------------------------------


def test_fused_matches_reference(reference, tiny8l, workload12):
    """The scheduler decodes fused and still reproduces the
    single-process batch-1 streams."""
    plan = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    requests = _mixed_requests(tiny8l)
    report, stats = _serve(reference, plan, requests)
    assert stats.fused_iterations > 0
    by_id = {r.request_id: r for r in requests}
    assert len(report.completed) == len(requests)
    for rec in report.completed:
        req = by_id[rec.request_id]
        expected = generate(
            reference, np.asarray(req.prompt)[None, :], req.gen_len
        ).tokens[0]
        np.testing.assert_array_equal(rec.tokens, expected)


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(2, 5),
    bits=st.sampled_from([16, 8, 4, 3]),
    kv_bits=st.sampled_from([16, 8, 4]),
    seed=st.integers(0, 2**31 - 1),
)
def test_fused_equals_generate_sweep(reference4, tiny4l, n, bits, kv_bits, seed):
    """Hypothesis sweep: batch size x weight bitwidth x kv_bits.  Fused
    serving must emit the fake-quantised reference's token streams."""
    w = Workload(prompt_len=10, gen_len=5, global_batch=8)
    plan = _plan(
        [(bits,) * 2, (bits,) * 2], [kv_bits, kv_bits], workload=w,
        model="tiny-4l",
    )
    requests = _mixed_requests(tiny4l, n=n, seed=seed)
    fused_report, fused_stats = _serve(reference4, plan, requests)
    assert len(fused_report.completed) == len(requests)
    _assert_fused_matches_oracle(
        reference4, requests, _streams(fused_report),
        _generate_streams(reference4, plan, requests),
    )
    assert fused_stats.fused_batch_max <= n


def test_fused_equals_per_request_mixed_kv_and_bits(
    reference, tiny8l, workload12
):
    """Mixed per-stage weight bits (8/4/16) and kv_bits (4/8/16) side by
    side: fused streams equal the batch-1-message oracle."""
    plan = _plan(
        [(8,) * 3, (4,) * 3, (16,) * 2], [4, 8, 16], workload=workload12
    )
    requests = _mixed_requests(tiny8l, n=6, seed=41)
    fused_report, _ = _serve(reference, plan, requests)
    assert len(fused_report.completed) == len(requests)
    _assert_fused_matches_oracle(
        reference, requests, _streams(fused_report),
        spec_serve_per_request(reference, plan, requests),
    )


def test_fused_with_staggered_arrivals(reference, tiny8l, workload12):
    """Prefills joining mid-flight co-batch with in-flight decodes: the
    mixed prefill+fused-decode iteration must not perturb streams."""
    requests = _mixed_requests(tiny8l, n=6, seed=13, gap=0.01)
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    fused_report, stats = _serve(reference, plan, requests)
    assert len(fused_report.completed) == len(requests)
    assert stats.fused_iterations > 0
    want = _generate_streams(reference, plan, requests)
    _assert_fused_matches_oracle(
        reference, requests, _streams(fused_report), want
    )
    _assert_fused_matches_oracle(
        reference, requests, spec_serve_per_request(reference, plan, requests), want
    )


def test_fused_sixteen_wide_batch(reference, tiny8l):
    """Sixteen simultaneous long generations decode as one 16-row batch
    from the second token on, and every stream still equals both
    oracles."""
    gen = 24
    plan = _plan(
        [(16,) * 4, (16,) * 4],
        workload=Workload(prompt_len=12, gen_len=gen, global_batch=8),
    )
    rng = np.random.default_rng(13)
    requests = [
        ServeRequest(
            request_id=i,
            prompt=rng.integers(
                0, tiny8l.vocab_size, size=int(rng.integers(6, 11)), dtype=np.int64
            ),
            gen_len=gen,
        )
        for i in range(16)
    ]
    report, stats = _serve(reference, plan, requests)
    assert len(report.completed) == 16
    assert stats.fused_batch_max == 16
    want = _generate_streams(reference, plan, requests)
    _assert_fused_matches_oracle(reference, requests, _streams(report), want)
    _assert_fused_matches_oracle(
        reference, requests, spec_serve_per_request(reference, plan, requests), want
    )


# ---------------------------------------------------------------------------
# deterministic tie-break (shared by reference model and runtime)
# ---------------------------------------------------------------------------


def test_greedy_pick_breaks_ties_on_lowest_index():
    """An explicit logit tie: both tied maxima, lowest index must win —
    and the rule must be exactly ``np.argmax`` semantics."""
    logits = np.array(
        [
            [1.0, 3.0, 3.0, 2.0],   # tie between 1 and 2 -> 1
            [5.0, 5.0, 5.0, 5.0],   # all tied -> 0
            [-1.0, -2.0, -1.0, -9.0],  # tie between 0 and 2 -> 0
        ]
    )
    picked = greedy_pick(logits)
    np.testing.assert_array_equal(picked, [1, 0, 0])
    np.testing.assert_array_equal(picked, logits.argmax(axis=-1))
    # tied rows have an exactly-zero argmax margin
    np.testing.assert_array_equal(argmax_margin(logits), [0.0, 0.0, 0.0])
    assert argmax_margin(np.array([1.0, 4.0, 2.0]))[0] == pytest.approx(2.0)


def test_reference_and_runtime_share_tie_break(reference, tiny8l, workload12):
    """The reference greedy sampler and the scheduler resolve the same
    constructed tie the same way."""
    from repro.models.generation import _pick

    tie = np.array([[2.0, 7.5, 7.5, 0.0]])
    rng = np.random.default_rng(0)
    assert int(_pick(tie, True, rng)[0]) == int(greedy_pick(tie)[0]) == 1
    # end to end: fused, batch-1 messages and the single-process
    # reference all walk through greedy_pick, so one request's stream is
    # identical in all three (the sweep above covers multi-request; this
    # pins n=1)
    req = _mixed_requests(tiny8l, n=1, seed=2)[0]
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    expected = generate(
        reference, np.asarray(req.prompt)[None, :], req.gen_len
    ).tokens[0]
    report, _ = _serve(reference, plan, [req])
    np.testing.assert_array_equal(report.completed[0].tokens, expected)
    np.testing.assert_array_equal(
        spec_serve_per_request(reference, plan, [req])[req.request_id], expected
    )


# ---------------------------------------------------------------------------
# BatchedKVView: batched append/gather bit-exact vs looped batch-1 ops
# ---------------------------------------------------------------------------


def _manager(kv_bits, *, num_layers=2, hidden=8, heads=2):
    return StageKVManager(
        num_layers=num_layers, hidden_size=hidden,
        kv_bits=kv_bits, num_heads=heads,
    )


@pytest.mark.parametrize("kv_bits", [16, 8, 4])
def test_batched_view_bitexact_vs_looped_appends(kv_bits):
    """One batched append == B separate batch-1 appends, bit for bit,
    on ragged-length units; padded tail rows read back as exact zeros."""
    rng = np.random.default_rng(5)
    L, H, heads, max_len = 2, 8, 2, 10
    lens = [3, 1, 5]
    batched = _manager(kv_bits, num_layers=L, hidden=H, heads=heads)
    looped = _manager(kv_bits, num_layers=L, hidden=H, heads=heads)
    prompts_kv = {}
    for u, s in enumerate(lens):
        batched.allocate(u, 1, max_len)
        looped.allocate(u, 1, max_len)
        prompts_kv[u] = [
            (rng.normal(size=(1, s, H)) * 3.0, rng.normal(size=(1, s, H)))
            for _ in range(L)
        ]
        for li, (k, v) in enumerate(prompts_kv[u]):
            batched.get(u).append(li, k, v, 0)
            looped.get(u).append(li, k, v, 0)
        batched.get(u).length = looped.get(u).length = s

    starts = np.array(lens, dtype=np.int64)
    view = batched.batch_view((0, 1, 2), starts)
    new = {
        li: (rng.normal(size=(3, 1, H)) * 2.0, rng.normal(size=(3, 1, H)))
        for li in range(L)
    }
    for li, (k, v) in new.items():
        view.append(li, k, v)
        k_pad, v_pad, scales = view.read_padded(li)
        if kv_bits < 16:  # packed reads return codes: dequantize them here
            k_pad, v_pad = (
                dequantize_kv(c, s, heads) for c, s in zip((k_pad, v_pad), scales)
            )
        # per-request looped reference: batch-1 append at that unit's start
        for i, u in enumerate((0, 1, 2)):
            looped.get(u).append(li, k[i : i + 1], v[i : i + 1], lens[u])
            kr, vr = looped.get(u).read(li, lens[u] + 1)
            np.testing.assert_array_equal(k_pad[i, : lens[u] + 1], kr[0])
            np.testing.assert_array_equal(v_pad[i, : lens[u] + 1], vr[0])
            # padding beyond the request's length is exactly zero
            np.testing.assert_array_equal(
                k_pad[i, lens[u] + 1 :], np.zeros_like(k_pad[i, lens[u] + 1 :])
            )
            np.testing.assert_array_equal(
                v_pad[i, lens[u] + 1 :], np.zeros_like(v_pad[i, lens[u] + 1 :])
            )
    for u, s in enumerate(lens):
        assert batched.get(u).length == s + 1
        if kv_bits < 16:
            np.testing.assert_array_equal(
                batched.get(u).k_codes, looped.get(u).k_codes
            )
            np.testing.assert_array_equal(
                batched.get(u).k_scales, looped.get(u).k_scales
            )
        else:
            np.testing.assert_array_equal(batched.get(u).k, looped.get(u).k)
            np.testing.assert_array_equal(batched.get(u).v, looped.get(u).v)


def test_batched_view_validation():
    m = _manager(16)
    m.allocate(0, 1, 4)
    with pytest.raises(ValueError, match="at least one"):
        m.batch_view((), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="starts"):
        m.batch_view((0,), np.array([[1]], dtype=np.int64))
    with pytest.raises(ValueError, match="overflow"):
        m.batch_view((0,), np.array([4], dtype=np.int64))
    with pytest.raises(KeyError, match="unit 9"):
        m.batch_view((0, 9), np.array([1, 1], dtype=np.int64))
    m.allocate(1, 2, 4)
    with pytest.raises(ValueError, match="one entry per cache unit row"):
        m.batch_view((0, 1), np.array([1, 1], dtype=np.int64))
    with pytest.raises(ValueError, match="overflow"):  # unit 1's second row
        m.batch_view((0, 1), np.array([1, 1, 4], dtype=np.int64))
    m.batch_view((0, 1), np.array([1, 1, 3], dtype=np.int64))
    # loose units: one storage type, and never the fake-quant oracle
    dense = KVCache.allocate(1, 1, 4, 8)
    packed = QuantizedKVCache.allocate(1, 1, 4, 8, kv_bits=4, num_heads=2)
    fake = FakeQuantKVCache.allocate_quant(1, 1, 4, 8, kv_bits=4, num_heads=2)
    for units in ([dense, packed], [fake, fake]):
        with pytest.raises(ValueError, match="share one storage type"):
            BatchedKVView(units, np.array([0, 0], dtype=np.int64))
    with pytest.raises(ValueError, match="at least one"):
        BatchedKVView([], np.array([], dtype=np.int64))


@pytest.mark.parametrize("kv_bits", [16, 4])
def test_reservation_bound_enforced_inside_wider_slab(kv_bits):
    """The slab is as wide as the longest unit, so a short unit's row has
    spare slots the ledger never charged: a fused step must not write
    there."""
    m = _manager(kv_bits)
    m.allocate(0, 1, 4)
    m.allocate(1, 1, 12)
    assert m.slab.max_len >= 12
    m.batch_view((0, 1), np.array([3, 11], dtype=np.int64))  # both at their last slot
    for starts in ([4, 5], [3, 12]):
        with pytest.raises(ValueError, match="overflow: reserve s \\+ n"):
            m.batch_view((0, 1), np.array(starts, dtype=np.int64))
    with pytest.raises(ValueError, match="overflow"):
        m.get(0).append(0, np.zeros((1, 1, 8)), np.zeros((1, 1, 8)), 4)


# ---------------------------------------------------------------------------
# fused counters
# ---------------------------------------------------------------------------


def test_fused_counters_account_for_weight_stream(reference, tiny8l, workload12):
    """``fused_weight_bytes_saved`` must equal ``(sum(B_i) - iterations)
    * total weight bytes`` — one stream per iteration instead of B."""
    plan = _plan([(8,) * 4, (4,) * 4], workload=workload12)
    requests = _mixed_requests(tiny8l, n=5, seed=19)
    _, stats = _serve(reference, plan, requests)
    assert stats.fused_iterations > 0
    assert 1.0 <= stats.fused_batch_mean <= stats.fused_batch_max <= 5
    w_total = sum(
        tiny8l.layer_weight_bytes(b)
        for sp in plan.stages
        for b in sp.layer_bits
    )
    expected = (stats.fused_batch_sum - stats.fused_iterations) * w_total
    assert stats.fused_weight_bytes_saved == pytest.approx(expected)
