"""Integration tests: the thread-pipelined runtime vs the reference model."""

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate, make_corpus
from repro.runtime import PipelineRuntime
from repro.workload import Workload


def _dev(i):
    return Device(get_gpu("T4-16G"), node_id=0, local_rank=i)


def _plan(bits_per_stage, mb_p, mb_d, *, workload):
    stages = tuple(
        StagePlan(_dev(i), tuple(bits)) for i, bits in enumerate(bits_per_stage)
    )
    return ExecutionPlan(
        model_name="tiny-8l", stages=stages,
        prefill_microbatch=mb_p, decode_microbatch=mb_d, workload=workload,
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


_SCHEDULES = [(2, 4), (1, 8), (4, 4), (8, 8), (2, 2)]


@pytest.mark.parametrize(
    "model,mb_p,mb_d",
    [pytest.param("reference", p, d, id=f"{p}-{d}") for p, d in _SCHEDULES]
    + [pytest.param("sharp", p, d, id=f"sharp-{p}-{d}") for p, d in _SCHEDULES],
)
def test_fp16_pipeline_matches_reference_exactly(
    request, model, prompts, workload8, mb_p, mb_d
):
    """All-FP16 pipelined execution must be token-identical to the
    single-process reference, regardless of micro-batch schedule (on
    ``sharp`` too, whose greedy streams would show a row reading another
    row's KV)."""
    model = request.getfixturevalue(model)
    plan = _plan([(16,) * 3, (16,) * 3, (16,) * 2], mb_p, mb_d, workload=workload8)
    with PipelineRuntime(model, plan) as rt:
        out = rt.generate(prompts, 6)
    expected = generate(model, prompts, 6).tokens
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_single_stage_plan(request, model, prompts, workload8):
    model = request.getfixturevalue(model)
    plan = _plan([(16,) * 8], 4, 8, workload=workload8)
    with PipelineRuntime(model, plan) as rt:
        out = rt.generate(prompts, 4)
    expected = generate(model, prompts, 4).tokens
    np.testing.assert_array_equal(out, expected)


def test_quantized_pipeline_runs_and_stats(reference, prompts, workload8):
    plan = _plan([(8,) * 3, (4,) * 3, (16,) * 2], 2, 4, workload=workload8)
    with PipelineRuntime(reference, plan) as rt:
        out = rt.generate(prompts, 5)
        stats = rt.stats
    assert out.shape == (8, 5)
    assert stats.prefill_microbatches == 4
    assert stats.decode_groups == 2
    assert stats.tokens_generated == 40
    assert stats.total_seconds > 0


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_quantized_matches_fake_quant_reference(request, model, prompts, workload8):
    """The runtime's quantized execution must equal a single-process model
    whose layers were fake-quantized with the same recipe."""
    from repro.quant import quantize_dequantize

    model = request.getfixturevalue(model)
    layer_bits = [8, 8, 8, 4, 4, 4, 16, 16]
    plan = _plan([(8,) * 3, (4,) * 3, (16,) * 2], 2, 4, workload=workload8)
    # hand-build the equivalent single-process model
    fq = model.clone()
    for i, b in enumerate(layer_bits):
        if b < 16:
            fq.apply_to_layer(i, lambda _n, w, b=b: quantize_dequantize(w, b))
    with PipelineRuntime(model, plan) as rt:
        out = rt.generate(prompts, 5)
    expected = generate(fq, prompts, 5).tokens
    np.testing.assert_array_equal(out, expected)


def test_runtime_reusable_across_batches(reference, prompts, workload8):
    plan = _plan([(16,) * 4, (16,) * 4], 4, 8, workload=workload8)
    with PipelineRuntime(reference, plan) as rt:
        a = rt.generate(prompts, 3)
        b = rt.generate(prompts, 3)
    np.testing.assert_array_equal(a, b)


def test_shutdown_idempotent(reference, workload8):
    plan = _plan([(16,) * 8], 4, 8, workload=workload8)
    rt = PipelineRuntime(reference, plan)
    rt.shutdown()
    rt.shutdown()  # no-op
    with pytest.raises(RuntimeError, match="shut down"):
        rt.generate(np.zeros((4, 12), dtype=np.int64), 2)


def test_config_mismatch_rejected(tiny4l, workload8):
    wrong_ref = TinyDecoderLM(tiny4l)
    plan = _plan([(16,) * 8], 4, 8, workload=workload8)
    with pytest.raises(ValueError, match="configs differ"):
        PipelineRuntime(wrong_ref, plan)


def test_generate_validation(reference, prompts, workload8):
    plan = _plan([(16,) * 8], 4, 8, workload=workload8)
    with PipelineRuntime(reference, plan) as rt:
        with pytest.raises(ValueError, match="positive"):
            rt.generate(prompts, 0)


def test_kv_peak_matches_cost_model(reference, prompts, workload8, tiny8l):
    """The runtime's measured peak KV bytes per stage must match the
    analytical model: layers x batch x (s + n) x 2 x hidden x 8 bytes
    (the NumPy runtime stores KV in float64)."""
    plan = _plan([(16,) * 4, (16,) * 4], 4, 8, workload=workload8)
    rt = PipelineRuntime(reference, plan)
    try:
        rt.generate(prompts, 6)
        for w in rt.workers:
            expected = 4 * 8 * (12 + 6) * 2 * tiny8l.hidden_size * 8
            assert w.kv.peak_bytes == expected
    finally:
        rt.shutdown()


def test_offline_decode_groups_read_slab_slices(reference, prompts, workload8):
    """mb_p=2, mb_d=8: each decode step is one fused message over the
    rows of four prefill units, which sit next to each other in the slab
    — every fused read is a slice, none gathers.  Streams are sampled:
    this model's greedy stream repeats each prompt's last token whatever
    the KV holds, so only a sampled one shows a row reading another's."""
    plan = _plan([(16,) * 4, (16,) * 4], 2, 8, workload=workload8)
    with PipelineRuntime(reference, plan) as rt:
        out = rt.generate(prompts, 6, greedy=False, seed=1)
        stats = rt.stats
    want = generate(reference, prompts, 6, greedy=False, seed=1).tokens
    assert (want != prompts[:, -1:]).any()
    np.testing.assert_array_equal(out, want)
    assert stats.decode_groups == 1
    assert stats.kv_view_steps == 2 * 5  # two stages, five decode steps
    assert stats.kv_gather_steps == 0


def test_supervised_recovery_after_stage_failure(reference, prompts, workload8):
    """Crash a stage with a malformed message: the supervised runtime
    restarts the stage from its cached shard and serves token-exactly."""
    from repro.runtime.messages import ActivationMessage

    plan = _plan([(16,) * 4, (16,) * 4], 4, 8, workload=workload8)
    rt = PipelineRuntime(reference, plan)
    try:
        before = rt.generate(prompts, 4)
        # poison: decode against a never-allocated cache unit
        rt.queues[0].put(
            ActivationMessage(4242, "decode", 3,
                              np.zeros((1, 1, reference.cfg.hidden_size)))
        )
        rt.workers[0].join(timeout=5.0)
        assert rt.workers[0].error is not None
        after = rt.generate(prompts, 4)  # auto-recovers and replays
        np.testing.assert_array_equal(after, before)
        assert rt.stats.retries >= 1
        assert rt.stats.stage_restarts >= 1
    finally:
        rt.shutdown()


def test_failure_without_recovery_raises_cleanly(reference, prompts, workload8):
    """With recovery disabled a poisoned pipeline fails fast with a clean
    RuntimeError (and the master never deadlocks on the dead stage)."""
    from repro.runtime.engine import SupervisionConfig
    from repro.runtime.messages import ActivationMessage

    plan = _plan([(16,) * 4, (16,) * 4], 4, 8, workload=workload8)
    rt = PipelineRuntime(
        reference, plan,
        supervision=SupervisionConfig(enable_recovery=False, queue_timeout=5.0),
    )
    try:
        rt.queues[0].put(
            ActivationMessage(4242, "decode", 3,
                              np.zeros((1, 1, reference.cfg.hidden_size)))
        )
        rt.workers[0].join(timeout=5.0)
        with pytest.raises(RuntimeError, match="failed"):
            rt.generate(prompts, 4)
        # the runtime is dead afterwards, not wedged
        with pytest.raises(RuntimeError, match="shut down"):
            rt.generate(prompts, 4)
    finally:
        rt.shutdown()


def test_manual_recover_still_works(reference, prompts, workload8):
    """The public recover() hook rebuilds a healthy pipeline on demand."""
    plan = _plan([(16,) * 4, (16,) * 4], 4, 8, workload=workload8)
    rt = PipelineRuntime(reference, plan)
    try:
        before = rt.generate(prompts, 4)
        rt.recover()
        after = rt.generate(prompts, 4)
        np.testing.assert_array_equal(after, before)
    finally:
        rt.shutdown()
