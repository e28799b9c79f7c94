"""End-to-end fault injection + recovery tests (the issue's acceptance
criteria): a supervised runtime under deterministic faults must keep
serving token-for-token identically to the single-process reference —
or fail cleanly when told not to recover."""

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate, make_corpus
from repro.runtime import (
    FaultInjector,
    KVAllocPressure,
    MessageCorruption,
    MessageDrop,
    PipelineRuntime,
    StageCrash,
    Straggler,
    SupervisionConfig,
)
from repro.workload import Workload

GEN = 6


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
    return Workload(prompt_len=12, gen_len=GEN, global_batch=8)


@pytest.fixture(scope="module")
def expected(reference, prompts):
    return generate(reference, prompts, GEN).tokens


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_mid_pipeline_crash_during_decode_recovers_exactly(
    request, model, prompts, workload8
):
    """The headline acceptance test: a seeded injector kills the middle
    stage mid-decode; the runtime restarts it from the cached shard
    within the retry bound and the tokens match the reference
    bit-for-bit (on ``sharp`` too, whose streams would show a replay
    from the wrong KV history)."""
    model = request.getfixturevalue(model)
    expected = generate(model, prompts, GEN).tokens
    # 3 stages, mb_p=2 -> 4 prefill activations per stage; mb_d=4 -> 2
    # decode groups per step.  Message 6 at stage 1 is therefore the
    # second decode group of step 1: squarely mid-decode.
    plan = _plan([(16,) * 3, (16,) * 3, (16,) * 2], 2, 4, workload=workload8)
    inj = FaultInjector([StageCrash(stage=1, at=6)], seed=0)
    with PipelineRuntime(model, plan, fault_injector=inj) as rt:
        out = rt.generate(prompts, GEN)
    np.testing.assert_array_equal(out, expected)
    assert inj.fired == [("crash", 1, 6)]
    assert 1 <= rt.stats.retries <= rt.supervision.max_retries
    assert rt.stats.stage_restarts >= 1
    assert rt.stats.replayed_microbatches >= 1
    assert rt.stats.recovery_seconds > 0


def test_straggler_is_tolerated_without_retries(
    reference, prompts, workload8, expected
):
    """A slow-but-alive stage must not trip the progress deadline."""
    plan = _plan([(16,) * 4, (16,) * 4], 2, 4, workload=workload8)
    inj = FaultInjector([Straggler(stage=0, delay=0.02, every=3)])
    with PipelineRuntime(
        reference, plan, fault_injector=inj,
        supervision=SupervisionConfig(queue_timeout=5.0),
    ) as rt:
        out = rt.generate(prompts, GEN)
    np.testing.assert_array_equal(out, expected)
    assert rt.stats.retries == 0
    assert any(f[0] == "slow" for f in inj.fired)


def test_dropped_message_detected_as_stall_and_replayed(
    reference, prompts, workload8, expected
):
    """A silently dropped activation never produces a FailureMessage;
    the bounded progress deadline catches it and the batch replays."""
    plan = _plan([(16,) * 4, (16,) * 4], 2, 4, workload=workload8)
    inj = FaultInjector([MessageDrop(stage=1, at=3)])
    with PipelineRuntime(
        reference, plan, fault_injector=inj,
        supervision=SupervisionConfig(queue_timeout=1.0),
    ) as rt:
        out = rt.generate(prompts, GEN)
    np.testing.assert_array_equal(out, expected)
    assert rt.stats.retries >= 1
    assert ("drop", 1, 3) in inj.fired


def test_kv_pressure_below_the_group_no_longer_denies_generate(
    reference, prompts, workload8, expected, tiny8l
):
    """A KV cap that fits every prefill unit but not a whole decode group
    denies nothing: the group decodes over its units' slab rows in
    place, so one group serves and the tokens equal ``generate()``."""
    # per-unit KV bytes on a 4-layer stage: 2 (k+v) x layers x batch x
    # (s + n) x hidden x 8 bytes (float64)
    unit = 2 * 4 * 2 * (12 + GEN) * tiny8l.hidden_size * 8
    # cap at 2.5 units: each mb_p=2 unit fits; the mb_d=8 group is 4 units
    plan = _plan([(16,) * 4, (16,) * 4], 2, 8, workload=workload8)
    inj = FaultInjector([KVAllocPressure(stage=0, max_bytes=2.5 * unit)])
    with PipelineRuntime(reference, plan, fault_injector=inj) as rt:
        out = rt.generate(prompts, GEN)
    np.testing.assert_array_equal(out, expected)
    assert rt.stats.kv_alloc_failures == 0
    assert rt.stats.retries == 0
    assert rt.stats.decode_groups == 1
    assert inj.fired == []


def _unit_bytes(cfg):
    """KV bytes of one mb_p=2 prefill unit on a 4-layer stage: 2 (k+v) x
    layers x batch x (s + n) x hidden x 8 bytes (float64)."""
    return 2 * 4 * 2 * (12 + GEN) * cfg.hidden_size * 8


def test_permanent_kv_denial_is_not_retried(reference, prompts, workload8, tiny8l):
    """A cap below one prefill unit's charge with no ``fail_count``
    denies the same request on every attempt: the ladder takes no retry
    rung — one denial, no restart — and with replanning off fails
    cleanly at once."""
    plan = _plan([(16,) * 4, (16,) * 4], 2, 8, workload=workload8)
    inj = FaultInjector(
        [KVAllocPressure(stage=0, max_bytes=0.5 * _unit_bytes(tiny8l))]
    )
    rt = PipelineRuntime(reference, plan, fault_injector=inj)
    try:
        with pytest.raises(RuntimeError, match="stage 0 failed"):
            rt.generate(prompts, GEN)
        assert rt.stats.kv_alloc_failures == 1
        assert rt.stats.stage_restarts == 0
        assert rt.stats.replans == 0
    finally:
        rt.shutdown()


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_permanent_kv_denial_replans_at_once(request, model, prompts, workload8, tiny8l):
    """With replanning on, a permanent KV denial skips the retry rung
    and adopts the degraded plan straight away: the denying stage's
    device leaves, its layers move to the survivor, and the tokens equal
    ``generate()``."""
    model = request.getfixturevalue(model)
    expected = generate(model, prompts, GEN).tokens
    plan = _plan([(16,) * 4, (16,) * 4], 2, 8, workload=workload8)
    inj = FaultInjector(
        [KVAllocPressure(stage=0, max_bytes=0.5 * _unit_bytes(tiny8l))]
    )
    sup = SupervisionConfig(replan_on_permanent_failure=True, queue_timeout=5.0)
    with PipelineRuntime(model, plan, fault_injector=inj, supervision=sup) as rt:
        out = rt.generate(prompts, GEN)
    np.testing.assert_array_equal(out, expected)
    assert rt.plan.num_stages == 1
    assert rt.plan.meta.get("replanned_after_stage_failure") == 0
    assert rt.stats.kv_alloc_failures == 1
    assert rt.stats.replans == 1
    assert rt.stats.stage_restarts == 1


def test_transient_kv_denial_recovers_by_one_retry(
    reference, prompts, workload8, expected, tiny8l
):
    """The same cap with ``fail_count=1`` denies once: the ladder's retry
    rung re-serves the batch on the same plan."""
    plan = _plan([(16,) * 4, (16,) * 4], 2, 8, workload=workload8)
    inj = FaultInjector([
        KVAllocPressure(stage=0, max_bytes=0.5 * _unit_bytes(tiny8l), fail_count=1)
    ])
    with PipelineRuntime(reference, plan, fault_injector=inj) as rt:
        out = rt.generate(prompts, GEN)
    np.testing.assert_array_equal(out, expected)
    assert rt.stats.kv_alloc_failures == 1
    assert rt.stats.retries == 1
    assert rt.stats.replans == 0
    assert rt.plan is rt.original_plan


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_permanent_stage_loss_triggers_replan(request, model, prompts, workload8):
    """A stage that dies on every restart exhausts its retries; with
    replanning enabled the runtime drops the dead device, redistributes
    its layers to the neighbours and completes on the downgraded plan."""
    model = request.getfixturevalue(model)
    expected = generate(model, prompts, GEN).tokens
    plan = _plan([(16,) * 3, (16,) * 3, (16,) * 2], 2, 4, workload=workload8)
    inj = FaultInjector([StageCrash(stage=1, at=1, repeat=True)])
    sup = SupervisionConfig(
        replan_on_permanent_failure=True, max_retries=1, queue_timeout=5.0
    )
    with PipelineRuntime(model, plan, fault_injector=inj, supervision=sup) as rt:
        out = rt.generate(prompts, GEN)
    np.testing.assert_array_equal(out, expected)  # per-layer bits preserved
    assert rt.stats.replans == 1
    assert rt.plan.num_stages == 2
    assert rt.plan is not rt.original_plan
    assert rt.original_plan.num_stages == 3
    assert rt.plan.meta.get("replanned_after_stage_failure") == 1
    # every layer kept its quantization recipe across the re-cut
    assert [b for st in rt.plan.stages for b in st.layer_bits] == [16] * 8


def test_permanent_loss_without_replan_fails_cleanly(
    reference, prompts, workload8
):
    """With replanning off, the exhausted ladder surfaces a clean
    RuntimeError within the timeout instead of deadlocking."""
    plan = _plan([(16,) * 4, (16,) * 4], 2, 4, workload=workload8)
    inj = FaultInjector([StageCrash(stage=1, at=1, repeat=True)])
    sup = SupervisionConfig(max_retries=1, queue_timeout=5.0)
    rt = PipelineRuntime(reference, plan, fault_injector=inj, supervision=sup)
    try:
        with pytest.raises(RuntimeError, match="stage 1 failed"):
            rt.generate(prompts, GEN)
        assert rt.stats.retries == 2  # max_retries + the escalating one
        with pytest.raises(RuntimeError, match="shut down"):
            rt.generate(prompts, GEN)
    finally:
        rt.shutdown()


def test_corruption_changes_tokens_deterministically(
    reference, prompts, workload8, expected
):
    """Corrupted activations are not detected (no retry) but the damage
    is seeded: two runs with the same injector seed agree with each
    other while disagreeing with the clean reference."""
    plan = _plan([(16,) * 4, (16,) * 4], 2, 4, workload=workload8)

    def run(seed):
        inj = FaultInjector([MessageCorruption(stage=0, at=2)], seed=seed)
        with PipelineRuntime(reference, plan, fault_injector=inj) as rt:
            out = rt.generate(prompts, GEN)
        assert rt.stats.retries == 0
        return out

    a, b = run(11), run(11)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, expected)


def test_injected_crash_with_recovery_disabled_raises(
    reference, prompts, workload8
):
    plan = _plan([(16,) * 4, (16,) * 4], 2, 4, workload=workload8)
    inj = FaultInjector([StageCrash(stage=0, at=1)])
    rt = PipelineRuntime(
        reference, plan, fault_injector=inj,
        supervision=SupervisionConfig(enable_recovery=False, queue_timeout=5.0),
    )
    try:
        with pytest.raises(RuntimeError, match="failed"):
            rt.generate(prompts, GEN)
    finally:
        rt.shutdown()
