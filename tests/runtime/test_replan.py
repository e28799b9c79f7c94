"""Drift detection + live migration tests: detector unit behaviour, the
scheduler's migration byte-identity contract (including a migration
racing an injected crash), wave-policy migration and crash recovery, and
drift-driven refits end to end."""

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.cost.stagecosts import StageCostModel
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate
from repro.runtime import (
    ContinuousScheduler,
    DriftConfig,
    DriftDetector,
    FaultInjector,
    KVAllocPressure,
    PipelineRuntime,
    ServeRequest,
    StageCrash,
    SupervisionConfig,
    workload_refit_replanner,
)
from repro.workload import Workload


def _dev(i):
    return Device(get_gpu("T4-16G"), node_id=0, local_rank=i)


def _plan(bits_per_stage, *, workload):
    stages = tuple(
        StagePlan(_dev(i), tuple(bits)) for i, bits in enumerate(bits_per_stage)
    )
    return ExecutionPlan(
        model_name="tiny-8l", stages=stages,
        prefill_microbatch=2, decode_microbatch=4, workload=workload,
    )


@pytest.fixture(scope="module")
def reference(tiny8l):
    return TinyDecoderLM(tiny8l, seed=3)


@pytest.fixture(scope="module")
def workload12():
    return Workload(prompt_len=12, gen_len=8, global_batch=8)


def _uniform_requests(cfg, *, n=4, s=8, g=6, seed=7, gap=0.0):
    rng = np.random.default_rng(seed)
    return [
        ServeRequest(
            request_id=i,
            prompt=rng.integers(0, cfg.vocab_size, size=s, dtype=np.int64),
            gen_len=g, arrival=i * gap,
        )
        for i in range(n)
    ]


def _assert_streams_match(report, model, requests):
    """Every completed stream must equal the batch-1 single-process run."""
    by_id = {r.request_id: r for r in requests}
    assert report.completed, "nothing completed"
    for rec in report.completed:
        req = by_id[rec.request_id]
        expected = generate(
            model, np.asarray(req.prompt)[None, :], req.gen_len
        ).tokens[0]
        np.testing.assert_array_equal(rec.tokens, expected)


class TriggerAfter(ContinuousScheduler):
    """Request a live migration at the N-th token boundary."""

    def __init__(self, rt, *, new_plan, after, **kw):
        super().__init__(rt, **kw)
        self._migrate_to = new_plan
        self._after = after
        self._boundaries = 0

    def _boundary(self):
        self._boundaries += 1
        if self._boundaries == self._after and self._migrate_to is not None:
            self.request_migration(self._migrate_to)
            self._migrate_to = None
        super()._boundary()


# ---------------------------------------------------------------------------
# DriftDetector
# ---------------------------------------------------------------------------


def _feed(det, t0, t1, rate, s=8, g=4):
    times = []
    t = t0
    while t < t1:
        times.append(t)
        t += 1.0 / rate
    det.observe_arrivals(times, [s] * len(times), [g] * len(times))


def test_drift_config_validation():
    with pytest.raises(ValueError, match="window"):
        DriftConfig(window=0)
    with pytest.raises(ValueError, match="threshold"):
        DriftConfig(threshold=0)
    with pytest.raises(ValueError, match="hysteresis"):
        DriftConfig(hysteresis=0)
    with pytest.raises(ValueError, match="cooldown"):
        DriftConfig(cooldown=-1)
    with pytest.raises(ValueError, match="min_requests"):
        DriftConfig(min_requests=0)
    with pytest.raises(ValueError, match="rebuild_seconds"):
        DriftConfig(rebuild_seconds=-0.1)
    # NaN fails every comparison, so each float field would otherwise
    # slip past its check and silently disable detection (or, for the
    # rebuild pause, poison the clock); an infinite window never closes
    nan, inf = float("nan"), float("inf")
    for field in ("window", "threshold", "cooldown", "rebuild_seconds"):
        with pytest.raises(ValueError, match=field):
            DriftConfig(**{field: nan})
    for field in ("window", "rebuild_seconds"):
        with pytest.raises(ValueError, match=field):
            DriftConfig(**{field: inf})
    # the fleet autoscaler's estimate-only detector never fires
    assert DriftConfig(threshold=inf).threshold == inf


def test_detector_rate_drift_needs_hysteresis():
    det = DriftDetector(DriftConfig(
        window=1.0, threshold=0.5, hysteresis=2, cooldown=0.0, min_requests=3
    ))
    _feed(det, 0.0, 1.0, rate=4)
    assert det.poll(1.0) is None  # first window only calibrates
    _feed(det, 1.0, 2.0, rate=12)
    assert det.poll(2.0) is None  # one drifted window < hysteresis
    _feed(det, 2.0, 3.0, rate=12)
    est = det.poll(3.0)
    assert est is not None and est.reason == "drift:rate"
    assert est.score >= 0.5
    assert est.arrival_rate > 4.0
    assert det.triggers == 1 and det.windows_closed == 3


def test_detector_streak_resets_on_calm_window():
    det = DriftDetector(DriftConfig(
        window=1.0, threshold=0.5, hysteresis=2, cooldown=0.0, min_requests=3
    ))
    _feed(det, 0.0, 1.0, rate=4)
    det.poll(1.0)
    _feed(det, 1.0, 2.0, rate=12)   # drifted
    _feed(det, 2.0, 3.0, rate=4)    # back to normal: streak resets
    _feed(det, 3.0, 4.0, rate=12)   # drifted again — still only 1 in a row
    assert det.poll(4.0) is None
    assert det.triggers == 0


def test_detector_length_drift_axis():
    det = DriftDetector(DriftConfig(
        window=1.0, threshold=0.5, hysteresis=1, cooldown=0.0, min_requests=3
    ))
    _feed(det, 0.0, 1.0, rate=6, s=8)
    det.poll(1.0)
    _feed(det, 1.0, 2.0, rate=6, s=32)  # same rate, 4x prompts
    est = det.poll(2.0)
    assert est is not None and est.reason == "drift:prompt"
    assert est.p90_prompt >= 24


def test_detector_cooldown_suppresses_retrigger():
    det = DriftDetector(DriftConfig(
        window=1.0, threshold=0.5, hysteresis=1, cooldown=100.0, min_requests=3
    ))
    _feed(det, 0.0, 1.0, rate=4)
    det.poll(1.0)
    det._last_trigger = 1.0  # as if a trigger just fired
    _feed(det, 1.0, 2.0, rate=12)
    assert det.poll(2.0) is None  # drifted, but inside the cooldown
    assert det.triggers == 0


def test_detector_device_loss_fires_immediately():
    det = DriftDetector(DriftConfig(window=10.0))
    det.observe_device_loss(2.5, 1)
    est = det.poll(2.5)  # no window closed, no baseline — still fires
    assert est is not None
    assert est.reason == "device-loss:stage1"
    assert est.score == float("inf")
    assert det.device_losses == 1
    assert det.poll(2.6) is None  # consumed


def test_detector_rebaseline_learns_new_regime():
    det = DriftDetector(DriftConfig(
        window=1.0, threshold=0.5, hysteresis=1, cooldown=0.0, min_requests=3
    ))
    _feed(det, 0.0, 1.0, rate=4)
    det.poll(1.0)
    _feed(det, 1.0, 2.0, rate=12)
    assert det.poll(2.0) is not None
    det.rebaseline(2.0)
    _feed(det, 2.0, 3.0, rate=12)
    det.poll(3.0)  # recalibrates on the new regime
    _feed(det, 3.0, 4.0, rate=12)
    assert det.poll(4.0) is None  # 12/s is the new normal
    assert det.triggers == 1


def test_suggested_workload_clamps_and_refit_replanner(workload12):
    from repro.runtime.replan import DriftEstimate

    est = DriftEstimate(
        at=1.0, arrival_rate=2.0, mean_prompt=3.0, p90_prompt=2,
        mean_gen=0.5, p90_gen=0, occupancy=0.1, score=1.0, reason="drift:rate",
    )
    wl = est.suggested_workload(workload12)
    assert wl == Workload(prompt_len=4, gen_len=1, global_batch=8)

    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    new = workload_refit_replanner(plan, est)
    assert new is not None
    assert new.workload == wl
    assert new.stages == plan.stages  # metadata-only switch
    assert new.meta.get("drift_refit") is True
    # a suggestion matching the declared workload is a no-op
    same = DriftEstimate(
        at=1.0, arrival_rate=2.0, mean_prompt=12.0, p90_prompt=12,
        mean_gen=8.0, p90_gen=8, occupancy=0.1, score=1.0, reason="drift:rate",
    )
    assert workload_refit_replanner(plan, same) is None


def test_held_unchanged_across_migration(reference, tiny8l, workload12):
    """A plan switch re-prices the token budget and moves no slot: the
    in-flight requests hold exactly what they held before, under the same
    unit ids, and the new budget is the new plan's."""
    plan3 = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    plan2 = _plan([(16,) * 4, (16,) * 4], workload=workload12)

    class Probe(TriggerAfter):
        def _boundary(self):
            before = (self.held, self.budget, self.live.tolist())
            super()._boundary()
            if self.migration_log and not hasattr(self, "switch"):
                self.switch = before, (self.held, self.budget, self.live.tolist())

    with PipelineRuntime(reference, plan3) as rt:
        sched = Probe(rt, new_plan=plan2, after=2)
        report = sched.serve(_uniform_requests(tiny8l))
        budget2 = StageCostModel(plan2, cfg=tiny8l).kv_token_budget(
            [c.budget_bytes for c in rt.dequant_caches]
        )
    (held0, budget0, ids0), (held1, budget1, ids1) = sched.switch
    assert held0 > 0 and held1 == held0 and ids1 == ids0
    assert budget1 == budget2 != budget0
    assert sched.held == 0 and len(report.completed) == 4


# ---------------------------------------------------------------------------
# Live migration on the real runtime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_manual_migration_streams_byte_identical(request, model, tiny8l, workload12):
    """The headline contract: a mid-flight repartition (3 -> 2 stages,
    bit-preserving) must not change a single token of any stream."""
    model = request.getfixturevalue(model)
    plan3 = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    plan2 = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _uniform_requests(tiny8l)
    with PipelineRuntime(model, plan3) as rt:
        sched = TriggerAfter(rt, new_plan=plan2, after=2)
        report = sched.serve(requests)
        assert rt.plan is plan2
    assert len(report.completed) == len(requests)
    assert report.rejected == []  # zero drops through the quiesce
    assert report.migrations == 1 and report.replans == 1
    assert report.replayed_tokens > 0
    assert report.replay_divergences == 0  # bit-preserving plan
    assert report.quiesce_seconds > 0
    rec = sched.migration_log[0]
    assert rec.rebuilt and rec.reason == "manual"
    assert rec.stages_before == 3 and rec.stages_after == 2
    assert rec.inflight == len(requests)
    _assert_streams_match(report, model, requests)


def test_quantized_migration_preserves_streams(reference, tiny8l, workload12):
    """Repartitioning a mixed-precision plan keeps per-layer bitwidths, so
    replayed streams still equal the fake-quant reference."""
    from repro.quant import quantize_dequantize

    layer_bits = [8, 8, 8, 4, 4, 4, 16, 16]
    plan3 = _plan([(8,) * 3, (4,) * 3, (16,) * 2], workload=workload12)
    plan2 = _plan([(8, 8, 8, 4), (4, 4, 16, 16)], workload=workload12)
    fq = reference.clone()
    for i, b in enumerate(layer_bits):
        if b < 16:
            fq.apply_to_layer(i, lambda _n, w, b=b: quantize_dequantize(w, b))
    requests = _uniform_requests(tiny8l, seed=23)
    with PipelineRuntime(reference, plan3) as rt:
        report = TriggerAfter(rt, new_plan=plan2, after=3).serve(requests)
    assert report.migrations == 1
    assert report.replay_divergences == 0
    _assert_streams_match(report, fq, requests)


def test_metadata_only_migration_skips_replay(reference, tiny8l, workload12):
    """Same partition + bitwidths: workers and KV survive, nothing is
    replayed, and the streams are untouched."""
    from dataclasses import replace

    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    refit = replace(plan, workload=Workload(8, 6, 4))
    requests = _uniform_requests(tiny8l, seed=5)
    with PipelineRuntime(reference, plan) as rt:
        sched = TriggerAfter(rt, new_plan=refit, after=2)
        report = sched.serve(requests)
        assert rt.plan is refit
    assert report.migrations == 1 and report.replans == 1
    assert report.replayed_tokens == 0
    assert sched.migration_log[0].rebuilt is False
    assert len(report.completed) == len(requests)
    _assert_streams_match(report, reference, requests)


def test_migration_racing_stage_crash(reference, tiny8l, workload12):
    """A stage crash striking *during* the migration replay must be
    absorbed by the crash ladder — same-plan forced migration — and the
    streams must still be byte-identical with nothing dropped."""
    plan3 = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    plan2 = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _uniform_requests(tiny8l)
    # the 2-stage plan has no stage 2, so stage 2's first work is the
    # boundary-2 migration's replay into the 3-stage plan: 4 prefills
    # (1-4), then the replay's one fused decode round (5)
    inj = FaultInjector([StageCrash(stage=2, at=5)], seed=0)
    with PipelineRuntime(reference, plan2, fault_injector=inj) as rt:
        sched = TriggerAfter(rt, new_plan=plan3, after=2)
        report = sched.serve(requests)
        assert rt.plan is plan3  # the interrupted migration still landed
    assert inj.fired == [("crash", 2, 5)]
    # the manual migration never completed: the crash hit its replay,
    # and the crash ladder's forced migration is the only one logged
    assert [r.reason for r in sched.migration_log] == ["crash-retry:stage2"]
    assert report.crash_recoveries == 1
    assert report.migrations >= 1
    assert report.replayed_tokens > 0
    assert report.replay_divergences == 0
    assert len(report.completed) == len(requests)
    assert report.rejected == []
    _assert_streams_match(report, reference, requests)


def _kv_rows(rt):
    """Every stage's live KV, per unit, up to its fill length."""
    return {
        (j, uid): (c.length, c.k[:, :, : c.length].copy(), c.v[:, :, : c.length].copy())
        for j, w in enumerate(rt.workers)
        for uid, c in w.kv.caches.items()
    }


class RebuildAt(ContinuousScheduler):
    """Force a same-plan migration (workers rebuilt, KV replayed) at the
    N-th token boundary, keeping every stage's KV from just before and
    just after it."""

    def __init__(self, rt, *, at, **kw):
        super().__init__(rt, **kw)
        self._at, self._boundaries, self.kv = at, 0, None

    def _boundary(self):
        self._boundaries += 1
        if self._boundaries == self._at:
            before = _kv_rows(self.rt)
            self.migrate(None, force_restart=True)
            self.kv = before, _kv_rows(self.rt)
        super()._boundary()


def test_replay_rebuilds_every_stages_kv(reference, tiny8l, workload12):
    """Staggered admissions leave in-flight requests at different token
    counts, so the replay's fused rounds cover shrinking request sets
    that differ from the batches that first decoded them.  The rebuilt
    KV of every unit on every stage equals what the rebuild lost, to
    the rounding of a differently composed GEMM — a check the greedy
    streams cannot make, as this model's greedy stream mostly repeats
    each prompt's last token whatever the KV holds."""
    requests = _uniform_requests(tiny8l, n=4, g=6, seed=19)
    requests[0] = ServeRequest(request_id=0, prompt=requests[0].prompt, gen_len=2)
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    with PipelineRuntime(reference, plan) as rt:
        sched = RebuildAt(rt, at=4, max_inflight=2)
        report = sched.serve(requests)
    before, after = sched.kv
    assert sorted(before) == sorted(after)
    assert len({uid for _, uid in before}) == 2
    # the two in-flight requests hold different token counts
    assert len({n for n, _, _ in before.values()}) == 2
    for key, (n, k, v) in before.items():
        n2, k2, v2 = after[key]
        assert n2 == n
        np.testing.assert_allclose(k2, k, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v2, v, rtol=1e-12, atol=1e-12)
    assert report.replayed_tokens > 0
    assert report.replay_divergences == 0
    assert len(report.completed) == len(requests)
    _assert_streams_match(report, reference, requests)


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_crash_recovery_through_controller(request, model, tiny8l, workload12):
    """A transient crash with no migration requested is recovered as a
    forced same-plan migration: KV replayed, nothing dropped."""
    model = request.getfixturevalue(model)
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _uniform_requests(tiny8l, seed=13)
    inj = FaultInjector([StageCrash(stage=1, at=6)], seed=0)
    with PipelineRuntime(model, plan, fault_injector=inj) as rt:
        sched = ContinuousScheduler(rt)
        report = sched.serve(requests)
        assert rt.stats.retries == 1
    assert report.crash_recoveries == 1
    assert report.migrations == 1 and report.replans == 0
    assert sched.migration_log[0].reason == "crash-retry:stage1"
    assert len(report.completed) == len(requests)
    _assert_streams_match(report, model, requests)


def test_permanent_stage_loss_online_adopts_degraded_plan(sharp, tiny8l, workload12):
    """A stage that dies on every restart under the continuous scheduler
    climbs the runtime's ladder to its replan rung, as offline
    ``generate`` does: the degraded plan is adopted mid-serve, the
    in-flight KV is replayed onto it, nothing is dropped, and the
    device loss reaches the drift detector."""
    plan = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    requests = _uniform_requests(tiny8l, seed=13)
    # stage 1 sees 4 prefills and then a decode per boundary: message 6
    # is the second decode; after the retry's restart, the replay takes
    # messages 1-5 and the next decode is message 6 again
    inj = FaultInjector([StageCrash(stage=1, at=6, repeat=True)], seed=0)
    sup = SupervisionConfig(
        replan_on_permanent_failure=True, max_retries=1, queue_timeout=5.0
    )
    with PipelineRuntime(sharp, plan, fault_injector=inj, supervision=sup) as rt:
        sched = ContinuousScheduler(rt, drift=DriftConfig())
        report = sched.serve(requests)
        assert rt.plan.num_stages == 2
        assert rt.plan.meta.get("replanned_after_stage_failure") == 1
        assert rt.stats.replans == report.replans == 1
        assert rt.stats.retries == 2  # max_retries + the escalating one
    assert [r.reason for r in sched.migration_log] == [
        "crash-retry:stage1", "crash:stage1",
    ]
    assert report.crash_recoveries == 2
    assert report.replayed_tokens > 0 and report.replay_divergences == 0
    assert sched.detector.device_losses == 1
    assert len(report.completed) == len(requests)
    assert report.rejected == []
    _assert_streams_match(report, sharp, requests)


def test_retry_budget_counts_consecutive_failures_online(sharp, tiny8l, workload12):
    """Two transient crashes on different stages, boundaries apart, under
    ``max_retries=1`` with replanning off: the boundaries served between
    them end the first failure run, so each is recovered by its own
    retry instead of the second exhausting a budget that spans the
    serve."""
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _uniform_requests(tiny8l, g=16, seed=13)
    # stage 0 dies at the second decode; after the restart stage 1 counts
    # afresh and dies at its 16th message, well past the replay
    inj = FaultInjector(
        [StageCrash(stage=0, at=6), StageCrash(stage=1, at=16)], seed=0
    )
    sup = SupervisionConfig(max_retries=1, queue_timeout=5.0)
    with PipelineRuntime(sharp, plan, fault_injector=inj, supervision=sup) as rt:
        sched = ContinuousScheduler(rt)
        report = sched.serve(requests)
        assert rt.stats.retries == 2
        assert rt.stats.replans == 0
    assert inj.fired == [("crash", 0, 6), ("crash", 1, 16)]
    assert report.crash_recoveries == 2 and report.replans == 0
    assert [r.reason for r in sched.migration_log] == [
        "crash-retry:stage0", "crash-retry:stage1",
    ]
    assert len(report.completed) == len(requests)
    _assert_streams_match(report, sharp, requests)


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_kv_denial_online_recovers_by_replay(request, model, tiny8l, workload12):
    """A KV allocation denied to a prefill mid-serve takes the same
    ladder step as a crash: counted as a KV denial and a retry, and
    recovered by a forced migration whose replay rebuilds the KV of the
    request still decoding."""
    model = request.getfixturevalue(model)
    rng = np.random.default_rng(23)
    requests = [
        ServeRequest(
            request_id=i,
            prompt=rng.integers(0, tiny8l.vocab_size, size=s, dtype=np.int64),
            gen_len=g,
        )
        for i, (s, g) in enumerate([(4, 2), (4, 6), (12, 6)])
    ]
    # two in flight: request 0 retires after boundary 2, so request 2's
    # prefill (12 + 6 slots) goes in at boundary 3 beside request 1's
    # decode; the cap (14 slots of a 4-layer stage) denies only it, once
    slot = 2 * 4 * tiny8l.hidden_size * 8
    inj = FaultInjector(
        [KVAllocPressure(stage=0, max_bytes=14 * slot, fail_count=1)], seed=0
    )
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    # no dequant cache: the worker has nothing to shed before denying
    with PipelineRuntime(
        model, plan, fault_injector=inj, dequant_cache_mb=0
    ) as rt:
        sched = ContinuousScheduler(rt, max_inflight=2)
        report = sched.serve(requests)
        assert rt.stats.kv_alloc_failures == 1
        assert rt.stats.retries == 1
        assert rt.stats.replans == 0
    assert [f[0] for f in inj.fired] == ["kvcap"]
    assert report.crash_recoveries == 1
    assert report.replayed_tokens == 2  # request 1's prefill token + 1 round
    assert report.replay_divergences == 0
    assert len(report.completed) == len(requests)
    _assert_streams_match(report, model, requests)


def test_drift_refit_end_to_end(reference, tiny8l, workload12):
    """Drift in the live trace (longer prompts, shorter generations than
    the plan declared) triggers a metadata-only refit mid-serve."""
    rng = np.random.default_rng(31)
    mk = lambda i, s, t: ServeRequest(
        request_id=i,
        prompt=rng.integers(0, tiny8l.vocab_size, size=s, dtype=np.int64),
        gen_len=3, arrival=t,
    )
    calm = [mk(i, 4, i * 0.5) for i in range(12)]
    drifted = [mk(12 + i, 12, 6.0 + i * 0.5) for i in range(12)]
    requests = calm + drifted
    drift = DriftConfig(
        window=2.0, threshold=0.6, hysteresis=1, cooldown=0.0, min_requests=3
    )
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    with PipelineRuntime(reference, plan) as rt:
        sched = ContinuousScheduler(
            rt, drift=drift, replanner=workload_refit_replanner
        )
        report = sched.serve(requests)
        assert rt.plan.meta.get("drift_refit") is True
        assert rt.plan.workload.gen_len == 3  # refit to the observed mix
    assert report.drift_triggers >= 1
    assert report.migrations >= 1 and report.replans >= 1
    assert report.replayed_tokens == 0  # refits never re-cut shards
    assert len(report.completed) == len(requests)
    assert report.rejected == []
    _assert_streams_match(report, reference, requests)


def _wave_requests(cfg, *, seed=41):
    """Six requests of mixed prompt and generation lengths: one wave
    whose short members pad while the longest still generates."""
    rng = np.random.default_rng(seed)
    return [
        ServeRequest(
            request_id=i,
            prompt=rng.integers(0, cfg.vocab_size, size=s, dtype=np.int64),
            gen_len=g,
        )
        for i, (s, g) in enumerate([(4, 2), (8, 6), (6, 3), (10, 6), (5, 4), (7, 5)])
    ]


def test_wave_policy_rejects_drift_and_migration(sharp, tiny8l, workload12):
    """Drift replanning needs the continuous policy; a manual migration
    does not: a mid-wave repartition carries the wave across with its
    streams intact."""
    plan3 = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    plan2 = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    with PipelineRuntime(sharp, plan2) as rt:
        with pytest.raises(ValueError, match="continuous"):
            ContinuousScheduler(rt, policy="wave", drift=DriftConfig())
    requests = _wave_requests(tiny8l)
    with PipelineRuntime(sharp, plan3) as rt:
        sched = TriggerAfter(rt, new_plan=plan2, after=3, policy="wave")
        report = sched.serve(requests)
        assert rt.plan is plan2
    assert report.migrations == 1 and report.replans == 1
    assert sched.migration_log[0].rebuilt
    assert sched.migration_log[0].inflight == len(requests)
    assert report.replayed_tokens > 0 and report.replay_divergences == 0
    assert sched.held == 0 and len(report.completed) == len(requests)
    _assert_streams_match(report, sharp, requests)


class PaddingProbe(ContinuousScheduler):
    """Record, at each recovery, whether a live wave member was padding
    (had all its tokens but not yet reached the wave's last boundary)."""

    def _recover(self, err):
        live = self.live
        self.padding_at_crash = bool((self.prod[live] >= self._sgen[live]).any())
        super()._recover(err)


@pytest.mark.parametrize("at", [3, 9])
@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_wave_policy_recovers_from_stage_crash(request, model, at, tiny8l, workload12):
    """The wave policy recovers from a stage crash as the continuous one
    does: a forced migration replays the wave's KV.  Stage 1 takes the
    wave's six prefills as messages 1-6 and one fused decode per
    boundary after, so ``at=3`` crashes a prefill (nothing to replay) and
    ``at=9`` the third decode, while the two-token member pads."""
    model = request.getfixturevalue(model)
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _wave_requests(tiny8l)
    inj = FaultInjector([StageCrash(stage=1, at=at)], seed=0)
    with PipelineRuntime(model, plan, fault_injector=inj) as rt:
        sched = PaddingProbe(rt, policy="wave")
        report = sched.serve(requests)
        assert rt.stats.retries == 1
    assert inj.fired == [("crash", 1, at)]
    assert sched.padding_at_crash is (at == 9)
    assert report.crash_recoveries == 1
    assert report.migrations == 1 and report.replans == 0
    assert [r.reason for r in sched.migration_log] == ["crash-retry:stage1"]
    assert (report.replayed_tokens > 0) is (at == 9)
    assert report.replay_divergences == 0
    assert sched.held == 0
    assert len(report.completed) == len(requests)
    _assert_streams_match(report, model, requests)
