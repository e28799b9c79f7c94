"""Continuous-batching scheduler tests: byte-identity, eager KV release,
admission edge cases, and wave-baseline equivalence."""

import dataclasses
import time

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate
from repro.runtime import (
    ContinuousScheduler,
    PipelineRuntime,
    ServeRequest,
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


def _mixed_requests(cfg, *, n=7, seed=11, gap=0.0):
    """Mixed-length requests (different s and gen_len per request)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        s = int(rng.integers(4, 13))
        g = int(rng.integers(1, 9))
        prompt = rng.integers(0, cfg.vocab_size, size=s, dtype=np.int64)
        out.append(
            ServeRequest(request_id=i, prompt=prompt, gen_len=g, arrival=i * gap)
        )
    return out


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


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_continuous_streams_byte_identical_to_reference(
    request, model, tiny8l, workload12
):
    """Co-batched requests must not perturb each other's token streams."""
    model = request.getfixturevalue(model)
    plan = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    requests = _mixed_requests(tiny8l)
    with PipelineRuntime(model, plan) as rt:
        report = ContinuousScheduler(rt, policy="continuous").serve(requests)
    assert len(report.completed) == len(requests)
    _assert_streams_match(report, model, requests)


def test_quantized_streams_match_fake_quant_reference(
    reference, tiny8l, workload12
):
    """Quantized serving must equal a single-process fake-quant model."""
    from repro.quant import quantize_dequantize

    layer_bits = [8, 8, 8, 4, 4, 4, 16, 16]
    plan = _plan([(8,) * 3, (4,) * 3, (16,) * 2], workload=workload12)
    fq = reference.clone()
    for i, b in enumerate(layer_bits):
        if b < 16:
            fq.apply_to_layer(i, lambda _n, w, b=b: quantize_dequantize(w, b))
    requests = _mixed_requests(tiny8l, seed=23)
    with PipelineRuntime(reference, plan) as rt:
        report = ContinuousScheduler(rt, policy="continuous").serve(requests)
    _assert_streams_match(report, fq, requests)


@pytest.mark.parametrize("model", ["reference", "sharp"])
def test_wave_and_continuous_streams_identical(request, model, tiny8l, workload12):
    """Scheduling policy must never change what tokens a request gets."""
    model = request.getfixturevalue(model)
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _mixed_requests(tiny8l, seed=5)
    streams = {}
    for policy in ("continuous", "wave"):
        with PipelineRuntime(model, plan) as rt:
            report = ContinuousScheduler(rt, policy=policy).serve(requests)
        assert len(report.completed) == len(requests)
        streams[policy] = {r.request_id: r.tokens for r in report.completed}
    for rid in streams["continuous"]:
        np.testing.assert_array_equal(
            streams["continuous"][rid], streams["wave"][rid]
        )


def test_eager_release_frees_kv_while_others_in_flight(
    reference, tiny8l, workload12
):
    """A finished request's KV must drop on every stage immediately,
    while co-batched requests are still decoding."""
    snapshots = []

    class Snoop(ContinuousScheduler):
        def _release(self, unit_ids):
            before = [w.kv.current_bytes for w in self.rt.workers]
            super()._release(unit_ids)
            after = [w.kv.current_bytes for w in self.rt.workers]
            snapshots.append((before, after))

    rng = np.random.default_rng(0)
    mk = lambda i, g: ServeRequest(
        request_id=i,
        prompt=rng.integers(0, tiny8l.vocab_size, size=8, dtype=np.int64),
        gen_len=g,
    )
    requests = [mk(0, 1), mk(1, 10)]  # short one retires mid-flight
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    with PipelineRuntime(reference, plan) as rt:
        report = Snoop(rt, policy="continuous").serve(requests)
        released = [w.kv.released_units for w in rt.workers]
        leftover = [w.kv.current_bytes for w in rt.workers]
    assert len(report.completed) == 2
    # first release happened while request 1 was still holding its cache
    before, after = snapshots[0]
    assert all(a < b for a, b in zip(after, before))
    assert all(a > 0 for a in after)
    # by the end every stage has released both units and holds nothing
    assert released == [2, 2]
    assert leftover == [0.0, 0.0]


def test_single_request_trace(reference, tiny8l, workload12):
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    req = _mixed_requests(tiny8l, n=1, seed=9)[0]
    with PipelineRuntime(reference, plan) as rt:
        report = ContinuousScheduler(rt).serve([req])
    assert len(report.completed) == 1
    rec = report.completed[0]
    assert rec.tokens.shape == (req.gen_len,)
    assert rec.finish_time >= rec.first_token_time > 0
    assert report.throughput_tokens_per_s > 0


def test_empty_request_list(reference, workload12):
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    with PipelineRuntime(reference, plan) as rt:
        report = ContinuousScheduler(rt).serve([])
    assert report.records == [] and report.makespan == 0.0
    assert report.throughput_tokens_per_s == 0.0


def test_idle_gap_between_arrivals_is_jumped(reference, tiny8l, workload12):
    """A long arrival gap advances the virtual clock without sleeping."""
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    reqs = _mixed_requests(tiny8l, n=2, seed=3)
    reqs = [
        ServeRequest(
            request_id=r.request_id, prompt=r.prompt, gen_len=r.gen_len,
            arrival=float(i) * 500.0,
        )
        for i, r in enumerate(reqs)
    ]
    t0 = time.perf_counter()
    with PipelineRuntime(reference, plan) as rt:
        report = ContinuousScheduler(rt).serve(reqs)
    wall = time.perf_counter() - t0
    assert wall < 60.0  # the 500s gap was jumped, not slept
    assert report.makespan >= 500.0  # but the virtual timeline kept it
    assert len(report.completed) == 2
    late = next(r for r in report.completed if r.request_id == 1)
    assert late.latency < 100.0  # measured from its own arrival


def test_unfit_request_rejected_gracefully(reference, tiny8l, workload12):
    """With no token slots nothing is admissible: every request must be
    rejected (no hang, no crash) and the report must say so."""
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _mixed_requests(tiny8l, n=3)
    for policy in ("continuous", "wave"):
        with PipelineRuntime(reference, plan) as rt:
            sched = ContinuousScheduler(rt, policy=policy)
            sched.budget = 0
            report = sched.serve(requests)
        assert len(report.rejected) == 3
        assert report.completed == []
        assert report.generated_tokens == 0
        assert sched.held == 0


def test_runtime_stats_mirror_per_request_metrics(
    reference, tiny8l, workload12
):
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _mixed_requests(tiny8l, seed=17)
    with PipelineRuntime(reference, plan) as rt:
        report = ContinuousScheduler(rt).serve(requests)
        stats = rt.stats
    assert len(stats.request_latencies) == len(report.completed)
    assert len(stats.request_ttfts) == len(report.completed)
    assert stats.latency_p95 >= stats.latency_p50 > 0
    assert stats.latency_p99 >= stats.latency_p95
    assert stats.ttft_mean > 0 and stats.ttft_p95 >= 0
    assert stats.tokens_generated == report.generated_tokens
    assert report.latency_p95 == pytest.approx(stats.latency_p95)


def test_max_inflight_cap_and_ledger_accounting(
    reference, tiny8l, workload12
):
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    requests = _mixed_requests(tiny8l, seed=29)
    with PipelineRuntime(reference, plan) as rt:
        sched = ContinuousScheduler(rt, max_inflight=2)
        report = sched.serve(requests)
    assert len(report.completed) == len(requests)
    assert max(r.admit_time for r in report.completed) > 0  # the cap queued some
    assert sched.held == 0
    _assert_streams_match(report, reference, requests)


def test_constructor_and_request_validation(reference, workload12):
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    with PipelineRuntime(reference, plan) as rt:
        with pytest.raises(ValueError, match="policy"):
            ContinuousScheduler(rt, policy="orca")
        with pytest.raises(ValueError, match="max_inflight"):
            ContinuousScheduler(rt, max_inflight=0)
        # NaN fails no ``< 0`` test, and ``0 x inf`` is a NaN arrival
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="time_scale"):
                ContinuousScheduler(rt, time_scale=bad)
    with pytest.raises(ValueError, match="gen_len"):
        ServeRequest(request_id=0, prompt=np.array([1, 2]), gen_len=0)
    with pytest.raises(ValueError, match="prompt"):
        ServeRequest(request_id=0, prompt=np.array([]), gen_len=2)
    with pytest.raises(ValueError, match="arrival"):
        ServeRequest(
            request_id=0, prompt=np.array([1]), gen_len=1, arrival=-1.0
        )


def test_positions_past_the_table_raise_before_any_io(reference, tiny8l, workload12):
    """tiny-8l embeds 256 positions: a request's last embedded position
    is ``s + n - 2``, so ``s + n - 1 = 257`` raises in ``generate`` and in
    ``serve`` before anything enters the pipeline, and 256 serves."""
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    prompt = np.random.default_rng(0).integers(
        0, tiny8l.vocab_size, size=200, dtype=np.int64)
    fits = [ServeRequest(request_id=0, prompt=prompt, gen_len=57)]
    with PipelineRuntime(reference, plan) as rt:
        with pytest.raises(ValueError, match=r"<= 256, got 200 \+ 58 - 1 = 257"):
            rt.generate(prompt[None], 58)
        too_long = [ServeRequest(request_id=0, prompt=prompt, gen_len=58)]
        with pytest.raises(ValueError, match=r"<= 256, got 200 \+ 58 - 1 = 257"):
            ContinuousScheduler(rt, time_scale=0.0).serve(fits + too_long)
        assert rt.stats.prefill_tokens == 0  # no pipeline I/O
        report = ContinuousScheduler(rt, time_scale=0.0).serve(fits)
    _assert_streams_match(report, reference, fits)


class LedgerProbe(ContinuousScheduler):
    """Checks the token ledger after every boundary, from the outside:
    ``held`` against the requests in flight, the budget, and the per-stage
    byte ledger the slots replace.  Optionally requests one migration at
    the ``migrate_at``-th boundary."""

    def __init__(self, rt, *, migrate_to=None, migrate_at=0, **kw):
        super().__init__(rt, **kw)
        self._migrate_to = migrate_to
        self._migrate_at = migrate_at
        self.boundaries = 0
        self.log = []  # (held, budget, in flight)

    def _boundary(self):
        self.boundaries += 1
        if self._migrate_to is not None and self.boundaries == self._migrate_at:
            self.request_migration(self._migrate_to)
        super()._boundary()
        charges = [
            (self._queue[k].prompt_len, int(self.reserve[k]))
            for k in self.live.tolist()
        ]
        assert self.held == sum(s + r for s, r in charges)
        assert self.held <= self.budget
        # the byte ledger: one per-stage charge per request, summed
        used = np.zeros(self.rt.plan.num_stages)
        for s, r in charges:
            used += self.cost.request_kv_bytes(s, r)
        pool = self.headroom > 0
        assert self._occupancy() == float(np.max(used[pool] / self.headroom[pool]))
        self.log.append((self.held, self.budget, len(charges)))


@pytest.mark.parametrize("policy", ["continuous", "wave"])
def test_token_ledger_invariants_every_boundary(
    reference, tiny8l, workload12, policy
):
    """Mixed requests all arrive at once under ``max_inflight`` and a KV
    pool of ~48 token slots (the dequant caches take the rest), so the
    budget blocks head-of-line; the continuous run also migrates 3 -> 2
    stages mid-flight onto roomier devices.  Every boundary keeps
    ``held == sum(prompt + reserve) <= budget`` and the occupancy equal
    to the byte ledger's; at the end nothing is held, every request
    ended exactly once, and every stream equals ``generate()``."""
    from repro.cost.stagecosts import StageCostModel

    plan3 = _plan([(16,) * 3, (16,) * 3, (16,) * 2], workload=workload12)
    v100 = lambda i: Device(get_gpu("V100-32G"), node_id=0, local_rank=i)
    plan2 = ExecutionPlan(
        model_name="tiny-8l",
        stages=(StagePlan(v100(0), (16,) * 4), StagePlan(v100(1), (16,) * 4)),
        prefill_microbatch=2, decode_microbatch=4, workload=workload12,
    )
    scm = StageCostModel(plan3, cfg=tiny8l)
    dequant = float(np.min(scm.kv_headroom() - 48 * scm.kv_token_charges()))
    requests = _mixed_requests(tiny8l, n=12, seed=41)
    slots = [r.prompt_len + r.gen_len for r in requests]
    with PipelineRuntime(reference, plan3, dequant_cache_mb=dequant / 2**20) as rt:
        sched = LedgerProbe(
            rt, policy=policy, max_inflight=6, time_scale=0.0,
            migrate_to=plan2 if policy == "continuous" else None,
            migrate_at=3,
        )
        budget = sched.budget
        assert 40 <= budget <= 48 and max(slots) <= budget
        assert sum(slots[:6]) > budget  # the first admission blocks on KV
        report = sched.serve(requests)
        migrated = rt.plan is plan2
    assert migrated == (policy == "continuous")
    if migrated:
        assert sched.budget > 1000 * budget  # V100 pools
    assert sched.held == 0
    assert max(n for _h, _b, n in sched.log) <= 6
    assert max(h for h, b, _n in sched.log if b == budget) > budget // 2
    assert sorted(r.request_id for r in report.records) == list(range(12))
    assert len(report.completed) == 12
    _assert_streams_match(report, reference, requests)


class RejectLog(ContinuousScheduler):
    """Records the token boundary each queue row is rejected at (the
    count of iterations run before it)."""

    def __init__(self, rt, **kw):
        super().__init__(rt, **kw)
        self.rejected: dict[int, int] = {}

    def _admit(self, now):
        ptr = self._ptr
        super()._admit(now)
        for k in range(ptr, self._ptr):
            if not self.adm_it[k]:
                self.rejected[k] = self.it


@pytest.mark.parametrize("policy", ["continuous", "wave"])
def test_sim_and_runtime_admit_and_retire_at_the_same_boundaries(
    reference, tiny8l, workload12, policy, monkeypatch
):
    """One admission rule, two loops: 18 requests arrive at once under a
    cap of 5 and a 60-slot budget that binds.  Two never fit even alone:
    one heads the queue, one waits mid-queue behind an in-flight group.
    Both loops reject the same two, each only into an empty system, and
    the real runtime's ``adm_it`` and ``fin`` columns equal the trace
    engine's ``adm_it`` and retire boundary ``adm_it + retire - 1`` (0
    for a rejected row), where a request retires after its own
    ``gen_len`` tokens, or a wave member after the wave's ``n_max``."""
    from repro.cost.stagecosts import StageCostModel
    from repro.hardware.cluster import cluster_from_devices
    from repro.sim.trace_engine import _Engine, trace_columns
    from repro.workload.traces import ArrivalTrace

    monkeypatch.setattr(
        StageCostModel, "kv_token_budget",
        lambda self, dequant_cache_budgets=None: 60,
    )
    plan = _plan([(16,) * 4, (16,) * 4], workload=workload12)
    mixed = _mixed_requests(tiny8l, n=16, seed=41)
    rng = np.random.default_rng(5)
    giant = lambda: ServeRequest(
        request_id=0, gen_len=12,
        prompt=rng.integers(0, tiny8l.vocab_size, size=50, dtype=np.int64),
    )
    requests = [
        dataclasses.replace(r, request_id=i)
        for i, r in enumerate([giant(), *mixed[:7], giant(), *mixed[7:]])
    ]
    giants = {0, 8}
    n = len(requests)
    with PipelineRuntime(reference, plan) as rt:
        sched = RejectLog(rt, policy=policy, max_inflight=5, time_scale=0.0)
        report = sched.serve(requests)
    assert len(report.completed) == n - 2
    assert {r.request_id for r in report.rejected} == set(sched.rejected) == giants
    assert sched.rejected[0] == 0 < sched.rejected[8]  # 8 waited for the drain
    _assert_streams_match(report, reference, requests)

    prompts = np.array([r.prompt_len for r in requests])
    gens = np.array([r.gen_len for r in requests])
    assert prompts[1:6].sum() + gens[1:6].sum() > 60  # the budget binds first
    trace = ArrivalTrace(arrivals=np.zeros(n), prompt_lens=prompts, gen_lens=gens)
    cluster = cluster_from_devices(st.device for st in plan.stages)
    eng = _Engine(
        trace_columns(trace), max_batch=5, engine="analytic",
        scm=StageCostModel(plan, cluster), drift=None, replanner=None,
        policy=policy,
    )
    eng.run()
    adm = eng.adm_it
    assert eng.rejected == 2 and set(np.flatnonzero(adm == 0).tolist()) == giants
    retire = gens.copy()
    if policy == "wave":
        for it in np.unique(adm):
            retire[adm == it] = gens[adm == it].max()
    # the queue rows are the request ids (all arrive at 0)
    np.testing.assert_array_equal(sched.adm_it, adm)
    np.testing.assert_array_equal(sched.fin, np.where(adm > 0, adm + retire - 1, 0))
    # the mid-queue giant is rejected at the drain: right after the last
    # retirement of the requests ahead of it
    assert sched.rejected[8] == sched.fin[1:8].max()
    assert np.unique(adm[adm > 0]).size > 3  # several admission rounds
