"""Fleet layer: 1-replica byte-identity, routing determinism, pool
disaggregation, and autoscaler hysteresis.

The load-bearing contract is the degenerate case: a fleet of one
replica must be *byte-identical* to the single-pipeline paths it wraps
— every ``OnlineResult`` field against the simulator, every generated
token stream against the real scheduler+runtime.  On top of that the
router must break ties deterministically (lowest replica id), an empty
or all-draining fleet must reject rather than crash, and the autoscaler
must not flap on a constant-rate trace.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.fleet import (
    POOL_DECODE,
    POOL_PREFILL,
    AutoscaleConfig,
    FleetAutoscaler,
    Router,
    RuntimeReplica,
    SimReplica,
    serve_fleet,
)
from repro.fleet.fleet import _route
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM
from repro.runtime.scheduler import (
    ContinuousScheduler,
    PipelineRuntime,
    ServeRequest,
)
from repro.sim.online import simulate_online
from repro.workload import Workload
from repro.workload.traces import ArrivalTrace

from ..sim.costview_cases import mixed_plan

PLAN, CLUSTER = mixed_plan()


def _trace(n=400, seed=0, span=60.0, max_prompt=96, max_gen=24):
    rng = np.random.default_rng(seed)
    return ArrivalTrace(
        arrivals=np.sort(rng.uniform(0.0, span, n)),
        prompt_lens=rng.integers(8, max_prompt, n),
        gen_lens=rng.integers(4, max_gen, n),
    )


# ---------------------------------------------------------------------------
# 1-replica byte-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine,policy",
    [
        ("analytic", "continuous"),
        ("des", "continuous"),
        ("analytic", "wave"),
        ("des", "wave"),
    ],
    ids=["analytic", "des", "analytic-wave", "des-wave"],
)
def test_single_replica_identical_to_simulator(engine, policy):
    """A 1-replica fleet is the simulator: every OnlineResult field,
    under either batching policy."""
    trace = _trace()
    direct = simulate_online(PLAN, CLUSTER, trace, policy=policy, engine=engine)
    rep = SimReplica(0, PLAN, CLUSTER, policy=policy, engine=engine)
    fr = serve_fleet([rep], trace)
    assert len(fr.replica_results) == 1
    wrapped = fr.replica_results[0].online
    for f in dataclasses.fields(type(direct)):
        a, b = getattr(direct, f.name), getattr(wrapped, f.name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name
    assert fr.completed == direct.completed
    assert fr.rejected == direct.rejected
    assert fr.n_requests == len(trace)


def _tiny_plan(workload):
    dev = lambda i: Device(get_gpu("T4-16G"), node_id=0, local_rank=i)
    return ExecutionPlan(
        model_name="tiny-8l",
        stages=(StagePlan(dev(0), (16, 16, 8, 8)), StagePlan(dev(1), (8, 8, 4, 4))),
        prefill_microbatch=2,
        decode_microbatch=4,
        workload=workload,
    )


def _tiny_requests(cfg, n=9, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        s = int(rng.integers(4, 13))
        g = int(rng.integers(2, 8))
        prompt = rng.integers(0, cfg.vocab_size, size=s, dtype=np.int64)
        out.append(
            ServeRequest(request_id=i, prompt=prompt, gen_len=g, arrival=0.0)
        )
    return out


def test_single_replica_identical_to_runtime(tiny8l):
    """A 1-replica runtime fleet streams the same tokens as a direct
    scheduler run over the same requests."""
    plan = _tiny_plan(Workload(prompt_len=12, gen_len=8, global_batch=8))
    ref = TinyDecoderLM(tiny8l, seed=3)
    requests = _tiny_requests(tiny8l)

    with PipelineRuntime(ref, plan) as rt:
        direct = ContinuousScheduler(rt, time_scale=0.0).serve(list(requests))

    rep = RuntimeReplica(0, ref, plan, time_scale=0.0)
    fr = serve_fleet([rep], requests)
    report = fr.replica_results[0].report

    assert len(report.completed) == len(direct.completed)
    direct_tokens = {r.request_id: r.tokens for r in direct.completed}
    for rec in report.completed:
        np.testing.assert_array_equal(rec.tokens, direct_tokens[rec.request_id])
    assert fr.completed == len(direct.completed)
    assert fr.generated_tokens == direct.generated_tokens


def test_runtime_prefix_routing_keeps_its_assignment(tiny8l):
    """Two runtime replicas behind the prefix router: each request lands
    on the replica its first prompt tokens hash to — the assignment the
    fleet made before both replica kinds shared one entry point — and
    every stream still equals the single-pipeline one."""
    plan = _tiny_plan(Workload(prompt_len=12, gen_len=8, global_batch=8))
    ref = TinyDecoderLM(tiny8l, seed=3)
    requests = _tiny_requests(tiny8l)
    reps = [RuntimeReplica(i, ref, plan, time_scale=0.0) for i in range(2)]
    fr = serve_fleet(reps, requests, router="prefix")
    served = {
        r.replica_id: sorted(x.request_id for x in r.report.completed)
        for r in fr.replica_results
    }
    assert served == {0: [1, 3, 4, 6, 8], 1: [0, 2, 5, 7]}

    with PipelineRuntime(ref, plan) as rt:
        direct = ContinuousScheduler(rt, time_scale=0.0).serve(list(requests))
    want = {r.request_id: r.tokens for r in direct.completed}
    for r in fr.replica_results:
        for rec in r.report.completed:
            np.testing.assert_array_equal(rec.tokens, want[rec.request_id])


# ---------------------------------------------------------------------------
# degenerate fleets
# ---------------------------------------------------------------------------


def test_empty_fleet_raises():
    with pytest.raises(ValueError, match="no replicas"):
        serve_fleet([], _trace(20))


def test_duplicate_replica_ids_raise():
    reps = [SimReplica(1, PLAN, CLUSTER), SimReplica(1, PLAN, CLUSTER)]
    with pytest.raises(ValueError, match="duplicate"):
        serve_fleet(reps, _trace(20))


def test_all_draining_rejects_everything():
    trace = _trace(50)
    reps = [SimReplica(i, PLAN, CLUSTER) for i in range(2)]
    for r in reps:
        r.draining = True
    fr = serve_fleet(reps, trace, router="least-loaded")
    assert fr.completed == 0
    assert fr.rejected == len(trace)
    assert fr.ttfts.size == 0


def test_unknown_router_policy_rejected():
    with pytest.raises(ValueError, match="unknown router policy"):
        Router("weighted-lottery")


# ---------------------------------------------------------------------------
# router determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["least-loaded", "ttft"])
def test_router_ties_break_to_lowest_id(policy):
    """Identical fresh replicas tie on every score — the pick must be
    replica 0, not an arbitrary or random member."""
    reps = [SimReplica(i, PLAN, CLUSTER) for i in range(3)]
    assign, rejected = _route(
        np.array([0.0]), np.array([64]), np.array([16]), reps,
        Router(policy), None,
    )
    assert assign.tolist() == [0] and rejected == 0


@pytest.mark.parametrize(
    "policy", ["round-robin", "least-loaded", "ttft", "prefix"]
)
def test_routing_is_reproducible(policy):
    """Two identical runs route identically: same per-replica shares,
    same pooled percentiles."""
    trace = _trace(300, seed=7)

    def run():
        reps = [SimReplica(i, PLAN, CLUSTER) for i in range(3)]
        return serve_fleet(reps, trace, router=policy)

    a, b = run(), run()
    assert [r.routed for r in a.replica_results] == [
        r.routed for r in b.replica_results
    ]
    np.testing.assert_array_equal(a.latencies, b.latencies)
    np.testing.assert_array_equal(a.ttfts, b.ttfts)
    assert a.gpu_seconds == b.gpu_seconds


def test_prefill_seconds_is_the_simulators_float_priced_once(monkeypatch):
    """The TTFT router asks every candidate for the prompt's prefill
    time on every pick: the replica keeps the float per prompt length —
    the stage sum the simulator charges — instead of re-summing the row."""
    rep = SimReplica(0, PLAN, CLUSTER)
    want = float(rep.cost.unit_prefill_times(64).sum())
    real, calls = rep.cost.unit_prefill_times, []
    monkeypatch.setattr(
        rep.cost, "unit_prefill_times", lambda s: calls.append(s) or real(s)
    )
    assert rep.prefill_seconds(64) == want == rep.prefill_seconds(np.int64(64))
    assert rep.service_seconds(64, 10) == want + 10 * rep.tpot_seconds()
    assert calls == [64]


def test_prefix_routing_is_sticky():
    """Same prompt length -> same replica, every time."""
    n = 200
    rng = np.random.default_rng(3)
    lens = rng.choice([16, 32, 64], n)
    trace = ArrivalTrace(
        arrivals=np.sort(rng.uniform(0, 120, n)),
        prompt_lens=lens,
        gen_lens=np.full(n, 8),
    )
    reps = [SimReplica(i, PLAN, CLUSTER) for i in range(3)]
    fr = serve_fleet(reps, trace, router="prefix")
    # reconstruct the hash assignment: every distinct length maps to
    # exactly one replica, so routed counts match the length histogram
    from repro.fleet.router import _HASH_MUL

    expect = [0, 0, 0]
    for ln in lens:
        expect[((int(ln) * _HASH_MUL) & 0xFFFFFFFF) % 3] += 1
    assert [r.routed for r in fr.replica_results] == expect


# ---------------------------------------------------------------------------
# prefill/decode disaggregation
# ---------------------------------------------------------------------------


def test_disaggregated_pools_split_by_phase():
    n = 120
    rng = np.random.default_rng(11)
    half = n // 2
    spr = np.concatenate([np.full(half, 64), np.full(half, 8)])
    sgen = np.concatenate([np.full(half, 8), np.full(half, 48)])
    trace = ArrivalTrace(
        arrivals=np.sort(rng.uniform(0, 60, n)), prompt_lens=spr, gen_lens=sgen
    )
    reps = [
        SimReplica(0, PLAN, CLUSTER, pool=POOL_PREFILL),
        SimReplica(1, PLAN, CLUSTER, pool=POOL_DECODE),
    ]
    fr = serve_fleet(reps, trace, router="least-loaded")
    by_pool = {r.pool: r for r in fr.replica_results}
    assert by_pool[POOL_PREFILL].routed == half  # s >= g
    assert by_pool[POOL_DECODE].routed == half   # s < g
    assert fr.rejected == 0


# ---------------------------------------------------------------------------
# autoscaler
# ---------------------------------------------------------------------------


def _uniform_trace(rate, span, s=64, g=16):
    n = int(rate * span)
    return ArrivalTrace(
        arrivals=np.arange(n) / rate,
        prompt_lens=np.full(n, s),
        gen_lens=np.full(n, g),
    )


@pytest.mark.parametrize(
    "knob,value,message",
    [
        ("window", float("nan"), "window must be positive and finite, got nan"),
        ("window", float("inf"), "window must be positive and finite, got inf"),
        ("window", 0.0, "window must be positive and finite, got 0.0"),
        ("cooldown", float("nan"), "cooldown must be >= 0, got nan"),
        ("provision_seconds", float("nan"),
         "provision_seconds must be >= 0, got nan"),
        ("provision_seconds", -1.0, "provision_seconds must be >= 0, got -1.0"),
    ],
)
def test_autoscale_config_rejects_non_finite(knob, value, message):
    """A NaN window never closes and a NaN cooldown never elapses: the
    autoscaler would be silently off, so the config refuses them."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        AutoscaleConfig(**{knob: value})


def test_autoscaler_no_flapping_on_constant_rate():
    """A constant-rate trace whose utilization sits inside the
    (low, high) band must produce zero scale events."""
    rep = SimReplica(0, PLAN, CLUSTER)
    svc = rep.service_seconds(64, 16)
    rate = 0.5 / svc  # rho ~= 0.5 with one active replica
    trace = _uniform_trace(rate, 120.0)
    reps = [rep] + [SimReplica(i, PLAN, CLUSTER) for i in range(1, 3)]
    asc = FleetAutoscaler(AutoscaleConfig(
        window=5.0, high=0.8, low=0.2, hysteresis=2, cooldown=10.0,
    ))
    fr = serve_fleet(reps, trace, router="ttft", autoscaler=asc, active=[0])
    assert fr.scale_events == ()
    assert fr.replica_results[1].routed == 0
    assert fr.replica_results[2].routed == 0


def test_autoscaler_scales_up_under_overload_and_drains_after():
    """3x-overload then trough: scale-ups during the burst, scale-downs
    after, never below min_active, and idle replicas cost no GPU time."""
    rep = SimReplica(0, PLAN, CLUSTER)
    svc = rep.service_seconds(64, 16)
    hot = _uniform_trace(3.0 / svc, 60.0)          # rho ~= 3 on one replica
    cold_rate = 0.1 / svc
    n_cold = int(cold_rate * 120.0)
    cold = ArrivalTrace(
        arrivals=60.0 + np.arange(n_cold) / cold_rate,
        prompt_lens=np.full(n_cold, 64),
        gen_lens=np.full(n_cold, 16),
    )
    trace = ArrivalTrace(
        arrivals=np.concatenate([hot.arrivals, cold.arrivals]),
        prompt_lens=np.concatenate([hot.prompt_lens, cold.prompt_lens]),
        gen_lens=np.concatenate([hot.gen_lens, cold.gen_lens]),
    )
    reps = [rep] + [SimReplica(i, PLAN, CLUSTER) for i in range(1, 4)]
    asc = FleetAutoscaler(AutoscaleConfig(
        window=5.0, high=0.8, low=0.2, hysteresis=2, cooldown=10.0,
    ))
    fr = serve_fleet(reps, trace, router="ttft", autoscaler=asc, active=[0])
    ups = [e for e in fr.scale_events if e.action == "scale-up"]
    downs = [e for e in fr.scale_events if e.action == "scale-down"]
    assert ups, "overload must trigger scale-up"
    assert downs, "trough must trigger scale-down"
    assert all(e.active_after >= 1 for e in downs)
    # scale-ups happen during the burst, drains only after it
    assert max(e.at for e in ups) <= 60.0 + 5.0
    assert min(e.at for e in downs) > 60.0
    # autoscaled GPU time is below always-on provisioning for the fleet
    always_on = fr.makespan * sum(r.num_devices for r in reps)
    assert fr.gpu_seconds < always_on


def test_autoscaler_hysteresis_ignores_single_window_spike():
    """One hot window must not trigger with hysteresis=3."""
    rep = SimReplica(0, PLAN, CLUSTER)
    svc = rep.service_seconds(64, 16)
    spike = _uniform_trace(3.0 / svc, 5.0)          # exactly one window
    tail_rate = 0.5 / svc
    n_tail = int(tail_rate * 115.0)
    trace = ArrivalTrace(
        arrivals=np.concatenate(
            [spike.arrivals, 5.0 + np.arange(n_tail) / tail_rate]
        ),
        prompt_lens=np.full(len(spike) + n_tail, 64),
        gen_lens=np.full(len(spike) + n_tail, 16),
    )
    reps = [rep, SimReplica(1, PLAN, CLUSTER)]
    asc = FleetAutoscaler(AutoscaleConfig(
        window=5.0, high=0.8, low=0.2, hysteresis=3, cooldown=10.0,
    ))
    fr = serve_fleet(reps, trace, router="ttft", autoscaler=asc, active=[0])
    assert not [e for e in fr.scale_events if e.action == "scale-up"]


def test_autoscaler_factory_plans_new_replica():
    """With no idle reserve, scale-up goes through the replica factory,
    which receives the pool name and a workload estimate."""
    rep = SimReplica(0, PLAN, CLUSTER)
    svc = rep.service_seconds(64, 16)
    trace = _uniform_trace(3.0 / svc, 60.0)
    calls = []

    def factory(pool, estimate):
        calls.append((pool, estimate))
        return SimReplica(100 + len(calls), PLAN, CLUSTER)

    asc = FleetAutoscaler(
        AutoscaleConfig(window=5.0, high=0.8, low=0.2, hysteresis=2,
                        cooldown=10.0),
        replica_factory=factory,
    )
    fr = serve_fleet([rep], trace, router="ttft", autoscaler=asc)
    assert calls, "factory must be consulted when the pool is exhausted"
    pool, estimate = calls[0]
    assert pool == "general"
    assert estimate.arrival_rate > 0
    assert estimate.p90_prompt > 0
    built = [r for r in fr.replica_results if r.replica_id >= 100]
    assert built and built[0].routed > 0
