"""Segment routing against the per-request oracle, and the fleet's
"every arrival ends exactly once" invariant.

``_route`` walks the trace one segment between autoscaler events at a
time over column state; ``route_spec`` is the router it replaced, one
``pick`` per request.  Every decision must agree: the assignment, the
router's rejections, and — through the autoscaler's observations —
every scale event (utilization compared bit for bit) and activation
span.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.stagecosts import StageCostModel
from repro.fleet import (
    POOL_DECODE,
    POOL_GENERAL,
    POOL_PREFILL,
    POOLS,
    ROUTER_POLICIES,
    AutoscaleConfig,
    FleetAutoscaler,
    PipelineReplica,
    Router,
    SimReplica,
    serve_fleet,
)
from repro.fleet.fleet import _bind_autoscaler, _route
from repro.workload.traces import ArrivalTrace

from ..sim.costview_cases import mb1_plan, mixed_plan
from .route_spec import route_spec

#: two differently priced plans, so replicas differ in prefill seconds,
#: tpot and KV budget (shared cost models: routing only reads them)
PLANS = [mixed_plan(), mb1_plan()]
COSTS = [StageCostModel(p, c) for p, c in PLANS]


def _replica(rid, kind, pool):
    return PipelineReplica(rid, PLANS[kind][0], COSTS[kind], pool=pool)


def _outcome(route, case):
    """Route ``case`` through a fresh fleet; everything routing decides."""
    reps = [_replica(rid, kind, pool) for rid, kind, pool, _ in case["reps"]]
    for r, (*_, draining) in zip(reps, case["reps"]):
        r.draining = draining
    scaler = None
    if case["config"] is not None:
        built = []

        def factory(pool, estimate):
            if len(built) >= case["factory"]:
                return None
            built.append(_replica(100 + len(built), len(built) % 2, pool))
            return built[-1]

        scaler = FleetAutoscaler(case["config"], replica_factory=factory)
        _bind_autoscaler(scaler, reps, case["active"])
    arr, spr, sgen = case["cols"]
    policy = case["policy"]
    assign, rejected = route(
        arr, spr, sgen, reps,
        Router(policy) if route is _route else policy,
        scaler, prefix_keys=case["keys"],
    )
    if scaler is None:
        return assign.tolist(), rejected, [r.draining for r in reps]
    events = [
        (e.at, e.pool, e.action, e.replica_id, e.active_after,
         e.utilization.hex(), e.reason)
        for e in scaler.events
    ]
    return (
        assign.tolist(), rejected, events, scaler.activation_spans(),
        [(r.replica_id, r.draining) for r in scaler.all_replicas()],
    )


def _burst_then_trough(n_hot=100, n_cold=50):
    rng = np.random.default_rng(4)
    arr = np.concatenate([
        np.arange(n_hot) * 0.05, n_hot * 0.05 + np.arange(n_cold) * 1.0,
    ])
    n = arr.size
    return arr, rng.integers(1, 96, n), rng.integers(1, 48, n)


_CFG = AutoscaleConfig(
    window=1.0, high=2.0, low=1.0, hysteresis=1, cooldown=0.5, min_active=1
)
_GEN3 = [(0, 0, POOL_GENERAL, False), (1, 1, POOL_GENERAL, False),
         (2, 0, POOL_GENERAL, False)]
_SPLIT = [(0, 0, POOL_PREFILL, False), (1, 1, POOL_PREFILL, False),
          (2, 1, POOL_DECODE, False), (3, 0, POOL_DECODE, False)]
#: name -> (replicas, config, active ids, factory builds)
SCENARIOS = {
    "autoscaled": (_GEN3, _CFG, [0], 0),
    "provisioned": (_GEN3, AutoscaleConfig(
        window=1.0, high=2.0, low=1.0, hysteresis=1, cooldown=0.5,
        provision_seconds=1.5,
    ), [0], 0),
    "disaggregated": (_SPLIT, _CFG, [0, 2], 0),
    "factory": ([(0, 0, POOL_GENERAL, False)], _CFG, None, 2),
    "draining": ([(0, 0, POOL_GENERAL, True)] + _GEN3[1:], _CFG, [0, 1], 0),
    "draining-static": ([(0, 0, POOL_GENERAL, True)] + _GEN3[1:], None, None, 0),
    "split-static": (_SPLIT, None, None, 0),
}


@pytest.mark.parametrize("policy", ROUTER_POLICIES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_route_matches_spec_scenarios(scenario, policy):
    """Each case the segment loop special-cases, pinned: the scale
    events it needs actually fire, and every decision equals the oracle."""
    reps, config, active, factory = SCENARIOS[scenario]
    case = dict(
        cols=_burst_then_trough(), reps=reps, config=config, active=active,
        factory=factory, policy=policy, keys=None,
    )
    got = _outcome(_route, case)
    assert got == _outcome(route_spec, case)
    if config is None:
        return
    actions = {e[2] for e in got[2]}
    assert actions == {"scale-up", "scale-down"}
    if scenario == "provisioned":  # activations land after the decision
        ups = [e for e in got[2] if e[2] == "scale-up"]
        assert any(
            span[0] == e[0] + 1.5 for e in ups for span in got[3][e[3]]
        )
    if scenario == "factory":
        assert any(rid >= 100 for rid, _ in got[4])
    if scenario == "disaggregated":
        assert {e[1] for e in got[2]} == {POOL_PREFILL, POOL_DECODE}


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 120))
    scale = draw(st.sampled_from([0.01, 0.05, 0.3]))
    gaps = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    arr = np.cumsum(np.array(gaps, dtype=np.float64) * scale)
    spr = np.array(draw(st.lists(st.integers(1, 96), min_size=n, max_size=n)))
    sgen = np.array(draw(st.lists(st.integers(1, 48), min_size=n, max_size=n)))
    n_rep = draw(st.integers(1, 5))
    reps = [
        (rid, draw(st.integers(0, 1)), draw(st.sampled_from(POOLS)),
         draw(st.integers(0, 5)) == 0)
        for rid in range(n_rep)
    ]
    config = active = None
    if draw(st.booleans()):
        high = draw(st.sampled_from([0.6, 1.0, 2.0]))
        config = AutoscaleConfig(
            window=draw(st.sampled_from([0.3, 1.0, 2.5])),
            high=high,
            low=high * draw(st.sampled_from([0.25, 0.5])),
            hysteresis=draw(st.integers(1, 2)),
            cooldown=draw(st.sampled_from([0.0, 1.0])),
            min_active=draw(st.integers(0, 2)),
            provision_seconds=draw(st.sampled_from([0.0, 0.7, 3.0])),
        )
        if draw(st.booleans()):
            active = [rid for rid, *_ in reps if draw(st.booleans())]
    keys = None
    if draw(st.booleans()):
        keys = np.array(draw(st.lists(
            st.integers(0, 8_000_000), min_size=n, max_size=n
        )), dtype=np.int64)
    return dict(
        cols=(arr, spr, sgen), reps=reps, config=config, active=active,
        factory=draw(st.integers(0, 2)),
        policy=draw(st.sampled_from(ROUTER_POLICIES)), keys=keys,
    )


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_route_matches_spec(case):
    """Random traces, pool layouts, draining flags, prefix keys and
    autoscaler settings: the segment loop decides exactly as the
    per-request router did."""
    assert _outcome(_route, case) == _outcome(route_spec, case)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(ROUTER_POLICIES),
    autoscaled=st.booleans(),
    layout=st.sampled_from(["general", "split", "prefill-only"]),
)
def test_every_arrival_ends_exactly_once(n, seed, policy, autoscaled, layout):
    """Needle-3 invariant for fleets: each arrival is either rejected by
    the router or routed to one replica, and each routed request is
    either completed or rejected there — some prompts are larger than
    any KV budget, so replica rejections happen too."""
    rng = np.random.default_rng(seed)
    spr = rng.integers(1, 96, n)
    spr[rng.random(n) < 0.1] = 200_000  # never fits: rejected by a replica
    trace = ArrivalTrace(
        arrivals=np.sort(rng.uniform(0.0, 10.0, n)),
        prompt_lens=spr,
        gen_lens=rng.integers(1, 24, n),
    )
    pools = {
        "general": [POOL_GENERAL] * 3,
        "split": [POOL_PREFILL, POOL_DECODE, POOL_GENERAL],
        "prefill-only": [POOL_PREFILL, POOL_PREFILL],  # decode rows: rejected
    }[layout]
    plan, cluster = PLANS[0]
    reps = [SimReplica(i, plan, cluster, pool=p) for i, p in enumerate(pools)]
    scaler = FleetAutoscaler(AutoscaleConfig(
        window=1.0, high=1.0, low=0.3, hysteresis=1, cooldown=0.0,
    )) if autoscaled else None
    fr = serve_fleet(
        reps, trace, router=policy, autoscaler=scaler,
        active=[0] if autoscaled else None,
    )
    results = fr.replica_results
    router_rejected = fr.rejected - sum(r.rejected for r in results)
    assert router_rejected >= 0
    assert sum(r.routed for r in results) + router_rejected == n
    for r in results:
        assert r.completed + r.rejected == r.routed
        assert r.latencies.size == r.completed
    assert fr.completed + fr.rejected == n
