"""The event-batch trace engine vs. the one-boundary-at-a-time spec.

``simulate_online(engine="analytic"|"des", policy="continuous")`` runs
through :mod:`repro.sim.trace_engine`; ``tests/sim/online_spec.py`` is
the scalar loop it must reproduce.  The contract is **exact equality**:
every ``OnlineResult`` field — floats included — must match the spec
bit for bit, with or without drift detection and live replanning, in
both the token-budget linear admission fast path and the general
per-stage byte accounting (the ``general_admission`` fixture).

A hypothesis sweep drives random traces/plans/knobs through both
engines; deterministic cases pin the canned trace, migrations that
change the stage cut, and the degenerate all-rejected/empty-percentile
paths.
"""

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan
from repro.cost.stagecosts import StageCostModel
from repro.runtime.replan import DriftConfig, workload_refit_replanner
from repro.runtime.scheduler import ServeReport
from repro.sim.online import OnlineRequest, simulate_online
from repro.sim.trace_engine import _Engine, trace_columns
from repro.workload.traces import (
    load_trace,
    sample_bursty_arrivals,
    sample_diurnal_arrivals,
    sample_poisson_arrivals,
    save_trace,
)

from .costview_cases import canned_trace, mb1_plan, mixed_plan
from .online_spec import spec_simulate_continuous

PLANS = {"mixed": mixed_plan(), "mb1": mb1_plan()}

DRIFT = DriftConfig(
    window=5.0, threshold=0.3, hysteresis=1, cooldown=10.0,
    rebuild_seconds=0.25,
)


@contextlib.contextmanager
def _general_admission(on: bool):
    """While ``on``, every cost-model bind (the initial one and each
    migration's) forgets the exact-linear token budget, so the engine
    admits through the general per-stage byte scan."""
    bind = _Engine._bind_cost_model

    def bind_general(self, scm):
        bind(self, scm)
        self._kvc, self._tok_budget = None, 0

    if on:
        _Engine._bind_cost_model = bind_general
    try:
        yield
    finally:
        _Engine._bind_cost_model = bind


@pytest.fixture(params=[False, True], ids=["linear", "general"])
def general_admission(request):
    """Run each case through both admission paths: the exact-linear
    token-budget shortcut and the general per-stage byte scan."""
    with _general_admission(request.param):
        yield request.param


def test_fixture_selects_the_admission_path(general_admission):
    """The canned plans price KV linearly, so the default bind takes the
    token-budget shortcut and only the fixture reaches the general scan."""
    plan, cluster = PLANS["mixed"]
    eng = _Engine(
        plan, cluster, trace_columns(canned_trace()), max_batch=None,
        engine="analytic", scm=StageCostModel(plan, cluster), source="kernels",
        latency_model=None, drift=None, replanner=None,
    )
    assert (eng._kvc is None) == general_admission


def _assert_identical(plan, cluster, trace, **kw):
    vec = simulate_online(plan, cluster, trace, policy="continuous", **kw)
    oracle = spec_simulate_continuous(plan, cluster, trace, **kw)
    if vec != oracle:
        bad = [
            f"{f.name}: {getattr(vec, f.name)!r} != {getattr(oracle, f.name)!r}"
            for f in dataclasses.fields(vec)
            if getattr(vec, f.name) != getattr(oracle, f.name)
        ]
        raise AssertionError(
            "trace engine diverged from the spec:\n  " + "\n  ".join(bad)
        )
    return vec


# ---------------------------------------------------------------------------
# deterministic equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("engine", ["analytic", "des"])
@pytest.mark.parametrize("max_batch", [None, 4, 2])
def test_canned_trace_identical(plan_name, engine, max_batch, general_admission):
    plan, cluster = PLANS[plan_name]
    _assert_identical(
        plan, cluster, canned_trace(), engine=engine, max_batch=max_batch
    )


@pytest.mark.parametrize("engine", ["analytic", "des"])
def test_mixed_kv_trace_identical(engine, general_admission):
    """Per-stage KV bitwidths reshape per-stage admission charges and
    decode times; the vectorized engine must still match the oracle bit
    for bit — including the exact-linear token-budget shortcut, whose
    per-stage charge vector is no longer uniform."""
    plan, cluster = PLANS["mixed"]
    kv_plan = plan.with_kv_bits((4, 8, 16, 4))
    res = _assert_identical(kv_plan, cluster, canned_trace(), engine=engine)
    assert res.completed > 0


def test_kv4_admits_more_than_kv16(general_admission):
    """At the same memory budget, KV4's smaller per-request charge must
    never complete fewer requests than fp16 KV on an overload trace."""
    plan, cluster = PLANS["mixed"]
    trace = canned_trace() * 4
    r16 = _assert_identical(plan.with_kv_bits(16), cluster, trace)
    r4 = _assert_identical(plan.with_kv_bits(4), cluster, trace)
    assert r4.completed >= r16.completed
    assert r4.rejected <= r16.rejected


def test_drifting_trace_identical_with_replanning(general_admission):
    plan, cluster = PLANS["mixed"]
    trace = sample_diurnal_arrivals(
        3.0, 40.0, amplitude=0.9, period=20.0, seed=7,
        max_prompt=64, max_gen=32,
    )
    res = _assert_identical(
        plan, cluster, trace, drift=DRIFT, replanner=workload_refit_replanner
    )
    assert res.iterations > 0


def test_recut_migration_identical(general_admission):
    """A replanner that changes the stage cut exercises the engine's
    migration path (KV recharge under the new plan's cost model)."""
    plan, cluster = PLANS["mixed"]
    plan4 = ExecutionPlan.uniform(
        "opt-30b", cluster.devices, plan.workload, bits=4
    )

    def flip(p, estimate):
        return plan4 if p is plan else plan

    trace = sample_bursty_arrivals(
        2.0, 50.0, burst_rate=10.0, burst_duration=5.0, burst_period=15.0,
        seed=101, max_prompt=64, max_gen=16,
    )
    drift = DriftConfig(
        window=5.0, threshold=0.25, hysteresis=1, cooldown=6.0,
        rebuild_seconds=0.4,
    )
    res = _assert_identical(plan, cluster, trace, drift=drift, replanner=flip)
    assert res.migrations >= 1


def test_overloaded_diurnal_trace_identical_with_replanning(
    general_admission, monkeypatch
):
    """Sustained overload against the T4 stages' KV headroom keeps the
    queue ahead of the pipeline, so the engine commits most boundaries
    through speculative stretches that drift windows and refit migrations
    cut short — the regime the million-request replays live in, at a
    size the spec can follow."""
    plan, cluster = PLANS["mixed"]
    trace = sample_diurnal_arrivals(
        80.0, 40.0, amplitude=0.35, period=10.0, seed=11,
        max_prompt=128, max_gen=64,
    )
    drift = DriftConfig(
        window=2.5, threshold=0.4, hysteresis=2, cooldown=5.0,
        rebuild_seconds=1.0,
    )
    stretched = []
    stretch = _Engine._stretch
    monkeypatch.setattr(
        _Engine, "_stretch",
        lambda self: stretched.append(stretch(self)) or stretched[-1],
    )
    res = _assert_identical(
        plan, cluster, trace, drift=drift, replanner=workload_refit_replanner
    )
    assert res.mean_inflight > 50 and res.rejected == 0  # memory-bound backlog
    assert sum(stretched) > res.iterations // 2
    assert res.migrations >= 1


def test_many_prompt_lengths_priced_without_scalar_kernel(
    general_admission, monkeypatch
):
    """Binding the cost model prices every distinct prompt length of the
    trace in one table, so a replay — migrations included — never walks
    the scalar per-layer kernel; the result still equals the spec."""
    import repro.sim.kernels as kernels

    plan, cluster = PLANS["mixed"]
    plan4 = ExecutionPlan.uniform(
        "opt-30b", cluster.devices, plan.workload, bits=4
    )

    def flip(p, estimate):
        return plan4 if p is plan else plan

    trace = sample_poisson_arrivals(2.0, 1000.0, seed=5)
    assert len(trace) >= 2000
    assert np.unique(trace.prompt_lens).size >= 400
    drift = DriftConfig(
        window=20.0, threshold=0.3, hysteresis=1, cooldown=200.0,
        rebuild_seconds=0.4,
    )
    kw = dict(drift=drift, replanner=flip)
    oracle = spec_simulate_continuous(plan, cluster, trace, **kw)

    calls = []
    real = kernels.layer_exec_time
    monkeypatch.setattr(
        kernels, "layer_exec_time",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    vec = simulate_online(plan, cluster, trace, policy="continuous", **kw)
    assert not calls, f"{len(calls)} scalar layer_exec_time calls"
    assert vec.migrations >= 1
    for f in dataclasses.fields(vec):
        assert getattr(vec, f.name) == getattr(oracle, f.name), f.name


# ---------------------------------------------------------------------------
# hypothesis sweep: random traces x engines x knobs
# ---------------------------------------------------------------------------


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan_name=st.sampled_from(sorted(PLANS)),
    kind=st.sampled_from(["poisson", "bursty", "diurnal"]),
    seed=st.integers(0, 2**16),
    engine=st.sampled_from(["analytic", "des"]),
    max_batch=st.sampled_from([None, 8, 3]),
    with_drift=st.booleans(),
    general=st.booleans(),
)
def test_random_traces_identical(
    plan_name, kind, seed, engine, max_batch, with_drift, general
):
    plan, cluster = PLANS[plan_name]
    if kind == "poisson":
        trace = sample_poisson_arrivals(
            3.0, 25.0, seed=seed, max_prompt=96, max_gen=24
        )
    elif kind == "bursty":
        trace = sample_bursty_arrivals(
            2.0, 30.0, burst_rate=9.0, burst_duration=4.0, burst_period=12.0,
            seed=seed, max_prompt=64, max_gen=16,
        )
    else:
        trace = sample_diurnal_arrivals(
            3.0, 30.0, amplitude=0.9, period=15.0, seed=seed,
            max_prompt=64, max_gen=32,
        )
    kw = {"engine": engine, "max_batch": max_batch}
    if with_drift:
        kw.update(drift=DRIFT, replanner=workload_refit_replanner)
    with _general_admission(general):
        _assert_identical(plan, cluster, trace, **kw)


# ---------------------------------------------------------------------------
# degenerate inputs: empty percentiles stay warning-free
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "simulate",
    [
        lambda *a: simulate_online(*a, policy="continuous"),
        spec_simulate_continuous,
    ],
    ids=["engine", "spec"],
)
def test_all_rejected_trace_is_infeasible_without_warnings(simulate):
    """Requests too big to ever admit: the result degrades to the
    infeasible sentinel (inf latencies, zero throughput) without numpy's
    empty-slice RuntimeWarning leaking from the percentile math."""
    plan, cluster = PLANS["mixed"]
    trace = [OnlineRequest(arrival=0.0, prompt_len=10**6, gen_len=10**6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = simulate(plan, cluster, trace)
    assert res.completed == 0
    assert res.rejected == 1
    assert res.mean_latency == float("inf")
    assert res.p50_latency == float("inf")
    assert res.p95_latency == float("inf")
    assert res.p99_latency == float("inf")
    assert res.p95_ttft == float("inf")
    assert res.throughput == 0.0
    assert "rejected" in res.summary()


def test_empty_serve_report_percentiles_are_safe():
    """ServeReport with nothing completed: every percentile/mean reads 0
    and nothing trips a numpy empty-slice warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ServeReport(policy="continuous")
        assert report.latency_p50 == 0.0
        assert report.latency_p95 == 0.0
        assert report.latency_p99 == 0.0
        assert report.ttft_mean == 0.0
        assert report.ttft_p95 == 0.0
        assert report.throughput_tokens_per_s == 0.0


# ---------------------------------------------------------------------------
# trace persistence round-trip
# ---------------------------------------------------------------------------


def test_saved_trace_replays_identically(tmp_path):
    """save_trace -> load_trace is an exact float64 round-trip, so the
    replayed simulation is byte-identical to the original."""
    plan, cluster = PLANS["mixed"]
    trace = sample_diurnal_arrivals(
        3.0, 30.0, amplitude=0.9, period=15.0, seed=3,
        max_prompt=64, max_gen=32,
    )
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    loaded = load_trace(path)
    np.testing.assert_array_equal(loaded.arrivals, trace.arrivals)
    np.testing.assert_array_equal(loaded.prompt_lens, trace.prompt_lens)
    np.testing.assert_array_equal(loaded.gen_lens, trace.gen_lens)
    a = simulate_online(plan, cluster, trace, policy="continuous")
    b = simulate_online(plan, cluster, loaded, policy="continuous")
    assert a == b
