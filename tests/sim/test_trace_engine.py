"""The event-batch trace engine vs. the one-boundary-at-a-time spec.

``simulate_online(engine="analytic"|"des", policy="continuous"|"wave")``
runs through :mod:`repro.sim.trace_engine`; ``tests/sim/online_spec.py``
is the scalar loop it must reproduce.  The contract is **exact equality**:
every ``OnlineResult`` field — floats included — must match the spec
bit for bit, with or without drift detection and live replanning.  The
engine admits against one integer ledger of KV token slots; the spec
keeps the paper's per-stage byte ledger, charged either through the cost
model (``linear``: tokens x ``kv_token_charges()``) or straight from the
planner's memory model (``general``: ``kv_cache_bytes`` per stage) — the
``kv_charge`` fixture runs each case against both, so every case proves
"token slots == per-stage bytes".

Every equality case also compares the four ``sample_sink`` arrays
(latencies and TTFTs in the spec's append order, with their trace rows):
the engine derives them once per block from ``adm_it`` and the clock log
instead of appending per event.

A hypothesis sweep drives random traces/plans/knobs through both
engines; deterministic cases pin the canned trace, migrations that
change the stage cut or shrink the budget below the slots in flight,
heads that can never fit, and the degenerate
all-rejected/empty-percentile paths; the wave policy is replayed against
the spec's wave rule the same way.  A second sweep keeps a backlog, so
the advance's array steps end in every way they can, and the
benchmark's million-request overload replay is held to its goldens bit
for bit.  A rule-based machine steps the
engine one event at a time under either policy — with forced block
closes and (continuous) migrations in between — and checks the retire
ring against the three in-flight integers after every rule, and that
every arrival ends exactly once.
"""

import dataclasses
import json
import warnings
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.core.plan import ExecutionPlan
from repro.cost import stagecosts
from repro.cost.stagecosts import StageCostModel
from repro.runtime.replan import DriftConfig, workload_refit_replanner
from repro.runtime.scheduler import ServeReport
from repro.sim import trace_engine
from repro.sim.online import OnlineRequest, simulate_online
from repro.sim.trace_engine import _Engine, trace_columns
from repro.workload.traces import (
    ArrivalTrace,
    load_trace,
    sample_bursty_arrivals,
    sample_diurnal_arrivals,
    sample_poisson_arrivals,
    save_trace,
)

from .costview_cases import canned_trace, mb1_plan, mixed_plan
from .online_spec import memory_model_charge, spec_simulate_online

PLANS = {"mixed": mixed_plan(), "mb1": mb1_plan()}

DRIFT = DriftConfig(
    window=5.0, threshold=0.3, hysteresis=1, cooldown=10.0,
    rebuild_seconds=0.25,
)


@pytest.fixture(params=[None, memory_model_charge], ids=["linear", "general"])
def kv_charge(request):
    """How the *spec* charges a request's per-stage bytes (the engine has
    one path): ``None`` is the cost model's ``request_kv_bytes``, the
    other the planner's memory-model formula."""
    return request.param


def _assert_identical(
    plan, cluster, trace, *, kv_charge=None, policy="continuous", **kw
):
    got: dict = {}
    want: dict = {}
    vec = simulate_online(
        plan, cluster, trace, policy=policy, sample_sink=got, **kw
    )
    oracle = spec_simulate_online(
        plan, cluster, trace, policy=policy, kv_charge=kv_charge,
        sample_sink=want, **kw
    )
    if vec != oracle:
        bad = [
            f"{f.name}: {getattr(vec, f.name)!r} != {getattr(oracle, f.name)!r}"
            for f in dataclasses.fields(vec)
            if getattr(vec, f.name) != getattr(oracle, f.name)
        ]
        raise AssertionError(
            "trace engine diverged from the spec:\n  " + "\n  ".join(bad)
        )
    for key in ("latencies", "ttfts", "lat_idx", "tt_idx"):
        assert np.array_equal(got[key], want[key]), f"sample_sink[{key!r}]"
    return vec


# ---------------------------------------------------------------------------
# deterministic equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("engine", ["analytic", "des"])
@pytest.mark.parametrize("max_batch", [None, 4, 2])
def test_canned_trace_identical(plan_name, engine, max_batch, kv_charge):
    plan, cluster = PLANS[plan_name]
    _assert_identical(
        plan, cluster, canned_trace(), engine=engine, max_batch=max_batch,
        kv_charge=kv_charge,
    )


@pytest.mark.parametrize("engine", ["analytic", "des"])
def test_mixed_kv_trace_identical(engine, kv_charge):
    """Per-stage KV bitwidths reshape per-stage admission charges and
    decode times; the vectorized engine must still match the oracle bit
    for bit — the token budget is then set by whichever stage's
    non-uniform slot bytes run out first."""
    plan, cluster = PLANS["mixed"]
    kv_plan = plan.with_kv_bits((4, 8, 16, 4))
    res = _assert_identical(
        kv_plan, cluster, canned_trace(), engine=engine, kv_charge=kv_charge
    )
    assert res.completed > 0


def test_kv4_admits_more_than_kv16(kv_charge):
    """At the same memory budget, KV4's smaller per-request charge must
    never complete fewer requests than fp16 KV on an overload trace."""
    plan, cluster = PLANS["mixed"]
    trace = canned_trace() * 4
    r16 = _assert_identical(
        plan.with_kv_bits(16), cluster, trace, kv_charge=kv_charge
    )
    r4 = _assert_identical(
        plan.with_kv_bits(4), cluster, trace, kv_charge=kv_charge
    )
    assert r4.completed >= r16.completed
    assert r4.rejected <= r16.rejected


def test_drifting_trace_identical_with_replanning(kv_charge):
    plan, cluster = PLANS["mixed"]
    trace = sample_diurnal_arrivals(
        3.0, 40.0, amplitude=0.9, period=20.0, seed=7,
        max_prompt=64, max_gen=32,
    )
    res = _assert_identical(
        plan, cluster, trace, drift=DRIFT, replanner=workload_refit_replanner,
        kv_charge=kv_charge,
    )
    assert res.iterations > 0


def test_recut_migration_identical(kv_charge, monkeypatch):
    """A replanner that changes the stage cut exercises the engine's
    migration path (held slots re-counted against the new plan's
    budget, replay of the requests in flight priced by the new plan's
    cost model)."""
    plan, cluster, trace, kw = _recut_case()
    replayed = []
    replay = _Engine._replay_price
    monkeypatch.setattr(
        _Engine, "_replay_price",
        lambda self, pause: replayed.append(self._in_flight().size)
        or replay(self, pause),
    )
    res = _assert_identical(plan, cluster, trace, kv_charge=kv_charge, **kw)
    assert res.migrations >= 1
    # the pause priced a replay of requests found by the ``adm_it`` scan
    assert replayed and min(replayed) > 0


def _recut_case():
    """Bursty trace + a replanner flipping between the mixed plan and a
    uniform 4-bit re-cut of it (``test_recut_migration_identical``)."""
    plan, cluster = PLANS["mixed"]
    plan4 = ExecutionPlan.uniform(
        "opt-30b", cluster.devices, plan.workload, bits=4
    )
    trace = sample_bursty_arrivals(
        2.0, 50.0, burst_rate=10.0, burst_duration=5.0, burst_period=15.0,
        seed=101, max_prompt=64, max_gen=16,
    )
    drift = DriftConfig(
        window=5.0, threshold=0.25, hysteresis=1, cooldown=6.0,
        rebuild_seconds=0.4,
    )
    return plan, cluster, trace, dict(
        drift=drift, replanner=lambda p, est: plan4 if p is plan else plan
    )


def test_bound_cost_model_prices_the_whole_run(latmodel_cluster3):
    """``cost_model=`` alone decides the time source: a run handed a
    fitted-model cost model stays on the fitted model across a re-cut
    migration — field for field the run that spells ``source`` and
    ``latency_model`` out — instead of dropping to the roofline kernels
    at the first new stage cut.  The fleet's ``SimReplica`` passes its
    cost model exactly this way."""
    from repro.fleet.replica import SimReplica

    plan, cluster, trace, kw = _recut_case()
    fitted = dict(source="model", latency_model=latmodel_cluster3)
    spelled = simulate_online(
        plan, cluster, trace, policy="continuous", **fitted, **kw
    )
    assert spelled.migrations >= 1
    scm = StageCostModel(plan, cluster, latency_model=latmodel_cluster3)
    bound = _assert_identical(plan, cluster, trace, cost_model=scm, **kw)
    assert bound == spelled
    assert bound != simulate_online(
        plan, cluster, trace, policy="continuous", **kw
    )
    replica = SimReplica(0, plan, cluster, **fitted, **kw)
    assert replica.serve(trace).online == spelled


@pytest.mark.parametrize("engine", ["analytic", "des"])
def test_migration_below_held_slots_blocks_admission(
    engine, kv_charge, monkeypatch
):
    """A migration from KV4 to KV16 under overload leaves the in-flight
    requests holding ~4x the new plan's token budget.  Nothing in flight
    is dropped and nothing queued is rejected: admission simply blocks
    until retirements bring the held slots back under the budget."""
    plan, cluster = PLANS["mixed"]
    loose, tight = plan.with_kv_bits(4), plan.with_kv_bits(16)
    trace = sample_diurnal_arrivals(
        80.0, 20.0, amplitude=0.35, period=10.0, seed=11,
        max_prompt=128, max_gen=64,
    )
    drift = DriftConfig(
        window=2.5, threshold=0.4, hysteresis=1, cooldown=1000.0,
        rebuild_seconds=1.0,
    )
    after = []
    migrate = _Engine._migrate
    monkeypatch.setattr(
        _Engine, "_migrate",
        lambda self, new: migrate(self, new)
        or after.append((self.held, self.budget)),
    )
    res = _assert_identical(
        loose, cluster, trace, engine=engine, drift=drift,
        replanner=lambda p, est: tight if p is loose else None,
        kv_charge=kv_charge,
    )
    (held, budget), = after
    assert budget == StageCostModel(tight, cluster).kv_token_budget()
    assert held > 3 * budget
    assert res.migrations == 1 and res.rejected == 0
    assert res.completed == len(trace)


@pytest.mark.parametrize("engine", ["analytic", "des"])
def test_never_fitting_head_rejected_only_once_empty(engine, kv_charge):
    """A request larger than the whole KV pool arrives behind work in
    flight: it holds the queue (FIFO, head of line) until the system has
    drained, is rejected then — never earlier — and the requests behind
    it are served."""
    plan, cluster = PLANS["mixed"]
    budget = StageCostModel(plan, cluster).kv_token_budget()
    small = [
        OnlineRequest(arrival=0.05 * i, prompt_len=32 + i, gen_len=6 + i % 5)
        for i in range(24)
    ]
    giant = OnlineRequest(arrival=0.31, prompt_len=budget, gen_len=4)
    res = _assert_identical(
        plan, cluster, small + [giant], engine=engine, kv_charge=kv_charge
    )
    assert res.rejected == 1 and res.completed == len(small)
    without = _assert_identical(plan, cluster, small, engine=engine)
    # the requests queued behind the giant waited for the drain
    assert res.mean_ttft > without.mean_ttft


def _admissions(eng, it0: int, ptr0: int, now0: float, committed: int):
    """How each boundary one advance committed admitted: ``fit`` where
    the queue head stopped short of the rows arrived by the boundary's
    start (KV slots or the cap bound it), ``arrival`` where it took
    every one of them."""
    j0 = it0 - eng.base
    starts = np.r_[now0, eng.t_end[j0 + 1:j0 + committed]]
    heads = ptr0 + np.searchsorted(
        eng.adm_it[ptr0:eng.ptr], it0 + np.arange(1, committed + 1), "right"
    )
    admitting = heads > np.r_[ptr0, heads[:-1]]
    arrived = eng.arr.searchsorted(starts, "right")
    return admitting & (heads < arrived), admitting & (heads == arrived)


def _spy_advances(monkeypatch) -> list:
    """Record ``(committed, fit, arrival)`` for every advance."""
    seen = []
    advance = _Engine._advance

    def spy(self, q):
        it0, ptr0, now0 = self.it, self.ptr, self.now
        committed = advance(self, q)
        seen.append((committed, *_admissions(self, it0, ptr0, now0, committed)))
        return committed

    monkeypatch.setattr(_Engine, "_advance", spy)
    return seen


def _overload_case():
    """A diurnal trace at several times what the T4 stages' KV headroom
    serves, with a drift detector that closes a window every few
    boundaries."""
    plan, cluster = PLANS["mixed"]
    trace = sample_diurnal_arrivals(
        80.0, 40.0, amplitude=0.35, period=10.0, seed=11,
        max_prompt=128, max_gen=64,
    )
    drift = DriftConfig(
        window=2.5, threshold=0.4, hysteresis=2, cooldown=5.0,
        rebuild_seconds=1.0,
    )
    return plan, cluster, trace, drift


def test_overloaded_diurnal_trace_identical_with_replanning(
    kv_charge, monkeypatch
):
    """Sustained overload against the T4 stages' KV headroom keeps the
    queue ahead of the pipeline, so the engine commits most boundaries
    through advances whose admissions KV slots bound, cut short by drift
    windows and refit migrations — the regime the million-request
    replays live in, at a size the spec can follow."""
    plan, cluster, trace, drift = _overload_case()
    seen = _spy_advances(monkeypatch)
    res = _assert_identical(
        plan, cluster, trace, drift=drift, replanner=workload_refit_replanner,
        kv_charge=kv_charge,
    )
    assert res.mean_inflight > 50 and res.rejected == 0  # memory-bound backlog
    assert sum(m for m, fit, _ in seen if fit.any()) > res.iterations // 2
    assert res.migrations >= 1


@pytest.mark.parametrize("engine", ["analytic", "des"])
def test_backlog_heads_take_array_steps(engine):
    """In the backlog an advance works out its queue heads in array
    steps, not in one turn of its walk per boundary.  Each turn reads
    the decode price's pieces once, so the calls count the turns: on the
    overloaded trace above 0.22 per committed boundary (0.9 when every
    admitting boundary took a turn), and the array step's clock reads
    the folded pieces of all its batch sizes at once instead."""
    plan, cluster, trace, drift = _overload_case()
    seen = Counter()
    pieces, advance = StageCostModel.decode_price_pieces, _Engine._advance

    def turn(self, batch):
        seen.update(turns=1)
        return pieces(self, batch)

    def spy(self, q):
        committed = advance(self, q)
        seen.update(committed=committed)
        return committed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StageCostModel, "decode_price_pieces", turn)
        mp.setattr(_Engine, "_advance", spy)
        res = simulate_online(
            plan, cluster, trace, policy="continuous", engine=engine,
            drift=drift, replanner=workload_refit_replanner,
        )
    assert res.mean_inflight > 50 and seen["committed"] == res.iterations - 1
    assert seen["turns"] <= 0.25 * seen["committed"], dict(seen)
    assert _assert_identical(
        plan, cluster, trace, engine=engine, drift=drift,
        replanner=workload_refit_replanner,
    ) == res


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(20, 90),
    short=st.sampled_from([0.0, 0.2, 0.7]),
    spacing=st.sampled_from([0.0, 0.05, 0.3]),
    bursts=st.integers(1, 3),
    max_batch=st.sampled_from([None, 3, 12]),
    window=st.sampled_from([None, 0.3, 2.0]),
    engine=st.sampled_from(["analytic", "des"]),
    kv_charge=st.sampled_from([None, memory_model_charge]),
)
def test_backlog_array_steps_identical(
    seed, n, short, spacing, bursts, max_batch, window, engine, kv_charge
):
    """Random traces that keep a backlog, through every way an array
    step ends: rows with ``gen_len`` 1 or 2 (they leave inside the chunk
    that admits them, so a chunk may commit one boundary), a cap that
    binds before KV slots do, arrivals that keep landing while the
    backlog is admitted (its head crosses ``q`` mid-chunk) and bursts
    far enough apart that the group drains, and drift windows a few
    boundaries long — on both engines.  Each equals the spec field for
    field; read from the engine's own columns, no boundary holds more
    KV slots than the budget and every arrival ends exactly once."""
    plan, cluster = PLANS["mixed"]
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(spacing, n) if spacing else np.zeros(n)
    gaps[rng.choice(n, bursts - 1, replace=False)] += rng.uniform(5.0, 30.0, bursts - 1)
    gen = rng.integers(3, 25, n)
    few = rng.random(n) < short
    gen[few] = rng.integers(1, 3, few.sum())
    trace = ArrivalTrace(
        arrivals=np.cumsum(gaps), prompt_lens=rng.integers(16, 900, n),
        gen_lens=gen,
    )
    kw = {"engine": engine, "max_batch": max_batch}
    if window is not None:  # windows close, but nothing migrates
        kw["drift"] = DriftConfig(window=window, threshold=0.3, rebuild_seconds=0.25)
    engines = []
    run = _Engine.run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "run", lambda self: engines.append(self) or run(self))
        res = _assert_identical(plan, cluster, trace, kv_charge=kv_charge, **kw)
    eng, = engines
    rows = np.flatnonzero(eng.adm_it)
    a, toks = eng.adm_it[rows], eng._toks[rows]
    held = np.zeros(eng.it + 2, dtype=np.int64)  # slots held in boundary i
    np.add.at(held, a, toks)
    np.add.at(held, a + eng.sgen[rows], -toks)
    assert np.cumsum(held).max() <= eng.budget
    assert rows.size + res.rejected == n and res.completed == rows.size
    assert np.array_equal(np.sort(eng.sample_sink["lat_idx"]), rows)


@pytest.mark.parametrize("seed", [0, 7])
def test_overload_benchmark_replay_equals_its_golden_exactly(seed):
    """The benchmark's own ``sim_trace_overload`` replay (10^6 requests,
    drift replanning, its set-up) equals its committed golden exactly:
    floats by ``float.hex``, counts by ``==`` (the benchmark's own check
    allows a relative 1e-9)."""
    from bench.wl_sim import GOLDENS, TraceOverload

    w = TraceOverload(seed, 1.0)
    w.setup()
    assert w.run_pass()["accounted"] == len(w.trace)
    got = w.golden()
    want = json.loads(GOLDENS.read_text())[w.name][str(seed)]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert float(got[key]).hex() == value.hex(), key
        else:
            assert got[key] == value, key


def test_underloaded_trace_never_stretches(monkeypatch):
    """Below capacity every arrived request is admitted at its first
    boundary: no admission the engine commits is bound by KV slots or
    the cap (the overloaded case above pins the bound from the other
    side)."""
    plan, cluster = PLANS["mixed"]
    trace = sample_poisson_arrivals(1.0, 120.0, seed=9, max_prompt=96, max_gen=24)
    seen = _spy_advances(monkeypatch)
    res = _assert_identical(plan, cluster, trace)
    assert res.completed == len(trace) > 100 and res.mean_inflight < 8
    assert sum(arrival.sum() for _, _, arrival in seen) > 50
    assert not any(fit.any() for _, fit, _ in seen)


@pytest.mark.parametrize("engine", ["analytic", "des"])
def test_below_capacity_prices_each_boundary_once(engine):
    """Below capacity an advance's schedule runs on its own closed-form
    clock, so one decode pricing call commits it: one call per advance
    on either engine.  On the analytic engine every boundary priced and
    every row placed on the ring is committed — on this trace 7 advances
    price and commit 936 boundaries and place 117 rows (bound: 8 calls
    per 100 arrivals), where a clock guessed from the last advance's
    steps took 14 calls and priced 1785.
    Tolerance: the guess agrees with the priced clock to rounding, so an
    arrival within 1e-9 (relative) of a boundary start may land on the
    other side of it and cut one advance short; the bound on short
    advances is the number of such arrivals (none on this trace).  The
    DES guesses an admitting boundary's flow-shop lead from the last
    priced decode unit, so its advances do commit short: 12 calls for
    117 arrivals here (bound: 11 per 100 arrivals).  None of it can move
    a result."""
    plan, cluster = PLANS["mixed"]
    trace = sample_poisson_arrivals(1.0, 120.0, seed=9, max_prompt=96, max_gen=24)
    seen = Counter()
    advance, ring = _Engine._advance, _Engine._ring_add
    engines = []

    def spy(self, q):
        engines.append(self)
        n0 = seen["priced"]
        committed = advance(self, q)
        seen.update(advances=1, committed=committed, short=seen["priced"] > n0 + committed)
        return committed

    def price(self, *a, _f=StageCostModel.unit_decode_times_batch):
        seen.update(calls=1, priced=len(a[0]))
        return _f(self, *a)

    def price_one(self, *a, _f=StageCostModel.unit_decode_times):
        seen.update(calls=1, priced=1)
        return _f(self, *a)

    def unplace(self, slots, toks, add=np.add):
        if add is np.subtract:
            seen.update(removed=np.size(slots))
        return ring(self, slots, toks, add)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StageCostModel, "unit_decode_times", price_one)
        mp.setattr(StageCostModel, "unit_decode_times_batch", price)
        mp.setattr(_Engine, "_advance", spy)
        mp.setattr(_Engine, "_ring_add", unplace)
        res = simulate_online(plan, cluster, trace, policy="continuous", engine=engine)
    assert len(trace) > 100 and res.completed == len(trace)
    assert seen["calls"] == seen["advances"]
    assert 100 * seen["calls"] <= (11 if engine == "des" else 8) * len(trace)
    if engine == "analytic":
        eng = engines[-1]
        ends = eng.t_end[1:eng.it + 1]  # one block: the log holds every end
        gap = np.abs(ends[None, :] - eng.arr[:, None]).min(axis=1)
        near = int((gap <= 1e-9 * eng.arr).sum())
        assert seen["short"] <= near
        if not seen["short"]:
            assert seen["priced"] == seen["committed"] and seen["removed"] == 0
    _assert_identical(plan, cluster, trace, engine=engine)


def _advance_ends(monkeypatch) -> Counter:
    """Spy on ``_Engine._advance``: after each advance, count which ways
    of ending or bounding it the engine state shows — the group drained,
    an admission inside it (or the arrived queue head at its end) bound
    by KV slots (``fit``) or by the cap, a drift poll migrated the plan,
    the block filled — whether several arrivals shared one boundary past
    the first, it committed fewer boundaries than it priced (``short``),
    a backlog drained inside it (a KV-bound admission, then one that took
    every arrival), the DES priced admissions inside it, or a wave ran to
    its drain."""
    seen = Counter()
    advance, batch = _Engine._advance, StageCostModel.unit_decode_times_batch
    priced = [0]

    def count(self, *a):
        priced[0] += len(a[0])
        return batch(self, *a)

    def spy(self, q):
        it0, ptr0, now0 = self.it, self.ptr, self.now
        mig0, n0 = self.migrations, priced[0]
        committed = advance(self, q)
        head = self.ptr
        waiting = self.b and head < self.n_req and self.arr[head] <= self.now
        later = self.adm_it[ptr0:head]
        later = later[later > it0 + 1]
        fit, arrival = _admissions(self, it0, ptr0, now0, committed)
        # the requests in flight at each bound admission's boundary
        bound = it0 + 1 + np.flatnonzero(fit)
        a, g = self.adm_it[:head], self.sgen[:head]
        live = ((a > 0) & (a <= bound[:, None]) & (a + g - 1 >= bound[:, None])).sum(axis=1)
        capped = live == (self.max_batch or -1)
        seen.update(k for k, hit in {
            "drain": self.b == 0,
            "fit": (~capped).any()
            or waiting and self.held + self._toks[head] > self.budget,
            "cap": capped.any() or waiting and self.b == self.max_batch,
            "migrate": self.migrations > mig0,
            "block": self.it - self.base == trace_engine._BLOCK,
            "shared": np.unique(later).size < later.size,
            "short": priced[0] - n0 > committed,
            "backlog": fit.any() and arrival[fit.argmax():].any(),
            "des": self.des and (fit | arrival).any(),
            "wave": self.wave and self.b == 0,
        }.items() if hit)
        return committed

    monkeypatch.setattr(StageCostModel, "unit_decode_times_batch", count)
    monkeypatch.setattr(_Engine, "_advance", spy)
    return seen


def _advance_case(end: str, monkeypatch):
    """A run on which advances end by ``end``."""
    plan, cluster = PLANS["mixed"]
    rng = np.random.default_rng(1)
    poisson = sample_poisson_arrivals(1.0, 80.0, seed=4, max_prompt=96, max_gen=24)
    if end == "fit":  # long decodes of ~1.8k slots: about eight fit
        return plan, cluster, ArrivalTrace(
            arrivals=np.cumsum(rng.exponential(4.0, 40)),
            prompt_lens=rng.integers(1000, 2000, 40),
            gen_lens=rng.integers(200, 400, 40),
        ), {}
    if end == "cap":
        return plan, cluster, poisson, dict(max_batch=3)
    if end == "migrate":
        return _recut_case()
    if end == "block":
        monkeypatch.setattr(trace_engine, "_BLOCK", 3)
    if end == "drain":
        return plan, cluster, sample_poisson_arrivals(
            0.3, 100.0, seed=4, max_prompt=96, max_gen=6
        ), {}
    if end == "shared":  # arrivals in threes, a millisecond apart
        head = np.sort(rng.uniform(0.0, 60.0, 40))
        return plan, cluster, ArrivalTrace(
            arrivals=np.sort(np.concatenate((head, head + 1e-3, head + 2e-3))),
            prompt_lens=rng.integers(16, 96, 120),
            gen_lens=rng.integers(8, 24, 120),
        ), {}
    if end == "short":  # the schedule prices every boundary 100x too high
        pieces = StageCostModel.decode_price_pieces

        def slow(self, batch):
            xs, al, be = pieces(self, batch)
            return xs, [100 * a for a in al], [100 * b for b in be]

        monkeypatch.setattr(StageCostModel, "decode_price_pieces", slow)
    if end == "backlog":  # bursts a few times what the KV pool holds
        return plan, cluster, sample_bursty_arrivals(
            1.0, 60.0, burst_rate=60.0, burst_duration=2.0, burst_period=20.0,
            seed=3, max_prompt=512, max_gen=48,
        ), {}
    if end == "des":
        return plan, cluster, poisson, dict(engine="des")
    if end == "wave":
        return plan, cluster, poisson, dict(policy="wave")
    return plan, cluster, poisson, {}


@pytest.mark.parametrize(
    "end", ["fit", "cap", "migrate", "block", "drain", "shared", "short"]
)
def test_admission_window_ends_identical(end, kv_charge, monkeypatch):
    """Every way an advance below capacity is bounded or ends — KV fit
    or the cap binding an admission, a drift window closing on a
    migration, the block filling, the group draining between arrivals,
    several arrivals landing inside one boundary, a schedule clock
    forced 100x off so its advances commit short of what they priced —
    commits only what the one-boundary spec runs: each case equals it
    field for field, and the spy sees that ending."""
    plan, cluster, trace, kw = _advance_case(end, monkeypatch)
    seen = _advance_ends(monkeypatch)
    _assert_identical(plan, cluster, trace, kv_charge=kv_charge, **kw)
    assert seen[end] > 0, dict(seen)


@pytest.mark.parametrize("end", ["backlog", "des", "wave"])
def test_advance_ends_identical(end, kv_charge, monkeypatch):
    """The endings one advance adds to the window's: a backlog that
    drains inside it (admissions KV slots bound, then ones that take
    every arrival), the DES engine admitting inside it, a wave decoding
    to its drain — each equals the spec field for field."""
    plan, cluster, trace, kw = _advance_case(end, monkeypatch)
    seen = _advance_ends(monkeypatch)
    _assert_identical(plan, cluster, trace, kv_charge=kv_charge, **kw)
    assert seen[end] > 0, dict(seen)


@pytest.mark.parametrize("engine", ["analytic", "des"])
@pytest.mark.parametrize("block", [3, 50])
def test_samples_identical_across_block_boundaries(block, engine, monkeypatch):
    """Completions are ordered once per block; with the block shrunk to
    a few boundaries a run crosses many block ends (inside advances and
    a migration's wake) and the derived samples still come out in the
    spec's append order."""
    monkeypatch.setattr(trace_engine, "_BLOCK", block)
    closed = []
    close = _Engine._close_block
    monkeypatch.setattr(
        _Engine, "_close_block", lambda self: closed.append(self.it) or close(self)
    )
    plan, cluster = PLANS["mixed"]
    trace = sample_diurnal_arrivals(
        80.0, 10.0, amplitude=0.35, period=10.0, seed=11,
        max_prompt=128, max_gen=64,
    )
    drift = DriftConfig(
        window=2.5, threshold=0.4, hysteresis=2, cooldown=5.0,
        rebuild_seconds=1.0,
    )
    res = _assert_identical(
        plan, cluster, trace, engine=engine, drift=drift,
        replanner=workload_refit_replanner,
    )
    assert len(closed) >= res.iterations // block > 3
    plan, cluster, trace, kw = _recut_case()
    assert _assert_identical(plan, cluster, trace, engine=engine, **kw).migrations


#: every plan of ``PLANS`` and a per-stage KV mix
PRICE_PLANS = {
    **PLANS,
    "mixed-kv": (PLANS["mixed"][0].with_kv_bits((4, 8, 16, 4)), PLANS["mixed"][1]),
}


@pytest.mark.parametrize("source", ["kernels", "model"])
@pytest.mark.parametrize("plan_name", sorted(PRICE_PLANS))
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    batches=st.lists(st.integers(1, 512), min_size=1, max_size=8),
    context=st.floats(1.0, 8192.0),
)
def test_decode_price_pieces_equal_the_batch_price(
    plan_name, source, batches, context, latmodel_cluster3
):
    """The advance's clock reads ``decode_price_pieces``: for each batch
    size, the convex piecewise-linear fold over (stage, bits) pairs of
    the max of a compute and a memory line in the mean context, plus the
    batch-only add-ons (the fitted model: one line, read at the truncated
    context).  At a drawn context and on both sides of every breakpoint
    it equals the stage sum of ``unit_decode_times_batch`` to 1e-12
    relative — a guess, the price itself stays the batch call's."""
    plan, cluster = PRICE_PLANS[plan_name]
    scm = StageCostModel(
        plan, cluster, source=source,
        latency_model=latmodel_cluster3 if source == "model" else None,
    )
    bb, c, got = [], [], []
    for b in batches:
        xs, al, be = scm.decode_price_pieces(b)
        assert xs == sorted(xs) and len(al) == len(be) == len(xs) + 1
        for x in [context] + [x * f for x in xs if x > 1.0 for f in (1 - 1e-9, 1 + 1e-9)]:
            at = float(int(x)) if source == "model" else x
            k = bisect_right(xs, at)
            bb.append(b)
            c.append(x)
            got.append(al[k] + be[k] * at)
    want = scm.unit_decode_times_batch(np.array(bb), np.array(c)).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_many_prompt_lengths_priced_without_scalar_kernel(
    kv_charge, monkeypatch
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
    oracle = spec_simulate_online(
        plan, cluster, trace, kv_charge=kv_charge, **kw
    )

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
# the wave policy: the runtime's wave rule on the same engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("engine", ["analytic", "des"])
@pytest.mark.parametrize("max_batch", [None, 4, 1])
def test_wave_canned_trace_identical(plan_name, engine, max_batch, kv_charge):
    plan, cluster = PLANS[plan_name]
    res = _assert_identical(
        plan, cluster, canned_trace(), policy="wave", engine=engine,
        max_batch=max_batch, kv_charge=kv_charge,
    )
    assert res.completed == 12 and res.waves > 1
    assert res.mean_wave_batch == 12 / res.waves


@pytest.mark.parametrize("engine", ["analytic", "des"])
def test_wave_padding_binds_the_budget_identical(engine, kv_charge, monkeypatch):
    """Under overload against the T4 stages' KV pool a wave is sized by
    its padded slots, ``k * (s_max + n_max)``, which run out before the
    members' own ``sum(s + n)`` does: ``wave_admits`` cuts the engine's
    candidate run short, and every field still equals the spec's wave on
    its byte ledger."""
    plan, cluster = PLANS["mixed"]
    trace = sample_diurnal_arrivals(
        80.0, 10.0, amplitude=0.35, period=10.0, seed=11,
        max_prompt=128, max_gen=64,
    )
    cut = []
    admits = stagecosts.wave_admits
    monkeypatch.setattr(
        stagecosts, "wave_admits",
        lambda s, n, budget: cut.append(admits(s, n, budget) < len(s))
        or admits(s, n, budget),
    )
    res = _assert_identical(
        plan, cluster, trace, policy="wave", engine=engine,
        kv_charge=kv_charge,
    )
    assert res.completed == len(trace) and res.rejected == 0
    assert sum(cut) > res.waves // 2


@pytest.mark.parametrize("engine", ["analytic", "des"])
@pytest.mark.parametrize("max_batch", [None, 3])
def test_wave_never_fitting_heads_rejected_only_once_empty(
    engine, max_batch, kv_charge
):
    """Requests larger than the whole KV pool — one at the very front,
    one behind a running wave — are rejected only when the system is
    empty (``s + n > budget``: unfit even alone), and the requests behind
    them form the next waves."""
    plan, cluster = PLANS["mixed"]
    budget = StageCostModel(plan, cluster).kv_token_budget()
    small = [
        OnlineRequest(arrival=0.05 * i, prompt_len=32 + i, gen_len=6 + i % 5)
        for i in range(24)
    ]
    giants = [
        OnlineRequest(arrival=0.0, prompt_len=budget, gen_len=1),
        OnlineRequest(arrival=0.31, prompt_len=budget, gen_len=4),
    ]
    res = _assert_identical(
        plan, cluster, giants + small, policy="wave", engine=engine,
        max_batch=max_batch, kv_charge=kv_charge,
    )
    assert res.rejected == 2 and res.completed == len(small)


@pytest.mark.parametrize("engine", ["analytic", "des"])
@pytest.mark.parametrize("max_batch", [None, 3])
def test_wave_of_single_tokens_is_one_boundary(engine, max_batch, kv_charge):
    """``n_max = 1``: a wave prefills, samples its one token and retires
    in its own admission boundary, so every boundary is a wave."""
    plan, cluster = PLANS["mixed"]
    trace = [
        OnlineRequest(arrival=0.02 * (i // 4), prompt_len=16 + 8 * i, gen_len=1)
        for i in range(20)
    ]
    res = _assert_identical(
        plan, cluster, trace, policy="wave", engine=engine,
        max_batch=max_batch, kv_charge=kv_charge,
    )
    assert res.completed == len(trace) and res.iterations == res.waves > 1


# ---------------------------------------------------------------------------
# hypothesis sweep: random traces x engines x knobs
# ---------------------------------------------------------------------------


@settings(
    max_examples=16, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan_name=st.sampled_from(sorted(PLANS)),
    kind=st.sampled_from(["poisson", "bursty", "diurnal"]),
    seed=st.integers(0, 2**16),
    engine=st.sampled_from(["analytic", "des"]),
    max_batch=st.sampled_from([None, 8, 3]),
    with_drift=st.booleans(),
    kv_charge=st.sampled_from([None, memory_model_charge]),
    policy=st.sampled_from(["continuous", "wave"]),
)
def test_random_traces_identical(
    plan_name, kind, seed, engine, max_batch, with_drift, kv_charge, policy
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
    kw = {"engine": engine, "max_batch": max_batch, "policy": policy}
    if with_drift and policy == "continuous":
        kw.update(drift=DRIFT, replanner=workload_refit_replanner)
    _assert_identical(plan, cluster, trace, kv_charge=kv_charge, **kw)


# ---------------------------------------------------------------------------
# the retire ring, one event at a time
# ---------------------------------------------------------------------------


class RetireRingMachine(RuleBasedStateMachine):
    """Steps ``_Engine`` event by event on a random small trace — ties,
    idle gaps in which the group drains, ``gen_len == 1`` (retires in
    its own admission boundary), prompts big enough to fill the KV pool,
    one that never fits — with block closes forced between events, and,
    under the continuous policy, migrations (looser, tighter, re-cut).
    After every rule the ring must agree with the three in-flight
    integers, counted per request from ``adm_it`` (a wave member at its
    wave's maxima); at the end every arrival has ended exactly once."""

    eng = None

    @initialize(
        seed=st.integers(0, 2**16), n=st.integers(1, 28),
        max_batch=st.sampled_from([None, 2, 4]),
        engine=st.sampled_from(["analytic", "des"]),
        block=st.sampled_from([3, 8, trace_engine._BLOCK]),
        policy=st.sampled_from(["continuous", "wave"]),
    )
    def build(self, seed, n, max_batch, engine, block, policy):
        self.block0, trace_engine._BLOCK = trace_engine._BLOCK, block
        plan, self.cluster = PLANS["mixed"]
        recut = ExecutionPlan.uniform(
            "opt-30b", self.cluster.devices, plan.workload, bits=4
        )
        self.plans = [plan.with_kv_bits(4), plan.with_kv_bits(16), recut]
        rng = np.random.default_rng(seed)
        prompts = rng.integers(8, 9000, size=n)
        prompts[rng.random(n) < 0.05] = 10**6  # never fits
        trace = ArrivalTrace(
            arrivals=np.cumsum(rng.choice([0.0, 0.0, 0.02, 0.5, 40.0], size=n)),
            prompt_lens=prompts, gen_lens=rng.integers(1, 13, size=n),
        )
        drift = DriftConfig(window=1.0, threshold=1e9, rebuild_seconds=0.25)
        self.sink = {}
        self.eng = _Engine(
            trace_columns(trace), max_batch=max_batch, engine=engine,
            scm=StageCostModel(self.plans[0], self.cluster), drift=drift,
            replanner=None, sample_sink=self.sink, policy=policy,
        )
        self.over = False  # a migration left held slots above the budget

    def running(self):
        return self.eng.ptr < self.eng.n_req or self.eng.b > 0

    @rule()
    def step(self):
        if self.running():  # a finished run has no next event
            self.eng._step()

    @precondition(running)
    @rule()
    def close_block(self):
        self.eng._close_block()

    @precondition(
        lambda self: self.running() and self.eng.b
        and self.eng.it - self.eng.base < trace_engine._BLOCK
    )
    @rule()
    def advance(self):
        """An advance wherever the engine could run one: a group in
        flight, under either policy and either engine."""
        e = self.eng
        q = e.ptr
        if q < e.n_req and e.arr[q] <= e.now:
            q = int(e.arr.searchsorted(e.now, side="right"))
        assert e._advance(q) >= 1

    @precondition(lambda self: self.running() and not self.eng.wave)
    @rule(k=st.integers(0, 2))
    def migrate(self, k):
        self.eng._migrate(self.plans[k])
        self.over = self.eng.held > self.eng.budget

    @invariant()
    def ring_agrees_with_the_integers(self):
        e = self.eng
        if e is None:
            return
        j = e.it - e.base
        assert 0 <= j <= trace_engine._BLOCK
        assert e.r_cnt[j + 1:].sum() == e.b
        assert e.r_tok[j + 1:].sum() == e.held
        assert e.ptr == np.count_nonzero(e.adm_it) + e.rejected
        rows = np.flatnonzero(e.adm_it)
        adm, s, g = e.adm_it[rows], e.spr[rows], e.sgen[rows]
        if e.wave and rows.size:  # one wave per admission boundary, padded
            starts = np.flatnonzero(np.r_[True, np.diff(adm) != 0])
            sizes = np.diff(np.r_[starts, rows.size])
            s = np.repeat(np.maximum.reduceat(s, starts), sizes)
            g = np.repeat(np.maximum.reduceat(g, starts), sizes)
        else:
            assert np.array_equal(e._in_flight(), rows[adm + g - 1 > e.it])
        live = adm + g - 1 > e.it
        assert np.count_nonzero(live) == e.b
        assert e.held == (s + g)[live].sum()
        assert e.ctx == (s + e.it + 1 - adm)[live].sum()
        self.over = self.over and e.held > e.budget
        assert e.held <= e.budget or self.over

    def teardown(self):
        e = self.eng
        if e is None:
            return
        try:
            while self.running():
                e._step()
                self.ring_agrees_with_the_integers()
            res = e.run()
            admitted = np.flatnonzero(e.adm_it)
            assert admitted.size + e.rejected == e.n_req
            assert res.completed == admitted.size and res.rejected == e.rejected
            assert np.array_equal(self.sink["tt_idx"], admitted)
            assert np.array_equal(np.sort(self.sink["lat_idx"]), admitted)
        finally:
            trace_engine._BLOCK = self.block0


RetireRingMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_retire_ring_machine = RetireRingMachine.TestCase


# ---------------------------------------------------------------------------
# malformed traces are refused up front, by either policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["continuous", "wave"])
@pytest.mark.parametrize(
    "bad, column",
    [
        ((float("nan"), 8, 4), "arrivals"),
        ((float("inf"), 8, 4), "arrivals"),
        ((-1.0, 8, 4), "arrivals"),
        ((0.0, 8, 0), "gen_lens"),
        ((0.0, 8, -1), "gen_lens"),
        ((0.0, 0, 4), "prompt_lens"),
        ((0.0, -3, 4), "prompt_lens"),
        ((0.0, 8.5, 4), "prompt_lens"),
    ],
)
def test_malformed_record_is_a_value_error(policy, bad, column):
    """A record list is validated like an ``ArrivalTrace``: a NaN
    arrival used to hang the continuous engine, a ``gen_len <= 0`` would
    retire in the ring's past and never leave, and ``prompt_len=8.5``
    was served as 8."""
    import time

    plan, cluster = PLANS["mixed"]
    trace = [OnlineRequest(*bad), OnlineRequest(0.1, 8, 4)]
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=column):
        simulate_online(plan, cluster, trace, policy=policy)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# degenerate inputs: empty percentiles stay warning-free
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "simulate",
    [
        lambda *a: simulate_online(*a, policy="continuous"),
        spec_simulate_online,
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
