"""Tests for the cache-aware planner search engine.

Covers the engine's asserted-identical-result guarantee against
``ilp_spec``: the problem the DP solves is the cell-by-cell
``spec_assemble`` MILP, the shared prediction cache is numerically
transparent, the DP's cutoff prunes exactly what lies above it, and the
engine (with dedup and incumbent pruning) returns the same best
objective and an equivalent plan as the serial ``spec_optimize`` loop.
"""

import numpy as np
import pytest

from repro.core.heuristic import _seed_dp
from repro.core.ilp import BitAssignmentILP
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig, _microbatch_pairs
from repro.core.search import PlannerStats, SearchEngine
from repro.hardware import make_cluster
from repro.quant import IndicatorTable, synthetic_indicator
from repro.workload import Workload

from .ilp_spec import (
    spec_adabits,
    spec_assemble,
    spec_coefficients,
    spec_optimize,
    spec_optimize_auto_kv,
    spec_price,
    spec_solve,
)


@pytest.fixture(scope="module")
def search_cluster():
    """2xT4 + 1xV100: two interchangeable devices so block orderings
    exercise the type-sequence dedup key."""
    return make_cluster([("T4-16G", 2), ("V100-32G", 1)], name="search3")


def _make_opt(cluster, latmodel, **overrides):
    cfg = dict(
        group_size=4,
        theta=1.0,
        prefill_mb_cap=4,
        decode_mb_candidates=(4, 8),
    )
    cfg.update(overrides)
    return LLMPQOptimizer(
        "opt-13b",
        cluster,
        Workload(prompt_len=128, gen_len=16, global_batch=8),
        config=PlannerConfig(**cfg),
        latency_model=latmodel,
    )


def _plan_signature(plan):
    return (
        plan.layer_bits,
        tuple(st.device.type_name for st in plan.stages),
        tuple(len(st.layer_bits) for st in plan.stages),
        plan.prefill_microbatch,
        plan.decode_microbatch,
    )


# ---------------------------------------------------------------- assembly


@pytest.mark.parametrize("group", [1, 4])
@pytest.mark.parametrize("theta", [1.0, 10.0])
@pytest.mark.parametrize(
    "include_latency,phase_aware", [(True, True), (True, False), (False, True)]
)
def test_assembly_exactly_equals_spec(
    search_cluster, latmodel_13b, opt13b, group, theta, include_latency, phase_aware
):
    """What the DPs optimise is exactly the scalar/dict-loop spec MILP.
    With latency: the DP's assignment satisfies every ``spec_assemble``
    row, the spec's objective vector prices it at the DP's optimum, and
    no assignment HiGHS finds prices lower.  The zero-latency ("adabits")
    cases pin the seed DP's optimum to ``spec_adabits``."""
    ind = synthetic_indicator(opt13b).normalized().grouped(group)
    ilp = BitAssignmentILP(
        cfg=opt13b,
        workload=Workload(prompt_len=128, gen_len=16, global_batch=8),
        devices=list(search_cluster.devices),
        latency_model=latmodel_13b,
        indicator=ind,
        prefill_microbatch=4,
        decode_microbatch=8,
        group_size=group,
        theta=theta,
        phase_aware=phase_aware,
    )
    if not include_latency:
        _, _, _, mem, omega = ilp._coefficients()
        caps = [ilp._device_capacity(j) for j in range(len(ilp.devices))]
        gdev, choice, quality = _seed_dp(mem, omega, caps)
        sol = spec_adabits(ilp)
        assert sol.feasible and quality == sol.quality_term
        assert sorted(set(gdev)) == list(range(len(ilp.devices)))
        return
    prob = spec_assemble(ilp)
    sol, milp = ilp.solve(), spec_solve(prob)
    assert sol.feasible and milp.feasible
    rows = prob.A @ prob.x_of(sol.group_device, sol.group_bits)
    assert np.all(rows >= prob.lo) and np.all(rows <= prob.hi)
    assert spec_price(prob, sol) == pytest.approx(sol.objective, rel=1e-12)
    assert sol.objective <= spec_price(prob, milp) * (1 + 1e-9)


def test_cached_coefficients_bitwise_equal_scalar_path(
    search_cluster, latmodel_13b, opt13b
):
    """The prediction cache fills coefficient tensors with the same
    numbers as per-cell ``predict_layer`` calls."""
    ind = synthetic_indicator(opt13b).normalized().grouped(2)
    ilp = BitAssignmentILP(
        cfg=opt13b,
        workload=Workload(prompt_len=128, gen_len=16, global_batch=8),
        devices=list(search_cluster.devices),
        latency_model=latmodel_13b,
        indicator=ind,
        prefill_microbatch=2,
        decode_microbatch=4,
        group_size=2,
    )
    _, tp_v, td_v, mem_v, om_v = ilp._coefficients()
    _, tp_l, td_l, mem_l, om_l = spec_coefficients(ilp)
    assert np.array_equal(tp_v, tp_l)
    assert np.array_equal(td_v, td_l)
    assert np.array_equal(mem_v, mem_l)
    assert np.array_equal(om_v, om_l)


def test_prediction_cache_reused_across_assemblies(search_cluster, latmodel_13b):
    """A second solve of the same candidate costs zero cache misses, and
    reuses the run's range table."""
    opt = _make_opt(search_cluster, latmodel_13b)
    ordering = opt.orderings()[0]
    ilp = opt.build_ilp(ordering, 4, 8)
    first = ilp.solve()
    misses = opt.prediction_cache.misses
    (table,) = opt.range_tables.values()
    rows = table.num_rows
    again = ilp.solve()
    assert opt.prediction_cache.misses == misses
    assert opt.prediction_cache.hits > 0
    assert opt.range_tables == {next(iter(opt.range_tables)): table}
    assert table.num_rows == rows
    assert again.objective == first.objective


# ---------------------------------------------------------------- bounds


def test_lower_bound_is_admissible(search_cluster, latmodel_13b):
    """The best-first order's bound never exceeds the candidate's optimum,
    nor the simulated objective the search compares it against."""
    opt = _make_opt(search_cluster, latmodel_13b)
    engine = SearchEngine(opt)
    assert engine.prepare() == min(u.bound for u in engine._uniques)
    for u in engine._uniques:
        sol = u.ilp.solve()
        assert sol.feasible
        assert u.bound <= sol.objective
        plan = opt.plan_from_solution(u.ordering, sol, u.ilp, u.mb_p, u.mb_d)
        simulated = opt.simulate(plan).total_latency + opt.config.theta * sol.quality_term
        assert sol.objective <= simulated


def test_dp_cutoff_prunes_exactly_above_the_optimum(search_cluster, latmodel_13b):
    """For every unique candidate of the grid: a cutoff at or above the
    DP's own optimum returns the uncut assignment and objective bit for
    bit — the tie at ``cutoff == optimum`` included — and any cutoff
    below it, down to the next float, comes back ``pruned``, never
    ``infeasible``."""
    opt = _make_opt(search_cluster, latmodel_13b)
    engine = SearchEngine(opt)
    engine.prepare()
    assert len(engine._uniques) == len(engine._candidates) == 12
    for u in engine._uniques:
        plain = u.ilp.solve()
        assert plain.feasible
        for cutoff in (plain.objective, plain.objective + 1e-3, plain.objective + 0.5):
            cut = u.ilp.solve(cutoff)
            assert cut.status == "optimal"
            assert (cut.group_device, cut.group_bits, cut.objective) == (
                plain.group_device, plain.group_bits, plain.objective
            )
        for cutoff in (np.nextafter(plain.objective, -np.inf), plain.objective - 1e-3):
            below = u.ilp.solve(cutoff)
            assert below.status == "pruned" and not below.feasible


# ---------------------------------------------------------------- engine


@pytest.fixture(scope="module")
def spec_result(search_cluster, latmodel_13b):
    return spec_optimize(_make_opt(search_cluster, latmodel_13b))


@pytest.fixture(scope="module")
def engine_result(search_cluster, latmodel_13b):
    return _make_opt(search_cluster, latmodel_13b).optimize()


def test_engine_matches_spec_best(engine_result, spec_result):
    assert engine_result.feasible and spec_result.feasible
    assert engine_result.objective == pytest.approx(
        spec_result.objective, abs=1e-6
    )
    assert _plan_signature(engine_result.plan) == _plan_signature(
        spec_result.plan
    )


def test_engine_candidate_grid_matches_spec(engine_result, spec_result):
    """Same enumeration order and per-candidate metadata as the serial
    loop; the winning objective is the grid minimum in both."""
    assert len(engine_result.candidates) == len(spec_result.candidates)
    for e, ref in zip(engine_result.candidates, spec_result.candidates):
        assert e.ordering == ref.ordering
        assert e.prefill_microbatch == ref.prefill_microbatch
        assert e.decode_microbatch == ref.decode_microbatch
    # every non-pruned optimal candidate's objective agrees with the spec
    for e, ref in zip(engine_result.candidates, spec_result.candidates):
        if e.status == "optimal":
            assert e.objective == pytest.approx(ref.objective, abs=1e-6)
    best = min(
        c.objective for c in engine_result.candidates if c.status == "optimal"
    )
    assert engine_result.objective == pytest.approx(best)


def test_pruned_candidates_cannot_beat_winner(engine_result, spec_result):
    """Admissibility in action: every candidate the engine pruned has a
    serial-loop objective no better than the returned best."""
    for e, ref in zip(engine_result.candidates, spec_result.candidates):
        if e.status == "pruned":
            assert ref.objective >= engine_result.objective - 1e-9


def test_stats_accounting(engine_result):
    st = engine_result.stats
    assert st is not None
    assert st.candidates_total == len(engine_result.candidates)
    assert st.candidates_total == st.unique_candidates + st.dedup_skipped
    assert st.solved >= 1
    assert st.cache_misses > 0
    assert st.cache_hits > 0  # shared cache pays off across candidates
    assert st.total_seconds > 0
    row = st.row()
    assert row["candidates"] == st.candidates_total
    assert "search:" in st.describe()


def test_prune_and_dedup_preserve_spec_result(search_cluster, latmodel_13b):
    """Dedup and incumbent pruning always run; on a grid where both fire
    (one ordering listed twice) the engine returns the plan of the serial
    walk that does neither."""

    def make():
        opt = _make_opt(search_cluster, latmodel_13b)
        base = opt.orderings()
        opt.orderings = lambda: base + [base[-1]]
        return opt

    res = make().optimize()
    ref = spec_optimize(make())
    assert res.stats.dedup_skipped > 0 and res.stats.pruned > 0
    assert res.objective == pytest.approx(ref.objective, abs=1e-6)
    assert _plan_signature(res.plan) == _plan_signature(ref.plan)
    assert res.plan.kv_bits_per_stage == ref.plan.kv_bits_per_stage


# ---------------------------------------------------------------- dedup


def test_dedup_fans_solutions_back_out(search_cluster, latmodel_13b):
    """Injected duplicate orderings are solved once and fanned back out
    with per-member records identical to the representative's."""
    opt = _make_opt(search_cluster, latmodel_13b)
    base = opt.orderings()
    opt.orderings = lambda: base + [base[0]]  # duplicate type sequence
    pairs = len(_microbatch_pairs(opt.workload, len(base[0]), opt.config))
    res = opt.optimize()
    st = res.stats
    assert st.dedup_skipped == pairs
    assert st.unique_candidates == len(base) * pairs
    assert st.candidates_total == (len(base) + 1) * pairs
    # the duplicated ordering's records mirror the first ordering's
    for rep, dup in zip(res.candidates[:pairs], res.candidates[-pairs:]):
        assert rep.ordering == dup.ordering
        assert rep.status == dup.status
        if rep.status == "optimal":
            assert dup.objective == pytest.approx(rep.objective, abs=1e-9)

    # and the best plan is unchanged by the duplicate
    ref = _make_opt(search_cluster, latmodel_13b).optimize()
    assert res.objective == pytest.approx(ref.objective, abs=1e-6)
    assert _plan_signature(res.plan) == _plan_signature(ref.plan)


# ---------------------------------------------------------------- cutoff


@pytest.fixture(scope="module")
def cutoff_case(small_hetero_cluster, latmodel_13b, workload):
    """T4 + V100, opt-13b at the paper's default workload: a grid on
    which the incumbent cuts candidates off inside the DP."""

    def make(**overrides):
        cfg = dict(group_size=4, theta=1.0, prefill_mb_cap=8,
                   decode_mb_candidates=(4, 8))
        cfg.update(overrides)
        return LLMPQOptimizer(
            "opt-13b", small_hetero_cluster, workload,
            config=PlannerConfig(**cfg), latency_model=latmodel_13b,
        )

    return make


def test_cutoff_search_matches_spec(cutoff_case, monkeypatch):
    """The engine with the incumbent inside the DP returns the serial
    walk's plan; what it cut is counted as pruned, not infeasible."""
    cutoffs = []
    real = BitAssignmentILP.solve

    def spy(ilp, cutoff=np.inf):
        cutoffs.append(cutoff)
        return real(ilp, cutoff)

    monkeypatch.setattr(BitAssignmentILP, "solve", spy)
    res = cutoff_case().optimize()
    ref = spec_optimize(cutoff_case())
    assert res.objective == pytest.approx(ref.objective, abs=1e-6)
    assert _plan_signature(res.plan) == _plan_signature(ref.plan)

    st = res.stats
    assert st.pruned >= 1 and st.infeasible == 0
    statuses = [c.status for c in res.candidates]
    assert st.pruned == statuses.count("pruned")
    assert st.solved == statuses.count("optimal") + statuses.count("oom")
    assert st.solved + st.pruned == len(cutoffs)  # every DP run is accounted for
    # the first solve has no incumbent yet; every later one carries it
    assert cutoffs[0] == np.inf and all(np.isfinite(c) for c in cutoffs[1:])
    assert cutoffs[1:] == sorted(cutoffs[1:], reverse=True)
    assert f"{st.pruned} pruned by the incumbent" in st.describe()
    assert st.row()["pruned"] == st.pruned
    # everything the cutoff rejected really loses in the serial walk
    for e, r in zip(res.candidates, ref.candidates):
        if e.status == "pruned":
            assert r.objective >= res.objective - 1e-9



def test_stats_merge_sums_every_counter():
    a = PlannerStats(pruned=3, solved=2, infeasible=1, total_seconds=1.0)
    b = PlannerStats(pruned=4, solved=1, total_seconds=0.5)
    m = a.merged(b)
    assert (m.pruned, m.solved, m.infeasible) == (7, 3, 1)
    assert m.total_seconds == 1.5


# ---------------------------------------------------------------- KV levels


def _auto_kv_opt(cluster, latmodel, w, **overrides):
    cfg = dict(group_size=4, theta=1.0, prefill_mb_cap=4,
               decode_mb_candidates=(4, 8), kv_bits="auto")
    cfg.update(overrides)
    return LLMPQOptimizer(
        "opt-13b", cluster, w, config=PlannerConfig(**cfg), latency_model=latmodel
    )


def _assert_same_auto_kv(res, ref):
    assert res.objective == ref.objective
    assert _plan_signature(res.plan) == _plan_signature(ref.plan)
    assert res.plan.kv_bits_per_stage == ref.plan.kv_bits_per_stage
    assert len(res.candidates) == len(ref.candidates)
    for e, r in zip(res.candidates, ref.candidates):
        assert (e.ordering, e.prefill_microbatch, e.decode_microbatch) == (
            r.ordering, r.prefill_microbatch, r.decode_microbatch
        )
        if e.status == "optimal":
            assert e.objective == pytest.approx(r.objective, abs=1e-6)


def test_auto_kv_shared_incumbent_matches_level_loop(
    small_hetero_cluster, latmodel_13b, workload
):
    """One incumbent across the KV levels prunes whole levels (every KV16
    and KV4 candidate is cut off here) and still returns what the plain
    level-by-level loop returns, records in KV16, KV8, KV4 order."""
    opt = _auto_kv_opt(small_hetero_cluster, latmodel_13b, workload)
    res = opt.optimize()
    ref = spec_optimize_auto_kv(opt)
    _assert_same_auto_kv(res, ref)
    per_level = len(res.candidates) // 3
    by_level = [
        {c.status for c in res.candidates[i * per_level : (i + 1) * per_level]}
        for i in range(3)
    ]
    assert by_level[0] == {"pruned"} and by_level[2] == {"pruned"}
    assert "optimal" in by_level[1]
    assert res.stats.unique_candidates == len(res.candidates)
    assert res.stats.solved < 3  # fewer solved candidates than levels


def test_auto_kv_equal_scores_go_to_the_higher_level(
    small_hetero_cluster, latmodel_13b, small_workload
):
    """Constructed tie: a KV-error table under which KV8's penalty makes
    up exactly what its faster decode gains over KV16.  The level loop
    keeps the earlier (higher) level on a tie; so must the shared
    incumbent, whichever level it visits first."""
    base = {
        kv: _auto_kv_opt(
            small_hetero_cluster, latmodel_13b, small_workload, kv_bits=kv
        ).optimize().objective
        for kv in (16, 8)
    }
    gap = base[16] - base[8]
    assert gap > 0
    while base[8] + gap < base[16]:
        gap = np.nextafter(gap, np.inf)
    while base[8] + gap > base[16]:
        gap = np.nextafter(gap, -np.inf)
    assert base[8] + gap == base[16]

    def tied():
        opt = _auto_kv_opt(small_hetero_cluster, latmodel_13b, small_workload)
        omega = np.zeros((opt.cfg.num_layers, 3))
        omega[0] = (1e3, gap, 0.0)  # KV4 out of the race, KV8 tied with KV16
        opt.kv_indicator = IndicatorTable(omega=omega, bits=(4, 8, 16), method="tie")
        # keep the refinement from breaking the tie it is handed
        opt._refine_stage_kv = lambda res: (res.plan, res.predicted, res.objective)
        return opt

    res = tied().optimize()
    ref = spec_optimize_auto_kv(tied())
    assert tied()._kv_penalty(ref.plan, (8, 8)) == gap  # the tie is real
    assert ref.plan.kv_bits_per_stage == (16, 16)
    _assert_same_auto_kv(res, ref)
