"""Tests for the parallel, cache-aware planner search engine.

Covers the engine's asserted-identical-result guarantee against
``ilp_spec``: MILP assembly is *exactly* equal to the cell-by-cell
``spec_assemble``, the shared prediction cache is numerically
transparent, and the engine (serial or parallel, with dedup and LP-bound
pruning) returns the same best objective and an equivalent plan as the
serial ``spec_optimize`` loop.
"""

import numpy as np
import pytest

from repro.core.ilp import BitAssignmentILP, lp_lower_bound, solve_assembled
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig, _microbatch_pairs
from repro.hardware import make_cluster
from repro.quant import synthetic_indicator
from repro.workload import Workload

from .ilp_spec import spec_assemble, spec_coefficients, spec_optimize


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
    """Property-style equality: objective vector, constraint matrix and
    row bounds from the numpy builder are bitwise identical to the
    scalar/dict-loop spec."""
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
        include_latency=include_latency,
        phase_aware=phase_aware,
    )
    vec = ilp.assemble()
    leg = spec_assemble(ilp)
    assert vec is not None and leg is not None
    assert np.array_equal(vec.c, leg.c)
    assert np.array_equal(vec.lo, leg.lo)
    assert np.array_equal(vec.hi, leg.hi)
    assert vec.A.shape == leg.A.shape
    assert (vec.A - leg.A).nnz == 0  # identical sparsity *and* values
    assert np.array_equal(vec.omega, leg.omega)


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
    """A second assembly of the same candidate costs zero cache misses."""
    opt = _make_opt(search_cluster, latmodel_13b)
    ordering = opt.orderings()[0]
    _, ilp = opt._solve_candidate(ordering, 4, 8)
    misses = opt.prediction_cache.misses
    ilp.assemble()
    assert opt.prediction_cache.misses == misses
    assert opt.prediction_cache.hits > 0


# ---------------------------------------------------------------- bounds


def test_lp_bound_is_admissible(search_cluster, latmodel_13b):
    """LP relaxation optimum never exceeds the MILP optimum."""
    opt = _make_opt(search_cluster, latmodel_13b)
    for ordering in opt.orderings():
        _, ilp = opt._solve_candidate(ordering, 4, 8)
        prob = ilp.assemble()
        assert prob is not None
        sol = solve_assembled(prob)
        assert sol.feasible
        assert lp_lower_bound(prob) <= sol.objective + 1e-9


# ---------------------------------------------------------------- engine


@pytest.fixture(scope="module")
def spec_result(search_cluster, latmodel_13b):
    return spec_optimize(_make_opt(search_cluster, latmodel_13b))


@pytest.fixture(scope="module")
def engine_result(search_cluster, latmodel_13b):
    return _make_opt(search_cluster, latmodel_13b).optimize()


@pytest.fixture(scope="module")
def parallel_result(search_cluster, latmodel_13b):
    return _make_opt(search_cluster, latmodel_13b, n_jobs=2).optimize()


def test_engine_matches_spec_best(engine_result, spec_result):
    assert engine_result.feasible and spec_result.feasible
    assert engine_result.objective == pytest.approx(
        spec_result.objective, abs=1e-6
    )
    assert _plan_signature(engine_result.plan) == _plan_signature(
        spec_result.plan
    )


def test_parallel_matches_serial(parallel_result, engine_result):
    assert parallel_result.objective == pytest.approx(
        engine_result.objective, abs=1e-6
    )
    assert _plan_signature(parallel_result.plan) == _plan_signature(
        engine_result.plan
    )
    assert parallel_result.stats.n_jobs == 2


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


def test_prune_and_dedup_toggles_preserve_result(
    search_cluster, latmodel_13b, engine_result
):
    plain = _make_opt(
        search_cluster, latmodel_13b, prune=False, dedup=False
    ).optimize()
    assert plain.stats.pruned == 0
    assert plain.stats.dedup_skipped == 0
    assert plain.objective == pytest.approx(engine_result.objective, abs=1e-6)
    assert _plan_signature(plain.plan) == _plan_signature(engine_result.plan)


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
