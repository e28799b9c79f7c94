"""Unit tests for adabits + the bitwidth-transfer heuristic (Algorithm 2)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.heuristic import (
    _as_plan,
    _neighbors,
    _quality,
    _score,
    _seed_dp,
    _stages,
    adabits_plan,
    bitwidth_transfer,
    heuristic_optimize,
)
from repro.core.ilp import BitAssignmentILP
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig
from repro.core.plan import StagePlan
from repro.cost.memory import kv_cache_bytes
from repro.hardware import get_gpu, paper_cluster
from repro.hardware.cluster import Device
from repro.models import get_model
from repro.quant import IndicatorTable
from repro.sim.pipeline import simulate_pipeline
from repro.workload import Workload

from .ilp_spec import CappedILP, spec_adabits, spec_assemble


def _objective(opt, plan):
    return _score(opt, _stages(plan), plan.prefill_microbatch, plan.decode_microbatch)[0]


@pytest.fixture(scope="module")
def planner(cluster3, latmodel_cluster3, workload):
    return LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    )


@pytest.fixture(scope="module")
def seed_plan(planner):
    return adabits_plan(planner)


def test_adabits_feasible_and_high_precision(planner, seed_plan, cluster3):
    assert seed_plan is not None
    from repro.sim.pipeline import simulate_pipeline

    res = simulate_pipeline(seed_plan, cluster3)
    assert res.feasible
    # quality-only: should use every spare byte for precision
    assert seed_plan.average_bits() > 8


def test_bitwidth_transfer_never_degrades(planner, seed_plan):
    improved = bitwidth_transfer(planner, seed_plan)
    assert _objective(planner, improved) <= _objective(planner, seed_plan) + 1e-9


def test_bitwidth_transfer_preserves_layer_count(planner, seed_plan):
    improved = bitwidth_transfer(planner, seed_plan)
    assert improved.num_layers == seed_plan.num_layers
    assert improved.num_stages == seed_plan.num_stages


def test_heuristic_optimize_close_to_exact(planner, cluster3):
    from repro.sim.pipeline import simulate_pipeline

    heur = heuristic_optimize(planner)
    assert heur.feasible
    exact = planner.optimize()
    t_h = simulate_pipeline(heur.plan, cluster3).throughput
    t_e = simulate_pipeline(exact.plan, cluster3).throughput
    # Table 8: the heuristic lands in the same ballpark as the ILP
    assert t_h > 0.6 * t_e


def test_heuristic_faster_than_exact_per_candidate(planner):
    """The heuristic's point is solve-time: its per-ordering cost must be
    small (Table 8's overhead column)."""
    heur = heuristic_optimize(planner)
    solve_times = [c.solve_seconds for c in heur.candidates if np.isfinite(c.objective)]
    assert solve_times and max(solve_times) < 30.0


@pytest.mark.parametrize("kv_bits,kept", [(16, 1), ("auto", 4)])
def test_heuristic_builds_only_kept_plans(
    kv_bits, kept, cluster3, latmodel_cluster3, workload, monkeypatch
):
    """Neighbours are scored from per-stage rows: a heuristic run builds a
    ``StageCostModel`` and runs ``simulate_pipeline`` once per plan it
    keeps — the winner over both orderings; with ``kv_bits="auto"`` each
    level's winner and the refined plan — not once per neighbour."""
    from repro.core import optimizer as optimizer_module
    from repro.cost.stagecosts import StageCostModel
    from repro.sim import pipeline

    counts = {"init": 0, "simulate": 0}
    real_init, real_simulate = StageCostModel.__init__, pipeline.simulate_pipeline

    def init(self, *args, **kwargs):
        counts["init"] += 1
        real_init(self, *args, **kwargs)

    def simulate(*args, **kwargs):
        counts["simulate"] += 1
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(StageCostModel, "__init__", init)
    monkeypatch.setattr(pipeline, "simulate_pipeline", simulate)
    monkeypatch.setattr(optimizer_module, "simulate_pipeline", simulate)
    opt = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, decode_mb_candidates=(8,),
                             prefill_mb_cap=8, kv_bits=kv_bits),
        latency_model=latmodel_cluster3,
    )
    res = heuristic_optimize(opt)
    assert res.feasible and len(opt.orderings()) == 2
    assert len(opt.evaluations) > 100  # distinct candidates scored
    assert counts == {"init": kept, "simulate": kept}


def test_adabits_with_explicit_ordering(planner, cluster3):
    ordering = list(reversed(cluster3.devices))
    plan = adabits_plan(planner, ordering)
    assert plan is not None
    assert plan.stages[0].device.type_name == "V100-32G"


# ---------------------------------------------------------------- shared memo


def _assert_same_simulation(opt, plan, cluster, latmodel, simulate=None):
    """``plan`` through the run's memo equals a fresh simulation that
    shares nothing, field for field; returns the memo's result."""
    got = simulate(opt, plan) if simulate else opt.simulate(plan)
    ref = simulate_pipeline(plan, cluster, latency_model=latmodel)
    assert got.prefill_latency == ref.prefill_latency
    assert got.decode_latency == ref.decode_latency
    assert got.stage_reports == ref.stage_reports
    assert got.oom_stages == ref.oom_stages
    return got


def _assert_same_totals(template, stages, mb_p, mb_d, totals, cluster, latmodel):
    """A candidate scored from the run's per-stage rows equals a fresh
    ``simulate_pipeline(..., latency_model=...)`` of the same plan (built
    on ``template``) that shares nothing: latencies, OOM stages, every
    stage's busy times and so the straggler Algorithm 2 picks."""
    ref = simulate_pipeline(
        _as_plan(template, stages, mb_p, mb_d), cluster, latency_model=latmodel
    )
    assert totals.prefill_latency == ref.prefill_latency
    assert totals.decode_latency == ref.decode_latency
    assert totals.total_latency == ref.total_latency
    assert totals.oom_stages == ref.oom_stages
    reports = ref.stage_reports
    assert totals.prefill_busy.tolist() == [r.prefill_time for r in reports]
    assert totals.decode_first.tolist() == [r.decode_time_first for r in reports]
    assert totals.decode_last.tolist() == [r.decode_time_last for r in reports]
    busy = [r.prefill_time + r.decode_time_last for r in reports]
    assert int(np.argmax(totals.prefill_busy + totals.decode_last)) == int(np.argmax(busy))
    return ref


def test_transfer_scores_through_shared_memo_bitwise(
    cluster3, latmodel_cluster3, workload
):
    """Every candidate Algorithm 2 scores is priced through the planner
    run's one cost memo; each such score equals, bit for bit, a fresh
    ``simulate_pipeline(..., latency_model=...)`` that shares nothing."""
    opt = LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4, decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    )
    seed = adabits_plan(opt)
    shared = type(opt).score
    scored = []

    def checked(stages, mb_p, mb_d):
        scored.append(stages)
        totals = shared(opt, stages, mb_p, mb_d)
        _assert_same_totals(seed, stages, mb_p, mb_d, totals, cluster3, latmodel_cluster3)
        return totals

    opt.score = checked
    hits0 = opt.prediction_cache.hits
    bitwidth_transfer(opt, seed)
    assert len(scored) > 50  # the seed plus every neighbour of every round
    assert len({tuple(b for _, bits, _ in st for b in bits) for st in scored}) > 20
    # the run's memo served them: far more hits than distinct keys
    cache = opt.prediction_cache
    assert cache.hits - hits0 > 10 * (cache.size + len(cache._sweeps))


def test_memoised_decode_sweeps_are_read_only(planner, seed_plan):
    planner.simulate(seed_plan)
    cache = planner.prediction_cache
    assert cache._sweeps
    for row in cache._sweeps.values():
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0
    # a repeated sweep is the same object, counted as a hit
    contexts = 512 + np.arange(1, 100, dtype=np.float64)
    hits = cache.hits
    a = cache.decode_sweep("T4-16G", 8, 8, contexts)
    b = cache.decode_sweep("T4-16G", 8, 8, contexts.copy())
    assert a is b and cache.hits >= hits + 1
    assert np.array_equal(
        a, planner.latency_model.decode_step_times("T4-16G", 8, 8, contexts)
    )


@pytest.mark.parametrize(
    "cluster_id,objective,stages",
    [
        (3, "0x1.0017c165d01ffp+5", [
            ("V100-32G", {4: 17}), ("T4-16G", {4: 4, 8: 6}),
            ("T4-16G", {4: 4, 8: 7}), ("T4-16G", {4: 4, 8: 6}),
        ]),
        (9, "0x1.473e1102b0cc6p+5", [
            ("T4-16G", {8: 12}), ("T4-16G", {8: 12}),
            ("T4-16G", {8: 12}), ("T4-16G", {4: 2, 8: 10}),
        ]),
    ],
)
def test_heuristic_result_unchanged_by_shared_memo(
    cluster_id, objective, stages, latmodel_cluster3, workload
):
    """Plans and objectives Algorithm 2 returned before its simulations
    shared one memo (pinned from the per-call-cache implementation)."""
    opt = LLMPQOptimizer(
        "opt-30b", paper_cluster(cluster_id), workload,
        config=PlannerConfig(group_size=4, decode_mb_candidates=(8,), prefill_mb_cap=8),
        latency_model=latmodel_cluster3,
    )
    res = heuristic_optimize(opt)
    assert res.objective == float.fromhex(objective)
    assert [
        (st.device.type_name, st.bit_counts) for st in res.plan.stages
    ] == stages
    assert (res.plan.prefill_microbatch, res.plan.decode_microbatch) == (1, 8)


# ------------------------------------------------- adabits seed: DP vs MILP


_SEED_WORKLOAD = Workload(prompt_len=12, gen_len=6, global_batch=4)


def _layer_bytes(cfg, bits):
    """One layer's row of the ILP's memory table (whole bytes here)."""
    w = _SEED_WORKLOAD
    kv = kv_cache_bytes(cfg, 1, w.global_batch, w.max_seq_len)
    return [int(cfg.layer_weight_bytes(b) + kv) for b in bits]


@st.composite
def _seed_instances(draw):
    cfg = get_model("tiny-8l")
    layers = draw(st.integers(2, 10))
    group = draw(st.integers(1, max(1, layers // 2)))  # 2..10 groups
    n_groups = -(-layers // group)
    n_dev = draw(st.integers(1, 4))
    bits = tuple(sorted(draw(
        st.sets(st.sampled_from((3, 4, 8, 16)), min_size=1, max_size=4)
    )))
    # eighths: every quality sum is exact, whichever optimum is returned
    omega = np.array(draw(st.lists(
        st.lists(st.integers(0, 40), min_size=len(bits), max_size=len(bits)),
        min_size=n_groups, max_size=n_groups,
    ))) / 8.0
    # capacities on a boundary, from "nothing fits" to "the whole model at
    # the widest": either a uniform block of layers, or the per-device
    # loads of a planted assignment — each exact, one byte short, or over
    unit = _layer_bytes(cfg, bits)
    slack = st.sampled_from((-1, 0, 0, 1, unit[-1]))
    if n_groups >= n_dev and draw(st.booleans()):
        cuts = sorted(draw(st.sets(
            st.integers(1, n_groups - 1), min_size=n_dev - 1, max_size=n_dev - 1
        ))) if n_dev > 1 else []
        sizes = [group] * (n_groups - 1) + [layers - group * (n_groups - 1)]
        loads = [
            sum(sizes[i] * draw(st.sampled_from(unit)) for i in range(lo, hi))
            for lo, hi in zip([0, *cuts], [*cuts, n_groups])
        ]
        caps = [load + draw(slack) for load in loads]
    else:
        caps = [
            (layers - draw(st.integers(0, layers))) * draw(st.sampled_from(unit))
            + draw(slack)
            for _ in range(n_dev)
        ]
    return layers, group, bits, omega, tuple(caps)


@pytest.fixture(scope="module")
def tiny_latmodel(tiny8l):
    from repro.cost.profiler import build_latency_model

    return build_latency_model(["T4-16G"], tiny8l)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inst=_seed_instances())
def test_seed_dp_equals_spec_milp(inst, tiny8l, tiny_latmodel):
    """Feasibility and optimal quality of the DP equal the MILP's (bit
    for bit), and the DP's assignment satisfies every MILP row."""
    layers, group, bits, omega, caps = inst
    t4 = get_gpu("T4-16G")
    ilp = CappedILP(
        cfg=dataclasses.replace(tiny8l, num_layers=layers),
        workload=_SEED_WORKLOAD,
        devices=[Device(t4, node_id=0, local_rank=j) for j in range(len(caps))],
        latency_model=tiny_latmodel,
        indicator=IndicatorTable(omega=omega, bits=bits, method="drawn"),
        prefill_microbatch=2, decode_microbatch=2,
        bits=bits, group_size=group, caps=caps,
    )
    sizes, _, _, mem, om = ilp._coefficients()
    assert sizes[-1] == layers - group * (len(sizes) - 1)  # short last group
    found = _seed_dp(mem, om, caps)
    sol = spec_adabits(ilp)
    assert (found is not None) == sol.feasible
    event(f"feasible={sol.feasible}, {len(caps)} devices")
    if found is None:
        return
    gdev, choice, quality = found
    assert quality == sol.quality_term
    assert quality == sum(om[i, k] for i, k in enumerate(choice))
    prob = spec_assemble(ilp)
    nG, nD, nB = len(sizes), len(caps), len(bits)
    x = np.zeros(prob.num_z + 2)
    for i, (j, k) in enumerate(zip(gdev, choice)):
        x[(i * nD + j) * nB + k] = 1.0
    x[-2:] = 1e12  # T_pre_max / T_dec_max: free in this problem
    rows = prob.A @ x
    assert np.all(rows >= prob.lo) and np.all(rows <= prob.hi)


def test_seed_dp_tie_rule_pinned():
    """Everything fits at the widest bitwidth: the optimum is massively
    non-unique and the documented rule decides — lowest quality, then
    fewest bytes on the current device, so every later device closes as
    early as it can and device 0 takes the rest."""
    mem = np.tile([1.0, 2.0], (6, 1))
    omega = np.tile([1.0, 0.0], (6, 1))
    first = _seed_dp(mem, omega, [20.0, 20.0, 20.0])
    assert first == ((0, 0, 0, 0, 1, 2), (1,) * 6, 0.0)
    assert _seed_dp(mem, omega, [20.0, 20.0, 20.0]) == first
    # device 0 too small for four groups at 2 bytes: the cut moves, the
    # quality does not
    assert _seed_dp(mem, omega, [6.0, 20.0, 20.0]) == (
        (0, 0, 0, 1, 1, 2), (1,) * 6, 0.0
    )
    # fewer groups than devices: some device would be empty
    assert _seed_dp(mem[:2], omega[:2], [20.0, 20.0, 20.0]) is None


def test_heuristic_makes_no_solver_call(
    small_hetero_cluster, small_workload, latmodel_13b, monkeypatch
):
    from repro.core.api import plan_llmpq

    calls = []
    real = BitAssignmentILP.solve
    monkeypatch.setattr(
        BitAssignmentILP, "solve",
        lambda ilp, *a, **k: calls.append(a) or real(ilp, *a, **k),
    )
    res = plan_llmpq(
        "opt-13b", small_hetero_cluster, small_workload, group_size=4,
        use_heuristic=True, latency_model=latmodel_13b,
    )
    assert res.feasible and not calls
    # ... and accounts for itself: orderings, the run's cache traffic, and
    # per-ordering times that include the seed
    assert res.stats is not None
    assert res.stats.candidates_total == len(res.candidates) == 2
    assert res.stats.solved == res.stats.unique_candidates == 0
    assert res.stats.cache_hits > res.stats.cache_misses > 0
    assert res.stats.describe().startswith("search: 2 orderings")
    assert sum(c.solve_seconds for c in res.candidates) <= res.total_seconds
    plan_llmpq(
        "opt-13b", small_hetero_cluster, small_workload, group_size=4,
        latency_model=latmodel_13b, prefill_mb_cap=2, decode_mb_candidates=(8,),
    )
    assert calls  # the wrapper does see the exact search's DP solves


@pytest.mark.parametrize(
    "cluster_id,model,group",
    [(3, "opt-30b", 2), (4, "opt-30b", 2), (11, "bloom-176b", 4)],
)
def test_memory_bound_plans_equal_spec_seeded(
    cluster_id, model, group, workload, monkeypatch
):
    """Where memory binds the DP returns the MILP's own assignment, so
    Algorithm 2 ends on the same plan and objective as when it is seeded
    from ``spec_adabits``."""
    from repro.core import heuristic
    from repro.cost.profiler import build_latency_model
    from repro.models import get_model

    cluster = paper_cluster(cluster_id)
    latmodel = build_latency_model(
        sorted({d.type_name for d in cluster.devices}), get_model(model)
    )

    def run():
        opt = LLMPQOptimizer(
            model, cluster, workload,
            config=PlannerConfig(
                group_size=group, theta=10.0, max_orderings=1,
                prefill_mb_cap=8, decode_mb_candidates=(8, 32),
            ),
            latency_model=latmodel,
        )
        return heuristic_optimize(opt)

    def spec_seeded(optimizer, ordering, *, mb_p=None, mb_d=None):
        n = len(ordering)
        mb = max(1, optimizer.workload.global_batch // n)
        ilp = optimizer.build_ilp(ordering, mb, mb)
        sol = spec_adabits(ilp)
        assert sol.feasible and sol.quality_term > 0  # memory binds
        return optimizer.plan_from_solution(ordering, sol, ilp, mb, mb)

    ours = run()
    monkeypatch.setattr(heuristic, "adabits_plan", spec_seeded)
    theirs = run()
    assert ours.feasible
    assert ours.plan.to_dict() == theirs.plan.to_dict()
    assert ours.objective == theirs.objective


# ------------------------------------------------------------ stage memo


def test_stage_memo_is_position_independent(
    small_hetero_cluster, small_workload, latmodel_13b
):
    """Along a random walk of Algorithm-2 moves every simulation through
    the run's stage memo equals a fresh one field for field — also for the
    same stages in reverse pipeline order (first <-> last: an embedding,
    logits or comm term inside a position-independent key would show),
    under per-stage KV variants, and on a one-stage plan (first = last)."""
    opt = LLMPQOptimizer(
        "opt-13b", small_hetero_cluster, small_workload,
        config=PlannerConfig(group_size=4), latency_model=latmodel_13b,
    )
    rng = np.random.default_rng(7)
    plan = adabits_plan(opt)
    for step in range(25):
        moves = _neighbors(opt, _stages(plan), int(rng.integers(plan.num_stages)))
        plan = _as_plan(plan, moves[int(rng.integers(len(moves)))])
        if step % 3 == 0:
            plan = plan.with_kv_bits(
                [int(b) for b in rng.choice((4, 8, 16), size=plan.num_stages)]
            )
        flipped = dataclasses.replace(plan, stages=plan.stages[::-1])
        for p in (plan, flipped):
            _assert_same_simulation(opt, p, small_hetero_cluster, latmodel_13b)
    v100 = small_hetero_cluster.devices[1]
    for kv in (16, 8):
        solo = dataclasses.replace(
            plan, stages=(StagePlan(v100, plan.layer_bits, kv_bits=kv),)
        )
        _assert_same_simulation(opt, solo, small_hetero_cluster, latmodel_13b)
    # a plan seen before is served whole: stage lookups only, all hits
    cache = opt.prediction_cache
    hits0, misses0 = cache.hits, cache.misses
    opt.simulate(plan)
    assert cache.misses == misses0 and cache.hits - hits0 == plan.num_stages
    # shared arrays are read-only
    arrays = [
        v.decode for v in opt.prediction_cache._stages.values()
        if v.decode is not None
    ]
    assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("layout", ["cluster3", "two-node"])
def test_row_scorer_equals_simulation_on_random_walks(
    layout, cluster3, latmodel_cluster3, workload
):
    """Random Algorithm-2 walks scored from the run's per-stage rows equal
    ``simulate_pipeline(plan, cluster, latency_model=...)`` bit for bit —
    objective, feasibility, OOM stages and straggler.  The walks take
    chain moves, downgrades and upgrades, per-stage KV variants, random
    micro-batch pairs, and empty a stage out (its layers merged into a
    neighbour: head/tail flags and send-to devices shift); each candidate
    is also scored reversed (same layers per stage, other send-to
    devices) and rotated (same send-to devices, other head/tail flags),
    so a row key missing either would show.  On the two-node cluster the ordering is drawn at
    random, so the boundary links differ (T4 pair, V100 pair,
    inter-node) and move around."""
    from repro.core.optimizer import _microbatch_pairs
    from repro.hardware import make_cluster

    cluster = cluster3 if layout == "cluster3" else make_cluster(
        [("T4-16G", 2), ("V100-32G", 2)], name="two-node"
    )
    opt = LLMPQOptimizer(
        "opt-30b", cluster, workload, config=PlannerConfig(group_size=4),
        latency_model=latmodel_cluster3,
    )
    rng = np.random.default_rng(3)
    pairs = _microbatch_pairs(workload, 4, opt.config)
    seen = set()
    for walk in range(3):
        devices = list(cluster.devices)
        ordering = [devices[i] for i in rng.permutation(len(devices))]
        template = adabits_plan(opt, ordering)
        stages = _stages(template)
        for step in range(16):
            moves = _neighbors(opt, stages, int(rng.integers(len(stages))))
            stages = moves[int(rng.integers(len(moves)))]
            if step % 4 == 1:
                stages = tuple(
                    (d, bits, int(rng.choice((4, 8, 16)))) for d, bits, _ in stages
                )
            if step == 8 + walk and len(stages) > 2:
                k = int(rng.integers(len(stages)))
                into = k - 1 if k else 1
                (d, bits, kv), held = stages[into], stages[k][1]
                merged = (d, bits + held if into < k else held + bits, kv)
                stages = tuple(
                    merged if j == into else st
                    for j, st in enumerate(stages) if j != k
                )
            mb_p, mb_d = pairs[int(rng.integers(len(pairs)))]
            # reversed, every stage holds the same layers but sends
            # elsewhere; rotated, every stage sends where it did but the
            # head and tail flags move
            for cand in (stages, stages[::-1], stages[1:] + stages[:1]):
                totals = opt.score(cand, mb_p, mb_d)
                ref = _assert_same_totals(
                    template, cand, mb_p, mb_d, totals, cluster, latmodel_cluster3
                )
                obj = _score(opt, cand, mb_p, mb_d)[0]
                if ref.feasible:
                    assert obj == ref.total_latency + opt.config.theta * _quality(
                        opt, cand
                    )
                else:
                    assert obj == np.inf
                seen.add((len(cand), ref.feasible))
    # every walk emptied a stage, and both outcomes were scored
    assert {n for n, _ in seen} == {3, 4}
    assert {ok for _, ok in seen} == {True, False}


# ----------------------------------------------------- planner knob checks


@pytest.mark.parametrize(
    "knobs,message",
    [
        (dict(group_size=0), "group_size must be >= 1"),
        (dict(group_size=-3), "group_size must be >= 1"),
        (dict(theta=-1.0), "theta must be >= 0"),
        (dict(bits=()), "bits must be a non-empty subset"),
        (dict(bits=(4, 5)), "bits must be a non-empty subset"),
        (dict(max_orderings=0), "max_orderings must be >= 1"),
        (dict(prefill_mb_cap=0), "prefill_mb_cap must be >= 1, got 0"),
        (dict(prefill_mb_cap=-1), "prefill_mb_cap must be >= 1, got -1"),
        (dict(decode_mb_candidates=()), "decode_mb_candidates must be non-empty"),
        (dict(decode_mb_candidates=(0, -4)), "decode_mb_candidates must be non-empty"),
        (dict(decode_mb_candidates=(8, 0)), r"and >= 1, got \(8, 0\)"),
    ],
)
def test_planner_config_rejects_bad_knobs(knobs, message):
    with pytest.raises(ValueError, match=message):
        PlannerConfig(**knobs)


def test_plan_llmpq_rejects_empty_bits(small_hetero_cluster, small_workload):
    from repro.core.api import plan_llmpq

    with pytest.raises(ValueError, match="bits must be a non-empty subset"):
        plan_llmpq("opt-13b", small_hetero_cluster, small_workload, bits=())


def test_plan_llmpq_rejects_parallel_jobs(small_hetero_cluster, small_workload):
    """Candidates are solved in-process: ``n_jobs`` is accepted only as 1."""
    from repro.core.api import plan_llmpq

    with pytest.raises(ValueError, match="n_jobs must be 1"):
        plan_llmpq("opt-13b", small_hetero_cluster, small_workload, n_jobs=2)


# ------------------------------------------------------- evaluation memo


def test_plan_quality_is_the_left_fold_of_lookups(planner):
    """One gather and a running sum give ``sum()``'s float on random
    plans, bit for bit (omega of mixed magnitudes: any other summation
    order would show)."""
    import copy

    from repro.core.plan import ExecutionPlan

    rng = np.random.default_rng(11)
    opt = copy.copy(planner)
    n_layers, bits = opt.cfg.num_layers, opt.config.bits
    devices = opt.cluster.devices
    for _ in range(200):
        omega = rng.random((n_layers, len(bits))) * 10.0 ** rng.integers(-8, 4, (n_layers, 1))
        opt.indicator = IndicatorTable(omega=omega, bits=bits, method="drawn")
        layer_bits = [int(b) for b in rng.choice(bits, size=n_layers)]
        cuts = np.sort(rng.choice(np.arange(1, n_layers), len(devices) - 1, replace=False))
        stages = tuple(
            StagePlan(d, tuple(layer_bits[lo:hi]))
            for d, lo, hi in zip(devices, [0, *cuts], [*cuts, n_layers])
        )
        plan = ExecutionPlan(opt.model_name, stages, 8, 8, opt.workload)
        want = float(sum(opt.indicator.lookup(i, b) for i, b in enumerate(layer_bits)))
        assert _quality(opt, _stages(plan)) == want


def test_evaluation_memo_changes_nothing(workload, monkeypatch):
    """Algorithm 2 on cluster 11 / bloom-176b / group 4 / theta 10 returns
    the same plan, objective and simulation with ``_score``'s memo
    bypassed, and with it scores each distinct candidate once."""
    from repro.cost.profiler import build_latency_model

    cluster = paper_cluster(11)
    latmodel = build_latency_model(
        sorted({d.type_name for d in cluster.devices}), get_model("bloom-176b")
    )

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    def run(memo):
        opt = LLMPQOptimizer(
            "bloom-176b", cluster, workload,
            config=PlannerConfig(group_size=4, theta=10.0, prefill_mb_cap=8,
                                 decode_mb_candidates=(8, 32)),
            latency_model=latmodel,
        )
        if not memo:
            opt.evaluations = Forgetful()
        scored = []
        real = opt.score
        opt.score = lambda *cand: scored.append(cand) or real(*cand)
        return heuristic_optimize(opt), scored

    ours, scored = run(memo=True)
    ref, every = run(memo=False)
    assert ours.feasible
    assert ours.plan.to_dict() == ref.plan.to_dict()
    assert ours.objective == ref.objective
    assert ours.predicted == ref.predicted

    def key(cand):
        stages, mb_p, mb_d = cand
        return tuple((d.name, bits, kv) for d, bits, kv in stages), mb_p, mb_d

    assert len(scored) == len({key(c) for c in scored}) == len({key(c) for c in every})
    assert len(every) > len(scored)
