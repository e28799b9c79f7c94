"""Ablation: hybrid (phase-specific) vs single micro-batch sizing.

The paper lets prefill and decode use different micro-batch sizes
(small prefill micro-batches shrink pipeline bubbles; large decode
groups amortize weight streaming).  We compare the planner constrained
to ``mb_p == mb_d`` against the unconstrained hybrid on clusters 1 and
3.  Expected: hybrid >= single, with a real gain where the phases pull
in opposite directions.
"""

import pytest

from repro.bench.tables import print_table, save_results
from repro.core.api import evaluate_plan
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig
from repro.hardware import PAPER_CLUSTERS, paper_cluster

CLUSTERS = (1, 3)


def _run(cid, latency_models, workload):
    model = PAPER_CLUSTERS[cid]
    cluster = paper_cluster(cid)
    lat = latency_models(model)

    hybrid = LLMPQOptimizer(
        model, cluster, workload,
        config=PlannerConfig(group_size=2, theta=1.0),
        latency_model=lat,
    ).optimize()

    # single: force decode candidates to equal each prefill candidate by
    # evaluating only equal pairs
    single_best = None
    opt = LLMPQOptimizer(
        model, cluster, workload,
        config=PlannerConfig(group_size=2, theta=1.0),
        latency_model=lat,
    )
    for mb in (1, 2, 4, 8, 16, 32):
        if mb > workload.global_batch:
            break
        for ordering in opt.orderings():
            ilp = opt.build_ilp(ordering, mb, mb)
            sol = ilp.solve()
            if not sol.feasible:
                continue
            plan = opt.plan_from_solution(ordering, sol, ilp, mb, mb)
            rep = evaluate_plan(plan, cluster)
            if rep.feasible and (single_best is None or rep.throughput > single_best.throughput):
                single_best = rep

    hybrid_rep = evaluate_plan(hybrid.plan, cluster)
    return {
        "cluster": cid,
        "hybrid_tput": hybrid_rep.throughput,
        "hybrid_mb": f"{hybrid.plan.prefill_microbatch}/{hybrid.plan.decode_microbatch}",
        "single_tput": single_best.throughput if single_best else 0.0,
        "gain": hybrid_rep.throughput / single_best.throughput if single_best else float("inf"),
    }


@pytest.mark.parametrize("cid", CLUSTERS)
def test_ablation_hybrid_microbatch(cid, benchmark, latency_models, default_workload):
    row = benchmark.pedantic(
        _run, args=(cid, latency_models, default_workload), rounds=1, iterations=1
    )
    print_table([row], title=f"Ablation — hybrid micro-batch sizing, cluster {cid}")
    save_results(f"ablation_microbatch_cluster{cid}", row)
    assert row["hybrid_tput"] > 0
    assert row["gain"] >= 0.999  # hybrid can only widen the search space
