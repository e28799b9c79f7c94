"""Table 8: grouping and the heuristic against the exact search.

For clusters 3, 4, 6 and 10 we run the planner with group=1, group=2 and
the bitwidth-transfer heuristic and report achieved throughput plus
planning overhead.  The paper ran its ILP under a 60-second GUROBI limit;
here every candidate is solved exactly by the range-table DP (DESIGN.md
§8.3), with no time limit, so ``overhead_s`` is the DP's.  Expected
shapes: group=1 explores the full space (best or tied objective) but
costs the most — its range tables are the largest the planner builds;
group=2 is close at a fraction of the overhead; the heuristic is
competitive and never costs more than the full group=1 search.
"""

import pytest

from repro.bench.tables import print_table, save_results
from repro.core.api import evaluate_plan, plan_llmpq
from repro.hardware import PAPER_CLUSTERS, paper_cluster

CLUSTERS = (3, 4, 6, 10)
THETA = {3: 1.0, 4: 10.0, 6: 10.0, 10: 1.0}


def _run(cid, latency_models, workload):
    model = PAPER_CLUSTERS[cid]
    cluster = paper_cluster(cid)
    lat = latency_models(model)
    rows = []
    for label, kwargs in (
        ("group=1", dict(group_size=1)),
        ("group=2", dict(group_size=2)),
        ("heuristic", dict(group_size=2, use_heuristic=True)),
    ):
        res = plan_llmpq(
            model, cluster, workload, theta=THETA[cid], latency_model=lat,
            prefill_mb_cap=8, decode_mb_candidates=(8, 32), **kwargs
        )
        if res.plan is None:
            rows.append({"cluster": cid, "method": label, "throughput": 0.0,
                         "overhead_s": res.total_seconds})
            continue
        rep = evaluate_plan(res.plan, cluster)
        rows.append(
            {
                "cluster": cid,
                "method": label,
                "throughput": rep.throughput,
                "overhead_s": res.total_seconds,
            }
        )
    return rows


@pytest.mark.parametrize("cid", CLUSTERS)
def test_table8_cluster(cid, benchmark, latency_models, default_workload):
    rows = benchmark.pedantic(
        _run, args=(cid, latency_models, default_workload), rounds=1, iterations=1
    )
    print_table(rows, title=f"Table 8 — optimizer scaling, cluster {cid}")
    save_results(f"table8_cluster{cid}", rows)

    by = {r["method"]: r for r in rows}
    # everything must produce a feasible plan
    assert all(r["throughput"] > 0 for r in rows)
    # grouping trades at most a modest throughput loss for less solve time
    assert by["group=2"]["throughput"] >= 0.7 * by["group=1"]["throughput"]
    assert by["group=2"]["overhead_s"] <= by["group=1"]["overhead_s"] * 1.2
    # heuristic competitive (Table 8: sometimes best, sometimes ~10% off)
    assert by["heuristic"]["throughput"] >= 0.55 * by["group=1"]["throughput"]
    # ... and it is the cheap planner: no exact search, so never more
    # overhead than the exhaustive group=1 one
    assert by["heuristic"]["overhead_s"] <= by["group=1"]["overhead_s"]
