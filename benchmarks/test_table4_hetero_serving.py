"""Table 4: serving performance on heterogeneous clusters 1-8.

For every cluster we evaluate PipeEdge, Uniform, FlexGen, FlexGen-int8
(OPT only) and LLM-PQ on the paper's default workload (s=512, n=100,
b=32) and report PPL / latency / throughput plus the speedup over
PipeEdge.  Expected shape, per the paper: LLM-PQ wins everywhere, with
larger gains on the more heterogeneous / memory-tighter clusters, and
PPL at or below the baselines'.

Planner settings per cluster follow Table 9: the exact ILP with small
group sizes on small clusters, the bitwidth-transfer heuristic on the
larger ones.
"""

import pytest

from repro.bench.tables import print_table, save_results
from repro.core.api import compare_schemes
from repro.hardware import PAPER_CLUSTERS, paper_cluster

#: cluster id -> (group_size, use_heuristic, theta).  Broadly mirrors
#: the paper's Table 9; cluster 4 uses the exact ILP here because HiGHS
#: solves it comfortably inside the time limit (the paper fell back to
#: the heuristic there only because group=1 timed out on GUROBI), and
#: theta values are on this repo's normalized-omega scale (the 4-bit
#: column sums to 1) rather than the paper's raw-omega scale.
PLANNER_SETTINGS = {
    1: (2, False, 1.0),
    2: (2, False, 1.0),
    3: (2, False, 1.0),
    4: (2, False, 10.0),
    5: (4, True, 10.0),
    6: (2, False, 10.0),
    7: (4, False, 10.0),
    8: (4, False, 10.0),
}

HETERO_CLUSTERS = (1, 2, 3, 4, 5, 6, 7, 8)


def _run_cluster(cid: int, latency_models, workload):
    model = PAPER_CLUSTERS[cid]
    cluster = paper_cluster(cid)
    group, heur, theta = PLANNER_SETTINGS[cid]
    schemes = ("PipeEdge", "Uniform", "FlexGen", "FlexGen-int8", "LLM-PQ")
    if model.startswith("bloom"):
        schemes = ("PipeEdge", "Uniform", "LLM-PQ")  # FlexGen is OPT-only
    reports = compare_schemes(
        model, cluster, workload,
        schemes=schemes, group_size=group, use_heuristic=heur, theta=theta,
        latency_model=latency_models(model),
    )
    by = {r.scheme: r for r in reports}
    ref = by["PipeEdge"]
    rows = []
    for r in reports:
        rows.append(
            {
                "cluster": cid,
                "model": model,
                "scheme": r.scheme,
                "ppl": r.perplexity if r.feasible else None,
                "latency_s": r.latency if r.feasible else None,
                "throughput": r.throughput,
                "x_vs_pipeedge": r.speedup_over(ref) if r.feasible else None,
            }
        )
    return rows


@pytest.mark.parametrize("cid", HETERO_CLUSTERS)
def test_table4_cluster(cid, benchmark, latency_models, default_workload):
    rows = benchmark.pedantic(
        _run_cluster, args=(cid, latency_models, default_workload),
        rounds=1, iterations=1,
    )
    print_table(rows, title=f"Table 4 — cluster {cid} ({PAPER_CLUSTERS[cid]})")
    save_results(f"table4_cluster{cid}", rows)

    by = {r["scheme"]: r for r in rows}
    llmpq = by["LLM-PQ"]
    assert llmpq["throughput"] > 0, "LLM-PQ must be feasible"
    # LLM-PQ at least matches every feasible baseline's throughput
    for name, r in by.items():
        if name != "LLM-PQ" and r["throughput"] > 0:
            assert llmpq["throughput"] >= 0.98 * r["throughput"], name
    # and quality does not regress materially vs the best feasible baseline
    ppls = [r["ppl"] for n, r in by.items() if n != "LLM-PQ" and r["ppl"] is not None]
    if ppls and llmpq["ppl"] is not None:
        assert llmpq["ppl"] <= min(ppls) + 0.6
