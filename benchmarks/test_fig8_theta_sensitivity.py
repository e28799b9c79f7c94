"""Fig. 8: sensitivity to the user quality scalar theta.

Sweeping theta on cluster 9 (OPT-30b) and cluster 5 (OPT-66b): larger
theta puts more objective weight on model quality, so throughput should
fall (weakly) and perplexity improve (weakly) — the knob the paper hands
to the user.
"""

import pytest

from repro.bench.tables import print_table, save_results
from repro.core.api import evaluate_plan, plan_llmpq
from repro.hardware import paper_cluster

THETAS = (0.1, 1.0, 10.0, 100.0)
CASES = {9: "opt-30b", 5: "opt-66b"}


def _sweep(cid, latency_models, workload):
    model = CASES[cid]
    cluster = paper_cluster(cid)
    lat = latency_models(model)
    rows = []
    for theta in THETAS:
        res = plan_llmpq(
            model, cluster, workload, theta=theta, group_size=4,
            use_heuristic=(cid == 5), latency_model=lat,
            prefill_mb_cap=8, decode_mb_candidates=(8, 32),
        )
        rep = evaluate_plan(res.plan, cluster)
        rows.append(
            {
                "cluster": cid,
                "theta": theta,
                "throughput": rep.throughput,
                "ppl": rep.perplexity,
                "avg_bits": rep.average_bits,
            }
        )
    return rows


@pytest.mark.parametrize("cid", sorted(CASES))
def test_fig8_theta_sensitivity(cid, benchmark, latency_models, default_workload):
    rows = benchmark.pedantic(
        _sweep, args=(cid, latency_models, default_workload), rounds=1, iterations=1
    )
    print_table(rows, title=f"Fig. 8 — theta sweep, cluster {cid} ({CASES[cid]})")
    save_results(f"fig8_theta_cluster{cid}", rows)

    ppls = [r["ppl"] for r in rows]
    tputs = [r["throughput"] for r in rows]
    bits = [r["avg_bits"] for r in rows]
    # quality weakly improves with theta; precision weakly rises
    assert all(a >= b - 1e-9 for a, b in zip(ppls, ppls[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(bits, bits[1:]))
    # throughput weakly falls (allow plateaus from discrete bit menus)
    assert all(a >= b - 1e-6 for a, b in zip(tputs, tputs[1:]))
    # the knob actually moves something across the sweep
    assert ppls[0] > ppls[-1] or bits[-1] > bits[0]
