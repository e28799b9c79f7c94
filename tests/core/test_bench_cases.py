"""The two ``plan_hetero`` cases (``bench/wl_plan.py``) whose candidates
are scored from per-stage rows, pinned: Algorithm 2 on cluster 11 /
bloom-176b, and the KV-bits search with its per-stage refinement on
cluster 9 / opt-30b.  Same models, clusters and knobs as the benchmark;
the values were taken from the planner that re-simulated every candidate
whole."""

import pytest

from repro.core.api import plan_llmpq
from repro.cost.profiler import build_latency_model
from repro.hardware import paper_cluster
from repro.models import get_model
from repro.workload import DEFAULT_WORKLOAD


@pytest.mark.parametrize(
    "cluster_id,model,knobs,objective,stages,microbatches",
    [
        (11, "bloom-176b", dict(theta=10.0, group_size=4, use_heuristic=True),
         "0x1.d7a1186706a67p+4", [
             ("A800-80G", {8: 17}, 16), ("A800-80G", {8: 18}, 16),
             ("A800-80G", {8: 18}, 16), ("A800-80G", {8: 17}, 16),
         ], (1, 32)),
        (9, "opt-30b", dict(theta=1.0, group_size=2, kv_bits="auto"),
         "0x1.9babdcab7f4f2p+4", [
             ("T4-16G", {4: 12}, 4), ("T4-16G", {4: 12}, 4),
             ("T4-16G", {4: 12}, 4), ("T4-16G", {4: 12}, 4),
         ], (1, 32)),
    ],
    ids=["c11-bloom176b-heur", "c9-opt30b-kvauto"],
)
def test_bench_case_plan_pinned(
    cluster_id, model, knobs, objective, stages, microbatches
):
    cluster = paper_cluster(cluster_id)
    latency_model = build_latency_model(
        tuple(sorted({d.type_name for d in cluster.devices})), get_model(model)
    )
    res = plan_llmpq(
        model, cluster, DEFAULT_WORKLOAD, latency_model=latency_model,
        prefill_mb_cap=8, decode_mb_candidates=(8, 32), **knobs,
    )
    assert res.objective == float.fromhex(objective)
    assert [
        (st.device.type_name, st.bit_counts, st.kv_bits) for st in res.plan.stages
    ] == stages
    assert (res.plan.prefill_microbatch, res.plan.decode_microbatch) == microbatches
