"""Cross-module integration tests: the paper's headline claims, end to end.

These exercise the complete flow — profile, plan (ILP), simulate on
ground-truth kernels, score quality — and assert the *shape* of the
paper's results rather than absolute numbers.
"""

import pytest

from repro.core.api import compare_schemes, evaluate_plan, plan_llmpq
from repro.core.plan import ExecutionPlan
from repro.hardware import paper_cluster
from repro.sim.pipeline import simulate_pipeline
from repro.sim.quality import QUALITY_ANCHORS
from repro.workload import Workload


@pytest.fixture(scope="module")
def cluster3_reports(latmodel_cluster3, workload):
    return compare_schemes(
        "opt-30b", paper_cluster(3), workload,
        schemes=("PipeEdge", "Uniform", "FlexGen", "FlexGen-int8", "LLM-PQ"),
        group_size=4, latency_model=latmodel_cluster3,
    )


def test_llmpq_beats_all_baselines_on_cluster3(cluster3_reports):
    """Table 4, cluster 3: LLM-PQ has the best throughput (paper: 1.82x
    over PipeEdge)."""
    by = {r.scheme: r for r in cluster3_reports}
    assert by["LLM-PQ"].feasible
    for name, rep in by.items():
        if name != "LLM-PQ" and rep.feasible:
            assert by["LLM-PQ"].throughput > rep.throughput, name


def test_llmpq_speedup_magnitude_on_cluster3(cluster3_reports):
    """The gain over PipeEdge should be material (paper: 1.3-2.9x across
    clusters; we require > 1.15x) but not absurd (< 5x)."""
    by = {r.scheme: r for r in cluster3_reports}
    x = by["LLM-PQ"].speedup_over(by["PipeEdge"])
    assert 1.15 < x < 5.0


def test_quality_preserved_on_cluster3(cluster3_reports):
    """LLM-PQ's PPL stays within a whisker of the best feasible baseline
    (paper: matches or beats baselines' PPL)."""
    by = {r.scheme: r for r in cluster3_reports}
    baseline_ppl = min(
        r.perplexity for n, r in by.items() if n != "LLM-PQ" and r.feasible
    )
    assert by["LLM-PQ"].perplexity <= baseline_ppl + 0.15


def test_offloading_loses_badly_with_long_prompts(cluster3_reports):
    """FlexGen FP16 swaps for every token: far below the pipelines."""
    by = {r.scheme: r for r in cluster3_reports}
    assert by["FlexGen"].throughput < 0.5 * by["LLM-PQ"].throughput


def test_hetero_gain_exceeds_homo_gain(latmodel_cluster3, workload):
    """Sec. 6.4: gains on homogeneous clusters are smaller than on
    heterogeneous ones (cluster 9 vs cluster 3)."""
    hetero = compare_schemes(
        "opt-30b", paper_cluster(3), workload,
        schemes=("PipeEdge", "LLM-PQ"), group_size=4,
        latency_model=latmodel_cluster3,
    )
    homo = compare_schemes(
        "opt-30b", paper_cluster(9), workload,
        schemes=("PipeEdge", "LLM-PQ"), group_size=4,
    )
    h = {r.scheme: r for r in hetero}
    o = {r.scheme: r for r in homo}
    gain_hetero = h["LLM-PQ"].speedup_over(h["PipeEdge"])
    gain_homo = o["LLM-PQ"].speedup_over(o["PipeEdge"])
    assert gain_homo > 0.9  # LLM-PQ never collapses on homo clusters
    assert gain_hetero > gain_homo


def test_plan_for_cluster1_uses_microbatch_trick(latmodel_13b):
    """Sec. 6.3 / cluster 1: on a single V100, micro-batch sizing lets a
    (mostly) INT8 OPT-13b fit where uniform FP16 cannot."""
    w = Workload(prompt_len=512, gen_len=100, global_batch=32)
    cl = paper_cluster(1)
    fp16 = simulate_pipeline(
        ExecutionPlan.uniform("opt-13b", cl.devices, w, bits=16), cl
    )
    assert not fp16.feasible
    res = plan_llmpq("opt-13b", cl, w, group_size=4, latency_model=latmodel_13b)
    assert res.feasible
    rep = evaluate_plan(res.plan, cl)
    assert rep.feasible
    assert rep.average_bits <= 12  # quantization was required
    assert rep.perplexity <= QUALITY_ANCHORS["opt-13b"].ppl_by_bits[4]


def test_theta_tradeoff(latmodel_cluster3, workload):
    """Fig. 8: larger theta -> no worse quality, no better throughput."""
    cl = paper_cluster(3)
    lo = plan_llmpq("opt-30b", cl, workload, theta=0.01, group_size=4,
                    latency_model=latmodel_cluster3)
    hi = plan_llmpq("opt-30b", cl, workload, theta=200.0, group_size=4,
                    latency_model=latmodel_cluster3)
    rep_lo = evaluate_plan(lo.plan, cl)
    rep_hi = evaluate_plan(hi.plan, cl)
    assert rep_hi.perplexity <= rep_lo.perplexity + 1e-9
    assert rep_hi.throughput <= rep_lo.throughput * 1.05


def test_short_prompt_workload_still_wins(latmodel_cluster3):
    """Table 7 shape: with s=128/n=200 LLM-PQ still beats PipeEdge, if by
    less on prefill-light workloads."""
    w = Workload(prompt_len=128, gen_len=200, global_batch=32)
    reports = compare_schemes(
        "opt-30b", paper_cluster(3), w,
        schemes=("PipeEdge", "LLM-PQ"), group_size=4,
        latency_model=latmodel_cluster3,
    )
    by = {r.scheme: r for r in reports}
    assert by["LLM-PQ"].throughput >= by["PipeEdge"].throughput
