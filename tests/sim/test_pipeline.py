"""Unit tests for the pipeline execution simulator."""

import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import make_cluster
from repro.sim.pipeline import simulate_pipeline
from repro.workload import Workload


def _plan(model, devices, bits, counts, mb_p, mb_d, workload):
    stages = tuple(
        StagePlan(device=d, layer_bits=(b,) * c)
        for d, b, c in zip(devices, bits, counts)
    )
    return ExecutionPlan(
        model_name=model, stages=stages,
        prefill_microbatch=mb_p, decode_microbatch=mb_d, workload=workload,
    )


def test_uniform_plan_feasible_when_quantized(cluster3, workload):
    plan = ExecutionPlan.uniform("opt-30b", cluster3.devices, workload, bits=8)
    res = simulate_pipeline(plan, cluster3)
    assert res.feasible
    assert res.total_latency > 0
    assert res.throughput == pytest.approx(
        workload.total_generated_tokens / res.total_latency
    )


def test_fp16_ooms_on_cluster3(cluster3, workload):
    plan = ExecutionPlan.uniform("opt-30b", cluster3.devices, workload, bits=16)
    res = simulate_pipeline(plan, cluster3)
    assert not res.feasible
    assert res.oom_stages  # the T4 stages
    assert res.total_latency == float("inf")
    assert res.throughput == 0.0
    assert "INFEASIBLE" in res.summary()


def test_single_stage_single_microbatch_formula(workload):
    """With one stage and one micro-batch, prefill latency equals the
    stage busy time exactly (no bubbles)."""
    cl = make_cluster([("A800-80G", 1)])
    w = Workload(prompt_len=128, gen_len=2, global_batch=4)
    plan = _plan("opt-13b", cl.devices, [8], [40], 4, 4, w)
    res = simulate_pipeline(plan, cl)
    assert res.feasible
    assert res.prefill_latency == pytest.approx(res.stage_reports[0].prefill_time)


def test_gpipe_bubble_formula(workload):
    """Prefill latency = sum(stage times) + (m-1) * max(stage time)."""
    cl = make_cluster([("A800-80G", 2)])
    w = Workload(prompt_len=128, gen_len=2, global_batch=8)
    plan = _plan("opt-13b", cl.devices, [8, 8], [20, 20], 2, 8, w)
    res = simulate_pipeline(plan, cl)
    m = 4  # 8 / 2
    busy = [r.prefill_time for r in res.stage_reports]
    assert res.prefill_latency == pytest.approx(sum(busy) + (m - 1) * max(busy))


def test_more_decode_passes_cost_more():
    cl = make_cluster([("A800-80G", 1)])
    short = Workload(prompt_len=128, gen_len=10, global_batch=4)
    long = Workload(prompt_len=128, gen_len=50, global_batch=4)
    p_short = _plan("opt-13b", cl.devices, [8], [40], 4, 4, short)
    p_long = _plan("opt-13b", cl.devices, [8], [40], 4, 4, long)
    r_short = simulate_pipeline(p_short, cl)
    r_long = simulate_pipeline(p_long, cl)
    assert r_long.decode_latency > 4 * r_short.decode_latency
    # decode-phase rate per token is similar once prefill is factored out
    rate_short = (short.decode_passes * 4) / r_short.decode_latency
    rate_long = (long.decode_passes * 4) / r_long.decode_latency
    assert rate_long == pytest.approx(rate_short, rel=0.15)


def test_decode_times_grow_with_context(cluster3, workload):
    plan = ExecutionPlan.uniform("opt-30b", cluster3.devices, workload, bits=8)
    res = simulate_pipeline(plan, cluster3)
    for r in res.stage_reports:
        assert r.decode_time_last >= r.decode_time_first


def test_latency_model_view_close_to_ground_truth(
    cluster3, workload, latmodel_cluster3
):
    plan = ExecutionPlan.uniform("opt-30b", cluster3.devices, workload, bits=8)
    truth = simulate_pipeline(plan, cluster3)
    pred = simulate_pipeline(plan, cluster3, latency_model=latmodel_cluster3)
    assert pred.total_latency == pytest.approx(truth.total_latency, rel=0.08)


def test_bottleneck_stage_identified(cluster3, workload):
    # pile layers onto the last (V100) stage
    devices = list(cluster3.devices)
    plan = _plan(
        "opt-30b", devices, [8, 8, 8, 8], [4, 4, 4, 36], 8, 8, workload
    )
    res = simulate_pipeline(plan, cluster3)
    assert res.bottleneck_stage == 3


def test_stage_reports_cover_all_stages(cluster3, workload):
    plan = ExecutionPlan.uniform("opt-30b", cluster3.devices, workload, bits=8)
    res = simulate_pipeline(plan, cluster3)
    assert len(res.stage_reports) == 4
    assert sum(r.num_layers for r in res.stage_reports) == 48


def test_slow_interconnect_hurts():
    from repro.hardware.interconnect import ETHERNET_100G, Link

    w = Workload(prompt_len=512, gen_len=20, global_batch=16)
    fast = make_cluster([("V100-32G", 1), ("A100-40G", 1)], inter_node_link=ETHERNET_100G)
    slow_link = Link("slow", bandwidth=1e9, latency=1e-3)
    slow = make_cluster([("V100-32G", 1), ("A100-40G", 1)], inter_node_link=slow_link)
    plan_f = ExecutionPlan.uniform("opt-13b", fast.devices, w, bits=8)
    plan_s = ExecutionPlan.uniform("opt-13b", slow.devices, w, bits=8)
    rf = simulate_pipeline(plan_f, fast)
    rs = simulate_pipeline(plan_s, slow)
    assert rs.total_latency > rf.total_latency
