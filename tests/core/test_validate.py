"""Unit tests for plan validation."""

from repro.core.plan import ExecutionPlan, StagePlan
from repro.core.validate import validate_plan
from repro.hardware import Device, get_gpu, make_cluster
from repro.workload import Workload


def _w():
    return Workload(prompt_len=128, gen_len=10, global_batch=8)


def _good_plan(cluster):
    return ExecutionPlan.uniform("opt-30b", cluster.devices, _w(), bits=8)


def test_good_plan_ok(cluster3):
    rep = validate_plan(_good_plan(cluster3), cluster3)
    assert rep.ok, rep.describe()
    assert rep.describe() == "plan OK"


def test_device_mismatch_detected(cluster3):
    other = make_cluster([("A800-80G", 4)])
    plan = _good_plan(other)
    rep = validate_plan(plan, cluster3)
    assert not rep.ok
    assert any(i.code == "device-mismatch" for i in rep.errors)


def test_oom_detected(cluster3):
    w = Workload(prompt_len=512, gen_len=100, global_batch=32)
    plan = ExecutionPlan.uniform("opt-30b", cluster3.devices, w, bits=16)
    rep = validate_plan(plan, cluster3)
    assert not rep.ok
    assert any(i.code == "oom" for i in rep.errors)


def test_ragged_microbatch_warns(cluster3):
    plan = ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, _w(), bits=8,
        prefill_microbatch=3, decode_microbatch=3,
    )
    rep = validate_plan(plan)
    assert rep.ok  # warnings only
    assert any(i.code == "ragged-prefill" for i in rep.warnings)


def test_regroup_mismatch_warns(cluster3):
    plan = ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, _w(), bits=8,
        prefill_microbatch=4, decode_microbatch=6,
    )
    rep = validate_plan(plan)
    assert any(i.code == "regroup-mismatch" for i in rep.warnings)


def test_unsupported_bits_detected(cluster3):
    dev = Device(get_gpu("A800-80G"), 0, 0)
    stages = (StagePlan(dev, (5,) * 48),)  # 5-bit is not a kernel we have
    plan = ExecutionPlan(
        model_name="opt-30b", stages=stages,
        prefill_microbatch=2, decode_microbatch=2, workload=_w(),
    )
    rep = validate_plan(plan)
    assert any(i.code == "unsupported-bits" for i in rep.errors)


def test_validate_without_cluster_skips_memory(cluster3):
    w = Workload(prompt_len=512, gen_len=100, global_batch=32)
    plan = ExecutionPlan.uniform("opt-30b", cluster3.devices, w, bits=16)
    rep = validate_plan(plan)  # no cluster: static checks only
    assert rep.ok
