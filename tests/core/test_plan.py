"""Unit tests for plan representation and serialization."""

import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.workload import Workload


def _dev(name="T4-16G", node=0, rank=0):
    return Device(get_gpu(name), node_id=node, local_rank=rank)


def _plan13b(w=None):
    w = w or Workload(prompt_len=128, gen_len=10, global_batch=8)
    return ExecutionPlan(
        model_name="opt-13b",
        stages=(
            StagePlan(_dev("T4-16G"), (8,) * 15),
            StagePlan(_dev("V100-32G", 1), (16,) * 25),
        ),
        prefill_microbatch=2,
        decode_microbatch=4,
        workload=w,
    )


def test_plan_properties():
    p = _plan13b()
    assert p.num_stages == 2
    assert p.num_layers == 40
    assert p.partition == (15, 25)
    assert p.layer_bits == (8,) * 15 + (16,) * 25
    assert p.average_bits() == pytest.approx((8 * 15 + 16 * 25) / 40)


def test_plan_layer_count_must_match_model():
    with pytest.raises(ValueError, match="layers"):
        ExecutionPlan(
            model_name="opt-13b",
            stages=(StagePlan(_dev(), (16,) * 10),),
            prefill_microbatch=1,
            decode_microbatch=1,
            workload=Workload(prompt_len=8, gen_len=2, global_batch=2),
        )


def test_microbatch_validation():
    w = Workload(prompt_len=8, gen_len=2, global_batch=2)
    with pytest.raises(ValueError, match="micro-batch"):
        ExecutionPlan(
            model_name="opt-13b",
            stages=(StagePlan(_dev(), (16,) * 40),),
            prefill_microbatch=0,
            decode_microbatch=1,
            workload=w,
        )
    with pytest.raises(ValueError, match="exceeds global batch"):
        ExecutionPlan(
            model_name="opt-13b",
            stages=(StagePlan(_dev(), (16,) * 40),),
            prefill_microbatch=4,
            decode_microbatch=1,
            workload=w,
        )


def test_json_roundtrip(tmp_path):
    p = _plan13b()
    path = tmp_path / "strategy.json"
    p.to_json(path)
    q = ExecutionPlan.from_json(path)
    assert q == p
    # roundtrip via string too
    r = ExecutionPlan.from_json(p.to_json())
    assert r == p


def test_plan_global_kv_bits_upgrades_on_load():
    """A strategy file with ``meta.kv_bits`` and every stage at 16 loads
    with the value on the stages and no meta key; saving and loading the
    result again changes nothing."""
    old = _plan13b().to_dict()
    old["meta"] = {"theta": 1.0, "kv_bits": 4}
    for st in old["stages"]:
        del st["kv_bits"]  # files that old carry no per-stage field at all
    loaded = ExecutionPlan.from_dict(old)
    assert loaded.kv_bits_per_stage == (4, 4)
    assert loaded.meta == {"theta": 1.0}
    assert loaded == _plan13b().with_kv_bits(4)
    assert ExecutionPlan.from_dict(loaded.to_dict()).to_dict() == loaded.to_dict()
    assert old["meta"]["kv_bits"] == 4  # the caller's dict is left alone


def test_plan_global_kv_bits_yields_to_stage_values():
    """Stage values win wherever any stage already quantizes its KV; the
    stale meta key is dropped and an fp16 stage stays fp16."""
    d = _plan13b().with_kv_bits((8, 16)).to_dict()
    d["meta"] = {"kv_bits": 4}
    loaded = ExecutionPlan.from_dict(d)
    assert loaded.kv_bits_per_stage == (8, 16)
    assert loaded.meta == {}
    d16 = _plan13b().to_dict()
    d16["meta"] = {"kv_bits": 16}
    assert ExecutionPlan.from_dict(d16).kv_bits_per_stage == (16, 16)
    bad = _plan13b().to_dict()
    bad["meta"] = {"kv_bits": 5}
    with pytest.raises(ValueError, match="kv_bits"):
        ExecutionPlan.from_dict(bad)


def test_describe_contains_key_facts():
    text = _plan13b().describe()
    assert "opt-13b" in text
    assert "T4-16G" in text and "V100-32G" in text
    assert "15" in text and "25" in text


def test_uniform_constructor_even_split():
    w = Workload(prompt_len=128, gen_len=10, global_batch=8)
    devices = [_dev("T4-16G", 0, i) for i in range(3)]
    p = ExecutionPlan.uniform("opt-30b", devices, w, bits=8)
    assert p.partition == (16, 16, 16)
    assert set(p.layer_bits) == {8}
    # uneven split puts the remainder on the front stages
    p2 = ExecutionPlan.uniform("opt-13b", devices, w, bits=4)  # 40 over 3
    assert p2.partition == (14, 13, 13)


def test_stageplan_validation():
    with pytest.raises(ValueError, match="positive"):
        StagePlan(_dev(), (0, 4))
    # an empty stage has no (stage, bits) pair for the cost tables to fold
    with pytest.raises(ValueError, match="at least one layer"):
        StagePlan(_dev(), ())


def test_bit_counts():
    sp = StagePlan(_dev(), (8, 8, 16, 4))
    assert sp.bit_counts == {8: 2, 16: 1, 4: 1}
