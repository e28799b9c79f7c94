"""Unit tests for the bitwidth-transfer transformation mechanics.

Algorithm 2's moves must preserve plan well-formedness: total layer
count, stage count, contiguity (implicit in the stage structure), and
the compound "(4, 8, 2)"-style trades must actually change precision on
the target.
"""

import pytest

from repro.core.heuristic import _as_plan, _layer_offsets, _stages
from repro.core.heuristic import _neighbors as _neighbor_stages
from repro.core.optimizer import LLMPQOptimizer, PlannerConfig
from repro.core.plan import ExecutionPlan, StagePlan


@pytest.fixture(scope="module")
def optimizer(cluster3, latmodel_cluster3, workload):
    return LLMPQOptimizer(
        "opt-30b", cluster3, workload,
        config=PlannerConfig(group_size=4),
        latency_model=latmodel_cluster3,
    )


@pytest.fixture(scope="module")
def base_plan(cluster3, workload):
    devices = list(cluster3.devices)
    return ExecutionPlan(
        model_name="opt-30b",
        stages=(
            StagePlan(devices[0], (8,) * 12),
            StagePlan(devices[1], (8,) * 12),
            StagePlan(devices[2], (8,) * 12),
            StagePlan(devices[3], (16,) * 12),
        ),
        prefill_microbatch=4,
        decode_microbatch=8,
        workload=workload,
    )


def _neighbors(optimizer, plan, straggler):
    """``plan``'s neighbours, each built into a plan (validated on the way)."""
    return [
        _as_plan(plan, cand)
        for cand in _neighbor_stages(optimizer, _stages(plan), straggler)
    ]


def test_layer_offsets(base_plan):
    assert _layer_offsets(_stages(base_plan)) == [0, 12, 24, 36]


@pytest.mark.parametrize("straggler", [0, 1, 2, 3])
def test_neighbors_preserve_layer_count(optimizer, base_plan, straggler):
    for cand in _neighbors(optimizer, base_plan, straggler):
        assert cand.num_layers == base_plan.num_layers
        assert cand.num_stages == base_plan.num_stages


def test_neighbors_include_chain_moves_to_all_targets(optimizer, base_plan):
    """A straggler in the middle must be able to shed load to both the
    head and the tail stage (through intermediates)."""
    cands = _neighbors(optimizer, base_plan, 2)
    partitions = {c.partition for c in cands}
    # some candidate reduced stage 2 by one layer
    assert any(p[2] == 11 for p in partitions)
    # ...with the extra layer landing on stage 0 (two hops away)
    assert any(p[0] == 13 and p[2] == 11 for p in partitions)
    # ...and on stage 3
    assert any(p[3] == 13 and p[2] == 11 for p in partitions)


def test_neighbors_include_bit_changes_on_straggler(optimizer, base_plan):
    cands = _neighbors(optimizer, base_plan, 1)
    same_partition = [c for c in cands if c.partition == base_plan.partition]
    bit_sets = {c.stages[1].layer_bits for c in same_partition}
    # at least one downgrade (8 -> 4) and one upgrade (8 -> 16) variant
    assert any(4 in bits for bits in bit_sets)
    assert any(16 in bits for bits in bit_sets)


def test_compound_move_downgrades_target(optimizer, base_plan):
    """The (4, 8, 2)-style variant: moving a layer onto stage 3 may also
    downgrade one of stage 3's FP16 layers to 8-bit to make room."""
    cands = _neighbors(optimizer, base_plan, 2)
    grew_and_downgraded = [
        c for c in cands
        if c.partition[3] == 13 and 8 in c.stages[3].layer_bits
    ]
    assert grew_and_downgraded


def test_neighbors_of_single_layer_stage(optimizer, workload, cluster3):
    """A one-layer straggler cannot shed its only layer (stages must stay
    non-empty) but can still change bits."""
    devices = list(cluster3.devices)
    plan = ExecutionPlan(
        model_name="opt-30b",
        stages=(
            StagePlan(devices[0], (8,) * 1),
            StagePlan(devices[1], (8,) * 15),
            StagePlan(devices[2], (8,) * 16),
            StagePlan(devices[3], (16,) * 16),
        ),
        prefill_microbatch=4,
        decode_microbatch=8,
        workload=workload,
    )
    cands = _neighbors(optimizer, plan, 0)
    assert cands  # bit changes still available
    for c in cands:
        assert all(s.num_layers >= 1 for s in c.stages)
