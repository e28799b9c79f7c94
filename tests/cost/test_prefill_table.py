"""``StageCostModel.unit_prefill_times_batch``: one vectorized prefill-unit
table, pinned bit for bit to the per-layer scalar walk of
``tests/sim/costview_spec.py``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan, StagePlan
from repro.cost.stagecosts import StageCostModel
from repro.hardware import PAPER_CLUSTERS, paper_cluster
from repro.workload import DEFAULT_WORKLOAD

from ..sim.costview_cases import mixed_plan
from ..sim.costview_spec import spec_unit_prefill_times


@st.composite
def priced_plans(draw):
    """A paper cluster serving its paper model, every layer at its own
    bitwidth and every stage at its own KV bitwidth."""
    cid = draw(st.sampled_from(sorted(PAPER_CLUSTERS)))
    cluster = paper_cluster(cid)
    even = ExecutionPlan.uniform(
        PAPER_CLUSTERS[cid], cluster.devices, DEFAULT_WORKLOAD
    )
    stages = tuple(
        StagePlan(
            stage.device,
            tuple(
                draw(st.lists(
                    st.sampled_from((3, 4, 8, 16)),
                    min_size=stage.num_layers, max_size=stage.num_layers,
                ))
            ),
            kv_bits=draw(st.sampled_from((4, 8, 16))),
        )
        for stage in even.stages
    )
    return dataclasses.replace(even, stages=stages), cluster


@settings(max_examples=30, deadline=None)
@given(
    case=priced_plans(),
    lens=st.lists(st.integers(1, 4096), min_size=0, max_size=6),
)
def test_batch_rows_bitwise_equal_scalar_spec(case, lens):
    plan, cluster = case
    lens = [1, *lens, *lens[:2]]  # s = 1, duplicates, unsorted
    rows = StageCostModel(plan, cluster).unit_prefill_times_batch(lens)
    assert rows.shape == (len(lens), plan.num_stages)
    for row, s in zip(rows, lens):
        assert np.array_equal(row, spec_unit_prefill_times(plan, cluster, s)), s


def test_scalar_lookup_reads_the_batch_table():
    plan, cluster = mixed_plan()
    scm = StageCostModel(plan, cluster)
    lens = np.array([640, 7, 640, 33])
    rows = scm.unit_prefill_times_batch(lens)
    for row, s in zip(rows, lens.tolist()):
        assert np.array_equal(scm.unit_prefill_times(s), row)
    assert scm.unit_prefill_times(7) is scm.unit_prefill_times(7)


@pytest.mark.parametrize("bad", [0, -3])
def test_non_positive_prompt_length_is_refused(bad):
    from repro.sim.kernels import layer_exec_time

    plan, cluster = mixed_plan()
    scm = StageCostModel(plan, cluster)
    stage = plan.stages[0]
    with pytest.raises(ValueError) as scalar:
        layer_exec_time(stage.device.spec, scm.cfg, 4, 1, bad, bad)
    with pytest.raises(ValueError) as batch:
        scm.unit_prefill_times_batch([12, bad])
    assert str(batch.value) == str(scalar.value)
    with pytest.raises(ValueError, match=str(scalar.value)):
        scm.unit_prefill_times(bad)
    with pytest.raises(ValueError, match="1-D"):
        scm.unit_prefill_times_batch([[12, 24]])


def test_derived_model_shares_the_prefill_table():
    plan, cluster = mixed_plan()
    parent = StageCostModel(plan, cluster)
    row = parent.unit_prefill_times(96)
    reshaped = dataclasses.replace(
        plan, workload=dataclasses.replace(plan.workload, global_batch=3),
        prefill_microbatch=2, decode_microbatch=3,
    )
    child = parent.derive(reshaped)
    assert child.unit_prefill_times(96) is row
    assert child.unit_prefill_times(48) is parent.unit_prefill_times(48)
    assert np.array_equal(
        child.unit_prefill_times_batch([96, 48]),
        parent.unit_prefill_times_batch([96, 48]),
    )
