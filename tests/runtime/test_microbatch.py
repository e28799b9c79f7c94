"""Unit tests for the offline micro-batch split."""

import pytest

from repro.runtime import MicroBatchManager


def test_prefill_units_cover_batch():
    m = MicroBatchManager(global_batch=10, prefill_microbatch=4, decode_microbatch=8)
    units = m.prefill_units
    assert [u[1] for u in units] == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert m.num_prefill_microbatches == 3


def test_decode_groups_regroup_units():
    m = MicroBatchManager(global_batch=16, prefill_microbatch=2, decode_microbatch=8)
    groups = m.decode_groups
    assert m.num_decode_groups == 2
    members, sl = groups[0]
    assert members == (0, 1, 2, 3)
    assert sl == slice(0, 8)


def test_decode_smaller_than_prefill_keeps_units():
    m = MicroBatchManager(global_batch=8, prefill_microbatch=4, decode_microbatch=2)
    # cannot split a cache unit: effective decode group = 1 unit
    assert m.num_decode_groups == m.num_prefill_microbatches


def test_sizes_capped_at_global_batch():
    m = MicroBatchManager(global_batch=4, prefill_microbatch=16, decode_microbatch=64)
    assert m.prefill_microbatch == 4
    assert m.decode_microbatch == 4
    assert m.num_prefill_microbatches == 1


def test_validation():
    with pytest.raises(ValueError):
        MicroBatchManager(0, 1, 1)
    with pytest.raises(ValueError):
        MicroBatchManager(4, 0, 1)


def test_decode_groups_cover_every_unit_in_order():
    """Groups are runs of whole prefill units: every unit once, in
    order, and each group's batch slice spans exactly its units' rows."""
    m = MicroBatchManager(global_batch=10, prefill_microbatch=2, decode_microbatch=4)
    covered = [u for members, _sl in m.decode_groups for u in members]
    assert covered == [u for u, _sl in m.prefill_units]
    units = dict(m.prefill_units)
    for members, sl in m.decode_groups:
        assert (sl.start, sl.stop) == (units[members[0]].start, units[members[-1]].stop)
