"""Unit tests for the thread-safe micro-batch manager."""

import threading

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


def test_inflight_tracking():
    m = MicroBatchManager(global_batch=8, prefill_microbatch=2, decode_microbatch=4)
    m.mark_inflight(0)
    assert m.inflight_ids() == (0,)
    with pytest.raises(ValueError, match="already in flight"):
        m.mark_inflight(0)
    m.mark_done(0)
    assert m.inflight_ids() == ()


def test_decode_groups_cover_every_unit_in_order():
    """Groups are runs of whole prefill units: every unit once, in
    order, and each group's batch slice spans exactly its units' rows."""
    m = MicroBatchManager(global_batch=10, prefill_microbatch=2, decode_microbatch=4)
    covered = [u for members, _sl in m.decode_groups for u in members]
    assert covered == [u for u, _sl in m.prefill_units]
    units = dict(m.prefill_units)
    for members, sl in m.decode_groups:
        assert (sl.start, sl.stop) == (units[members[0]].start, units[members[-1]].stop)


def test_inflight_ids_snapshot_and_clear():
    m = MicroBatchManager(global_batch=8, prefill_microbatch=2, decode_microbatch=4)
    for uid in (3, 1, 2):
        m.mark_inflight(uid)
    assert m.inflight_ids() == (1, 2, 3)
    for uid in (1, 2, 3):
        m.mark_done(uid)
    assert m.inflight_ids() == ()
    m.mark_inflight(1)  # ids are reusable once done
    assert m.inflight_ids() == (1,)


def test_inflight_thread_safety():
    m = MicroBatchManager(global_batch=64, prefill_microbatch=1, decode_microbatch=1)
    errors = []

    def work(lo, hi):
        try:
            for i in range(lo, hi):
                m.mark_inflight(i)
            for i in range(lo, hi):
                m.mark_done(i)
        except BaseException as e:  # pragma: no cover
            errors.append(e)

    threads = [threading.Thread(target=work, args=(k * 16, (k + 1) * 16)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert m.inflight_ids() == ()


def test_concurrent_producer_consumer_ledger():
    """A feeder marks units in flight while a collector marks them done
    — the ledger must drain to empty with no error and no lost update."""
    import queue

    m = MicroBatchManager(global_batch=256, prefill_microbatch=1, decode_microbatch=1)
    handoff: "queue.Queue[int]" = queue.Queue()
    errors = []
    N = 256

    def feeder():
        try:
            for uid in range(N):
                m.mark_inflight(uid)
                handoff.put(uid)
        except BaseException as e:  # pragma: no cover
            errors.append(e)

    def collector():
        try:
            for _ in range(N):
                m.mark_done(handoff.get(timeout=5.0))
        except BaseException as e:  # pragma: no cover
            errors.append(e)

    ts = [threading.Thread(target=feeder), threading.Thread(target=collector)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=10.0)
    assert not errors
    assert m.inflight_ids() == ()
