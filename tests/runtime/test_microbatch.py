"""Unit tests for the thread-safe micro-batch manager and the engine's
decode-group halving rung."""

import threading

import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM
from repro.runtime import MicroBatchManager, PipelineRuntime
from repro.workload import Workload


def test_prefill_units_cover_batch():
    m = MicroBatchManager(global_batch=10, prefill_microbatch=4, decode_microbatch=8)
    units = m.prefill_units
    assert [u[1] for u in units] == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert m.num_prefill_microbatches == 3


def test_decode_groups_regroup_units():
    m = MicroBatchManager(global_batch=16, prefill_microbatch=2, decode_microbatch=8)
    groups = m.decode_groups
    assert m.num_decode_groups == 2
    gid, members, sl = groups[0]
    assert gid >= MicroBatchManager.GROUP_ID_BASE
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


def test_shrink_decode_halves_and_regroups(tiny8l):
    """The engine's KV-pressure rung halves the decode group 8 -> 4 -> 2
    and stops at the one-prefill-unit floor; each retry's fresh manager
    regroups the batch at the shrunk size."""
    plan = ExecutionPlan(
        model_name="tiny-8l",
        stages=(StagePlan(Device(get_gpu("T4-16G"), 0, 0), (16,) * 8),),
        prefill_microbatch=2, decode_microbatch=8,
        workload=Workload(prompt_len=8, gen_len=4, global_batch=16),
    )
    groups = lambda rt: MicroBatchManager(
        16, rt.plan.prefill_microbatch, rt._decode_microbatch
    ).num_decode_groups
    with PipelineRuntime(TinyDecoderLM(tiny8l, seed=0), plan) as rt:
        assert groups(rt) == 2
        assert rt._halve_decode_group()
        assert rt._decode_microbatch == 4 and groups(rt) == 4
        assert rt._halve_decode_group()
        assert rt._decode_microbatch == 2 and groups(rt) == 8
        # floor: one prefill unit per group, cannot shrink further
        assert not rt._halve_decode_group()
        assert rt._decode_microbatch == 2


def test_shrink_decode_reissues_group_ids():
    """A manager rebuilt at a shrunk decode size issues group ids from
    GROUP_ID_BASE again and still covers every unit once, in order."""
    m = MicroBatchManager(global_batch=8, prefill_microbatch=2, decode_microbatch=4)
    gids = [g[0] for g in m.decode_groups]
    assert gids == [MicroBatchManager.GROUP_ID_BASE,
                    MicroBatchManager.GROUP_ID_BASE + 1]
    covered = [u for _g, members, _sl in m.decode_groups for u in members]
    assert covered == [u for u, _sl in m.prefill_units]


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
