"""Tests for the budget-aware dequantized-weight cache (the decode hot path).

Unit level: LRU + byte-budget semantics of :class:`DequantCache`, including
the zero-budget mode that must reproduce recompute-every-call exactly.
Integration level: the pipelined runtime serves token-identical output at
every cache setting — only counters and wall-clock may differ — and sheds
cached weights under KV-allocation pressure before the degradation ladder
fires.
"""

import queue

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, make_corpus
from repro.runtime import DequantCache, PipelineRuntime, StageWorker
from repro.runtime.faults import FaultInjector, KVAllocPressure
from repro.runtime.loader import load_stage_weights
from repro.workload import Workload


# ----------------------------------------------------------------------
# unit: cache semantics
# ----------------------------------------------------------------------
def _builder(value, nbytes, calls):
    def build():
        calls.append(value)
        return value, nbytes

    return build


def test_hit_miss_and_counters():
    cache = DequantCache(100)
    calls = []
    assert cache.get("a", _builder("A", 10, calls)) == "A"
    assert cache.get("a", _builder("A", 10, calls)) == "A"
    assert calls == ["A"]  # second get served cached
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.insertions == 1
    assert cache.bytes_in_use == 10
    assert 0 < cache.stats.hit_rate < 1


def test_zero_budget_builds_every_call():
    """Budget 0 is the naive recompute-per-call baseline: nothing is ever
    stored and every lookup invokes the builder."""
    cache = DequantCache(0)
    calls = []
    for _ in range(5):
        assert cache.get("a", _builder("A", 10, calls)) == "A"
    assert len(calls) == 5
    assert len(cache) == 0
    assert cache.bytes_in_use == 0
    assert cache.stats.misses == 5
    assert cache.stats.hits == 0
    assert cache.stats.insertions == 0


def test_lru_eviction_order():
    cache = DequantCache(30)
    calls = []
    cache.get("a", _builder("A", 10, calls))
    cache.get("b", _builder("B", 10, calls))
    cache.get("c", _builder("C", 10, calls))
    cache.get("a", _builder("A", 10, calls))  # refresh a: LRU order b, c, a
    cache.get("d", _builder("D", 10, calls))  # evicts b
    assert cache.stats.evictions == 1
    cache.get("b", _builder("B", 10, calls))  # miss: b was evicted
    assert calls == ["A", "B", "C", "D", "B"]
    assert cache.bytes_in_use == 30


def test_oversized_entry_returned_but_not_stored():
    cache = DequantCache(5)
    calls = []
    assert cache.get("big", _builder("BIG", 10, calls)) == "BIG"
    assert cache.get("big", _builder("BIG", 10, calls)) == "BIG"
    assert len(calls) == 2
    assert len(cache) == 0
    assert cache.stats.evictions == 0


def test_shed_frees_lru_first_and_reports_bytes():
    cache = DequantCache(100)
    calls = []
    for k, v in [("a", "A"), ("b", "B"), ("c", "C")]:
        cache.get(k, _builder(v, 10, calls))
    freed = cache.shed(15)
    assert freed == 20  # two LRU entries (a, b)
    assert cache.stats.sheds == 2
    assert cache.bytes_in_use == 10
    cache.get("c", _builder("C", 10, calls))  # survivor still cached
    assert calls == ["A", "B", "C"]
    assert cache.shed(1000) == 10  # drains, reports what it actually freed
    assert cache.shed(10) == 0  # nothing left


def test_shrink_and_clear():
    cache = DequantCache(100)
    calls = []
    for k in "abc":
        cache.get(k, _builder(k.upper(), 10, calls))
    assert cache.shrink(15) == 20
    assert cache.budget_bytes == 15
    assert len(cache) == 1
    cache.clear()
    assert cache.bytes_in_use == 0
    assert cache.stats.misses == 3  # counters survive clear


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        DequantCache(-1)
    with pytest.raises(ValueError, match=">= 0"):
        DequantCache(10).shrink(-1)


def test_peak_bytes_tracks_high_water_mark():
    cache = DequantCache(50)
    calls = []
    for k in "abcde":
        cache.get(k, _builder(k, 10, calls))
    cache.shed(50)
    assert cache.bytes_in_use == 0
    assert cache.peak_bytes == 50


# ----------------------------------------------------------------------
# integration: runtime numerics must not depend on the cache setting
# ----------------------------------------------------------------------
def _dev(i):
    return Device(get_gpu("T4-16G"), node_id=0, local_rank=i)


def _plan(bits_per_stage, workload):
    stages = tuple(
        StagePlan(_dev(i), tuple(bits)) for i, bits in enumerate(bits_per_stage)
    )
    return ExecutionPlan(
        model_name="tiny-8l", stages=stages,
        prefill_microbatch=2, decode_microbatch=4, workload=workload,
    )


@pytest.fixture(scope="module")
def reference(tiny8l):
    return TinyDecoderLM(tiny8l, seed=3)


@pytest.fixture(scope="module")
def prompts(tiny8l):
    return make_corpus(tiny8l.vocab_size, num_seqs=8, seq_len=12, seed=5).tokens


@pytest.fixture(scope="module")
def workload8():
    return Workload(prompt_len=12, gen_len=6, global_batch=8)


def test_tokens_identical_across_cache_settings(reference, prompts, workload8):
    """Plans, token streams and quality must be bit-identical at every
    cache setting — the cache may only change wall-clock."""
    plan = _plan([(8,) * 3, (4,) * 3, (16,) * 2], workload8)
    outs = {}
    for mb in (None, 0.0, 0.01, 1024.0):
        with PipelineRuntime(reference, plan, dequant_cache_mb=mb) as rt:
            outs[mb] = rt.generate(prompts, 6)
    base = outs[None]
    for mb, out in outs.items():
        np.testing.assert_array_equal(out, base, err_msg=f"cache_mb={mb}")


def test_auto_budget_caches_and_counts_hits(reference, prompts, workload8):
    plan = _plan([(8,) * 4, (4,) * 4], workload8)
    with PipelineRuntime(reference, plan) as rt:
        rt.generate(prompts, 6)
        st = rt.stats
    # every stage had head-room: one build per layer, the rest hits
    assert st.dequant_cache_misses == 8
    assert st.dequant_cache_hits > 8 * 4  # many more lookups than layers
    assert st.dequant_cache_evictions == 0
    assert st.dequant_cache_budget_bytes > 0
    assert st.prefill_tokens == 8 * 12
    assert st.decode_tokens == 8 * 5
    assert st.prefill_tokens_per_s > 0
    assert st.decode_tokens_per_s > 0


def test_zero_budget_rebuilds_every_materialization(reference, prompts, workload8):
    plan = _plan([(8,) * 4, (4,) * 4], workload8)
    with PipelineRuntime(reference, plan, dequant_cache_mb=0.0) as rt:
        rt.generate(prompts, 6)
        st = rt.stats
    assert st.dequant_cache_hits == 0
    assert st.dequant_cache_misses > 8  # one rebuild per layer per message
    assert st.dequant_cache_budget_bytes == 0
    assert st.dequant_build_seconds > 0


def test_tiny_budget_evicts_but_stays_exact(reference, prompts, workload8):
    """A budget that fits roughly one layer thrashes the LRU — evictions
    fire constantly, yet tokens remain bit-identical."""
    plan = _plan([(8,) * 4, (4,) * 4], workload8)
    # one tiny-8l layer entry is ~0.47 MiB; allow one layer, not four
    with PipelineRuntime(reference, plan, dequant_cache_mb=0.6) as rt:
        out = rt.generate(prompts, 6)
        st = rt.stats
    with PipelineRuntime(reference, plan) as rt2:
        expected = rt2.generate(prompts, 6)
    np.testing.assert_array_equal(out, expected)
    assert st.dequant_cache_evictions > 0


def test_cache_stays_warm_across_worker_restart(reference, prompts, workload8):
    """The engine owns the caches, so a manual recover() (worker restart)
    keeps them warm: no layer is rebuilt for the second batch."""
    plan = _plan([(8,) * 4, (4,) * 4], workload8)
    rt = PipelineRuntime(reference, plan)
    try:
        before = rt.generate(prompts, 4)
        misses_before = rt.stats.dequant_cache_misses
        assert misses_before == 8
        rt.recover()
        after = rt.generate(prompts, 4)
        np.testing.assert_array_equal(after, before)
        assert rt.stats.dequant_cache_misses == misses_before  # still warm
        assert rt.stats.dequant_cache_hits > 0
    finally:
        rt.shutdown()


def test_stats_fold_across_shard_recut(reference, prompts, workload8):
    """Re-cutting shards (what a replan does) replaces the caches; their
    counters must fold into the published totals, not reset."""
    plan = _plan([(8,) * 4, (4,) * 4], workload8)
    rt = PipelineRuntime(reference, plan)
    try:
        rt.generate(prompts, 4)
        misses_before = rt.stats.dequant_cache_misses
        assert misses_before == 8
        rt._build_loads()  # replaces caches, as a shard-re-cutting migration does
        rt.recover()
        rt.generate(prompts, 4)
        # fresh caches rebuild each layer once; old misses are retained
        assert rt.stats.dequant_cache_misses == misses_before + 8
    finally:
        rt.shutdown()


def test_invalid_cache_budget_rejected(reference, workload8):
    plan = _plan([(16,) * 8], workload8)
    with pytest.raises(ValueError, match=">= 0"):
        PipelineRuntime(reference, plan, dequant_cache_mb=-1.0)


# ----------------------------------------------------------------------
# integration: shed-under-KV-pressure
# ----------------------------------------------------------------------
def test_worker_sheds_cache_before_failing_kv_alloc(reference, tiny8l):
    """A KV denial with cached weights resident is absorbed: the worker
    sheds dense bytes and retries instead of surfacing the error."""
    load = load_stage_weights(reference, range(4), [4, 4, 4, 4])
    cache = DequantCache(load.dense_cache_bytes)
    for ql in load.qlayers:  # warm the cache
        ql.materialize(cache)
    assert cache.bytes_in_use > 0
    injector = FaultInjector(
        [KVAllocPressure(stage=0, max_bytes=1.0, fail_count=1)]
    )
    w = StageWorker(
        0, tiny8l, load, queue.Queue(), queue.Queue(),
        injector=injector, dequant_cache=cache,
    )
    # allocation exceeds the cap -> denial -> shed -> retry succeeds
    w.kv.allocate(0, batch=2, max_len=8)
    assert cache.stats.sheds > 0
    assert cache.bytes_in_use < load.dense_cache_bytes


def test_worker_without_cache_still_surfaces_kv_error(reference, tiny8l):
    """With nothing to shed the denial escapes exactly as before — the
    degradation ladder's contract is unchanged."""
    from repro.runtime.faults import KVAllocationError

    load = load_stage_weights(reference, range(4), [16, 16, 16, 16])
    injector = FaultInjector([KVAllocPressure(stage=0, max_bytes=1.0)])
    w = StageWorker(0, tiny8l, load, queue.Queue(), queue.Queue(),
                    injector=injector, dequant_cache=DequantCache(0))
    with pytest.raises(KVAllocationError):
        w.kv.allocate(0, batch=2, max_len=8)
