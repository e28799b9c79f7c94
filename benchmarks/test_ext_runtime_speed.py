"""Extension: hot-path execution engine (dequant weight cache).

Serves the same batch on the thread-pipelined runtime with the
budget-aware dequantized-weight cache enabled (auto budget) and with it
disabled (``--dequant-cache-mb 0``: rebuild every layer on every
message) on the tiny-8l model.  The cache may only change wall-clock
and counters: the generated token streams are asserted byte-identical,
and the cache counters must be consistent with what the schedule
implies (one build per resident layer when head-room exists, one build
per layer per message when disabled).

The cached/uncached throughput ratio is printed and recorded in
``benchmarks/results/ext_runtime_speed.json`` as information only: it
measures how slow the rebuild path is, so a faster codec lowers it.
Speed is gated by the repo benchmark (``bench/run.py``), not here.
"""

import numpy as np

from repro.bench.tables import print_table, save_results
from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, make_corpus
from repro.runtime import PipelineRuntime
from repro.workload import Workload

GEN_LEN = 48
WORKLOAD = Workload(prompt_len=16, gen_len=GEN_LEN, global_batch=8)


def _plan(bits_per_stage, workload):
    stages = tuple(
        StagePlan(Device(get_gpu("T4-16G"), node_id=0, local_rank=i), tuple(bits))
        for i, bits in enumerate(bits_per_stage)
    )
    gb = workload.global_batch
    return ExecutionPlan(
        model_name="tiny-8l", stages=stages,
        prefill_microbatch=min(4, gb), decode_microbatch=min(8, gb),
        workload=workload,
    )


def _serve(reference, plan, prompts, gen_len, cache_mb):
    with PipelineRuntime(reference, plan, dequant_cache_mb=cache_mb) as rt:
        tokens = rt.generate(prompts, gen_len)
        stats = rt.stats
    return tokens, stats


def _compare(gen_len=GEN_LEN, workload=WORKLOAD):
    from repro.models import get_model

    reference = TinyDecoderLM(get_model("tiny-8l"), seed=3)
    prompts = make_corpus(
        reference.cfg.vocab_size, num_seqs=workload.global_batch,
        seq_len=workload.prompt_len, seed=5,
    ).tokens
    plan = _plan([(4,) * 4, (3,) * 4], workload)
    cold_tokens, cold = _serve(reference, plan, prompts, gen_len, 0.0)
    warm_tokens, warm = _serve(reference, plan, prompts, gen_len, None)
    np.testing.assert_array_equal(warm_tokens, cold_tokens)
    return cold, warm


def _rows(cold, warm):
    speedup = warm.decode_tokens_per_s / max(cold.decode_tokens_per_s, 1e-9)
    def row(name, st, spd):
        return {
            "cache": name,
            "decode_tok_s": round(st.decode_tokens_per_s, 1),
            "prefill_tok_s": round(st.prefill_tokens_per_s, 1),
            "hits": st.dequant_cache_hits,
            "misses": st.dequant_cache_misses,
            "build_s": round(st.dequant_build_seconds, 3),
            "budget_mb": round(st.dequant_cache_budget_bytes / 2**20, 2),
            "decode_speedup": round(spd, 2),
        }
    return [row("disabled (0 MiB)", cold, 1.0), row("auto budget", warm, speedup)]


def test_ext_runtime_speed_headline():
    """Byte-identical tokens and schedule-consistent counters with the
    cache on and off; the throughput table is recorded, not asserted."""
    cold, warm = _compare()

    # counter consistency: disabled -> one rebuild per layer per message,
    # zero hits; auto -> one rebuild per resident layer, the rest hits
    assert cold.dequant_cache_hits == 0
    assert cold.dequant_cache_misses >= 8 * GEN_LEN  # every decode message
    assert warm.dequant_cache_misses == 8
    assert warm.dequant_cache_hits > 0
    assert warm.dequant_build_seconds < cold.dequant_build_seconds

    rows = _rows(cold, warm)
    print_table(rows, title="Ext — hot-path dequant cache on/off (tiny-8l)")
    save_results(
        "ext_runtime_speed",
        {"scenario": "tiny-8l 2-stage 4/3-bit, batch 8, gen 48",
         "rows": rows, "decode_speedup": rows[1]["decode_speedup"]},
    )


def test_ext_runtime_speed_smoke():
    """CI guard: same tokens with the cache on and off (asserted inside
    ``_compare``), and counters that match the schedule."""
    wl = Workload(prompt_len=8, gen_len=24, global_batch=4)
    cold, warm = _compare(gen_len=24, workload=wl)
    assert cold.dequant_cache_hits == 0
    assert cold.dequant_cache_misses >= 8 * 24
    assert warm.dequant_cache_misses == 8
    assert warm.dequant_cache_hits > 0
