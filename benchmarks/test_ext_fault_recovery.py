"""Extension analysis: serving throughput vs injected crash rate.

The fault-tolerant runtime recovers from stage crashes by rebuilding
workers from *cached* quantized shards and replaying the batch.  This
sweep injects 0..3 deterministic crashes into a tiny-model pipeline and
measures the wall-clock throughput hit, verifying along the way that
every recovered run stays token-for-token identical to the
single-process reference (the runtime's correctness invariant survives
arbitrarily many restarts)."""

import numpy as np

from repro.bench.tables import print_table, save_results
from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate, get_model, make_corpus
from repro.runtime import FaultInjector, PipelineRuntime, StageCrash
from repro.workload import Workload

GEN = 8
BATCH = 8
PROMPT = 12


def _plan(workload):
    dev = lambda i: Device(get_gpu("T4-16G"), node_id=0, local_rank=i)
    stages = tuple(
        StagePlan(dev(i), bits) for i, bits in enumerate(
            [(16,) * 3, (16,) * 3, (16,) * 2]
        )
    )
    return ExecutionPlan(
        model_name="tiny-8l", stages=stages,
        prefill_microbatch=2, decode_microbatch=4, workload=workload,
    )


def _crash_policies(num_crashes):
    """num_crashes one-shot mid-decode kills of the middle stage.

    With mb_p=2 (4 prefill activations/stage) and mb_d=4 (2 decode
    groups/step), message 6 at a stage is decode step 1.  All policies
    target the same stage at increasing message counts, so exactly one
    fires per serving attempt (the crash pre-empts the later triggers,
    and restarts reset the stage's message counter) — the retry count
    is deterministic, one per injected crash."""
    return [StageCrash(stage=1, at=6 + k) for k in range(num_crashes)]


def _serve(reference, plan, prompts, num_crashes):
    inj = FaultInjector(_crash_policies(num_crashes), seed=0)
    with PipelineRuntime(reference, plan, fault_injector=inj) as rt:
        tokens = rt.generate(prompts, GEN)
    st = rt.stats
    return tokens, {
        "injected_crashes": num_crashes,
        "retries": st.retries,
        "stage_restarts": st.stage_restarts,
        "replayed_microbatches": st.replayed_microbatches,
        "recovery_seconds": round(st.recovery_seconds, 4),
        "wall_seconds": round(st.total_seconds, 4),
        "throughput_tok_s": round(st.tokens_generated / st.total_seconds, 2),
    }


def test_ext_fault_recovery(benchmark):
    cfg = get_model("tiny-8l")
    reference = TinyDecoderLM(cfg, seed=3)
    prompts = make_corpus(cfg.vocab_size, num_seqs=BATCH, seq_len=PROMPT, seed=5).tokens
    workload = Workload(prompt_len=PROMPT, gen_len=GEN, global_batch=BATCH)
    plan = _plan(workload)
    expected = generate(reference, prompts, GEN).tokens

    def run():
        rows = []
        for num_crashes in (0, 1, 2, 3):
            tokens, row = _serve(reference, plan, prompts, num_crashes)
            # the headline invariant: recovery never changes the output
            np.testing.assert_array_equal(tokens, expected)
            rows.append(row)
        base = rows[0]["throughput_tok_s"]
        for row in rows:
            row["overhead_pct"] = round(
                100.0 * (base / row["throughput_tok_s"] - 1.0), 1
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        rows, title="Extension — throughput vs injected crash rate (tiny-8l)"
    )
    save_results("ext_fault_recovery", rows)

    by = {r["injected_crashes"]: r for r in rows}
    assert by[0]["retries"] == 0 and by[0]["overhead_pct"] == 0.0
    # every injected crash was seen and recovered within the retry bound
    for k in (1, 2, 3):
        assert by[k]["retries"] == k
        assert by[k]["stage_restarts"] >= k
        assert by[k]["recovery_seconds"] > 0
        assert by[k]["overhead_pct"] >= 0.0
    # more crashes never make recovery cheaper: counted in restarts and
    # lost units, not in ~1 ms wall-clock samples
    for k in (1, 2, 3):
        for key in ("stage_restarts", "replayed_microbatches"):
            assert by[k][key] >= by[k - 1][key]
