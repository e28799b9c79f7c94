"""``serve_*``: the real thread-pipelined runtime on the tiny model.

All three workloads run tiny-8l (weights seed 3) as 2 stages x 4 layers
on one started :class:`PipelineRuntime` under
``ContinuousScheduler(time_scale=0, max_inflight=16)``: every request is
queued at t=0 and 16 are kept in flight (closed loop, 16 clients).  A
timed pass serves the same seeded request set again on a fresh
scheduler, so passes are comparable and the steady estimator can pick
among them.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu
from repro.models import TinyDecoderLM, generate, get_model
from repro.models.transformer import KVCache
from repro.quant import quantize_dequantize
from repro.runtime import PipelineRuntime, kvcache, loader, worker
from repro.runtime import scheduler as sched_mod
from repro.runtime.scheduler import ContinuousScheduler, ServeRequest
from repro.workload import Workload

from .harness import Outcome, hi_percentile, scaled, steady

MODEL = "tiny-8l"
MODEL_SEED = 3
MAX_INFLIGHT = 16
CHECK_SAMPLE = 32
#: request *lengths* come from this fixed seed, token ids from ``--seed``:
#: which requests finish together decides how many prompts share the next
#: iteration, so seeded lengths made ``ttft_service_ms_p50`` swing 19%
#: from seed to seed on identical code
SHAPE_SEED = 11

#: name -> (stage bits, kv bits, requests per pass, prompt range, gen range)
SHAPES = {
    "serve_decode_fp16": (((16,) * 4, (16,) * 4), 16, 48, (6, 10), (48, 64)),
    "serve_prefill_fp16": (((16,) * 4, (16,) * 4), 16, 96, (96, 160), (2, 4)),
    "serve_decode_w4kv4": (((4, 4, 4, 4), (3, 3, 8, 8)), 4, 32, (6, 10), (24, 32)),
    # the cross-check panel's scenario, not a workload of its own: mixed
    # enough to give all four serve metrics from one short pass
    "panel": (((16,) * 4, (16,) * 4), 16, 16, (24, 40), (12, 20)),
}


def make_requests(rng, n: int, vocab: int, prompt, gen) -> list[ServeRequest]:
    """``n`` requests, all arriving at t=0: lengths uniform in the given
    ranges (the same for every seed), token ids from ``rng``."""
    shapes = np.random.default_rng(SHAPE_SEED)
    out = []
    for i in range(n):
        s = int(shapes.integers(prompt[0], prompt[1] + 1))
        g = int(shapes.integers(gen[0], gen[1] + 1))
        tokens = rng.integers(0, vocab, size=s, dtype=np.int64)
        out.append(ServeRequest(request_id=i, prompt=tokens, gen_len=g))
    return out


def tiny_plan(stage_bits, kv_bits: int, prompt_hi: int, gen_hi: int) -> ExecutionPlan:
    stages = tuple(
        StagePlan(Device(get_gpu("T4-16G"), node_id=0, local_rank=i), tuple(b))
        for i, b in enumerate(stage_bits)
    )
    plan = ExecutionPlan(
        model_name=MODEL, stages=stages, prefill_microbatch=4,
        decode_microbatch=8,
        workload=Workload(
            prompt_len=prompt_hi, gen_len=gen_hi, global_batch=MAX_INFLIGHT
        ),
    )
    return plan.with_kv_bits(kv_bits) if kv_bits != 16 else plan


def serve_samples(report, wall: float) -> dict[str, float]:
    """Per-pass host metrics of one ``serve()`` call."""
    done = report.completed
    tpots = [
        (r.finish_time - r.first_token_time) / (r.gen_len - 1)
        for r in done if r.gen_len > 1
    ]
    ttfts = [r.first_token_time - r.admit_time for r in done]
    return {
        "decode_tok_s": report.generated_tokens / wall,
        "prompt_tok_s": sum(r.prompt_len for r in done) / wall,
        "tpot_ms_p50": 1e3 * median(tpots),
        "ttft_service_ms_p50": 1e3 * median(ttfts),
        "wall": wall,
        "tpots": tpots,
        "ttfts": ttfts,
    }


def check_streams(
    out: Outcome, reference, stage_bits, kv_bits: int, requests, report,
    rng, sample: int,
) -> None:
    """Served token streams of a seeded sample equal the single-process
    reference (fake-quantised weights and KV where the plan quantises)."""
    model = reference
    if any(b < 16 for bits in stage_bits for b in bits):
        model = reference.clone()
        flat = [b for bits in stage_bits for b in bits]
        for i, b in enumerate(flat):
            if b < 16:
                model.apply_to_layer(
                    i, lambda _n, w, b=b: quantize_dequantize(w, b)
                )
    by_id = {r.request_id: r for r in report.records}
    picks = rng.choice(len(requests), size=min(sample, len(requests)), replace=False)
    wrong = 0
    for i in picks:
        req = requests[int(i)]
        rec = by_id.get(req.request_id)
        want = generate(
            model, np.asarray(req.prompt)[None, :], req.gen_len, kv_bits=kv_bits
        ).tokens[0]
        if rec is None or rec.rejected or rec.tokens is None or not np.array_equal(
            rec.tokens, want
        ):
            wrong += 1
    out.fail(wrong, f"token stream differs from generate() on {wrong}/{len(picks)}")


class Serve:
    FAMILY = "serve"
    #: spans that group or wait; their own time is the glue between layers
    CONTAINERS = {"runtime.serve", "runtime.iteration", "runtime.queue_wait"}

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.seed = seed
        bits, kv, n, prompt, gen = SHAPES[name]
        self.stage_bits, self.kv_bits = bits, kv
        # the stream check needs 32 distinct requests even when scaled
        self.n = n if scale >= 1.0 else max(scaled(n, scale), CHECK_SAMPLE)
        self.gen = gen if scale >= 1.0 else (max(2, gen[0] // 8), max(3, gen[1] // 8))
        self.prompt = prompt if scale >= 1.0 else (
            max(4, prompt[0] // 4), max(6, prompt[1] // 4)
        )
        self.cfg = get_model(MODEL)
        self.reference = None
        self.rt = None
        self.requests: list[ServeRequest] = []
        self.report = None
        self.start_s = 0.0
        self.rec = None
        self._pass = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.reference = TinyDecoderLM(self.cfg, seed=MODEL_SEED)
        self.requests = make_requests(
            rng, self.n, self.cfg.vocab_size, self.prompt, self.gen
        )
        plan = tiny_plan(self.stage_bits, self.kv_bits, self.prompt[1], self.gen[1])
        t0 = time.perf_counter()
        self.rt = PipelineRuntime(self.reference, plan)
        self.start_s = time.perf_counter() - t0
        # warm-up: four short requests fill the dequant caches and touch
        # the prefill, fused-decode and release paths
        self._serve(make_requests(rng, 4, self.cfg.vocab_size, self.prompt, (3, 3)))

    def teardown(self) -> None:
        if self.rt is not None:
            self.rt.shutdown()
            self.rt = None

    def _serve(self, requests):
        sched = ContinuousScheduler(
            self.rt, time_scale=0.0, max_inflight=MAX_INFLIGHT
        )
        t0 = time.perf_counter()
        report = sched.serve(requests)
        return report, time.perf_counter() - t0

    # -- timed ----------------------------------------------------------
    def run_pass(self) -> dict:
        if self.rec is not None:
            self.rec.rid = self._pass
        self._pass += 1
        self.report, wall = self._serve(self.requests)
        out = serve_samples(self.report, wall)
        out["completed"] = len(self.report.completed)
        out["rejected"] = len(self.report.rejected)
        return out

    def finish(self, passes: list[dict]) -> dict[str, float]:
        return {
            "decode_tok_s": steady([p["decode_tok_s"] for p in passes], "higher"),
            "tpot_ms_p50": steady([p["tpot_ms_p50"] for p in passes], "lower"),
            "prompt_tok_s": steady([p["prompt_tok_s"] for p in passes], "higher"),
            "ttft_service_ms_p50": steady(
                [p["ttft_service_ms_p50"] for p in passes], "lower"
            ),
        }

    # -- correctness ----------------------------------------------------
    def check(self, out: Outcome, passes: list[dict]) -> None:
        out.attempted += self.n * len(passes)
        lost = sum(self.n - p["completed"] for p in passes)
        out.fail(lost, "requests rejected or not completed")
        check_streams(
            out, self.reference, self.stage_bits, self.kv_bits, self.requests,
            self.report, np.random.default_rng(self.seed + 1), CHECK_SAMPLE,
        )

    # -- traced ---------------------------------------------------------
    def instrument(self, rec) -> None:
        self.rec = rec
        rec.wrap(ContinuousScheduler, "serve", "runtime.serve")
        rec.wrap(ContinuousScheduler, "_iteration", "runtime.iteration")
        rec.wrap(ContinuousScheduler, "_admit_continuous", "runtime.sched")
        rec.wrap(ContinuousScheduler, "_send_prefill", "runtime.sched")
        rec.wrap(ContinuousScheduler, "_send_batched_decode", "runtime.sched")
        rec.wrap(ContinuousScheduler, "_release", "runtime.sched")
        rec.wrap(PipelineRuntime, "_next_message", "runtime.queue_wait")
        rec.wrap(PipelineRuntime, "_logits_last", "runtime.logits_pick")
        rec.wrap(sched_mod, "greedy_pick", "runtime.logits_pick")
        rec.wrap(worker, "decoder_block", "runtime.prefill_block")
        rec.wrap(worker, "batched_decode_block", "runtime.decode_block")
        rec.wrap(kvcache.StageKVManager, "batch_view", "runtime.kv_batch_view")
        rec.wrap(kvcache.BatchedKVView, "append", "runtime.kv_append")
        rec.wrap(kvcache.BatchedKVView, "read_padded", "runtime.kv_read")
        for cls in (KVCache, kvcache.QuantizedKVCache):
            rec.wrap(cls, "append", "runtime.kv_append")
            rec.wrap(cls, "read", "runtime.kv_read")
        rec.wrap(loader.QuantizedStageLayer, "materialize", "runtime.materialize")

    def _kv_read_bytes_per_token(self) -> float:
        """KV bytes one decode token reads, from shapes (unpadded): each
        layer reads K and V rows of the request's whole context."""
        cfg, kv = self.cfg, self.kv_bits
        per_row = (
            cfg.hidden_size * 8.0 if kv >= 16
            else cfg.hidden_size * kv / 8.0 + cfg.num_heads * 8.0
        )
        row = 2.0 * sum(len(bits) for bits in self.stage_bits) * per_row
        ctx = tokens = 0
        for r in self.report.completed:
            steps = r.gen_len - 1
            ctx += steps * r.prompt_len + steps * (steps + 1) // 2
            tokens += steps
        return row * ctx / tokens if tokens else 0.0

    def layers(self, rec, traced: list[dict]) -> dict[str, float]:
        n = max(len(traced), 1)
        stats = self.rt.stats
        caches = [c.stats for c in self.rt.dequant_caches]
        serve_wall = rec.total_s("runtime.serve")
        blocks = rec.per_thread_total(
            "runtime.decode_block", "runtime.prefill_block"
        )
        busiest = max(blocks.values(), default=0.0)
        iters = rec.durations("runtime.iteration")
        tpots = [t for p in traced for t in p["tpots"]]
        ttfts = [t for p in traced for t in p["ttfts"]]
        tpot_hi = hi_percentile(tpots)
        ttft_hi = hi_percentile(ttfts)
        self.hi_note = (
            f"runtime.tpot_ms_hi is p{tpot_hi[1]:.2f} of n={tpot_hi[2]}; "
            f"runtime.ttft_service_ms_hi is p{ttft_hi[1]:.2f} of n={ttft_hi[2]}"
        )
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        return {
            "runtime.start_s": self.start_s,
            "runtime.serve_wall_s": serve_wall / n,
            "runtime.iterations": len(iters) / n,
            "runtime.fused_batch_mean": stats.fused_batch_mean,
            "runtime.iter_ms_p50": 1e3 * median(iters) if iters else 0.0,
            "runtime.decode_block_s": rec.self_s("runtime.decode_block") / n,
            "runtime.prefill_block_s": rec.self_s("runtime.prefill_block") / n,
            "runtime.kv_batch_view_s": rec.self_s("runtime.kv_batch_view") / n,
            "runtime.kv_append_s": rec.self_s("runtime.kv_append") / n,
            "runtime.kv_read_s": rec.self_s("runtime.kv_read") / n,
            "runtime.kv_read_bytes_per_token": self._kv_read_bytes_per_token(),
            "runtime.logits_pick_s": rec.self_s("runtime.logits_pick") / n,
            "runtime.sched_overhead_share": (
                1.0 - busiest / serve_wall if serve_wall else 0.0
            ),
            "runtime.dequant_hits": hits,
            "runtime.dequant_misses": misses,
            "runtime.dequant_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.dequant_build_s": sum(c.build_seconds for c in caches),
            "runtime.completed": sum(p["completed"] for p in traced) / n,
            "runtime.rejected": sum(p["rejected"] for p in traced) / n,
            "runtime.tpot_ms_hi": 1e3 * tpot_hi[0],
            "runtime.ttft_service_ms_hi": 1e3 * ttft_hi[0],
        }
