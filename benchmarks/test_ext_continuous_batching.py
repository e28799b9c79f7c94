"""Extension: continuous batching vs the wave (gang) baseline.

Measures the tentpole effect of the iteration-level scheduler twice:

* **Simulator** — an opt-30b 4-bit plan on the 3-GPU paper cluster
  replaying a Poisson mixed-length trace through ``simulate_online``
  under both policies.
* **Real runtime** — the thread-pipelined NumPy runtime serving a
  skewed-generation-length trace on tiny-8l through
  ``ContinuousScheduler``, with every continuous-policy token stream
  asserted byte-identical to the single-process reference.

Continuous batching must win in BOTH harnesses: strictly lower p95
latency, and in the (deterministic) simulator strictly lower mean TTFT.
The win comes purely from scheduling — no inter-wave drain and no
padding to the wave's max generation length.  Both policies run one
iteration (the runtime scheduler's fused ragged decode, and the same
engine and admission rule in the simulator), which amortizes the wave's
padded decodes too, so the throughput ratios are recorded in
``benchmarks/results/ext_continuous_batching.json`` but carry no floor.
The CI smoke test re-checks the latency wins on a second trace and the
runtime's stream identity.
"""

import numpy as np

from repro.bench.tables import print_table, save_results
from repro.core.plan import ExecutionPlan, StagePlan
from repro.hardware import Device, get_gpu, paper_cluster
from repro.models import TinyDecoderLM, generate, get_model
from repro.runtime import ContinuousScheduler, PipelineRuntime, ServeRequest
from repro.sim.online import simulate_online
from repro.workload import Workload, sample_poisson_arrivals


# ---------------------------------------------------------------------------
# simulator side (opt-30b on the paper cluster)
# ---------------------------------------------------------------------------


def _sim_compare(rate, duration, seed):
    cluster = paper_cluster(3)
    w = Workload(prompt_len=512, gen_len=100, global_batch=16)
    plan = ExecutionPlan.uniform("opt-30b", cluster.devices, w, bits=4)
    trace = sample_poisson_arrivals(
        rate, duration, seed=seed, max_prompt=256, max_gen=64
    )
    wave = simulate_online(plan, cluster, trace, policy="wave")
    cont = simulate_online(plan, cluster, trace, policy="continuous")
    assert cont.completed == wave.completed == len(trace)
    return wave, cont


# ---------------------------------------------------------------------------
# real-runtime side (tiny-8l on the thread-pipelined engine)
# ---------------------------------------------------------------------------


def _tiny_plan(workload):
    stages = tuple(
        StagePlan(Device(get_gpu("T4-16G"), node_id=0, local_rank=i), (16,) * 4)
        for i in range(2)
    )
    return ExecutionPlan(
        model_name="tiny-8l", stages=stages,
        prefill_microbatch=2, decode_microbatch=4, workload=workload,
    )


def _skewed_requests(cfg, n=10, seed=13):
    """Mostly-short generations with a long tail: the workload shape
    where wave padding hurts most (every member decodes to the max)."""
    rng = np.random.default_rng(seed)
    gens = [24 if i % 5 == 0 else int(rng.integers(2, 6)) for i in range(n)]
    return [
        ServeRequest(
            request_id=i,
            prompt=rng.integers(
                0, cfg.vocab_size, size=int(rng.integers(6, 13)), dtype=np.int64
            ),
            gen_len=gens[i],
        )
        for i in range(n)
    ]


def _runtime_compare(n=10):
    cfg = get_model("tiny-8l")
    reference = TinyDecoderLM(cfg, seed=3)
    plan = _tiny_plan(Workload(prompt_len=12, gen_len=8, global_batch=8))
    requests = _skewed_requests(cfg, n=n)
    reports = {}
    for policy in ("wave", "continuous"):
        with PipelineRuntime(reference, plan) as rt:
            reports[policy] = ContinuousScheduler(
                rt, policy=policy, time_scale=0.0
            ).serve(requests)
        assert len(reports[policy].completed) == n
    # byte-identity: co-batching must not perturb any stream
    for rec in reports["continuous"].completed:
        req = requests[rec.request_id]
        expected = generate(reference, req.prompt[None, :], req.gen_len).tokens[0]
        np.testing.assert_array_equal(rec.tokens, expected)
    return reports["wave"], reports["continuous"]


def _row(name, policy, throughput, p95, ttft, ratio):
    return {
        "harness": name,
        "policy": policy,
        "tok_s": round(throughput, 2),
        "p95_latency_s": round(p95, 3),
        "ttft_mean_s": round(ttft, 3),
        "throughput_ratio": round(ratio, 2),
    }


def test_ext_continuous_batching_headline():
    """Headline: continuous has strictly lower p95 than the wave
    baseline in both harnesses (and lower TTFT in the simulator)."""
    sim_wave, sim_cont = _sim_compare(rate=3.0, duration=60.0, seed=7)
    sim_ratio = sim_cont.throughput / sim_wave.throughput
    assert sim_cont.p95_latency < sim_wave.p95_latency
    assert sim_cont.mean_ttft < sim_wave.mean_ttft

    rt_wave, rt_cont = _runtime_compare()
    rt_ratio = (
        rt_cont.throughput_tokens_per_s / rt_wave.throughput_tokens_per_s
    )
    assert rt_cont.latency_p95 < rt_wave.latency_p95

    rows = [
        _row("sim opt-30b", "wave", sim_wave.throughput,
             sim_wave.p95_latency, sim_wave.mean_ttft, 1.0),
        _row("sim opt-30b", "continuous", sim_cont.throughput,
             sim_cont.p95_latency, sim_cont.mean_ttft, sim_ratio),
        _row("runtime tiny-8l", "wave", rt_wave.throughput_tokens_per_s,
             rt_wave.latency_p95, rt_wave.ttft_mean, 1.0),
        _row("runtime tiny-8l", "continuous",
             rt_cont.throughput_tokens_per_s, rt_cont.latency_p95,
             rt_cont.ttft_mean, rt_ratio),
    ]
    print_table(rows, title="Ext — continuous batching vs wave baseline")
    save_results(
        "ext_continuous_batching",
        {
            "sim_scenario": "opt-30b 4-bit, paper cluster 3, "
                            "Poisson rate 3/s x 60s",
            "runtime_scenario": "tiny-8l 2-stage fp16, 10 skewed requests",
            "rows": rows,
            "sim_throughput_ratio": round(sim_ratio, 2),
            "runtime_throughput_ratio": round(rt_ratio, 2),
        },
    )


def test_ext_continuous_batching_smoke():
    """CI guard: on a second simulated trace continuous keeps strictly
    lower p95 and TTFT, and the real runtime serves identical streams
    with strictly lower p95."""
    sim_wave, sim_cont = _sim_compare(rate=2.0, duration=30.0, seed=11)
    assert sim_cont.p95_latency < sim_wave.p95_latency
    assert sim_cont.mean_ttft < sim_wave.mean_ttft

    rt_wave, rt_cont = _runtime_compare()
    assert rt_cont.latency_p95 < rt_wave.latency_p95
