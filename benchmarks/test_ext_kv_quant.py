"""Extension: quantized KV cache (KV4/KV8) as an admission multiplier.

Per-stage KV bitwidth is now a plan dimension: the planner's memory
model charges packed KV bytes per request, the decode roofline streams
the KV at each stage's own bitwidth, and the continuous-batching
admission ledger hands out the freed headroom as extra in-flight
requests.  This benchmark pins the Sec.-7 trade-off end to end on a
memory-tight serving scenario — opt-30b at 4-bit weights on four
T4-16Gs, short prompts with 1024-token generations, arrivals saturating
the decode capacity:

* **max in-flight** — the worst-case concurrent batch the plan's KV
  headroom admits quadruples from KV16 to KV4 (charge is 4x smaller);
* **throughput** — the deeper decode batch plus the 4x-lighter KV
  stream roughly doubles sustained tokens/s in the online simulator;
* **byte-identity** — every ``OnlineResult`` must match the scalar
  loop of ``tests/sim/online_spec.py`` exactly at every KV bitwidth.

The committed headline records the measured ratios; the CI smoke
replays a short cut of the same scenario and guards the ISSUE floor —
KV4 at the same memory budget admits >= 1.5x the in-flight requests of
KV16 and sustains measurably higher throughput.
"""

import json
import time

import pytest

from repro.bench.tables import RESULTS_DIR, print_table, save_results
from repro.core.plan import ExecutionPlan
from repro.hardware import make_cluster
from repro.sim.online import OnlineRequest, max_admissible_batch, simulate_online
from repro.workload import Workload
from tests.sim.online_spec import spec_simulate_online

PROMPT, GEN = 32, 1024
KV_LEVELS = (16, 8, 4)

#: ISSUE acceptance floors: KV4 vs KV16 at the same memory budget.
MAX_INFLIGHT_FLOOR = 1.5
THROUGHPUT_FLOOR = 1.1


def _scenario():
    cluster = make_cluster([("T4-16G", 4)], name="bench-t4x4")
    w = Workload(prompt_len=PROMPT, gen_len=GEN, global_batch=16)
    plan = ExecutionPlan.uniform("opt-30b", cluster.devices, w, bits=4)
    return plan, cluster


def _saturating_trace(n_requests, rate=2.0):
    """Uniform long-decode arrivals faster than the KV16 plan drains."""
    return [
        OnlineRequest(arrival=i / rate, prompt_len=PROMPT, gen_len=GEN)
        for i in range(n_requests)
    ]


def _measure(plan, cluster, trace, kv_bits):
    """(max_inflight, engine result, wall_s) with spec identity."""
    p = plan.with_kv_bits(kv_bits)
    inflight = max_admissible_batch(
        p, prompt_len=PROMPT, gen_len=GEN, cap=4096
    )
    t0 = time.perf_counter()
    vec = simulate_online(p, cluster, trace, policy="continuous")
    wall = time.perf_counter() - t0
    oracle = spec_simulate_online(p, cluster, trace)
    assert vec == oracle, (
        f"kv{kv_bits}: trace engine diverged from tests/sim/online_spec.py"
    )
    return inflight, vec, wall


def test_ext_kv_quant_headline():
    plan, cluster = _scenario()
    trace = _saturating_trace(1600)
    rows = []
    stats = {}
    for kv in KV_LEVELS:
        inflight, res, wall = _measure(plan, cluster, trace, kv)
        stats[kv] = (inflight, res)
        rows.append(
            {
                "kv_bits": kv,
                "max_inflight": inflight,
                "throughput_tok_s": round(res.throughput, 1),
                "mean_inflight": round(res.mean_inflight, 1),
                "completed": res.completed,
                "p95_latency_s": round(res.p95_latency, 1),
                "wall_s": round(wall, 3),
            }
        )
    print_table(rows, title="Ext — quantized KV cache (opt-30b, T4-16G x4)")

    mi16, r16 = stats[16]
    mi4, r4 = stats[4]
    inflight_gain = mi4 / mi16
    throughput_gain = r4.throughput / r16.throughput
    assert inflight_gain >= MAX_INFLIGHT_FLOOR, (
        f"KV4 admits only {inflight_gain:.2f}x the in-flight of KV16 "
        f"(needs >= {MAX_INFLIGHT_FLOOR}x)"
    )
    assert throughput_gain >= THROUGHPUT_FLOOR, (
        f"KV4 throughput only {throughput_gain:.2f}x KV16 "
        f"(needs >= {THROUGHPUT_FLOOR}x)"
    )
    save_results(
        "ext_kv_quant",
        {
            "scenario": "opt-30b 4-bit weights, T4-16G x4, continuous "
                        f"policy, {len(trace)} saturating requests "
                        f"(prompt {PROMPT}, gen {GEN})",
            "rows": rows,
            "max_inflight_gain_kv4_vs_kv16": round(inflight_gain, 2),
            "throughput_gain_kv4_vs_kv16": round(throughput_gain, 2),
            "results_identical": True,
        },
    )


def test_ext_kv_quant_smoke():
    """CI guard: the committed headline holds the ISSUE floors, and a
    short cut of the scenario reproduces them — >= 1.5x max in-flight
    and measurably higher throughput for KV4 vs KV16 at the same memory
    budget, byte-identical to the scalar spec."""
    baseline_path = RESULTS_DIR / "ext_kv_quant.json"
    if not baseline_path.exists():
        pytest.skip("no committed baseline to compare against")
    committed = json.loads(baseline_path.read_text())
    assert committed["results_identical"] is True
    assert committed["max_inflight_gain_kv4_vs_kv16"] >= MAX_INFLIGHT_FLOOR
    assert committed["throughput_gain_kv4_vs_kv16"] >= THROUGHPUT_FLOOR

    plan, cluster = _scenario()
    trace = _saturating_trace(400)
    mi16, r16, _ = _measure(plan, cluster, trace, 16)
    mi4, r4, _ = _measure(plan, cluster, trace, 4)
    assert mi4 >= MAX_INFLIGHT_FLOOR * mi16
    assert r4.throughput >= THROUGHPUT_FLOOR * r16.throughput
