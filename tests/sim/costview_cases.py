"""Canned plans and snapshot helpers for the cost-view equality suite.

``tests/data/costview_golden.json`` was captured by running
:func:`compute_snapshot` against the pre-refactor code, where every
consumer (analytic simulator, DES, online wave/continuous policies,
admission helpers) still carried its own private copy of the pricing
formulas, with the ground-truth ``kernels`` time source.  The equality
suite recomputes the same snapshot through the current code — which now
resolves everything through :class:`repro.cost.stagecosts.StageCostModel`
— and compares every float bit for bit via ``float.hex()``.

Everything here sticks to public entry points and hand-written request
lists (no samplers), so the snapshot is a pure function of the pricing
formulas — exactly the thing the refactor must not change.

Version 2 of the golden re-captures the three ``online_wave_*`` entries
(``online_wave_analytic``, ``online_wave_des``, ``online_wave_cap4``)
and nothing else.  Reason: the simulated wave policy changed *schedule*,
not pricing formulas.  It used to size each wave with the planner's
batch memory test (skipped under ``max_batch``) and price it as one
offline micro-batched ``simulate_pipeline`` / ``simulate_pipeline_des``
batch; it now runs inside the trace engine under the runtime
scheduler's wave rule — admission only into an empty system, the FIFO
prefix with ``k * (s_max + n_max)`` token slots within the budget, every
member padded to the wave's maxima and decoded through the fused
continuous iteration, latency at each member's own last token.  Every
other entry, the continuous ones included, stayed byte-identical
through that change.

Version 3 drops the two ``des_async`` entries and nothing else: the
offline DES lost its asynchronous-comm mode (no shipped code ran it)
when it moved to ``tests/sim/des_spec.py``; ``des_sync`` stays, bit for
bit, as that spec's golden.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import ExecutionPlan, StagePlan
from repro.cost.stagecosts import StageCostModel
from repro.hardware import paper_cluster
from repro.sim.online import (
    OnlineRequest,
    max_admissible_batch,
    simulate_online,
)
from repro.sim.pipeline import simulate_pipeline
from repro.workload import Workload

from .des_spec import simulate_pipeline_des


def mixed_plan():
    """opt-30b on the 3xT4 + V100 paper cluster, mixed bits per stage."""
    cluster = paper_cluster(3)
    w = Workload(prompt_len=128, gen_len=12, global_batch=8)
    patterns = [(4, 8), (3, 4), (8, 16), (4, 4)]
    per = 48 // len(cluster.devices)
    stages = tuple(
        StagePlan(dev, tuple(patterns[j][i % 2] for i in range(per)))
        for j, dev in enumerate(cluster.devices)
    )
    plan = ExecutionPlan(
        model_name="opt-30b",
        stages=stages,
        prefill_microbatch=2,
        decode_microbatch=4,
        workload=w,
    )
    return plan, cluster


def mb1_plan():
    """Single micro-batch plan (m_p = m_d = 1) with KV8 on every stage:
    analytic == DES exactly."""
    cluster = paper_cluster(3)
    w = Workload(prompt_len=96, gen_len=8, global_batch=1)
    patterns = [(4, 4), (8, 4), (16, 8), (3, 4)]
    per = 48 // len(cluster.devices)
    stages = tuple(
        StagePlan(dev, tuple(patterns[j][i % 2] for i in range(per)))
        for j, dev in enumerate(cluster.devices)
    )
    plan = ExecutionPlan(
        model_name="opt-30b",
        stages=stages,
        prefill_microbatch=1,
        decode_microbatch=1,
        workload=w,
    )
    return plan.with_kv_bits(8), cluster


def canned_trace() -> list[OnlineRequest]:
    """Hand-written arrival trace (sampler-independent on purpose)."""
    lens = [
        (96, 8), (40, 5), (128, 12), (64, 6), (80, 10), (24, 4),
        (112, 7), (56, 9), (96, 5), (32, 6), (72, 8), (120, 11),
    ]
    arrivals = [
        0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0, 1.05, 1.25, 3.0, 3.1, 3.3,
    ]
    return [
        OnlineRequest(arrival=a, prompt_len=s, gen_len=n)
        for a, (s, n) in zip(arrivals, lens)
    ]


def _hex(x) -> str:
    return float(x).hex()


def _hexlist(a) -> list[str]:
    return [float(v).hex() for v in np.asarray(a, dtype=np.float64).ravel()]


def pipeline_snapshot(plan, cluster) -> dict:
    res = simulate_pipeline(plan, cluster)
    return {
        "prefill_latency": _hex(res.prefill_latency),
        "decode_latency": _hex(res.decode_latency),
        "stage_prefill": _hexlist([r.prefill_time for r in res.stage_reports]),
        "stage_dec_first": _hexlist(
            [r.decode_time_first for r in res.stage_reports]
        ),
        "stage_dec_last": _hexlist(
            [r.decode_time_last for r in res.stage_reports]
        ),
        "mem_total": _hexlist([r.memory.total for r in res.stage_reports]),
        "mem_kv": _hexlist([r.memory.kv_cache for r in res.stage_reports]),
    }


def online_snapshot(
    plan, cluster, trace, *, policy, engine, max_batch=None
) -> dict:
    r = simulate_online(
        plan, cluster, trace, policy=policy, engine=engine, max_batch=max_batch
    )
    out = {
        k: _hex(getattr(r, k))
        for k in (
            "makespan", "mean_latency", "p50_latency", "p95_latency",
            "p99_latency", "throughput", "mean_ttft", "p95_ttft",
            "mean_wave_batch", "mean_inflight",
        )
    }
    out.update(
        completed=r.completed, waves=r.waves,
        iterations=r.iterations, rejected=r.rejected,
    )
    return out


def compute_snapshot() -> dict:
    """The full kernels-source snapshot the golden file pins down."""
    out: dict = {}
    for name, (plan, cluster) in (
        ("mixed", mixed_plan()),
        ("mb1", mb1_plan()),
    ):
        out[name] = {
            "pipeline": pipeline_snapshot(plan, cluster),
            "des_sync": _hex(
                simulate_pipeline_des(plan, cluster).total_latency
            ),
            "headroom": _hexlist(StageCostModel(plan).kv_headroom()),
            "charge_64_8": _hexlist(
                StageCostModel(plan).request_kv_bytes(64, 8)
            ),
            "max_batch_128_12": max_admissible_batch(
                plan, prompt_len=128, gen_len=12
            ),
        }
    plan, cluster = mixed_plan()
    trace = canned_trace()
    for policy in ("wave", "continuous"):
        for engine in ("analytic", "des"):
            out[f"online_{policy}_{engine}"] = online_snapshot(
                plan, cluster, trace, policy=policy, engine=engine
            )
    out["online_wave_cap4"] = online_snapshot(
        plan, cluster, trace, policy="wave", engine="analytic", max_batch=4
    )
    return out
