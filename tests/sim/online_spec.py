"""The online policies, one token boundary at a time.

This is the specification the event-batch engine
(:mod:`repro.sim.trace_engine`, reached through ``simulate_online``) is
pinned to, field for field and bit for bit: a plain Python loop that
admits FIFO under the per-stage KV headroom, prices one iteration (a
fused decode unit plus one batch-1 prefill unit per newcomer) through
the scalar :class:`~repro.cost.stagecosts.StageCostModel` views, retires
finished requests, and observes / polls the drift detector at every
boundary, mirroring a migration as re-price + pause + re-home.  Under
``policy="wave"`` it admits only into an empty system, charges every
member at the wave's ``(s_max, n_max)``, prices its context from
``s_max``, and retires the whole wave after ``n_max`` tokens; each
member's latency is still taken at its own ``gen_len``.  A few hundred
microseconds per boundary: it exists only for the equality tests
(``tests/sim/test_trace_engine.py``) and ``benchmarks/``.

The ledger here is deliberately the paper's: per-stage *bytes*, one
float vector per request, added on admission and subtracted on retire.
The engine counts integer token slots instead; every equality test
against this loop is therefore a proof that the two ledgers decide and
observe the same thing.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cost.memory import kv_cache_bytes
from repro.cost.stagecosts import StageCostModel
from repro.runtime.replan import DriftDetector
from repro.sim.online import OnlineResult, _infeasible
from repro.sim.trace_engine import iteration_makespan_des
from repro.stats import quantile


def memory_model_charge(scm, prompt_len, gen_len) -> np.ndarray:
    """One request's per-stage KV bytes straight from the planner's
    memory model — ``layers x (s + n) x per-token bytes`` (PAPER.md §1) —
    with no token-slot arithmetic in between."""
    return np.array([
        kv_cache_bytes(
            scm.cfg, st.num_layers, 1, prompt_len + gen_len, kv_bits=st.kv_bits
        )
        for st in scm.plan.stages
    ])


def spec_simulate_online(
    plan,
    cluster,
    trace,
    *,
    policy: str = "continuous",
    max_batch: int | None = None,
    engine: str = "analytic",
    source: str = "kernels",
    latency_model=None,
    cost_model: StageCostModel | None = None,
    drift=None,
    replanner=None,
    sample_sink: dict | None = None,
    kv_charge=None,
) -> OnlineResult:
    """``simulate_online`` one boundary at a time.

    Same keywords as :func:`repro.sim.online.simulate_online` (``policy`` is
    ``"continuous"`` or ``"wave"``, ``engine`` is ``"analytic"`` or
    ``"des"``); ``max_batch``, when given, must be positive.
    ``kv_charge(scm, prompt_len, gen_len)`` prices a request's per-stage
    bytes; the default is the cost model's ``request_kv_bytes``,
    :func:`memory_model_charge` is the formula the planner budgets with.
    """
    reqs = sorted(trace, key=lambda r: r.arrival)
    scm = cost_model or StageCostModel(
        plan, cluster, source=source, latency_model=latency_model
    )
    plan = scm.plan  # the cost model is the pricing authority
    if kv_charge is None:
        kv_charge = StageCostModel.request_kv_bytes

    def _price(units: list[np.ndarray]) -> float:
        if engine == "des":
            return float(iteration_makespan_des(units))
        return float(units[0].sum() + sum(u.max() for u in units[1:]))

    detector = None
    if drift is not None:
        detector = DriftDetector(drift)
    headroom = scm.kv_headroom()
    used = np.zeros(plan.num_stages)

    pending: deque = deque(reqs)
    active: list[dict] = []
    now = 0.0
    next_idx = 0  # sorted-trace row of the next pending request
    latencies: list[float] = []
    ttfts: list[float] = []
    lat_idx: list[int] = []
    tt_idx: list[int] = []
    total_tokens = 0
    rejected = 0
    iterations = 0
    inflight_samples: list[int] = []
    waves: list[int] = []  # members of each wave
    arrival_ptr = 0
    drift_triggers = migrations = replans = 0
    migration_seconds = 0.0

    while pending or active:
        if not active and pending and pending[0].arrival > now:
            now = pending[0].arrival  # jump the idle gap

        # ---- admission at this token boundary (FIFO, head-of-line) ----
        newly: list[dict] = []
        while policy == "continuous" and pending and pending[0].arrival <= now:
            if max_batch is not None and len(active) + len(newly) >= max_batch:
                break
            r = pending[0]
            charge = kv_charge(scm, r.prompt_len, r.gen_len)
            if np.any(used + charge > headroom + 1e-6):
                if not active and not newly:
                    # alone in an empty system and still unfit: never fits
                    pending.popleft()
                    next_idx += 1
                    rejected += 1
                    continue
                break
            pending.popleft()
            used += charge
            newly.append({
                "req": r, "produced": 0, "charge": charge, "idx": next_idx,
                "s": r.prompt_len, "retire": r.gen_len,
            })
            next_idx += 1
        # a wave: only into an empty system, every member charged at the
        # wave's (s_max, n_max) and kept until n_max tokens
        s_max = n_max = 0
        while policy == "wave" and not active and pending:
            r = pending[0]
            if r.arrival > now:
                break
            if max_batch is not None and len(newly) >= max_batch:
                break
            s, n = max(s_max, r.prompt_len), max(n_max, r.gen_len)
            charge = kv_charge(scm, s, n)
            if np.any(used + (len(newly) + 1) * charge > headroom + 1e-6):
                if not newly:
                    pending.popleft()  # unfit even alone: never fits
                    next_idx += 1
                    rejected += 1
                    continue
                break
            pending.popleft()
            s_max, n_max = s, n
            newly.append({"req": r, "produced": 0, "idx": next_idx})
            next_idx += 1
        if policy == "wave":
            charge = kv_charge(scm, s_max, n_max)
            for a in newly:
                a.update(s=s_max, retire=n_max, charge=charge)
                used += charge
        if not newly and not active:
            continue

        # ---- one iteration: fused decode + batch-1 prefills ------------
        units: list[np.ndarray] = []
        if active:
            ctx = float(np.mean([a["s"] + a["produced"] for a in active]))
            units.append(scm.unit_decode_times(len(active), ctx))
        for a in newly:
            units.append(scm.unit_prefill_times(a["req"].prompt_len))
        step = _price(units)
        now += step
        iterations += 1
        inflight_samples.append(len(active) + len(newly))
        if policy == "wave" and newly:
            waves.append(len(newly))

        for a in active:
            a["produced"] += 1
        for a in newly:
            a["produced"] = 1
            ttfts.append(now - a["req"].arrival)
            tt_idx.append(a["idx"])
        active.extend(newly)

        still: list[dict] = []
        for a in active:
            if a["produced"] == a["req"].gen_len:  # its own last token
                latencies.append(now - a["req"].arrival)
                lat_idx.append(a["idx"])
                total_tokens += a["req"].gen_len
            if a["produced"] >= a["retire"]:
                # retire at the boundary: the refund is immediately
                # available to the next admission
                used -= a["charge"]
            else:
                still.append(a)
        active = still

        # ---- drift detection at the boundary (mirrors the runtime) ----
        if detector is not None:
            k = arrival_ptr
            while k < len(reqs) and reqs[k].arrival <= now:
                k += 1
            if k > arrival_ptr:
                fed = reqs[arrival_ptr:k]
                detector.observe_arrivals(
                    [r.arrival for r in fed], [r.prompt_len for r in fed],
                    [r.gen_len for r in fed],
                )
                arrival_ptr = k
            mask = headroom > 0
            occ = float(np.max(used[mask] / headroom[mask])) if mask.any() else 0.0
            detector.observe_occupancies([now], [occ])
            est = detector.poll(now)
            if est is None:
                continue
            drift_triggers += 1
            if replanner is None:
                continue
            new_plan = replanner(plan, est)
            if new_plan is None:
                continue
            # ---- mirrored migration: re-price, pause, re-home ---------
            if new_plan.stages == plan.stages:
                new_scm = scm.derive(new_plan)
                pause = 0.0  # metadata-only switch: no shards re-cut
            else:
                new_scm = StageCostModel(
                    new_plan, scm.cluster, source=scm.source,
                    latency_model=scm.model,
                )
                # shard rebuild + pipelined replay of in-flight KV state,
                # priced exactly like the iterations it re-runs
                pause = drift.rebuild_seconds
                if active:
                    pause += _price(list(new_scm.unit_prefill_times_batch(
                        [a["req"].prompt_len for a in active]
                    )))
                    max_prod = max(a["produced"] for a in active)
                    for k in range(1, max_prod):
                        group = [a for a in active if a["produced"] > k]
                        ctx = float(np.mean(
                            [a["req"].prompt_len + k for a in group]
                        ))
                        pause += _price(
                            [new_scm.unit_decode_times(len(group), ctx)]
                        )
            now += pause
            migration_seconds += pause
            migrations += 1
            replans += 1
            plan, scm = new_plan, new_scm
            headroom = scm.kv_headroom()
            used = np.zeros(plan.num_stages)
            for a in active:
                a["charge"] = kv_charge(
                    scm, a["req"].prompt_len, a["req"].gen_len
                )
                used += a["charge"]
            detector.rebaseline(now)

    if not latencies:
        return _infeasible(policy, rejected, sample_sink)
    lat = np.array(latencies)
    tt = np.array(ttfts)
    if sample_sink is not None:
        sample_sink["latencies"] = lat
        sample_sink["ttfts"] = tt
        sample_sink["lat_idx"] = np.array(lat_idx, dtype=np.int64)
        sample_sink["tt_idx"] = np.array(tt_idx, dtype=np.int64)
    return OnlineResult(
        completed=len(latencies),
        makespan=now,
        mean_latency=float(lat.mean()),
        p95_latency=quantile(lat, 0.95),
        throughput=total_tokens / now,
        waves=len(waves),
        mean_wave_batch=float(np.mean(waves)) if waves else 0.0,
        policy=policy,
        p50_latency=quantile(lat, 0.50),
        p99_latency=quantile(lat, 0.99),
        mean_ttft=float(tt.mean()),
        p95_ttft=quantile(tt, 0.95),
        rejected=rejected,
        iterations=iterations,
        mean_inflight=float(np.mean(inflight_samples)),
        drift_triggers=drift_triggers,
        migrations=migrations,
        replans=replans,
        migration_seconds=migration_seconds,
    )
