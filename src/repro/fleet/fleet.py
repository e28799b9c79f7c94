"""Fleet orchestration: one routing pass, N independent replica serves.

``serve_fleet`` is the one entry point for both replica kinds —
simulator replicas over an arrival trace, real tiny-model replicas over
materialized requests — and runs the same deterministic three-phase
shape for both:

1. **Route** — a single forward pass over the arrival-sorted trace.
   Each request is classified to a pool (prompt-dominated requests to a
   ``prefill`` pool, generation-dominated to ``decode``, when those
   pools exist), the autoscaler closes any utilization windows the
   clock crossed (possibly activating or draining replicas), and the
   router picks a target among the pool's active replicas from the
   approximate load estimates.  Requests that find no active replica
   are rejected — the SLO report counts them as violations.
2. **Serve** — each replica independently serves its assigned
   sub-trace through its own backend (vectorized trace engine or real
   scheduler+runtime).  Arrival times are absolute, so every replica
   shares the fleet's virtual clock; admission control, drift
   detection, and migration run replica-scoped exactly as they do for
   a single pipeline today.
3. **Aggregate** — exact per-request samples pool into a
   :class:`~repro.fleet.report.FleetReport` (tail latencies, SLO
   attainment, GPU-seconds from activation spans, scale events).

A 1-replica fleet degenerates to phase 2 alone on the full trace —
byte-identical to calling the simulator / scheduler directly, which is
why ``llmpq-serve`` runs every replay, one replica or many, through
``serve_fleet``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .autoscaler import FleetAutoscaler
from .replica import (
    POOL_DECODE,
    POOL_GENERAL,
    POOL_PREFILL,
    PipelineReplica,
    ReplicaResult,
    RuntimeReplica,
    SimReplica,
)
from .report import FleetReport
from .router import _HASH_MUL, ReplicaLoad, Router

__all__ = ["serve_fleet", "plan_sim_replica"]


def _check_fleet(replicas: "Sequence[PipelineReplica]") -> "list[PipelineReplica]":
    if not replicas:
        raise ValueError("fleet has no replicas")
    reps = sorted(replicas, key=lambda r: r.replica_id)
    ids = [r.replica_id for r in reps]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate replica ids: {ids}")
    return reps


def _pool_map(
    reps: "list[PipelineReplica]",
) -> "dict[str, list[PipelineReplica]]":
    pools: dict[str, list[PipelineReplica]] = {}
    for r in reps:
        pools.setdefault(r.pool, []).append(r)
    return pools


def _classify(pools: "dict[str, list]", s: int, g: int) -> str:
    """Pool for one request: prefill-heavy vs decode-heavy when the
    fleet is disaggregated, the general pool otherwise."""
    if POOL_PREFILL in pools or POOL_DECODE in pools:
        phase = POOL_PREFILL if s >= g else POOL_DECODE
        if phase in pools:
            return phase
    return POOL_GENERAL


def _route(
    arr: np.ndarray,
    spr: np.ndarray,
    sgen: np.ndarray,
    reps: "list[PipelineReplica]",
    router: Router,
    autoscaler: "FleetAutoscaler | None",
    prefix_keys: "np.ndarray | None" = None,
) -> tuple[np.ndarray, int]:
    """Assign each sorted-trace row to a replica id (-1 = rejected)."""
    n = arr.size
    pools = _pool_map(reps)
    assign = np.full(n, -1, dtype=np.int64)

    if autoscaler is None and len(reps) == 1:
        # degenerate fleet: everything to the lone replica (unless draining)
        if not reps[0].draining:
            assign[:] = reps[0].replica_id
        return assign, int((assign < 0).sum())

    if autoscaler is None and router.policy in ("round-robin", "prefix"):
        # stateless policies over a static fleet: vectorized fast path
        for name, members in pools.items():
            live = [r for r in members if not r.draining]
            if name == POOL_GENERAL:
                mask = np.ones(n, dtype=bool)
                for other in (POOL_PREFILL, POOL_DECODE):
                    if other in pools:
                        sel = spr >= sgen if other == POOL_PREFILL else spr < sgen
                        mask &= ~sel
            else:
                # phase pools absorb their phase; general takes the rest
                mask = spr >= sgen if name == POOL_PREFILL else spr < sgen
            if not live:
                continue  # rows stay rejected (-1)
            ids = np.array([r.replica_id for r in live], dtype=np.int64)
            idx = np.flatnonzero(mask)
            if router.policy == "round-robin":
                assign[idx] = ids[np.arange(idx.size) % ids.size]
            else:
                keys = (
                    prefix_keys[idx]
                    if prefix_keys is not None
                    else spr[idx].astype(np.int64)
                )
                assign[idx] = ids[((keys * _HASH_MUL) & 0xFFFFFFFF) % ids.size]
        return assign, int((assign < 0).sum())

    loads = {r.replica_id: ReplicaLoad(r) for r in reps}
    arr_l = arr.tolist()
    spr_l = spr.tolist()
    sgen_l = sgen.tolist()
    for k in range(n):
        t, s, g = arr_l[k], spr_l[k], sgen_l[k]
        if autoscaler is not None:
            autoscaler.advance(t)
        name = _classify(pools, s, g)
        if name not in pools:
            continue  # no pool can take this phase: rejected
        if autoscaler is not None:
            live = autoscaler.active(name)
        else:
            live = [r for r in pools[name] if not r.draining]
        cands = [
            loads.setdefault(r.replica_id, ReplicaLoad(r)) for r in live
        ]  # setdefault: factory-built replicas join the load map lazily
        key = int(prefix_keys[k]) if prefix_keys is not None else None
        choice = router.pick(cands, t, s, g, prefix_key=key)
        if choice is None:
            continue
        svc = choice.assign(t, s, g)
        assign[k] = choice.replica.replica_id
        if autoscaler is not None:
            autoscaler.observe(t, name, s, g, svc)
    return assign, int((assign < 0).sum())


def _gpu_seconds(
    reps: "list[PipelineReplica]",
    results: "dict[int, ReplicaResult]",
    autoscaler: "FleetAutoscaler | None",
    fleet_end: float,
) -> tuple[float, "dict[int, float]"]:
    """Provisioned device-seconds per replica from activation spans.

    Without an autoscaler every replica is provisioned for the whole
    run.  With one, each span runs from activation to drain — the last
    span extends to the replica's own makespan when it finished work
    after its drain began (quiesce-and-drain is not free)."""
    spans_by = autoscaler.activation_spans() if autoscaler is not None else {}
    total = 0.0
    per: dict[int, float] = {}
    for r in reps:
        res = results.get(r.replica_id)
        tail = res.makespan if res is not None else 0.0
        spans = spans_by.get(r.replica_id)
        if spans is None:
            if autoscaler is not None:
                per[r.replica_id] = 0.0  # never activated: idle hardware
                continue
            spans = [[0.0, None]]
        secs = 0.0
        for i, (start, end) in enumerate(spans):
            eff = fleet_end if end is None else end
            if i == len(spans) - 1 and tail > eff:
                eff = tail  # drained replica still finishing its backlog
            secs += max(0.0, eff - start)
        g = secs * r.num_devices
        per[r.replica_id] = g
        total += g
    return total, per


def _bind_autoscaler(
    autoscaler: FleetAutoscaler,
    reps: "list[PipelineReplica]",
    active: "Sequence[int] | None",
) -> None:
    """Attach pools to the autoscaler; ``active`` ids start routable
    (default all), the rest form the idle scale-up reserve."""
    pools = _pool_map(reps)
    if active is None:
        act = {name: list(m) for name, m in pools.items()}
    else:
        chosen = set(active)
        act = {
            name: [r for r in m if r.replica_id in chosen]
            for name, m in pools.items()
        }
    autoscaler.bind(pools, act)


def _empty_result(r: "PipelineReplica") -> ReplicaResult:
    return ReplicaResult(
        replica_id=r.replica_id, pool=r.pool, routed=0, completed=0,
        rejected=0, generated_tokens=0, makespan=0.0,
        latencies=np.empty(0), ttfts=np.empty(0), tpots=np.empty(0),
    )


def _work_columns(reps: "list[PipelineReplica]", work):
    """The per-kind part of a serve: routing columns, prefix keys, and
    how to cut one replica's share out of ``work``.

    Runtime fleets take materialized requests, sorted by arrival and
    keyed on their first 8 prompt tokens (stable across replicas).
    Simulator fleets take an arrival trace whose sorted columns pass
    through, shares cut as array views (no per-request objects); the
    prefix router then keys on prompt length."""
    if isinstance(reps[0], RuntimeReplica):
        reqs = sorted(work, key=lambda r: r.arrival)
        arr = np.array([r.arrival for r in reqs], dtype=np.float64)
        spr = np.array([len(r.prompt) for r in reqs], dtype=np.int64)
        sgen = np.array([r.gen_len for r in reqs], dtype=np.int64)
        keys = np.array(
            [int(np.sum(r.prompt[:8] % 1_000_003)) for r in reqs],
            dtype=np.int64,
        )
        return arr, spr, sgen, keys, lambda idx: [reqs[i] for i in idx]

    from ..sim.trace_engine import trace_columns
    from ..workload.traces import ArrivalTrace

    arr, spr, sgen = trace_columns(work)
    return arr, spr, sgen, None, lambda idx: ArrivalTrace(
        arrivals=arr[idx], prompt_lens=spr[idx], gen_lens=sgen[idx]
    )


def serve_fleet(
    replicas: "Sequence[PipelineReplica]",
    work,
    *,
    router: "str | Router" = "round-robin",
    autoscaler: "FleetAutoscaler | None" = None,
    active: "Sequence[int] | None" = None,
    slo_ttft: float | None = None,
    slo_tpot: float | None = None,
) -> FleetReport:
    """Serve ``work`` across the fleet: an arrival trace for simulator
    replicas (:class:`SimReplica`), a sequence of
    :class:`~repro.runtime.scheduler.ServeRequest` for real runtime
    replicas (:class:`RuntimeReplica`, each replaying its share on its
    own runtime+scheduler, sequentially: real wall-clock execution on a
    shared virtual arrival clock).

    ``active`` names the replica ids that start active (default: all);
    the rest are the autoscaler's idle reserve.  With one replica and no
    autoscaler the result is byte-identical to
    :func:`~repro.sim.online.simulate_online` on the full trace, or to
    one scheduler serve of every request.
    """
    reps = _check_fleet(replicas)
    rt = router if isinstance(router, Router) else Router(router)
    arr, spr, sgen, keys, share = _work_columns(reps, work)
    if arr.size == 0:
        raise ValueError("empty trace")

    if autoscaler is not None:
        _bind_autoscaler(autoscaler, reps, active)

    assign, router_rejected = _route(
        arr, spr, sgen, reps, rt, autoscaler, prefix_keys=keys
    )
    if autoscaler is not None:
        reps = autoscaler.all_replicas()  # factory scale-ups join the fleet

    results: dict[int, ReplicaResult] = {}
    for r in reps:
        idx = np.flatnonzero(assign == r.replica_id)
        results[r.replica_id] = r.serve(share(idx)) if idx.size else _empty_result(r)
    out = list(results.values())

    fleet_end = max(
        [res.makespan for res in out if res.makespan] + [float(arr[-1])]
    )
    gpu_total, gpu_per = _gpu_seconds(reps, results, autoscaler, fleet_end)
    out = [
        dataclasses.replace(res, gpu_seconds=gpu_per.get(res.replica_id, 0.0))
        for res in out
    ]
    return FleetReport.build(
        out,
        router=rt.policy,
        autoscaled=autoscaler is not None,
        n_requests=int(arr.size),
        router_rejected=router_rejected,
        scale_events=tuple(autoscaler.events) if autoscaler is not None else (),
        gpu_seconds=gpu_total,
        slo_ttft=slo_ttft,
        slo_tpot=slo_tpot,
    )


def plan_sim_replica(
    replica_id: int,
    model_name: str,
    idle_cluster,
    workload,
    *,
    pool: str = POOL_GENERAL,
    use_heuristic: bool = True,
    theta: float = 0.1,
    latency_model=None,
    **sim_kw,
) -> SimReplica:
    """Plan a replica for an idle hardware pool via the planner.

    The scale-up path of the fleet: run the existing search engine
    (:func:`~repro.core.api.plan_llmpq`) over the idle pool's devices
    and the autoscaler's current workload estimate, and wrap the
    resulting plan as a routable :class:`SimReplica`.
    """
    from ..core.api import plan_llmpq

    result = plan_llmpq(
        model_name, idle_cluster, workload,
        theta=theta, use_heuristic=use_heuristic,
        latency_model=latency_model,
    )
    return SimReplica(
        replica_id, result.plan, idle_cluster, pool=pool,
        latency_model=latency_model, **sim_kw
    )
