"""Fleet orchestration: one routing pass, N independent replica serves.

``serve_fleet`` is the one entry point for both replica kinds —
simulator replicas over an arrival trace, real tiny-model replicas over
materialized requests — and runs the same deterministic three-phase
shape for both:

1. **Route** — one pass over the arrival-sorted trace, a segment
   between two autoscaler events at a time.  Each request is
   classified to a pool (prompt-dominated requests to a ``prefill``
   pool, generation-dominated to ``decode``, when those pools exist),
   the autoscaler closes the utilization windows the clock crossed at
   each segment's head (possibly activating or draining replicas), and
   the router picks a target among the pool's active replicas from
   per-replica column state (approximate load estimates).  Requests
   that find no active replica are rejected — the SLO report counts
   them as violations.
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
import heapq
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
from .router import _HASH_MUL, Router

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


def _pool_codes(names: "list[str]", spr: np.ndarray, sgen: np.ndarray) -> np.ndarray:
    """Pool index per row (-1: no pool takes it): prompt-heavy rows
    (``s >= g``) to a ``prefill`` pool and the rest to ``decode`` when
    those pools exist, everything else to the general pool."""
    gen = names.index(POOL_GENERAL) if POOL_GENERAL in names else -1
    code = np.full(spr.size, gen, dtype=np.int64)
    heavy = spr >= sgen
    for name, sel in ((POOL_PREFILL, heavy), (POOL_DECODE, ~heavy)):
        if name in names:
            code[sel] = names.index(name)
    return code


def _route(
    arr: np.ndarray,
    spr: np.ndarray,
    sgen: np.ndarray,
    reps: "list[PipelineReplica]",
    router: Router,
    autoscaler: "FleetAutoscaler | None",
    prefix_keys: "np.ndarray | None" = None,
) -> tuple[np.ndarray, int]:
    """Assign each sorted-trace row to a replica id (-1 = rejected).

    One loop over *segments*: runs of arrivals between two autoscaler
    events (a window close or a pending activation).  Inside a segment
    every pool's live set is fixed, so the autoscaler advances only at a
    segment's head and observes the segment's routed rows in one call;
    without an autoscaler the whole trace is one segment.  A replica
    prices its columns once, when it first becomes live: per-row prefill
    seconds (the simulator's batch-1 stage sums, one
    ``unit_prefill_times_batch`` over the distinct prompt lengths) and
    service seconds ``prefill + g * tpot``.
    """
    n = arr.size
    assign = np.full(n, -1, dtype=np.int64)
    if autoscaler is None and len(reps) == 1:
        # degenerate fleet: everything to the lone replica (unless draining)
        if not reps[0].draining:
            assign[:] = reps[0].replica_id
        return assign, int((assign < 0).sum())

    pools = _pool_map(reps)
    names = list(pools)
    code = _pool_codes(names, spr, sgen)
    policy = router.policy
    uniq, inv = np.unique(spr, return_inverse=True)
    cols: dict[int, tuple] = {}      # service column, prefill and service lists
    busy: dict[int, float] = {}      # single-server busy-until horizons
    held: dict[int, list] = {}       # least-loaded: [kv slots, queue, heap]
    # round-robin turns: a rotation per pool on a static fleet, one
    # rotation shared by every pool under an autoscaler
    turns = dict.fromkeys(names, 0)
    shared = 0
    arr_l = arr.tolist()
    toks_l = (spr + sgen).tolist() if policy == "least-loaded" else None

    def price(r: "PipelineReplica") -> tuple:
        c = cols.get(r.replica_id)
        if c is None:
            pre = r.cost.unit_prefill_times_batch(uniq).sum(axis=1)[inv]
            s = pre + sgen * r.tpot_seconds()
            c = cols[r.replica_id] = (s, pre.tolist(), s.tolist())
        return c

    k = 0
    while k < n:
        if autoscaler is None:
            j = n
            live = [[r for r in pools[x] if not r.draining] for x in names]
        else:
            autoscaler.advance(arr_l[k])
            j = max(int(arr.searchsorted(autoscaler.next_event())), k + 1)
            live = [autoscaler.active(x) for x in names]
        seg = code[k:j]
        if policy == "round-robin" and autoscaler is not None:
            ok = np.isin(seg, [p for p, m in enumerate(live) if m])
            tick = shared + np.cumsum(ok) - 1
            shared += int(ok.sum())
        for p, name in enumerate(names):
            members = live[p]
            rows = k + np.flatnonzero(seg == p)
            m = len(members)
            if not m or not rows.size:
                continue  # no live replica: rows stay rejected (-1)
            if policy == "round-robin":
                if autoscaler is None:
                    pos = turns[name] + np.arange(rows.size)
                    turns[name] += rows.size
                else:
                    pos = tick[rows - k]
                a = pos % m
            elif policy == "prefix":
                keys = spr if prefix_keys is None else prefix_keys
                a = ((keys[rows].astype(np.int64) * _HASH_MUL) & 0xFFFFFFFF) % m
            else:
                a = []
                cs = [price(r) for r in members]
                pre = [c[1] for c in cs]
                sv = [c[2] for c in cs]
                b = [busy.get(r.replica_id, 0.0) for r in members]
                if policy == "ttft":
                    i = 0
                    for row in rows.tolist():
                        t = arr_l[row]
                        if m > 1:
                            best = None
                            for c in range(m):  # id order: strict < keeps lowest id
                                w = b[c] - t
                                sc = (w if w > 0.0 else 0.0) + pre[c][row]
                                if best is None or sc < best:
                                    best, i = sc, c
                        w = b[i]
                        b[i] = (w if w > t else t) + sv[i][row]
                        a.append(i)
                else:  # least-loaded
                    hs = [held.setdefault(r.replica_id, [0, 0, []]) for r in members]
                    bud = [r.token_budget for r in members]
                    for row in rows.tolist():
                        t = arr_l[row]
                        best = None
                        for c in range(m):
                            h = hs[c]
                            heap = h[2]
                            while heap and heap[0][0] <= t:  # retire finished
                                h[0] -= heapq.heappop(heap)[1]
                                h[1] -= 1
                            sc = (h[0] / bud[c] if bud[c] > 0 else float("inf"), h[1])
                            if best is None or sc < best:
                                best, i = sc, c
                        w = b[i]
                        b[i] = (w if w > t else t) + sv[i][row]
                        h = hs[i]
                        h[0] += toks_l[row]
                        h[1] += 1
                        heapq.heappush(h[2], (b[i], toks_l[row]))
                        a.append(i)
                for r, w in zip(members, b):
                    busy[r.replica_id] = w
                a = np.array(a, dtype=np.int64)
            assign[rows] = np.array([r.replica_id for r in members])[a]
            if autoscaler is not None:
                svc = np.empty(rows.size)
                for c, r in enumerate(members):
                    sel = a == c
                    svc[sel] = price(r)[0][rows[sel]]
                autoscaler.observe(name, arr[rows], spr[rows], sgen[rows], svc)
        k = j
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
