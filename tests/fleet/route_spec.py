"""Per-request routing oracle for ``repro.fleet.fleet._route``.

This is the fleet's router as it was before routing moved onto column
state: a :class:`ReplicaLoad` single-server-queue sketch per replica, a
``pick`` call per request over candidate objects, one autoscaler
``advance`` and one observation per request — plus the two shortcuts it
took (the lone-replica fleet, and one vectorized modulo/hash pass for
``round-robin`` / ``prefix`` on a fleet without an autoscaler).  The
segment loop in ``_route`` must reproduce every decision it makes: the
assignment, the rejections, and through the autoscaler's observations
every scale event and activation span.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.fleet.replica import POOL_DECODE, POOL_GENERAL, POOL_PREFILL
from repro.fleet.router import _HASH_MUL


class ReplicaLoad:
    """Routing-time view of one replica's estimated backlog: a
    single-server queue over its approximate service times, with a
    completion heap draining KV token-slot and queue-depth estimates."""

    def __init__(self, replica) -> None:
        self.replica = replica
        self.busy_until = 0.0
        self.kv_tokens = 0
        self.queue = 0
        self._completions: list[tuple[float, int]] = []

    def drain(self, now: float) -> None:
        heap = self._completions
        while heap and heap[0][0] <= now:
            _, toks = heapq.heappop(heap)
            self.kv_tokens -= toks
            self.queue -= 1

    def predicted_wait(self, now: float) -> float:
        return max(0.0, self.busy_until - now)

    def kv_fraction(self) -> float:
        budget = self.replica.token_budget
        return self.kv_tokens / budget if budget > 0 else float("inf")

    def assign(self, now: float, prompt_len: int, gen_len: int) -> float:
        svc = self.replica.service_seconds(prompt_len, gen_len)
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + svc
        toks = prompt_len + gen_len
        self.kv_tokens += toks
        self.queue += 1
        heapq.heappush(self._completions, (self.busy_until, toks))
        return svc


class SpecRouter:
    """Per-request ``pick`` over candidate loads (id order)."""

    def __init__(self, policy: str) -> None:
        self.policy = policy
        self._rr = 0

    def pick(self, candidates, now, prompt_len, gen_len, prefix_key=None):
        if not candidates:
            return None
        if self.policy == "round-robin":
            choice = candidates[self._rr % len(candidates)]
            self._rr += 1
            return choice
        if self.policy == "prefix":
            key = prefix_key if prefix_key is not None else prompt_len
            bucket = ((key * _HASH_MUL) & 0xFFFFFFFF) % len(candidates)
            return candidates[bucket]
        best = None
        best_score: tuple | None = None
        for load in candidates:  # id order: first strict win keeps lowest id
            load.drain(now)
            if self.policy == "least-loaded":
                score = (load.kv_fraction(), load.queue)
            else:  # ttft
                score = (
                    load.predicted_wait(now)
                    + load.replica.prefill_seconds(prompt_len),
                )
            if best_score is None or score < best_score:
                best, best_score = load, score
        return best


def _pool_map(reps):
    pools: dict = {}
    for r in reps:
        pools.setdefault(r.pool, []).append(r)
    return pools


def _classify(pools, s: int, g: int) -> str:
    if POOL_PREFILL in pools or POOL_DECODE in pools:
        phase = POOL_PREFILL if s >= g else POOL_DECODE
        if phase in pools:
            return phase
    return POOL_GENERAL


def route_spec(arr, spr, sgen, reps, policy, autoscaler, prefix_keys=None):
    """Assign each sorted-trace row to a replica id (-1 = rejected),
    one request at a time; returns ``(assign, router_rejected)``."""
    n = arr.size
    pools = _pool_map(reps)
    assign = np.full(n, -1, dtype=np.int64)
    router = SpecRouter(policy)

    if autoscaler is None and len(reps) == 1:
        if not reps[0].draining:
            assign[:] = reps[0].replica_id
        return assign, int((assign < 0).sum())

    if autoscaler is None and policy in ("round-robin", "prefix"):
        for name, members in pools.items():
            live = [r for r in members if not r.draining]
            if name == POOL_GENERAL:
                mask = np.ones(n, dtype=bool)
                for other in (POOL_PREFILL, POOL_DECODE):
                    if other in pools:
                        sel = spr >= sgen if other == POOL_PREFILL else spr < sgen
                        mask &= ~sel
            else:
                mask = spr >= sgen if name == POOL_PREFILL else spr < sgen
            if not live:
                continue
            ids = np.array([r.replica_id for r in live], dtype=np.int64)
            idx = np.flatnonzero(mask)
            if policy == "round-robin":
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
    arr_l, spr_l, sgen_l = arr.tolist(), spr.tolist(), sgen.tolist()
    for k in range(n):
        t, s, g = arr_l[k], spr_l[k], sgen_l[k]
        if autoscaler is not None:
            autoscaler.advance(t)
        name = _classify(pools, s, g)
        if name not in pools:
            continue
        if autoscaler is not None:
            live = autoscaler.active(name)
        else:
            live = [r for r in pools[name] if not r.draining]
        cands = [loads.setdefault(r.replica_id, ReplicaLoad(r)) for r in live]
        key = int(prefix_keys[k]) if prefix_keys is not None else None
        choice = router.pick(cands, t, s, g, prefix_key=key)
        if choice is None:
            continue
        svc = choice.assign(t, s, g)
        assign[k] = choice.replica.replica_id
        if autoscaler is not None:
            # one request's observation, as the autoscaler took it
            st = autoscaler._pools[name]
            st.demand += svc
            st.detector.observe_arrivals([t], [s], [g])
    return assign, int((assign < 0).sum())
