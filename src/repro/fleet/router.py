"""Request routing across replicas: pluggable, deterministic policies.

The router runs inside the fleet's single forward pass over the sorted
arrival trace.  For each request it sees the per-replica
:class:`ReplicaLoad` estimates (a single-server queue view maintained
from the replicas' approximate service-time models) and picks a target:

* ``round-robin`` — rotate over the currently active replicas;
* ``least-loaded`` — smallest estimated outstanding KV token-slots
  relative to the replica's token budget (the
  :meth:`~repro.cost.stagecosts.StageCostModel.kv_token_budget` the
  simulator admits against), queue depth as tiebreak;
* ``ttft`` — ILP-free greedy: smallest predicted time-to-first-token
  (estimated queue wait plus this prompt's batch-1 prefill time);
* ``prefix`` — prefix-affinity hash: requests with the same prompt
  signature always land on the same active replica (KV prefix reuse in
  a real deployment); falls back to hashing the prompt length when no
  token prefix is available.

Every policy is deterministic, and every tie breaks toward the lowest
replica id — two fleets fed the same trace route identically.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .replica import PipelineReplica

__all__ = ["ROUTER_POLICIES", "ReplicaLoad", "Router"]

ROUTER_POLICIES = ("round-robin", "least-loaded", "ttft", "prefix")

#: Knuth multiplicative hash constant (32-bit golden ratio)
_HASH_MUL = 2654435761


class ReplicaLoad:
    """Routing-time view of one replica's estimated backlog.

    A single-server queue over the replica's approximate service times:
    ``busy_until`` is when the replica would drain everything routed so
    far, the completion heap drains KV token-slot and queue-depth
    estimates as their finish times pass.  Deliberately approximate —
    the replica's own admission control is exact; these numbers only
    steer the router.
    """

    __slots__ = ("replica", "busy_until", "kv_tokens", "queue", "_completions")

    def __init__(self, replica: "PipelineReplica") -> None:
        self.replica = replica
        self.busy_until = 0.0
        self.kv_tokens = 0
        self.queue = 0
        self._completions: list[tuple[float, int]] = []

    def drain(self, now: float) -> None:
        """Retire backlog whose estimated finish time has passed."""
        heap = self._completions
        while heap and heap[0][0] <= now:
            _, toks = heapq.heappop(heap)
            self.kv_tokens -= toks
            self.queue -= 1

    def predicted_wait(self, now: float) -> float:
        """Estimated queueing delay a request arriving now would see."""
        return max(0.0, self.busy_until - now)

    def kv_fraction(self) -> float:
        """Estimated outstanding token-slots over the replica's budget
        (the simulator's own admission budget, memoised on its cost
        model)."""
        budget = self.replica.token_budget
        return self.kv_tokens / budget if budget > 0 else float("inf")

    def assign(self, now: float, prompt_len: int, gen_len: int) -> float:
        """Account one routed request; returns its service-time estimate."""
        svc = self.replica.service_seconds(prompt_len, gen_len)
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + svc
        toks = prompt_len + gen_len
        self.kv_tokens += toks
        self.queue += 1
        heapq.heappush(self._completions, (self.busy_until, toks))
        return svc


class Router:
    """Deterministic request->replica assignment over load estimates."""

    def __init__(self, policy: str = "round-robin") -> None:
        if policy not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router policy {policy!r} "
                f"(expected one of {ROUTER_POLICIES})"
            )
        self.policy = policy
        self._rr = 0

    def pick(
        self,
        candidates: "list[ReplicaLoad]",
        now: float,
        prompt_len: int,
        gen_len: int,
        prefix_key: int | None = None,
    ) -> "ReplicaLoad | None":
        """Choose among active, non-draining candidates (id order).

        Returns ``None`` when no candidate is available — the fleet
        rejects the request (empty fleet / all replicas draining).
        """
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
