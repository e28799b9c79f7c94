"""Request routing across replicas: pluggable, deterministic policies.

A :class:`Router` names the policy; :func:`~repro.fleet.fleet._route`
applies it in one pass over the sorted arrival trace, segment by
segment between autoscaler events, over per-replica column state (a
busy-until horizon from the replicas' approximate service times, and
for ``least-loaded`` the estimated outstanding KV token-slots):

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

__all__ = ["ROUTER_POLICIES", "Router"]

ROUTER_POLICIES = ("round-robin", "least-loaded", "ttft", "prefix")

#: Knuth multiplicative hash constant (32-bit golden ratio)
_HASH_MUL = 2654435761


class Router:
    """A validated routing policy (stateless: every serve starts fresh)."""

    def __init__(self, policy: str = "round-robin") -> None:
        if policy not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router policy {policy!r} "
                f"(expected one of {ROUTER_POLICIES})"
            )
        self.policy = policy
