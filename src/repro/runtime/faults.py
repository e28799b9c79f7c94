"""Deterministic fault injection for the serving runtime.

Serving on heterogeneous, often-preemptible clusters means stage
crashes, stragglers, lost messages and memory pressure are normal
operating conditions, not exceptions.  This module provides the *test
harness* for that reality: a seeded :class:`FaultInjector` holding a
list of declarative fault policies that the stage workers and the KV
manager consult at well-defined points.  Every fault fires at an exact
per-stage message count (and any randomness — e.g. corruption noise —
comes from the injector's seed), so a failing run can be replayed
bit-for-bit.

Policies can be constructed programmatically, parsed from a compact
spec string (``crash:stage=1,at=5;slow:stage=0,delay=0.01``) via
:meth:`FaultInjector.from_spec`, or picked up from the ``REPRO_FAULTS``
environment variable via :meth:`FaultInjector.from_env` — which is how
the CLI and ad-hoc experiments opt in without code changes.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "InjectedFault",
    "KVAllocationError",
    "PipelineStallError",
    "StageCrash",
    "Straggler",
    "MessageDrop",
    "MessageCorruption",
    "KVAllocPressure",
    "FaultInjector",
    "FAULTS_ENV_VAR",
    "FAULTS_SEED_ENV_VAR",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"
FAULTS_SEED_ENV_VAR = "REPRO_FAULTS_SEED"


class InjectedFault(RuntimeError):
    """Raised inside a stage worker by a :class:`StageCrash` policy."""


class KVAllocationError(MemoryError):
    """KV-cache allocation denied (injected or real memory pressure).

    ``permanent`` marks a denial no retry can change: the same request
    against the same cap is denied again, so the recovery ladder skips
    its retry rung."""

    def __init__(self, message: str, *, permanent: bool = False) -> None:
        super().__init__(message)
        self.permanent = permanent


class PipelineStallError(RuntimeError):
    """The master's bounded wait on the pipeline expired without progress."""


# ----------------------------------------------------------------------
# Fault policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageCrash:
    """Kill stage ``stage`` when it processes its ``at``-th activation.

    ``repeat=True`` re-arms after every restart, modelling a *permanent*
    device fault (the stage dies again as soon as it does work) — the
    trigger for the retry-and-replan ladder.  ``repeat=False`` is a
    transient fault: it fires once and is retired, so the restarted
    worker survives.
    """

    stage: int
    at: int = 1
    repeat: bool = False


@dataclass(frozen=True)
class Straggler:
    """Delay stage ``stage`` by ``delay`` seconds on every ``every``-th
    activation (an artificially slow device / noisy neighbour)."""

    stage: int
    delay: float = 0.01
    every: int = 1


@dataclass(frozen=True)
class MessageDrop:
    """Silently drop the ``at``-th activation entering ``stage`` — the
    micro-batch vanishes and only the master's stall timeout notices."""

    stage: int
    at: int = 1


@dataclass(frozen=True)
class MessageCorruption:
    """Add seeded noise of magnitude ``scale`` to the ``at``-th
    activation entering ``stage`` (a silent data-corruption fault)."""

    stage: int
    at: int = 1
    scale: float = 1.0


@dataclass(frozen=True)
class KVAllocPressure:
    """Deny any KV allocation on ``stage`` larger than ``max_bytes``.

    Mimics an allocator running out of head-room.  The runtime allocates
    KV only when a cache unit is prefilled — a decode group reads its
    prefill units' rows in place — so a cap below one unit's charge
    fails that prefill, and the runtime's ladder retries — offline the
    batch, online by KV replay (the denial counts in
    ``RuntimeStats.kv_alloc_failures`` on both paths).
    ``fail_count`` bounds how many times the denial fires (``None`` =
    always: the denial is permanent, so the ladder replans at once or
    fails cleanly instead of retrying).
    """

    stage: int
    max_bytes: float
    fail_count: int | None = None


_POLICY_KINDS = {
    "crash": StageCrash,
    "slow": Straggler,
    "drop": MessageDrop,
    "corrupt": MessageCorruption,
    "kvcap": KVAllocPressure,
}

_FIELD_TYPES = {
    "stage": int,
    "at": int,
    "repeat": lambda v: bool(int(v)),
    "delay": float,
    "every": int,
    "scale": float,
    "max_bytes": float,
    "fail_count": int,
}


# ----------------------------------------------------------------------
@dataclass
class _PolicyState:
    """Mutable bookkeeping for one policy instance."""

    policy: object
    retired: bool = False
    fire_count: int = 0


class FaultInjector:
    """Seeded, thread-safe fault driver consulted by the runtime.

    The stage workers call :meth:`on_activation` once per activation
    message; the KV manager calls the guard from :meth:`kv_guard` before
    every allocation.  All trigger points are counter-based, and the
    per-stage counters reset on :meth:`notify_restart`, so a policy
    like ``StageCrash(stage=1, at=3, repeat=True)`` deterministically
    kills every incarnation of stage 1 at its third message.
    """

    def __init__(self, policies: Sequence[object] = (), seed: int = 0) -> None:
        self.seed = seed
        self._lock = threading.Lock()
        self._states = [_PolicyState(p) for p in policies]
        self._counts: dict[int, int] = {}
        self._dead_stages: set[int] = set()
        #: chronological record of fired faults: (kind, stage, message_no)
        self.fired: list[tuple[str, int, int]] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        """Parse ``kind:key=val,...;kind:key=val,...`` into an injector.

        Kinds: ``crash``, ``slow``, ``drop``, ``corrupt``, ``kvcap``.
        Example: ``crash:stage=1,at=5,repeat=1;slow:stage=0,delay=0.01``.
        """
        policies: list[object] = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, body = part.partition(":")
            kind = kind.strip()
            if kind not in _POLICY_KINDS:
                known = ", ".join(sorted(_POLICY_KINDS))
                raise ValueError(f"unknown fault kind {kind!r}; known: {known}")
            kwargs: dict[str, object] = {}
            for item in filter(None, (s.strip() for s in body.split(","))):
                key, eq, val = item.partition("=")
                key = key.strip()
                if not eq or key not in _FIELD_TYPES:
                    raise ValueError(f"bad fault field {item!r} in {part!r}")
                try:
                    kwargs[key] = _FIELD_TYPES[key](val.strip())
                except ValueError as e:
                    raise ValueError(f"bad value for {key!r} in {part!r}") from e
            try:
                policies.append(_POLICY_KINDS[kind](**kwargs))
            except TypeError as e:
                raise ValueError(f"bad fields for fault {kind!r}: {e}") from None
        return cls(policies, seed=seed)

    @classmethod
    def from_env(cls) -> "FaultInjector | None":
        """Build from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``; None if unset."""
        spec = os.environ.get(FAULTS_ENV_VAR)
        if not spec:
            return None
        seed = int(os.environ.get(FAULTS_SEED_ENV_VAR, "0"))
        return cls.from_spec(spec, seed=seed)

    @property
    def policies(self) -> tuple[object, ...]:
        """The configured policies (including retired ones)."""
        return tuple(s.policy for s in self._states)

    # -- runtime hooks --------------------------------------------------
    def on_activation(
        self, stage: int, sleep: Callable[[float], object] | None = None
    ) -> str | None:
        """Consult policies for one activation entering ``stage``.

        Returns ``"drop"`` / ``"corrupt"`` for the worker to act on,
        sleeps in place for stragglers (via ``sleep``, which should be
        interruptible — workers pass their stop-event's ``wait``), and
        raises :class:`InjectedFault` for crash policies.
        """
        with self._lock:
            if stage in self._dead_stages:
                return None
            count = self._counts.get(stage, 0) + 1
            self._counts[stage] = count
            actions: list[tuple[str, object]] = []
            for st in self._states:
                p = st.policy
                if st.retired or getattr(p, "stage", None) != stage:
                    continue
                if isinstance(p, Straggler):
                    if count % max(p.every, 1) == 0:
                        st.fire_count += 1
                        self.fired.append(("slow", stage, count))
                        actions.append(("slow", p.delay))
                elif isinstance(p, MessageDrop) and count == p.at:
                    st.retired = True
                    self.fired.append(("drop", stage, count))
                    actions.append(("drop", None))
                elif isinstance(p, MessageCorruption) and count == p.at:
                    st.retired = True
                    self.fired.append(("corrupt", stage, count))
                    actions.append(("corrupt", None))
                elif isinstance(p, StageCrash) and count == p.at:
                    if not p.repeat:
                        st.retired = True
                    st.fire_count += 1
                    self.fired.append(("crash", stage, count))
                    actions.append(("crash", None))
        # act outside the lock: sleeping or raising while holding it
        # would stall every other stage's bookkeeping
        result: str | None = None
        for kind, arg in actions:
            if kind == "slow":
                (sleep or time.sleep)(float(arg))  # type: ignore[arg-type]
            elif kind == "crash":
                raise InjectedFault(f"injected crash: stage {stage}")
            else:
                result = kind
        return result

    def corrupt(self, stage: int, hidden: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Seeded corruption noise for ``hidden`` (deterministic per call site)."""
        count = self._counts.get(stage, 0)
        rng = np.random.default_rng((self.seed, stage, count))
        return hidden + scale * rng.normal(size=hidden.shape)

    def corruption_scale(self, stage: int) -> float:
        """The scale of the corruption policy targeting ``stage`` (or 1.0)."""
        for st in self._states:
            if isinstance(st.policy, MessageCorruption) and st.policy.stage == stage:
                return st.policy.scale
        return 1.0

    def kv_guard(self, stage: int) -> Callable[[float], None]:
        """An allocation guard for ``stage``'s :class:`StageKVManager`."""

        def guard(requested_bytes: float) -> None:
            with self._lock:
                if stage in self._dead_stages:
                    return
                for st in self._states:
                    p = st.policy
                    if st.retired or not isinstance(p, KVAllocPressure):
                        continue
                    if p.stage != stage or requested_bytes <= p.max_bytes:
                        continue
                    st.fire_count += 1
                    if p.fail_count is not None and st.fire_count >= p.fail_count:
                        st.retired = True
                    self.fired.append(("kvcap", stage, self._counts.get(stage, 0)))
                    raise KVAllocationError(
                        f"injected KV allocation failure: stage {stage} "
                        f"requested {requested_bytes:.0f} B > cap {p.max_bytes:.0f} B",
                        permanent=p.fail_count is None,
                    )

        return guard

    # -- lifecycle ------------------------------------------------------
    def notify_restart(self, stage: int) -> None:
        """Reset ``stage``'s message counter (a fresh worker incarnation)."""
        with self._lock:
            self._counts[stage] = 0

    def retire_stage(self, stage: int) -> None:
        """Disable every policy for ``stage`` — its device left the plan."""
        with self._lock:
            self._dead_stages.add(stage)
            for st in self._states:
                if getattr(st.policy, "stage", None) == stage:
                    st.retired = True

    def describe(self) -> str:
        """One-line summary of configured policies and fired faults."""
        kinds = ", ".join(type(s.policy).__name__ for s in self._states) or "none"
        return f"FaultInjector(seed={self.seed}, policies=[{kinds}], fired={len(self.fired)})"
