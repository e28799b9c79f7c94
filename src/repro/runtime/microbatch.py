"""Thread-safe micro-batch manager (paper Sec. 5).

Owns the split of the global batch into prefill micro-batches (cache
units) and their regrouping into decode groups — a group is the rows of
consecutive whole units, decoded as one fused message over those KV slab
rows, so regrouping moves no KV — and tracks in-flight units so
concurrent producers/consumers (the master's feeder and collector) stay
consistent.  Online serving has no global batch: the
continuous scheduler mints one cache unit per admitted request and
counts its KV in token slots (:mod:`repro.runtime.scheduler`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["MicroBatchManager"]


@dataclass(frozen=True)
class _Unit:
    unit_id: int
    lo: int
    hi: int

    @property
    def as_slice(self) -> slice:
        """Slice into the global batch."""
        return slice(self.lo, self.hi)


class MicroBatchManager:
    """Splits a global batch for two-phase pipelined serving.

    Parameters
    ----------
    global_batch:
        Total requests in the offline batch.
    prefill_microbatch / decode_microbatch:
        The plan's phase-specific sizes.  Decode groups are assembled
        from whole prefill units, so the effective decode size is
        ``prefill_microbatch * ceil(decode_microbatch / prefill_microbatch)``
        capped at the global batch — the closest realizable regrouping.

    A manager covers one serving attempt; a retry builds a fresh one.
    """

    def __init__(
        self, global_batch: int, prefill_microbatch: int, decode_microbatch: int
    ) -> None:
        if global_batch <= 0:
            raise ValueError("global_batch must be positive")
        if prefill_microbatch <= 0 or decode_microbatch <= 0:
            raise ValueError("micro-batch sizes must be positive")
        self.global_batch = global_batch
        self.prefill_microbatch = min(prefill_microbatch, global_batch)
        self.decode_microbatch = min(decode_microbatch, global_batch)
        self._lock = threading.Lock()
        self._inflight: set[int] = set()

        self._units = [
            _Unit(uid, lo, min(lo + self.prefill_microbatch, global_batch))
            for uid, lo in enumerate(range(0, global_batch, self.prefill_microbatch))
        ]
        per_group = max(1, self.decode_microbatch // self.prefill_microbatch)
        self._groups: list[tuple[tuple[int, ...], slice]] = []
        for lo_idx in range(0, len(self._units), per_group):
            members = self._units[lo_idx : lo_idx + per_group]
            self._groups.append(
                (tuple(u.unit_id for u in members), slice(members[0].lo, members[-1].hi))
            )

    # ------------------------------------------------------------------
    @property
    def prefill_units(self) -> list[tuple[int, slice]]:
        """``(unit_id, batch_slice)`` per prefill micro-batch."""
        return [(u.unit_id, u.as_slice) for u in self._units]

    @property
    def decode_groups(self) -> list[tuple[tuple[int, ...], slice]]:
        """``(member_unit_ids, batch_slice)`` per decode group."""
        return list(self._groups)

    @property
    def num_prefill_microbatches(self) -> int:
        """Cache units in the prefill phase."""
        return len(self._units)

    @property
    def num_decode_groups(self) -> int:
        """Decode groups per decode step."""
        return len(self._groups)

    # ------------------------------------------------------------------
    def mark_inflight(self, unit_id: int) -> None:
        """Record a unit entering the pipeline (errors on double entry)."""
        with self._lock:
            if unit_id in self._inflight:
                raise ValueError(f"unit {unit_id} already in flight")
            self._inflight.add(unit_id)

    def mark_done(self, unit_id: int) -> None:
        """Record a unit leaving the pipeline."""
        with self._lock:
            self._inflight.discard(unit_id)

    def inflight_ids(self) -> tuple[int, ...]:
        """Snapshot of the in-flight ledger (sorted unit ids).

        On a stage failure this is exactly the set of micro-batches the
        recovery path must replay."""
        with self._lock:
            return tuple(sorted(self._inflight))

