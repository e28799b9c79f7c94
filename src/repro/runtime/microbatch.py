"""Micro-batch split of an offline batch (paper Sec. 5).

The split of the global batch into prefill micro-batches (cache units)
and their regrouping into decode groups — a group is the rows of
consecutive whole units, decoded as one fused message over those KV slab
rows, so regrouping moves no KV.  It is plain data: the master's
``_serve_batch`` reads it on the one thread that both sends and collects
the units.  Online serving has no global batch: the continuous
scheduler mints one cache unit per admitted request and counts its KV in
token slots (:mod:`repro.runtime.scheduler`).
"""

from __future__ import annotations

__all__ = ["MicroBatchManager"]


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
    """

    def __init__(
        self, global_batch: int, prefill_microbatch: int, decode_microbatch: int
    ) -> None:
        if global_batch <= 0:
            raise ValueError("global_batch must be positive")
        if prefill_microbatch <= 0 or decode_microbatch <= 0:
            raise ValueError("micro-batch sizes must be positive")
        self.global_batch = global_batch
        self.prefill_microbatch = mb = min(prefill_microbatch, global_batch)
        self.decode_microbatch = min(decode_microbatch, global_batch)
        #: ``(unit_id, batch_slice)`` per prefill micro-batch
        self.prefill_units = [
            (uid, slice(lo, min(lo + mb, global_batch)))
            for uid, lo in enumerate(range(0, global_batch, mb))
        ]
        per_group = max(1, self.decode_microbatch // mb)
        runs = (
            self.prefill_units[i : i + per_group]
            for i in range(0, len(self.prefill_units), per_group)
        )
        #: ``(member_unit_ids, batch_slice)`` per decode group
        self.decode_groups = [
            (tuple(uid for uid, _ in run), slice(run[0][1].start, run[-1][1].stop))
            for run in runs
        ]

    @property
    def num_prefill_microbatches(self) -> int:
        """Cache units in the prefill phase."""
        return len(self.prefill_units)

    @property
    def num_decode_groups(self) -> int:
        """Decode groups per decode step."""
        return len(self.decode_groups)
