"""Messages exchanged between the master engine and stage workers.

The wire protocol mirrors the paper's runtime (Fig. 6): hidden-state
activations flow stage to stage; the master injects embedded prompts and
receives final hidden states to turn into logits.  A prefill crosses as
an :class:`ActivationMessage` per cache unit; every decode step the
master issues is one :class:`BatchedDecodeMessage` over KV slab rows — an
offline decode group (hybrid micro-batch sizing) is the rows of its
prefill units, an online step one row per in-flight request.  Control
messages free finished units and shut the pipeline down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "ActivationMessage",
    "BatchedDecodeMessage",
    "ReleaseMessage",
    "ShutdownMessage",
    "FailureMessage",
]


@dataclass
class ActivationMessage:
    """A micro-batch's hidden states entering a stage.

    The master prefills through it; a ``"decode"`` message is the
    batch-1 reference drive of ``tests/runtime/per_request_spec.py``.

    Attributes
    ----------
    microbatch_id:
        Cache-unit id (prefill micro-batch id, or request id online).
    phase:
        ``"prefill"`` or ``"decode"``.
    start:
        Absolute position of the first token in ``hidden`` (0 for
        prefill, current context length for decode steps).
    hidden:
        ``(batch, q, hidden_size)`` activations.
    reserve:
        KV slots to pre-allocate on first contact (prefill only).
    """

    microbatch_id: int
    phase: Literal["prefill", "decode"]
    start: int
    hidden: np.ndarray
    reserve: int = 0


@dataclass
class BatchedDecodeMessage:
    """One fused decode step over the KV slab rows of several cache units.

    The master stacks each row's next-token hidden state into one
    ``(R, 1, hidden_size)`` tensor so each stage runs a single GEMM per
    layer against the shared dequant-cached weights instead of one per
    unit.  A unit contributes all of its rows, in ``unit_ids`` order:
    one row per request online, a prefill micro-batch's rows in an
    offline decode group.  Attention stays ragged: ``starts[r]`` is row
    ``r``'s current context length, and each stage reads/writes that
    row of its unit's KV cache.

    Attributes
    ----------
    unit_ids:
        Cache-unit ids, in row order.
    starts:
        ``(R,)`` int64 absolute position of each row's token (= tokens
        already in that row of its unit's KV cache).
    hidden:
        ``(R, 1, hidden_size)`` activations.
    """

    unit_ids: tuple[int, ...]
    starts: np.ndarray
    hidden: np.ndarray


@dataclass
class ReleaseMessage:
    """Free finished cache units on every stage (continuous batching).

    The iteration-level scheduler retires a request the moment its last
    token is sampled; this message rides the data path so each stage
    drops the unit's KV slots in message order (never racing an
    in-flight activation for the same unit) and forwards it downstream.
    The copy arriving at the master's tail queue serves as the
    all-stages-freed acknowledgement and is otherwise ignored.
    """

    unit_ids: tuple[int, ...]


@dataclass
class ShutdownMessage:
    """Propagates through the pipeline, stopping each worker in turn."""


@dataclass
class FailureMessage:
    """A stage crashed.

    Emitted by the failing worker on its outbound queue and forwarded
    by every downstream stage so the master's collector unblocks
    immediately (the upstream direction is covered by the shared
    control-plane abort flag that all workers poll).
    """

    stage_idx: int
    error: str
