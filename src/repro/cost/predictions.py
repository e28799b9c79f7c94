"""Memoized, vectorized front-end to the latency cost model.

Algorithm 1 queries :meth:`LatencyModel.predict_layer` with a very small
set of distinct arguments — ``(gpu type, bits, phase, micro-batch,
q, context)`` — while evaluating each from scratch for every (ordering,
micro-batch) candidate would cost ``O(candidates x devices x bits)``
scalar feature builds and dot products.  The keys repeat because
candidates only vary the *order* of the same device types and share the
micro-batch menu.

:class:`PredictionCache` memoizes each distinct key once per planner run
and fills whole ``(device, bits)`` coefficient tables with one matrix
product per GPU type instead of per-cell Python calls.  The cached
values are exactly the floats ``predict_layer`` returns (same feature
vector, same dot product), which is what lets the search engine promise
bit-identical plans to the uncached path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..models.config import ModelConfig
from .latency import LatencyModel, Phase, features_for

__all__ = ["PredictionCache"]

#: cache key: (gpu type, bits, phase, micro-batch, q tokens, context, kv bits)
_Key = tuple[str, int, str, int, int, int, int]
_MAX_SWEEPS = 1024
_MAX_STAGES = 16384


@dataclass
class PredictionCache:
    """Shared per-(gpu, bits, phase, shape) layer-time and decode-sweep memo.

    One instance is shared across every candidate of a planner run (and
    is cheap to keep around longer — entries are floats and read-only rows).
    ``hits``/``misses`` feed the planner's :class:`PlannerStats`.
    """

    model: LatencyModel
    _times: dict[_Key, float] = field(default_factory=dict)
    _features: dict[tuple[int, int, int, int, int], np.ndarray] = field(
        default_factory=dict
    )
    _sweeps: dict[tuple, np.ndarray] = field(default_factory=dict)
    _stages: dict[tuple, object] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    @property
    def cfg(self) -> ModelConfig:
        """Model architecture the underlying cost model was fitted for."""
        return self.model.cfg

    def _feature(
        self, bits: int, batch: int, q: int, context: int, kv_bits: int = 16
    ) -> np.ndarray:
        key = (bits, batch, q, context, kv_bits)
        feat = self._features.get(key)
        if feat is None:
            feat = features_for(self.cfg, bits, batch, q, context, kv_bits=kv_bits)
            self._features[key] = feat
        return feat

    # ------------------------------------------------------------------
    def layer_time(
        self,
        gpu_name: str,
        bits: int,
        phase: Phase,
        batch: int,
        q: int,
        context: int,
        kv_bits: int = 16,
    ) -> float:
        """Memoized ``predict_layer`` for one key."""
        key = (gpu_name, bits, phase, batch, q, context, kv_bits)
        t = self._times.get(key)
        if t is not None:
            self.hits += 1
            return t
        self.misses += 1
        beta = self.model.coef[self.model._key(gpu_name, bits, phase)]
        t = float(self._feature(bits, batch, q, context, kv_bits) @ beta)
        self._times[key] = t
        return t

    def layer_time_table(
        self,
        gpu_names: Sequence[str],
        bits: Sequence[int],
        phase: Phase,
        batch: int,
        q: int,
        context: int,
        kv_bits: int = 16,
    ) -> np.ndarray:
        """``(len(gpu_names), len(bits))`` layer-time table, one planner
        coefficient block.

        Missing cells for one GPU are filled with a single ``(nB, 3) @
        (3,)`` matrix product — row ``k`` of that product is the same
        3-term dot product ``predict_layer`` computes, so cached and
        uncached paths agree bitwise.
        """
        out = np.empty((len(gpu_names), len(bits)))
        for j, name in enumerate(gpu_names):
            missing = [
                k
                for k, b in enumerate(bits)
                if (name, b, phase, batch, q, context, kv_bits) not in self._times
            ]
            if missing:
                feats = np.stack(
                    [self._feature(bits[k], batch, q, context, kv_bits) for k in missing]
                )
                for row, k in enumerate(missing):
                    beta = self.model.coef[self.model._key(name, bits[k], phase)]
                    self._times[
                        (name, bits[k], phase, batch, q, context, kv_bits)
                    ] = float(feats[row] @ beta)
                self.misses += len(missing)
                self.hits += len(bits) - len(missing)
            else:
                self.hits += len(bits)
            for k, b in enumerate(bits):
                out[j, k] = self._times[(name, b, phase, batch, q, context, kv_bits)]
        return out

    def decode_sweep(
        self,
        gpu_name: str,
        bits: int,
        batch: int,
        contexts: np.ndarray,
        kv_bits: int = 16,
    ) -> np.ndarray:
        """Memoized :meth:`LatencyModel.decode_step_times` row for one
        whole context sweep.  The row is shared by every plan simulated
        through this cache, so it comes back read-only.  A planner run
        asks for a few dozen distinct sweeps; a consumer that never
        repeats one starts over at ``_MAX_SWEEPS`` instead of growing
        without bound."""
        key = (gpu_name, bits, batch, kv_bits, contexts.tobytes())
        row = self._sweeps.get(key)
        if row is not None:
            self.hits += 1
            return row
        self.misses += 1
        if len(self._sweeps) >= _MAX_SWEEPS:
            self._sweeps.clear()
        row = self.model.decode_step_times(
            gpu_name, bits, batch, contexts, kv_bits=kv_bits
        )
        row.setflags(write=False)
        self._sweeps[key] = row
        return row

    def stage(self, key: tuple, build):
        """Memoized stage row (:func:`~repro.cost.stagecosts.stage_row`)
        under a key the caller makes complete; ``build()`` runs on a
        miss.  Shared, so the row's arrays are read-only; starts over at
        ``_MAX_STAGES`` like the sweeps."""
        hit = self._stages.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        if len(self._stages) >= _MAX_STAGES:
            self._stages.clear()
        hit = self._stages[key] = build()
        return hit

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Distinct keys currently memoized."""
        return len(self._times)

    def stats(self) -> dict[str, int]:
        """Hit/miss counters for diagnostics."""
        return {"hits": self.hits, "misses": self.misses, "size": self.size}
