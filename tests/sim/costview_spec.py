"""The continuous-batching units, priced one layer at a time.

This is the specification ``StageCostModel.unit_prefill_times[_batch]``
and the kernels-source ``unit_decode_times[_batch]`` tables are pinned
to, bit for bit: every layer goes through the scalar ground-truth
kernels (:func:`repro.sim.kernels.layer_exec_time` and friends), layers
add up in plan order, then the embedding, logit and boundary-comm terms.
It is the per-call pricing ``StageCostModel(cache=False)`` used to carry
inside ``src/``; deliberately slow and memo-free, it exists only for the
tests and ``benchmarks/test_ext_costview.py``.
"""

from __future__ import annotations

import numpy as np

from repro.cost.stagecosts import StageCostModel
from repro.models.registry import get_model
from repro.sim.comm import boundary_links, stage_comm_time
from repro.sim.kernels import (
    embedding_exec_time,
    layer_exec_time,
    layer_exec_times_decode_sweep,
)


def spec_unit_prefill_times(plan, cluster, prompt_len: int) -> np.ndarray:
    """Per-stage busy time of one batch-1 prefill unit at ``prompt_len``."""
    cfg = get_model(plan.model_name)
    links = boundary_links(cluster, [st.device for st in plan.stages])
    n = plan.num_stages
    out = np.zeros(n)
    for j, stage in enumerate(plan.stages):
        gpu = stage.device.spec
        t = 0  # an explicit left fold, whatever the builtin sum() does
        for bits in stage.layer_bits:
            t = t + layer_exec_time(
                gpu, cfg, bits, 1, prompt_len, prompt_len, kv_bits=stage.kv_bits
            )
        if j == 0:
            t += embedding_exec_time(gpu, cfg, 1, prompt_len, with_logits=False)
        if j == n - 1:
            t += embedding_exec_time(gpu, cfg, 1, 1, with_logits=True)
        if j < n - 1:
            t += stage_comm_time(links[j], cfg, 1, prompt_len)
        out[j] = t
    return out


def spec_unit_decode_times(plan, cluster, batch: int, context: float) -> np.ndarray:
    """Per-stage busy time of one fused decode iteration at ``context``."""
    cfg = get_model(plan.model_name)
    links = boundary_links(cluster, [st.device for st in plan.stages])
    n = plan.num_stages
    ctx = np.array([context], dtype=np.float64)
    out = np.zeros(n)
    for j, stage in enumerate(plan.stages):
        gpu = stage.device.spec
        t = 0.0
        for bits, count in stage.bit_counts.items():
            t += count * float(
                layer_exec_times_decode_sweep(
                    gpu, cfg, bits, batch, ctx, kv_bits=stage.kv_bits
                )[0]
            )
        if j == 0:
            t += embedding_exec_time(gpu, cfg, batch, 1, with_logits=False)
        if j == n - 1:
            t += embedding_exec_time(gpu, cfg, batch, 1, with_logits=True)
        # the tail->head token feedback rides the last link
        t += stage_comm_time(links[j], cfg, batch, 1)
        out[j] = t
    return out


class PerCallCostModel(StageCostModel):
    """A kernels-source cost model whose iteration units are re-derived
    from the spec on every call: no constant table, no memo."""

    def unit_prefill_times(self, prompt_len: int) -> np.ndarray:
        return spec_unit_prefill_times(self.plan, self.cluster, prompt_len)

    def unit_prefill_times_batch(self, prompt_lens) -> np.ndarray:
        return np.array(
            [self.unit_prefill_times(int(s)) for s in prompt_lens]
        ).reshape(len(prompt_lens), self.plan.num_stages)

    def unit_decode_times(self, batch: int, context: float) -> np.ndarray:
        return spec_unit_decode_times(self.plan, self.cluster, batch, context)

    def unit_decode_times_batch(self, batches, contexts) -> np.ndarray:
        return np.array(
            [
                self.unit_decode_times(int(b), float(c))
                for b, c in zip(batches, contexts)
            ]
        ).reshape(len(batches), self.plan.num_stages)
