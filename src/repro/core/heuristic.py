"""Optimization #3: the bitwidth-transfer heuristic (Algorithm 2).

The exact ILP scales poorly on big clusters, so the paper seeds a greedy
search from **adabits** — the reduced ILP that drops the latency objective
and picks the best-quality bitwidths that merely *fit* in memory — and
then iteratively applies *transformations* that trade precision and layer
placement between the straggler stage and the rest:

* ``move``   — shift a boundary layer off the straggler onto a neighbour
  with spare memory (fewer layers => faster straggler);
* ``downgrade`` — drop one straggler layer to the next lower bitwidth
  (faster decode on the straggler, frees memory, costs quality);
* ``upgrade``   — raise one layer on a non-straggler with spare memory to
  the next higher bitwidth (better quality at no bottleneck cost).

Each candidate transformation is scored with the cost models
(``latency + theta * sum omega``); the best improving move is applied
until none improves or ``max_iters`` is reached.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..hardware.cluster import Device
from ..sim.pipeline import PipelineResult
from .optimizer import LLMPQOptimizer, PlannerResult, CandidateRecord
from .plan import ExecutionPlan, StagePlan

__all__ = ["adabits_plan", "bitwidth_transfer", "heuristic_optimize"]


def adabits_plan(
    optimizer: LLMPQOptimizer,
    ordering: Sequence[Device] | None = None,
    *,
    mb_p: int | None = None,
    mb_d: int | None = None,
) -> ExecutionPlan | None:
    """The quality-only seed: solve the ILP with the latency term removed.

    This is also the paper's "pure adaptive quantization" baseline of
    Sec. 6.9 (Fig. 9) when used as a final plan.
    """
    ordering = list(ordering or optimizer.cluster.devices)
    b = optimizer.workload.global_batch
    mb_p = mb_p or max(1, b // len(ordering))
    mb_d = mb_d or max(1, b // len(ordering))
    sol, ilp = optimizer._solve_candidate(ordering, mb_p, mb_d, include_latency=False)
    if not sol.feasible:
        return None
    return optimizer.plan_from_solution(ordering, sol, ilp, mb_p, mb_d)


def _evaluate(
    optimizer: LLMPQOptimizer, plan: ExecutionPlan
) -> tuple[float, PipelineResult]:
    """``plan``'s objective and the simulation it was read from."""
    pred = optimizer.simulate(plan)
    if not pred.feasible:
        return float("inf"), pred
    quality = _plan_quality(optimizer, plan)
    return pred.total_latency + optimizer.config.theta * quality, pred


def _objective(optimizer: LLMPQOptimizer, plan: ExecutionPlan) -> float:
    return _evaluate(optimizer, plan)[0]


def _plan_quality(optimizer: LLMPQOptimizer, plan: ExecutionPlan) -> float:
    ind = optimizer.indicator
    return float(
        sum(ind.lookup(i, b) for i, b in enumerate(plan.layer_bits))
    )


def _with_stages(plan: ExecutionPlan, stages: list[StagePlan]) -> ExecutionPlan | None:
    stages = [s for s in stages if s.layer_bits]
    if not stages:
        return None
    return ExecutionPlan(
        model_name=plan.model_name,
        stages=tuple(stages),
        prefill_microbatch=plan.prefill_microbatch,
        decode_microbatch=plan.decode_microbatch,
        workload=plan.workload,
        meta=dict(plan.meta),
    )


def _layer_offsets(plan: ExecutionPlan) -> list[int]:
    """Global index of each stage's first layer."""
    offsets, acc = [], 0
    for s in plan.stages:
        offsets.append(acc)
        acc += s.num_layers
    return offsets


def _neighbors(
    optimizer: LLMPQOptimizer,
    plan: ExecutionPlan,
    straggler: int,
) -> list[ExecutionPlan]:
    """Single-transformation variants of ``plan`` (the rule set C).

    Moves are *compound*: a boundary layer shifted off the straggler may
    be simultaneously requantized to any candidate bitwidth so it can fit
    the receiving device — this is the paper's "(4, 8, 2)"-style rule
    (e.g. one 8-bit pioneer layer replaced by two 4-bit straggler
    layers), which plain moves cannot express when memory is tight.
    Bit changes pick layers by indicator sensitivity: downgrades take the
    least-sensitive layer of the straggler, upgrades the most-sensitive
    quantized layer elsewhere.
    """
    out: list[ExecutionPlan] = []
    stages = list(plan.stages)
    s = stages[straggler]
    sorted_bits = sorted(optimizer.config.bits)
    ind = optimizer.indicator
    offsets = _layer_offsets(plan)

    # compound chain move: shed one layer of load from the straggler to
    # *any* target stage by shifting every boundary in between (layers
    # bubble through intermediate stages, contiguity preserved).  The
    # layer landing on the target may be requantized to any bitwidth —
    # the paper's "(4, 8, 2)"-style precision-for-placement trade.
    if s.num_layers > 1:
        for target in range(len(stages)):
            if target == straggler:
                continue
            for new_b in sorted_bits:
                new_stages = [list(st.layer_bits) for st in stages]
                if target < straggler:
                    # each stage k in (target, straggler] passes its first
                    # layer to stage k-1's tail
                    for k in range(straggler, target, -1):
                        moved = new_stages[k].pop(0)
                        if k - 1 == target:
                            moved = new_b
                        new_stages[k - 1].append(moved)
                else:
                    for k in range(straggler, target):
                        moved = new_stages[k].pop()
                        if k + 1 == target:
                            moved = new_b
                        new_stages[k + 1].insert(0, moved)
                # variant 0: plain chain move; variants 1-2: the target
                # additionally downgrades its least-sensitive high-bit
                # layers one step to make room (the "(4, 8, 2)" rule —
                # trade one high-precision pioneer layer for extra
                # straggler layers when the target is memory-full)
                for extra_downgrades in (0, 1, 2):
                    staged = [list(b) for b in new_stages]
                    tgt_bits = staged[target]
                    ok = True
                    for _ in range(extra_downgrades):
                        cands = [
                            (li, bb) for li, bb in enumerate(tgt_bits)
                            if any(x < bb for x in sorted_bits)
                        ]
                        if not cands:
                            ok = False
                            break
                        li, bb = max(cands, key=lambda t: t[1])
                        tgt_bits[li] = max(x for x in sorted_bits if x < bb)
                    if not ok:
                        continue
                    rebuilt = [
                        StagePlan(st.device, tuple(bits), kv_bits=st.kv_bits)
                        for st, bits in zip(stages, staged)
                    ]
                    cand = _with_stages(plan, rebuilt)
                    if cand is not None:
                        out.append(cand)

    # downgrade the straggler layer whose quality penalty is smallest
    down_cands = []
    for li, b in enumerate(s.layer_bits):
        lower = [x for x in sorted_bits if x < b]
        if not lower:
            continue
        gi = offsets[straggler] + li
        penalty = ind.lookup(gi, lower[-1]) - ind.lookup(gi, b)
        down_cands.append((penalty, li, lower[-1]))
    if down_cands:
        _, li, new_b = min(down_cands)
        new_bits = list(s.layer_bits)
        new_bits[li] = new_b
        new_stages = list(stages)
        new_stages[straggler] = StagePlan(s.device, tuple(new_bits), kv_bits=s.kv_bits)
        cand = _with_stages(plan, new_stages)
        if cand is not None:
            out.append(cand)

    # upgrade a straggler layer: on devices with slow low-precision
    # kernels (e.g. P100) *raising* the bitwidth is the speedup
    up_straggler = []
    for li, b in enumerate(s.layer_bits):
        higher = [x for x in sorted_bits if x > b]
        if not higher:
            continue
        gi = offsets[straggler] + li
        gain = ind.lookup(gi, b) - ind.lookup(gi, higher[0])
        up_straggler.append((-gain, li, higher[0]))
    if up_straggler:
        _, li, new_b = min(up_straggler)
        new_bits = list(s.layer_bits)
        new_bits[li] = new_b
        new_stages = list(stages)
        new_stages[straggler] = StagePlan(s.device, tuple(new_bits), kv_bits=s.kv_bits)
        cand = _with_stages(plan, new_stages)
        if cand is not None:
            out.append(cand)

    # upgrade the most quality-starved layer on each non-straggler stage
    for j, st in enumerate(stages):
        if j == straggler:
            continue
        up_cands = []
        for li, b in enumerate(st.layer_bits):
            higher = [x for x in sorted_bits if x > b]
            if not higher:
                continue
            gi = offsets[j] + li
            gain = ind.lookup(gi, b) - ind.lookup(gi, higher[0])
            up_cands.append((-gain, li, higher[0]))
        if not up_cands:
            continue
        _, li, new_b = min(up_cands)
        new_bits = list(st.layer_bits)
        new_bits[li] = new_b
        new_stages = list(stages)
        new_stages[j] = StagePlan(st.device, tuple(new_bits), kv_bits=st.kv_bits)
        cand = _with_stages(plan, new_stages)
        if cand is not None:
            out.append(cand)
    return out


def bitwidth_transfer(
    optimizer: LLMPQOptimizer,
    seed_plan: ExecutionPlan,
    *,
    max_iters: int = 64,
) -> ExecutionPlan:
    """Greedy best-improvement search from ``seed_plan`` (Algorithm 2)."""
    best = seed_plan
    best_obj, pred = _evaluate(optimizer, best)
    for _ in range(max_iters):
        if not pred.feasible:
            # seed infeasible: try shedding memory via downgrades anywhere
            straggler = pred.oom_stages[0]
        else:
            busy = [r.prefill_time + r.decode_time_last for r in pred.stage_reports]
            straggler = int(np.argmax(busy))
        improved = False
        for cand in _neighbors(optimizer, best, straggler):
            obj, cand_pred = _evaluate(optimizer, cand)
            if obj < best_obj - 1e-9:
                best, best_obj, pred = cand, obj, cand_pred
                improved = True
        if not improved:
            break
    return best


def _retune_microbatches(
    optimizer: LLMPQOptimizer, plan: ExecutionPlan
) -> ExecutionPlan:
    """Re-enumerate (prefill, decode) micro-batch pairs on a fixed
    partition/bit structure (Optimization #1 applied post-transfer)."""
    from .optimizer import _microbatch_pairs

    best, best_obj = plan, _objective(optimizer, plan)
    for mb_p, mb_d in _microbatch_pairs(
        optimizer.workload, plan.num_stages, optimizer.config
    ):
        cand = ExecutionPlan(
            model_name=plan.model_name,
            stages=plan.stages,
            prefill_microbatch=mb_p,
            decode_microbatch=mb_d,
            workload=plan.workload,
            meta=dict(plan.meta),
        )
        obj = _objective(optimizer, cand)
        if obj < best_obj - 1e-9:
            best, best_obj = cand, obj
    return best


class _LevelHeuristic:
    """One KV level's search for ``_optimize_auto_kv``: no bound to offer,
    and the incumbent buys the greedy walk nothing."""

    def __init__(self, optimizer: LLMPQOptimizer) -> None:
        self.optimizer = optimizer

    def prepare(self) -> float:
        return -np.inf

    def run(self, incumbent: float) -> PlannerResult:
        return heuristic_optimize(self.optimizer)


def heuristic_optimize(optimizer: LLMPQOptimizer) -> PlannerResult:
    """Drop-in replacement for :meth:`LLMPQOptimizer.optimize` that uses
    adabits + bitwidth transfer instead of the exact ILP (Table 8's
    "Heuristic" row).  ``kv_bits="auto"`` runs it once per uniform KV
    level inside the same level search as the exact planner."""
    if optimizer.config.kv_bits == "auto":
        return optimizer._optimize_auto_kv(_LevelHeuristic)
    t0 = time.perf_counter()
    records: list[CandidateRecord] = []
    best_plan: ExecutionPlan | None = None
    best_obj = np.inf

    for ordering in optimizer.orderings():
        seed = adabits_plan(optimizer, ordering)
        type_seq = tuple(d.type_name for d in ordering)
        if seed is None:
            records.append(
                CandidateRecord(
                    ordering=type_seq, prefill_microbatch=0, decode_microbatch=0,
                    status="infeasible", objective=np.inf, latency=np.inf,
                    quality=np.inf, solve_seconds=0.0,
                )
            )
            continue
        t1 = time.perf_counter()
        # alternate transfer and micro-batch retuning: retuning changes
        # workspace sizes, which unlocks transfers that previously OOMed
        plan = seed
        for _ in range(3):
            before = _objective(optimizer, plan)
            plan = bitwidth_transfer(optimizer, plan)
            plan = _retune_microbatches(optimizer, plan)
            if _objective(optimizer, plan) >= before - 1e-9:
                break
        obj = _objective(optimizer, plan)
        records.append(
            CandidateRecord(
                ordering=type_seq,
                prefill_microbatch=plan.prefill_microbatch,
                decode_microbatch=plan.decode_microbatch,
                status="heuristic", objective=obj,
                latency=obj - optimizer.config.theta * _plan_quality(optimizer, plan),
                quality=_plan_quality(optimizer, plan),
                solve_seconds=time.perf_counter() - t1,
            )
        )
        if obj < best_obj:
            best_obj, best_plan = obj, plan
    return PlannerResult(
        plan=best_plan,
        objective=best_obj,
        predicted=None if best_plan is None else optimizer.simulate(best_plan),
        candidates=tuple(records),
        total_seconds=time.perf_counter() - t0,
    )
