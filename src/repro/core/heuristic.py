"""Optimization #3: the bitwidth-transfer heuristic (Algorithm 2).

The exact ILP scales poorly on big clusters, so the paper seeds a greedy
search from **adabits** — the reduced problem that drops the latency
objective and picks the best-quality bitwidths that merely *fit* in
memory; solved here by an exact DP of its own — and then iteratively
applies *transformations* that trade precision and layer placement
between the straggler stage and the rest:

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
from bisect import bisect_left
from typing import Sequence

import numpy as np

from ..hardware.cluster import Device
from ..sim.pipeline import PipelineTotals
from .ilp import ILPSolution
from .optimizer import (
    CandidateRecord,
    LLMPQOptimizer,
    PlannerResult,
    PlannerStats,
    Stages,
)
from .plan import ExecutionPlan, StagePlan

__all__ = ["adabits_plan", "bitwidth_transfer", "heuristic_optimize"]


def _seed_dp(mem: np.ndarray, omega: np.ndarray, caps: Sequence[float]):
    """The adabits problem, exactly, by a forward DP (DESIGN.md §8.6):
    groups in order onto devices in order, no device empty, one bitwidth
    per group, ``sum mem[i, b] <= caps[j]`` per device, min ``sum omega``.

    Of "group ``i`` placed, on device ``j``" only ``(bytes used on j,
    quality so far)`` matters later, so each ``(i, j)`` keeps the Pareto
    front of those pairs; group ``i`` stays on ``j`` (front state x
    bitwidth that fits) or opens ``j`` from the best state of ``(i-1,
    j-1)``.  Quality accumulates in group order, like the MILP's
    ``quality_term``.  Ties: lowest quality, then fewest bytes on the
    current device, then first found (stays before opens, front order,
    bitwidth order).  Returns ``(group_device, group_bit_index, quality)``
    or ``None``."""
    nG, nB = mem.shape
    nD, ks = len(caps), np.arange(nB)
    fronts: dict[int, tuple] = {}  # device -> (bytes ascending, quality descending)
    trail = []  # per group: device -> (parent state, bit index [+ nB: opened])
    for i in range(nG):
        new, steps = {}, {}
        # device j needs j groups before this one and nD-1-j after it
        for j in range(max(0, nD - nG + i), min(i, nD - 1) + 1):
            cand = []
            if j in fronts:
                used, qual = fronts[j]
                cand.append(np.broadcast_arrays(
                    used[:, None] + mem[i], qual[:, None] + omega[i],
                    np.arange(used.size)[:, None], ks,
                ))
            if j - 1 in fronts or i == j == 0:
                # a front's last state is its lowest quality
                best = fronts[j - 1][1].size - 1 if j else 0
                base = fronts[j - 1][1][best] if j else 0.0
                cand.append((mem[i], base + omega[i], np.full(nB, best), ks + nB))
            if not cand:
                continue
            used, qual, parent, code = (
                np.concatenate([np.ravel(c) for c in col]) for col in zip(*cand)
            )
            fit = np.flatnonzero(used <= caps[j])
            order = fit[np.lexsort((qual[fit], used[fit]))]  # stable
            q = qual[order]
            # strict front: a state stays only if it beats every lighter one
            keep = order[q < np.r_[np.inf, np.minimum.accumulate(q)[:-1]]]
            if keep.size:
                new[j] = used[keep], qual[keep]
                steps[j] = parent[keep], code[keep]
        fronts = new
        trail.append(steps)
    if nD - 1 not in fronts:
        return None
    j, state = nD - 1, fronts[nD - 1][1].size - 1
    quality, path = float(fronts[j][1][state]), []
    for steps in reversed(trail):
        parent, code = steps[j]
        path.append((j, int(code[state]) % nB))
        j, state = j - int(code[state]) // nB, int(parent[state])
    devices, choice = zip(*reversed(path))
    return devices, choice, quality


def adabits_plan(
    optimizer: LLMPQOptimizer,
    ordering: Sequence[Device] | None = None,
    *,
    mb_p: int | None = None,
    mb_d: int | None = None,
) -> ExecutionPlan | None:
    """The quality-only seed: the best-quality bitwidths that merely fit
    in memory, under the exact search's own memory model — no solver.

    This is also the paper's "pure adaptive quantization" baseline of
    Sec. 6.9 (Fig. 9) when used as a final plan.
    """
    ordering = list(ordering or optimizer.cluster.devices)
    b = optimizer.workload.global_batch
    mb_p = mb_p or max(1, b // len(ordering))
    mb_d = mb_d or max(1, b // len(ordering))
    t0 = time.perf_counter()
    ilp = optimizer.build_ilp(ordering, mb_p, mb_d)
    _, _, _, mem, omega = ilp._coefficients()
    caps = [ilp._device_capacity(j) for j in range(len(ordering))]
    found = _seed_dp(mem, omega, caps)
    if found is None:
        return None
    group_device, choice, quality = found
    sol = ILPSolution(
        group_device, tuple(ilp.bits[k] for k in choice), ilp.theta * quality,
        latency_term=0.0, quality_term=quality, status="optimal",
        solve_seconds=time.perf_counter() - t0,
    )
    return optimizer.plan_from_solution(ordering, sol, ilp, mb_p, mb_d)


def _stages(plan: ExecutionPlan) -> Stages:
    """``plan``'s stages in the form the walk scores."""
    return tuple((st.device, st.layer_bits, st.kv_bits) for st in plan.stages)


def _as_plan(
    plan: ExecutionPlan, stages: Stages, mb_p: int | None = None, mb_d: int | None = None
) -> ExecutionPlan:
    """A kept candidate as a plan, with ``plan``'s model, workload and meta
    (and micro-batches, unless given)."""
    return ExecutionPlan(
        model_name=plan.model_name,
        stages=tuple(StagePlan(d, bits, kv_bits=kv) for d, bits, kv in stages),
        prefill_microbatch=mb_p or plan.prefill_microbatch,
        decode_microbatch=mb_d or plan.decode_microbatch,
        workload=plan.workload,
        meta=dict(plan.meta),
    )


def _score(
    optimizer: LLMPQOptimizer, stages: Stages, mb_p: int, mb_d: int
) -> tuple[float, PipelineTotals]:
    """A candidate's objective and the pipeline it was read from, composed
    from the run's per-stage rows (:meth:`LLMPQOptimizer.score`) once per
    distinct candidate of the run — the walk revisits many."""
    key = (tuple((d.name, bits, kv) for d, bits, kv in stages), mb_p, mb_d)
    hit = optimizer.evaluations.get(key)
    if hit is None:
        totals = optimizer.score(stages, mb_p, mb_d)
        obj = float("inf")
        if not totals.oom_stages:
            obj = totals.total_latency + optimizer.config.theta * _quality(
                optimizer, stages
            )
        hit = optimizer.evaluations[key] = obj, totals
    return hit


def _quality(optimizer: LLMPQOptimizer, stages: Stages) -> float:
    """Summed omega of the candidate's layers, left to right (``sum()``'s
    fold)."""
    ind = optimizer.indicator
    pos = {b: k for k, b in enumerate(ind.bits)}
    col = [pos[b] for _, bits, _ in stages for b in bits]
    return float(np.add.accumulate(ind.omega[np.arange(len(col)), col])[-1])


def _layer_offsets(stages: Stages) -> list[int]:
    """Global index of each stage's first layer."""
    offsets, acc = [], 0
    for _, bits, _ in stages:
        offsets.append(acc)
        acc += len(bits)
    return offsets


def _neighbors(
    optimizer: LLMPQOptimizer,
    stages: Stages,
    straggler: int,
) -> list[Stages]:
    """Single-transformation variants of ``stages`` (the rule set C).

    Moves are *compound*: a boundary layer shifted off the straggler may
    be simultaneously requantized to any candidate bitwidth so it can fit
    the receiving device — this is the paper's "(4, 8, 2)"-style rule
    (e.g. one 8-bit pioneer layer replaced by two 4-bit straggler
    layers), which plain moves cannot express when memory is tight.
    Bit changes pick layers by indicator sensitivity: downgrades take the
    least-sensitive layer of the straggler, upgrades the most-sensitive
    quantized layer elsewhere.
    """
    out: list[Stages] = []
    bits = [b for _, b, _ in stages]
    sorted_bits = sorted(optimizer.config.bits)
    ind = optimizer.indicator
    offsets = _layer_offsets(stages)

    def with_bits(changed: dict[int, tuple[int, ...]]) -> Stages:
        return tuple(
            (d, changed.get(j, b), kv) for j, (d, b, kv) in enumerate(stages)
        )

    # compound chain move: shed one layer of load from the straggler to
    # *any* target stage by shifting every boundary in between (layers
    # bubble through intermediate stages, contiguity preserved).  The
    # layer landing on the target may be requantized to any bitwidth —
    # the paper's "(4, 8, 2)"-style precision-for-placement trade.
    s = straggler
    if len(bits[s]) > 1:
        for target in range(len(stages)):
            if target == s:
                continue
            # each stage between passes its boundary layer on towards the
            # target; the straggler loses one, the target gains one
            if target < s:
                chain = {k: bits[k][1:] + bits[k + 1][:1] for k in range(target + 1, s)}
                chain[s] = bits[s][1:]
            else:
                chain = {k: bits[k - 1][-1:] + bits[k][:-1] for k in range(s + 1, target)}
                chain[s] = bits[s][:-1]
            for new_b in sorted_bits:
                tgt = bits[target] + (new_b,) if target < s else (new_b,) + bits[target]
                # variant 0: plain chain move; variants 1-2: the target
                # additionally downgrades its first highest-bit layer one
                # step per variant to make room (the "(4, 8, 2)" rule —
                # trade one high-precision pioneer layer for extra
                # straggler layers when the target is memory-full)
                for extra_downgrades in (0, 1, 2):
                    if extra_downgrades:
                        top = max(tgt)
                        if top <= sorted_bits[0]:
                            break
                        li = tgt.index(top)
                        lower = sorted_bits[bisect_left(sorted_bits, top) - 1]
                        tgt = tgt[:li] + (lower,) + tgt[li + 1:]
                    out.append(with_bits({**chain, target: tgt}))

    def requantize(j: int, up: bool) -> None:
        """Add the variant that moves one layer of stage ``j`` to the
        next bitwidth up / down: the layer whose quality changes most in
        our favour (largest gain up, smallest penalty down)."""
        steps = []
        for li, b in enumerate(bits[j]):
            nxt = [x for x in sorted_bits if (x > b if up else x < b)]
            if nxt:
                new_b, gi = (nxt[0] if up else nxt[-1]), offsets[j] + li
                steps.append((ind.lookup(gi, new_b) - ind.lookup(gi, b), li, new_b))
        if steps:
            _, li, new_b = min(steps)
            out.append(with_bits({j: bits[j][:li] + (new_b,) + bits[j][li + 1:]}))

    # downgrade the straggler's least sensitive layer; or upgrade one: on
    # devices with slow low-precision kernels (e.g. P100) *raising* the
    # bitwidth is the speedup
    requantize(straggler, up=False)
    requantize(straggler, up=True)
    # upgrade the most quality-starved layer on each non-straggler stage
    for j in range(len(stages)):
        if j != straggler:
            requantize(j, up=True)
    return out


def _transfer(
    optimizer: LLMPQOptimizer, best: Stages, mb_p: int, mb_d: int, max_iters: int = 64
) -> Stages:
    """Greedy best-improvement walk from ``best`` at fixed micro-batches."""
    best_obj, totals = _score(optimizer, best, mb_p, mb_d)
    for _ in range(max_iters):
        if totals.oom_stages:
            # seed infeasible: try shedding memory via downgrades anywhere
            straggler = totals.oom_stages[0]
        else:
            straggler = int(np.argmax(totals.prefill_busy + totals.decode_last))
        improved = False
        for cand in _neighbors(optimizer, best, straggler):
            obj, cand_totals = _score(optimizer, cand, mb_p, mb_d)
            if obj < best_obj - 1e-9:
                best, best_obj, totals = cand, obj, cand_totals
                improved = True
        if not improved:
            break
    return best


def bitwidth_transfer(
    optimizer: LLMPQOptimizer,
    seed_plan: ExecutionPlan,
    *,
    max_iters: int = 64,
) -> ExecutionPlan:
    """Greedy best-improvement search from ``seed_plan`` (Algorithm 2)."""
    best = _transfer(
        optimizer, _stages(seed_plan), seed_plan.prefill_microbatch,
        seed_plan.decode_microbatch, max_iters,
    )
    return _as_plan(seed_plan, best)


def _retune_microbatches(
    optimizer: LLMPQOptimizer, stages: Stages, mb_p: int, mb_d: int
) -> tuple[int, int]:
    """Re-enumerate (prefill, decode) micro-batch pairs on a fixed
    partition/bit structure (Optimization #1 applied post-transfer)."""
    from .optimizer import _microbatch_pairs

    best, best_obj = (mb_p, mb_d), _score(optimizer, stages, mb_p, mb_d)[0]
    for pair in _microbatch_pairs(optimizer.workload, len(stages), optimizer.config):
        obj = _score(optimizer, stages, *pair)[0]
        if obj < best_obj - 1e-9:
            best, best_obj = pair, obj
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
    cache = optimizer.prediction_cache
    hits0, misses0 = cache.hits, cache.misses
    records: list[CandidateRecord] = []
    best_plan: ExecutionPlan | None = None
    best_obj = np.inf

    for ordering in optimizer.orderings():
        t1 = time.perf_counter()
        plan = adabits_plan(optimizer, ordering)
        obj = latency = quality = np.inf
        if plan is not None:
            stages = _stages(plan)
            mb = plan.prefill_microbatch, plan.decode_microbatch
            # alternate transfer and micro-batch retuning: retuning changes
            # workspace sizes, which unlocks transfers that previously OOMed
            for _ in range(3):
                before = _score(optimizer, stages, *mb)[0]
                stages = _transfer(optimizer, stages, *mb)
                mb = _retune_microbatches(optimizer, stages, *mb)
                if _score(optimizer, stages, *mb)[0] >= before - 1e-9:
                    break
            obj = _score(optimizer, stages, *mb)[0]
            quality = _quality(optimizer, stages)
            latency = obj - optimizer.config.theta * quality
            plan = _as_plan(plan, stages, *mb)
        records.append(
            CandidateRecord(
                ordering=tuple(d.type_name for d in ordering),
                prefill_microbatch=0 if plan is None else plan.prefill_microbatch,
                decode_microbatch=0 if plan is None else plan.decode_microbatch,
                status="infeasible" if plan is None else "heuristic",
                objective=obj, latency=latency, quality=quality,
                solve_seconds=time.perf_counter() - t1,  # seed included
            )
        )
        if obj < best_obj:
            best_obj, best_plan = obj, plan
    # the one plan of the run built and simulated whole
    predicted = None if best_plan is None else optimizer.simulate(best_plan)
    total = time.perf_counter() - t0
    return PlannerResult(
        plan=best_plan,
        objective=best_obj,
        predicted=predicted,
        candidates=tuple(records),
        total_seconds=total,
        stats=PlannerStats(
            candidates_total=len(records),
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            total_seconds=total,
        ),
    )
