"""Parallel, cache-aware search engine behind Algorithm 1.

Algorithm 1 is a walk of the (ordering x micro-batch) candidate grid
with one Sec.-4.3 MILP per candidate.  This engine returns that walk's
result (``spec_optimize`` in ``tests/core/ilp_spec.py`` is the plain
serial loop the tests compare against) without its redundant work:

1. **dedup** — a candidate ILP depends on the ordering only through its
   GPU *type* sequence, so candidates sharing ``(type sequence, mb_p,
   mb_d)`` are byte-identical problems.  Each equivalence class is
   solved once and the solution fanned back out to every member (plans
   and simulations stay per-candidate: concrete device bindings can
   differ in link topology).
2. **memoized coefficients** — one :class:`PredictionCache` is shared by
   all candidates, so each distinct ``(gpu type, bits, phase, mb, q,
   ctx)`` cost-model query is evaluated once per planner run instead of
   once per candidate.
3. **admissible bounds, best-first** — every unique candidate gets an LP
   relaxation lower bound (:func:`lp_lower_bound`).  Candidates are
   solved in ascending-bound order, so the incumbent gets tight early.
4. **incumbent pruning** — a candidate whose bound already exceeds the
   incumbent objective cannot contain the winner (LP bound <= MILP
   optimum <= simulated objective) and is skipped without a MILP solve.
5. **parallel solves** — remaining MILPs are dispatched to a
   ``ProcessPoolExecutor`` (``PlannerConfig.n_jobs``); each worker
   receives a pre-assembled, picklable :class:`AssembledILP` so solver
   output and state stay confined to the worker process.

Pruning never changes the returned plan: the bound is admissible, and
ties on the final objective are broken by the candidate's enumeration
index, exactly like a serial loop's strict-improvement update.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..hardware.cluster import Device
from ..sim.pipeline import PipelineResult, simulate_pipeline
from .ilp import (
    AssembledILP,
    BitAssignmentILP,
    ILPSolution,
    lp_lower_bound,
    solve_assembled,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .optimizer import LLMPQOptimizer, PlannerResult

__all__ = ["PlannerStats", "SearchEngine"]


@dataclass(frozen=True)
class PlannerStats:
    """Work accounting of one search-engine run (surfaced in the CLI and
    benchmark tables)."""

    candidates_total: int = 0
    unique_candidates: int = 0
    dedup_skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pruned: int = 0
    solved: int = 0
    infeasible: int = 0
    bound_seconds: float = 0.0
    solve_wall_seconds: float = 0.0
    solve_cpu_seconds: float = 0.0
    n_jobs: int = 1
    total_seconds: float = 0.0

    def merged(self, other: "PlannerStats") -> "PlannerStats":
        """Field-wise sum of two runs (``n_jobs`` keeps the maximum) —
        used when one planner invocation performs several engine runs,
        e.g. the ``kv_bits="auto"`` level enumeration."""
        return PlannerStats(
            candidates_total=self.candidates_total + other.candidates_total,
            unique_candidates=self.unique_candidates + other.unique_candidates,
            dedup_skipped=self.dedup_skipped + other.dedup_skipped,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            pruned=self.pruned + other.pruned,
            solved=self.solved + other.solved,
            infeasible=self.infeasible + other.infeasible,
            bound_seconds=self.bound_seconds + other.bound_seconds,
            solve_wall_seconds=self.solve_wall_seconds + other.solve_wall_seconds,
            solve_cpu_seconds=self.solve_cpu_seconds + other.solve_cpu_seconds,
            n_jobs=max(self.n_jobs, other.n_jobs),
            total_seconds=self.total_seconds + other.total_seconds,
        )

    def row(self) -> dict:
        """Flat dict for result tables / JSON."""
        return {
            "candidates": self.candidates_total,
            "unique": self.unique_candidates,
            "dedup_skipped": self.dedup_skipped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pruned": self.pruned,
            "solved": self.solved,
            "infeasible": self.infeasible,
            "bound_s": round(self.bound_seconds, 3),
            "solve_wall_s": round(self.solve_wall_seconds, 3),
            "solve_cpu_s": round(self.solve_cpu_seconds, 3),
            "n_jobs": self.n_jobs,
            "total_s": round(self.total_seconds, 3),
        }

    def describe(self) -> str:
        """One-line summary for the CLI."""
        return (
            f"search: {self.candidates_total} candidates "
            f"({self.unique_candidates} unique, {self.dedup_skipped} dedup), "
            f"{self.solved} solved, {self.pruned} pruned, "
            f"cache {self.cache_hits}/{self.cache_hits + self.cache_misses} hits, "
            f"jobs={self.n_jobs}, {self.total_seconds:.1f}s"
        )


@dataclass
class _Unique:
    """One equivalence class of byte-identical candidate ILPs."""

    key: tuple
    index: int  # grid enumeration index of the representative
    ordering: tuple[Device, ...]
    mb_p: int
    mb_d: int
    ilp: BitAssignmentILP
    members: list[tuple[int, tuple[Device, ...]]]
    problem: AssembledILP | None = None
    bound: float = -np.inf
    solution: ILPSolution | None = None


@dataclass
class _Outcome:
    """Evaluated representative: status + objective decomposition."""

    status: str
    objective: float = np.inf
    latency: float = np.inf
    quality: float = np.inf
    predicted: PipelineResult | None = None
    plan: object = None


def _solve_worker(payload: tuple[int, AssembledILP]) -> tuple[int, ILPSolution, float]:
    """Worker-process entry: solve one assembled MILP.

    Returns the unique-candidate id, the solution, and the worker's CPU
    seconds for the solve.
    """
    uid, prob = payload
    t0 = time.process_time()
    sol = solve_assembled(prob)
    return uid, sol, time.process_time() - t0


class SearchEngine:
    """Runs Algorithm 1's candidate search for one
    :class:`~repro.core.optimizer.LLMPQOptimizer`."""

    def __init__(self, optimizer: "LLMPQOptimizer") -> None:
        self.opt = optimizer
        self.cfg = optimizer.cfg
        self.cluster = optimizer.cluster
        self.workload = optimizer.workload
        self.config = optimizer.config
        self._incumbent = np.inf
        self._outcomes: dict[int, _Outcome] = {}
        self._milp_count = 0
        self._solve_cpu = 0.0

    # ------------------------------------------------------------------
    def _enumerate(
        self, orderings: Sequence[tuple[Device, ...]]
    ) -> list[tuple[int, tuple[Device, ...], int, int]]:
        """The candidate grid, with its enumeration index."""
        from .optimizer import _microbatch_pairs

        out = []
        idx = 0
        for ordering in orderings:
            pairs = _microbatch_pairs(self.workload, len(ordering), self.config)
            for mb_p, mb_d in pairs:
                out.append((idx, tuple(ordering), mb_p, mb_d))
                idx += 1
        return out

    def _make_ilp(
        self, ordering: Sequence[Device], mb_p: int, mb_d: int
    ) -> BitAssignmentILP:
        return BitAssignmentILP(
            cfg=self.cfg,
            workload=self.workload,
            devices=list(ordering),
            latency_model=self.opt.latency_model,
            indicator=self.opt.grouped_indicator,
            prefill_microbatch=mb_p,
            decode_microbatch=mb_d,
            bits=self.config.bits,
            group_size=self.config.group_size,
            theta=self.config.theta,
            kv_bits=self.config.kv_bits,
            time_limit=self.config.ilp_time_limit,
            prediction_cache=self.opt.prediction_cache,
        )

    def _settle(self, u: _Unique, sol: ILPSolution) -> None:
        """Record a solved representative; tighten the incumbent."""
        u.solution = sol
        if not sol.feasible:
            self._outcomes[u.index] = _Outcome("infeasible")
            return
        plan = self.opt.plan_from_solution(u.ordering, sol, u.ilp, u.mb_p, u.mb_d)
        pred = simulate_pipeline(
            plan, self.cluster, latency_model=self.opt.latency_model
        )
        if not pred.feasible:
            self._outcomes[u.index] = _Outcome(
                "oom", quality=sol.quality_term, predicted=pred, plan=plan
            )
            return
        obj = pred.total_latency + self.config.theta * sol.quality_term
        self._outcomes[u.index] = _Outcome(
            "optimal", obj, pred.total_latency, sol.quality_term, pred, plan
        )
        if obj < self._incumbent:
            self._incumbent = obj

    def _triage(self, u: _Unique) -> str | None:
        """Cheap pre-solve verdict: ``"infeasible"``, ``"pruned"``, or
        ``None`` when a MILP solve is required."""
        if u.problem is None:
            return "infeasible"
        if np.isposinf(u.bound):  # LP relaxation proved infeasibility
            return "infeasible"
        if self.config.prune and u.bound > self._incumbent:
            return "pruned"
        return None

    # ------------------------------------------------------------------
    def run(self) -> "PlannerResult":
        """Full search: dedup -> bound -> best-first solve with pruning."""
        from .optimizer import CandidateRecord, PlannerResult

        t_start = time.perf_counter()
        cache = self.opt.prediction_cache
        hits0, misses0 = cache.hits, cache.misses
        self._incumbent = np.inf
        self._outcomes = {}
        self._milp_count = 0
        self._solve_cpu = 0.0

        candidates = self._enumerate(self.opt.orderings())

        # -------- dedup into equivalence classes --------
        uniques: list[_Unique] = []
        by_key: dict[tuple, _Unique] = {}
        dedup_skipped = 0
        for idx, ordering, mb_p, mb_d in candidates:
            key = (tuple(d.type_name for d in ordering), mb_p, mb_d)
            u = by_key.get(key) if self.config.dedup else None
            if u is None:
                u = _Unique(
                    key=key, index=idx, ordering=ordering, mb_p=mb_p, mb_d=mb_d,
                    ilp=self._make_ilp(ordering, mb_p, mb_d),
                    members=[(idx, ordering)],
                )
                if self.config.dedup:
                    by_key[key] = u
                uniques.append(u)
            else:
                u.members.append((idx, ordering))
                dedup_skipped += 1

        # -------- assemble + admissible lower bounds --------
        t_bound = time.perf_counter()
        for u in uniques:
            u.problem = u.ilp.assemble()
            if u.problem is not None and self.config.prune:
                u.bound = lp_lower_bound(u.problem)
        bound_seconds = time.perf_counter() - t_bound

        # -------- best-first solve with incumbent pruning --------
        order = sorted(uniques, key=lambda u: (u.bound, u.index))
        t_solve = time.perf_counter()
        if self.config.n_jobs <= 1 or len(order) <= 1:
            for u in order:
                verdict = self._triage(u)
                if verdict is not None:
                    self._outcomes[u.index] = _Outcome(verdict)
                    continue
                t0 = time.process_time()
                sol = solve_assembled(u.problem)
                self._solve_cpu += time.process_time() - t0
                self._milp_count += 1
                self._settle(u, sol)
        else:
            self._solve_parallel(order)
        solve_wall = time.perf_counter() - t_solve

        # -------- fan results back out to every candidate --------
        records: list[CandidateRecord | None] = [None] * len(candidates)
        best_obj = np.inf
        best_index = len(candidates)
        best_plan = None
        best_pred: PipelineResult | None = None
        for u in uniques:
            rep = self._outcomes[u.index]
            for idx, ordering in u.members:
                out = rep
                if rep.status == "optimal" and idx != u.index:
                    # same ILP solution, but concrete devices (and thus
                    # link topology) may differ: re-materialize + re-simulate
                    plan = self.opt.plan_from_solution(
                        ordering, u.solution, u.ilp, u.mb_p, u.mb_d
                    )
                    pred = simulate_pipeline(
                        plan, self.cluster, latency_model=self.opt.latency_model
                    )
                    if not pred.feasible:
                        out = _Outcome(
                            "oom", quality=u.solution.quality_term,
                            predicted=pred, plan=plan,
                        )
                    else:
                        lat_v = pred.total_latency
                        out = _Outcome(
                            "optimal",
                            lat_v + self.config.theta * u.solution.quality_term,
                            lat_v, u.solution.quality_term, pred, plan,
                        )
                records[idx] = CandidateRecord(
                    ordering=tuple(d.type_name for d in ordering),
                    prefill_microbatch=u.mb_p,
                    decode_microbatch=u.mb_d,
                    status=out.status,
                    objective=out.objective,
                    latency=out.latency,
                    quality=out.quality,
                    solve_seconds=(
                        u.solution.solve_seconds
                        if (u.solution is not None and idx == u.index)
                        else 0.0
                    ),
                )
                if out.status == "optimal" and (
                    out.objective < best_obj
                    or (out.objective == best_obj and idx < best_index)
                ):
                    best_obj, best_index = out.objective, idx
                    best_plan, best_pred = out.plan, out.predicted

        total = time.perf_counter() - t_start
        statuses = [self._outcomes[u.index].status for u in uniques]
        stats = PlannerStats(
            candidates_total=len(candidates),
            unique_candidates=len(uniques),
            dedup_skipped=dedup_skipped,
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            pruned=statuses.count("pruned"),
            solved=self._milp_count,
            infeasible=statuses.count("infeasible"),
            bound_seconds=bound_seconds,
            solve_wall_seconds=solve_wall,
            solve_cpu_seconds=self._solve_cpu,
            n_jobs=self.config.n_jobs,
            total_seconds=total,
        )
        return PlannerResult(
            plan=best_plan,
            objective=best_obj if best_plan is not None else np.inf,
            predicted=best_pred,
            candidates=tuple(records),
            total_seconds=total,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _solve_parallel(self, order: list[_Unique]) -> None:
        """Dispatch MILP solves to worker processes, re-checking the prune
        bound against the live incumbent at submit time."""
        import multiprocessing as mp

        queue = list(order)
        by_uid = {id(u): u for u in queue}
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        with ProcessPoolExecutor(
            max_workers=self.config.n_jobs, mp_context=ctx
        ) as pool:
            in_flight: dict = {}

            def submit_next() -> bool:
                while queue:
                    u = queue.pop(0)
                    verdict = self._triage(u)
                    if verdict is not None:
                        self._outcomes[u.index] = _Outcome(verdict)
                        continue
                    fut = pool.submit(_solve_worker, (id(u), u.problem))
                    in_flight[fut] = u
                    return True
                return False

            for _ in range(self.config.n_jobs):
                if not submit_next():
                    break
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for fut in done:
                    u = in_flight.pop(fut)
                    uid, sol, cpu = fut.result()
                    assert by_uid[uid] is u
                    self._solve_cpu += cpu
                    self._milp_count += 1
                    self._settle(u, sol)
                for _ in range(len(done)):
                    if not submit_next():
                        break
