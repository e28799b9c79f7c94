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
   A candidate that is solved takes the incumbent along as an objective
   cutoff row (:func:`~repro.core.ilp.solve_assembled`): by the same
   chain no assignment above it can win, so HiGHS proves "nothing under
   the incumbent" instead of the optimality of a loser.
5. **parallel solves** — remaining MILPs are dispatched to a
   ``ProcessPoolExecutor`` (``PlannerConfig.n_jobs``); each worker
   receives a pre-assembled, picklable :class:`AssembledILP` so solver
   output and state stay confined to the worker process.

Pruning never changes the returned plan: bound and cutoff are admissible
and non-strict, and ties on the final objective are broken by the
candidate's enumeration index, exactly like a serial loop's
strict-improvement update.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..hardware.cluster import Device
from ..sim.pipeline import PipelineResult
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
    benchmark tables).

    ``solved`` counts MILPs that returned an assignment; ``pruned`` every
    unique candidate that provably cannot win — skipped on its LP bound
    or, for ``cut`` of them, rejected inside the MILP by the incumbent
    cutoff row.  ``cache_hits``/``cache_misses`` are the run's lookups
    in the shared :class:`~repro.cost.predictions.PredictionCache`:
    coefficient tables *and* every planner-side simulation.
    """

    candidates_total: int = 0
    unique_candidates: int = 0
    dedup_skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pruned: int = 0
    cut: int = 0
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
        total = {
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        }
        total["n_jobs"] = max(self.n_jobs, other.n_jobs)
        return PlannerStats(**total)

    def row(self) -> dict:
        """Flat dict for result tables / JSON."""
        return {
            "candidates": self.candidates_total,
            "unique": self.unique_candidates,
            "dedup_skipped": self.dedup_skipped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pruned": self.pruned,
            "cut": self.cut,
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
        work = (
            f"{self.candidates_total} candidates "
            f"({self.unique_candidates} unique, {self.dedup_skipped} dedup), "
            f"{self.solved} solved, {self.pruned} pruned "
            f"({self.cut} by MILP cutoff)"
            if self.unique_candidates  # else Algorithm 2: no MILP was built
            else f"{self.candidates_total} orderings by bitwidth transfer, "
            f"no solver call"
        )
        return (
            f"search: {work}, "
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


def _solve_worker(
    payload: tuple[int, AssembledILP, float]
) -> tuple[int, ILPSolution, float]:
    """Worker-process entry: solve one assembled MILP under the cutoff
    known at submit time.

    Returns the unique-candidate id, the solution, and the worker's CPU
    seconds for the solve.
    """
    uid, prob, cutoff = payload
    t0 = time.process_time()
    sol = solve_assembled(prob, cutoff)
    return uid, sol, time.process_time() - t0


class SearchEngine:
    """Runs Algorithm 1's candidate search for one
    :class:`~repro.core.optimizer.LLMPQOptimizer`."""

    def __init__(self, optimizer: "LLMPQOptimizer") -> None:
        self.opt = optimizer
        self.workload = optimizer.workload
        self.config = optimizer.config
        self._incumbent = np.inf
        self._outcomes: dict[int, _Outcome] = {}
        self._solve_cpu = 0.0
        # filled once by prepare(): the grid, its equivalence classes,
        # the root bound, and what building them cost
        self._candidates: list | None = None
        self._uniques: list[_Unique] = []
        self._root_bound = np.inf
        self._prepared = PlannerStats()

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
        return self.opt.build_ilp(ordering, mb_p, mb_d)

    def _evaluate(self, u: _Unique, ordering: tuple[Device, ...]) -> _Outcome:
        """Materialize ``u``'s solution on one member's concrete devices
        (link topology can differ between members) and simulate it."""
        sol = u.solution
        plan = self.opt.plan_from_solution(ordering, sol, u.ilp, u.mb_p, u.mb_d)
        pred = self.opt.simulate(plan)
        if not pred.feasible:
            return _Outcome("oom", quality=sol.quality_term, predicted=pred, plan=plan)
        lat = pred.total_latency
        return _Outcome(
            "optimal", lat + self.config.theta * sol.quality_term, lat,
            sol.quality_term, pred, plan,
        )

    def _settle(self, u: _Unique, sol: ILPSolution) -> None:
        """Record a solved representative; tighten the incumbent (which
        stays ``inf`` — no bound test, no cutoff row — with pruning off)."""
        u.solution = sol
        if not sol.feasible:  # "infeasible", or "pruned" by the cutoff row
            self._outcomes[u.index] = _Outcome(sol.status)
            return
        out = self._outcomes[u.index] = self._evaluate(u, u.ordering)
        if self.config.prune and out.objective < self._incumbent:
            self._incumbent = out.objective

    def _triage(self, u: _Unique) -> str | None:
        """Cheap pre-solve verdict: ``"infeasible"``, ``"pruned"``, or
        ``None`` when a MILP solve is required."""
        if np.isposinf(u.bound):  # no capacity, or infeasible LP relaxation
            return "infeasible"
        if u.bound > self._incumbent:
            return "pruned"
        return None

    # ------------------------------------------------------------------
    def prepare(self) -> float:
        """Dedup, assemble and bound the grid (once); returns the root
        bound — the lowest LP bound of any candidate, which no plan of
        this search can undercut (``-inf`` when bounds are off)."""
        if self._candidates is not None:
            return self._root_bound
        t_start = time.perf_counter()
        cache = self.opt.prediction_cache
        hits0, misses0 = cache.hits, cache.misses
        self._candidates = self._enumerate(self.opt.orderings())

        # -------- dedup into equivalence classes --------
        by_key: dict[tuple, _Unique] = {}
        for idx, ordering, mb_p, mb_d in self._candidates:
            key = (tuple(d.type_name for d in ordering), mb_p, mb_d)
            u = by_key.get(key) if self.config.dedup else None
            if u is None:
                u = by_key[key] = _Unique(
                    key=key, index=idx, ordering=ordering, mb_p=mb_p, mb_d=mb_d,
                    ilp=self._make_ilp(ordering, mb_p, mb_d),
                    members=[(idx, ordering)],
                )
                self._uniques.append(u)
            else:
                u.members.append((idx, ordering))

        # -------- assemble + admissible lower bounds --------
        t_bound = time.perf_counter()
        for u in self._uniques:
            u.problem = u.ilp.assemble()
            if u.problem is None:
                u.bound = np.inf
            elif self.config.prune:
                u.bound = lp_lower_bound(u.problem)
        self._root_bound = min((u.bound for u in self._uniques), default=np.inf)
        now = time.perf_counter()
        self._prepared = PlannerStats(
            candidates_total=len(self._candidates),
            unique_candidates=len(self._uniques),
            dedup_skipped=len(self._candidates) - len(self._uniques),
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            bound_seconds=now - t_bound,
            n_jobs=self.config.n_jobs,
            total_seconds=now - t_start,
        )
        return self._root_bound

    def run(self, incumbent: float = np.inf) -> "PlannerResult":
        """Full search: dedup -> bound -> best-first solve with pruning.

        ``incumbent`` seeds the search with an objective already in hand
        (the KV-level search passes the best other level's): candidates
        that cannot reach it are pruned, everything at or below it is
        found exactly as without the seed.
        """
        from .optimizer import CandidateRecord, PlannerResult

        self.prepare()
        t_start = time.perf_counter()
        cache = self.opt.prediction_cache
        hits0, misses0 = cache.hits, cache.misses
        candidates, uniques = self._candidates, self._uniques
        self._incumbent = incumbent if self.config.prune else np.inf
        self._outcomes = {}
        self._solve_cpu = 0.0
        for u in uniques:
            u.solution = None

        # -------- best-first solve with incumbent pruning --------
        order = sorted(uniques, key=lambda u: (u.bound, u.index))
        if self.config.n_jobs <= 1 or len(order) <= 1:
            for u in order:
                verdict = self._triage(u)
                if verdict is not None:
                    self._outcomes[u.index] = _Outcome(verdict)
                    continue
                t0 = time.process_time()
                sol = solve_assembled(u.problem, self._incumbent)
                self._solve_cpu += time.process_time() - t0
                self._settle(u, sol)
        else:
            self._solve_parallel(order)
        solve_wall = time.perf_counter() - t_start

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
                    out = self._evaluate(u, ordering)
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

        statuses = [self._outcomes[u.index].status for u in uniques]
        solutions = [u.solution for u in uniques if u.solution is not None]
        stats = self._prepared.merged(PlannerStats(
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            pruned=statuses.count("pruned"),
            cut=sum(sol.status == "pruned" for sol in solutions),
            solved=sum(sol.feasible for sol in solutions),
            infeasible=statuses.count("infeasible"),
            solve_wall_seconds=solve_wall,
            solve_cpu_seconds=self._solve_cpu,
            total_seconds=time.perf_counter() - t_start,
        ))
        return PlannerResult(
            plan=best_plan,
            objective=best_obj if best_plan is not None else np.inf,
            predicted=best_pred,
            candidates=tuple(records),
            total_seconds=stats.total_seconds,
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
                    fut = pool.submit(
                        _solve_worker, (id(u), u.problem, self._incumbent)
                    )
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
                    self._settle(u, sol)
                for _ in range(len(done)):
                    if not submit_next():
                        break
