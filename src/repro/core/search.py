"""Cache-aware search engine behind Algorithm 1.

Algorithm 1 is a walk of the (ordering x micro-batch) candidate grid
with one Sec.-4.3 problem per candidate.  This engine returns that walk's
result (``spec_optimize`` in ``tests/core/ilp_spec.py`` is the plain
serial loop, one MILP per candidate, the tests compare against) without
its redundant work:

1. **dedup** — a candidate depends on the ordering only through its GPU
   *type* sequence, so candidates sharing ``(type sequence, mb_p,
   mb_d)`` are identical problems.  Each equivalence class is solved
   once and the solution fanned back out to every member (plans and
   simulations stay per-candidate: concrete device bindings can differ
   in link topology).
2. **shared memos** — one :class:`PredictionCache` serves every
   candidate's cost-model queries, and one memo of range tables every
   candidate's DP (:class:`~repro.core.ilp.RangeTable`).
3. **best-first under the incumbent** — candidates are solved in
   ascending order of a cheap admissible bound
   (:meth:`~repro.core.ilp.BitAssignmentILP.lower_bound`), each with the
   incumbent objective as the DP's cutoff: the DP optimum lower-bounds
   the simulated objective of its assignment, so a partial assignment
   that cannot end at or below the incumbent can neither win nor tie,
   and a candidate left with none is ``pruned``.

Pruning never changes the returned plan: the cutoff is admissible and
non-strict, and ties on the final objective are broken by the
candidate's enumeration index, exactly like a serial loop's
strict-improvement update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..hardware.cluster import Device
from ..sim.pipeline import PipelineResult
from .ilp import BitAssignmentILP, ILPSolution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .optimizer import LLMPQOptimizer, PlannerResult

__all__ = ["PlannerStats", "SearchEngine"]


@dataclass(frozen=True)
class PlannerStats:
    """Work accounting of one search-engine run (surfaced in the CLI and
    benchmark tables).

    ``solved`` counts candidates whose DP returned an assignment;
    ``pruned`` those the incumbent cut off whole — they provably cannot
    win.  ``cache_hits``/``cache_misses`` are the run's lookups in the
    shared :class:`~repro.cost.predictions.PredictionCache`: coefficient
    tables *and* every planner-side simulation.
    """

    candidates_total: int = 0
    unique_candidates: int = 0
    dedup_skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pruned: int = 0
    solved: int = 0
    infeasible: int = 0
    total_seconds: float = 0.0

    def merged(self, other: "PlannerStats") -> "PlannerStats":
        """Field-wise sum of two runs — used when one planner invocation
        performs several engine runs, e.g. the ``kv_bits="auto"`` level
        enumeration."""
        return PlannerStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        })

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
            "total_s": round(self.total_seconds, 3),
        }

    def describe(self) -> str:
        """One-line summary for the CLI."""
        work = (
            f"{self.candidates_total} candidates "
            f"({self.unique_candidates} unique, {self.dedup_skipped} dedup), "
            f"{self.solved} solved, {self.pruned} pruned by the incumbent"
            if self.unique_candidates  # else Algorithm 2: no DP was run
            else f"{self.candidates_total} orderings by bitwidth transfer, "
            f"no solver call"
        )
        return (
            f"search: {work}, "
            f"cache {self.cache_hits}/{self.cache_hits + self.cache_misses} hits, "
            f"{self.total_seconds:.1f}s"
        )


@dataclass
class _Unique:
    """One equivalence class of identical candidate problems."""

    key: tuple
    index: int  # grid enumeration index of the representative
    ordering: tuple[Device, ...]
    mb_p: int
    mb_d: int
    ilp: BitAssignmentILP
    members: list[tuple[int, tuple[Device, ...]]]
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


class SearchEngine:
    """Runs Algorithm 1's candidate search for one
    :class:`~repro.core.optimizer.LLMPQOptimizer`."""

    def __init__(self, optimizer: "LLMPQOptimizer") -> None:
        self.opt = optimizer
        self.workload = optimizer.workload
        self.config = optimizer.config
        self._incumbent = np.inf
        self._outcomes: dict[int, _Outcome] = {}
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
        """Record a solved representative; tighten the incumbent."""
        u.solution = sol
        if not sol.feasible:  # "infeasible", or "pruned" by the cutoff
            self._outcomes[u.index] = _Outcome(sol.status)
            return
        out = self._outcomes[u.index] = self._evaluate(u, u.ordering)
        if out.objective < self._incumbent:
            self._incumbent = out.objective

    # ------------------------------------------------------------------
    def prepare(self) -> float:
        """Dedup and bound the grid (once); returns the root bound — the
        lowest bound of any candidate, which no plan of this search can
        undercut."""
        if self._candidates is not None:
            return self._root_bound
        t_start = time.perf_counter()
        cache = self.opt.prediction_cache
        hits0, misses0 = cache.hits, cache.misses
        self._candidates = self._enumerate(self.opt.orderings())

        by_key: dict[tuple, _Unique] = {}
        for idx, ordering, mb_p, mb_d in self._candidates:
            key = (tuple(d.type_name for d in ordering), mb_p, mb_d)
            u = by_key.get(key)
            if u is None:
                ilp = self._make_ilp(ordering, mb_p, mb_d)
                u = by_key[key] = _Unique(
                    key=key, index=idx, ordering=ordering, mb_p=mb_p, mb_d=mb_d,
                    ilp=ilp, members=[(idx, ordering)], bound=ilp.lower_bound(),
                )
                self._uniques.append(u)
            else:
                u.members.append((idx, ordering))
        self._root_bound = min((u.bound for u in self._uniques), default=np.inf)
        self._prepared = PlannerStats(
            candidates_total=len(self._candidates),
            unique_candidates=len(self._uniques),
            dedup_skipped=len(self._candidates) - len(self._uniques),
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            total_seconds=time.perf_counter() - t_start,
        )
        return self._root_bound

    def run(self, incumbent: float = np.inf) -> "PlannerResult":
        """Full search: dedup -> best-first DP solves under the incumbent.

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
        self._incumbent = incumbent
        self._outcomes = {}
        for u in sorted(uniques, key=lambda u: (u.bound, u.index)):
            self._settle(u, u.ilp.solve(self._incumbent))

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
                    solve_seconds=u.solution.solve_seconds if idx == u.index else 0.0,
                )
                if out.status == "optimal" and (
                    out.objective < best_obj
                    or (out.objective == best_obj and idx < best_index)
                ):
                    best_obj, best_index = out.objective, idx
                    best_plan, best_pred = out.plan, out.predicted

        statuses = [self._outcomes[u.index].status for u in uniques]
        stats = self._prepared.merged(PlannerStats(
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            pruned=statuses.count("pruned"),
            solved=sum(u.solution.feasible for u in uniques),
            infeasible=statuses.count("infeasible"),
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
