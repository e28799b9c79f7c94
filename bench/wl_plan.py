"""``plan_hetero``: the operator-facing cost of the paper's assigner.

Five fixed planning cases cover Algorithm 1 (exact ILP search), the
KV-bitwidth search wrapped around it, and Algorithm 2 (the heuristic).
Latency models are fitted in set-up with the planner's own default
profile seed: the MILP's branch-and-bound path is chaotic in the fitted
coefficients (profile seed 2 takes 2.2x as long on the cluster-3 case
as seeds 0, 1 and 3), so ``--seed`` only draws the order in which the
cases are planned and the work stays comparable across seeds.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import api as core_api
from repro.core import ilp, search
from repro.core.optimizer import LLMPQOptimizer
from repro.cost.profiler import build_latency_model
from repro.hardware import make_cluster, paper_cluster
from repro.models import get_model
from repro.workload import DEFAULT_WORKLOAD, SHORT_PROMPT_WORKLOAD, Workload

from .harness import Outcome, steady

#: search-space knobs shared by every case (ISSUE 11)
_SEARCH = dict(n_jobs=1, prefill_mb_cap=8, decode_mb_candidates=(8, 32))

THREE_NODE = [("P100-12G", 2), ("V100-32G", 2), ("A100-40G", 2)]


#: the cheapest exact case of each size; set-up plans it once to warm up
WARM_UP = ("c4-opt30b-short", "mini-opt13b")


def _cases(scale: float) -> list[tuple]:
    """(case id, model, cluster, workload, planner keywords).

    Below full size (the self-test and the cross-check panel) the same
    two algorithms run on opt-13b over one T4 and one V100."""
    if scale < 1.0:
        mini = make_cluster([("T4-16G", 1), ("V100-32G", 1)], name="mini")
        w = Workload(prompt_len=128, gen_len=16, global_batch=8)
        return [
            ("mini-opt13b", "opt-13b", mini, w, dict(theta=1.0, group_size=2)),
            ("mini-opt13b-heur", "opt-13b", mini, w,
             dict(theta=1.0, group_size=10, use_heuristic=True)),
        ]
    return [
        ("c3-opt30b", "opt-30b", paper_cluster(3), DEFAULT_WORKLOAD,
         dict(theta=1.0, group_size=2)),
        ("c4-opt30b-short", "opt-30b", paper_cluster(4), SHORT_PROMPT_WORKLOAD,
         dict(theta=1.0, group_size=2)),
        ("c9-opt30b-kvauto", "opt-30b", paper_cluster(9), DEFAULT_WORKLOAD,
         dict(theta=1.0, group_size=2, kv_bits="auto")),
        ("c11-bloom176b-heur", "bloom-176b", paper_cluster(11), DEFAULT_WORKLOAD,
         dict(theta=10.0, group_size=4, use_heuristic=True)),
        ("3node-opt66b", "opt-66b", make_cluster(THREE_NODE, name="three-node"),
         DEFAULT_WORKLOAD, dict(theta=10.0, group_size=4)),
    ]


class PlanHetero:
    name = "plan_hetero"
    FAMILY = "plan"
    CONTAINERS = {"core.search"}

    def __init__(self, seed: int, scale: float, heuristic: bool = True) -> None:
        self.seed = seed
        cases = [
            c for c in _cases(scale)
            if heuristic or not c[4].get("use_heuristic")
        ]
        order = np.random.default_rng(seed).permutation(len(cases))
        self.cases = [cases[i] for i in order]
        self.models: dict[tuple, object] = {}
        self.fit_s = 0.0
        self.rec = None
        self.last: dict[str, object] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        self.models = {}
        self.fit_s = 0.0
        for _cid, model, cluster, _w, _kw in self.cases:
            types = tuple(sorted({d.type_name for d in cluster.devices}))
            if (model, types) not in self.models:
                t0 = time.perf_counter()
                self.models[(model, types)] = build_latency_model(
                    types, get_model(model)
                )
                self.fit_s += time.perf_counter() - t0
        # warm-up: the cheapest exact case loads scipy's HiGHS bindings
        # and the planner's lazy imports
        self._plan(next(c for c in self.cases if c[0] in WARM_UP))

    def teardown(self) -> None:
        pass

    def _plan(self, case):
        cid, model, cluster, workload, kw = case
        types = tuple(sorted({d.type_name for d in cluster.devices}))
        if self.rec is not None:
            self.rec.rid = cid
        return core_api.plan_llmpq(
            model, cluster, workload,
            latency_model=self.models[(model, types)], **_SEARCH, **kw,
        )

    # -- timed ----------------------------------------------------------
    def run_pass(self) -> dict:
        out = {}
        for case in self.cases:
            res = self._plan(case)
            out[case[0]] = res
        self.last = out
        cases = {cid: res.total_seconds for cid, res in out.items()}
        return {"wall": sum(cases.values()), "cases": cases}

    def finish(self, passes: list[dict]) -> dict[str, float]:
        # per case, the steady time over the passes; the cases add up
        wall = sum(
            steady([p["cases"][cid] for p in passes], "lower")
            for cid in passes[0]["cases"]
        )
        objective = sum(res.objective for res in self.last.values())
        return {"plan_wall_s": wall, "plan_objective_sum": objective}

    # -- correctness ----------------------------------------------------
    def check(self, out: Outcome, passes: list[dict]) -> None:
        out.attempted += len(self.cases) * len(passes)
        bad = [
            cid for cid, res in self.last.items()
            if not res.feasible or not math.isfinite(res.objective)
            or res.predicted is None or not res.predicted.feasible
        ]
        out.fail(len(bad), f"infeasible plan for {bad}")

    # -- traced ---------------------------------------------------------
    def instrument(self, rec) -> None:
        self.rec = rec
        rec.wrap(search.SearchEngine, "run", "core.search")
        rec.wrap(LLMPQOptimizer, "orderings", "core.enumerate")
        rec.wrap(search.SearchEngine, "_enumerate", "core.enumerate")
        rec.wrap(search.SearchEngine, "_make_ilp", "core.enumerate")
        rec.wrap(ilp.BitAssignmentILP, "assemble", "core.ilp_assemble")
        rec.wrap(ilp, "planner_time_tables", "cost.time_tables")
        rec.wrap(search, "lp_lower_bound", "core.lp_bound")
        rec.wrap(search, "solve_assembled", "core.milp_solve")
        rec.wrap(search.SearchEngine, "_settle", "core.settle")
        rec.wrap(LLMPQOptimizer, "_refine_stage_kv", "core.settle")
        rec.wrap(core_api, "heuristic_optimize", "core.heuristic")

    def layers(self, rec, traced: list[dict]) -> dict[str, float]:
        n = max(len(traced), 1)
        stats = [r.stats for r in self.last.values() if r.stats is not None]
        unique = sum(s.unique_candidates for s in stats)
        pruned = sum(s.pruned for s in stats)
        hits = sum(s.cache_hits for s in stats)
        misses = sum(s.cache_misses for s in stats)
        return {
            "core.enumerate_s": rec.self_s("core.enumerate") / n,
            "core.ilp_assemble_s": rec.self_s("core.ilp_assemble") / n,
            "core.lp_bound_s": rec.self_s("core.lp_bound") / n,
            "core.milp_solve_s": rec.self_s("core.milp_solve") / n,
            "core.settle_s": rec.self_s("core.settle") / n,
            "core.heuristic_s": rec.self_s("core.heuristic") / n,
            "core.candidates": sum(s.candidates_total for s in stats),
            "core.unique": unique,
            "core.pruned": pruned,
            "core.solved": sum(s.solved for s in stats),
            "core.infeasible": sum(s.infeasible for s in stats),
            "core.prune_ratio": pruned / unique if unique else 0.0,
            "cost.latency_fit_s": self.fit_s,
            "cost.pred_cache_hits": hits,
            "cost.pred_cache_misses": misses,
            "cost.pred_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cost.time_tables_s": rec.self_s("cost.time_tables") / n,
        }
