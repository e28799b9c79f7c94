"""Algorithm 1: best inference execution plan.

Enumerates the pruned joint search space —

* **device orderings** (Sec. 4.3's ``GetDeviceOrder``): by default the
  permutations of contiguous same-type *blocks* (same-type devices are
  interchangeable and keeping them adjacent preserves fast intra-node
  links); ``ordering_mode="full"`` explores every distinct type sequence;
* **(prefill, decode) micro-batch pairs** (Optimization #1): prefill
  micro-batches are enumerated over powers of two in ``[1, xi]``; decode
  micro-batches evenly split the global batch across stages, because
  decode is memory-bound and bigger micro-batches amortize weight
  streaming while prefill prefers small ones to shrink pipeline bubbles —

and solves the Sec.-4.3 ILP for each candidate, keeping the plan with the
best ``latency + theta * quality`` objective as evaluated by the cost
models.

Candidate evaluation runs on the :mod:`repro.core.search` engine:
identical candidates are deduplicated, cost-model queries and range
tables are memoized per run, and candidates are solved best-first by the
exact DP under the incumbent.  The result it must match — the plain
serial walk of the same grid, one MILP per candidate — is
``spec_optimize`` in ``tests/core/ilp_spec.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cost.latency import LatencyModel
from ..cost.predictions import PredictionCache
from ..cost.profiler import build_latency_model
from ..cost.stagecosts import StageCostModel, stage_row
from ..hardware.cluster import Cluster, Device
from ..hardware.gpu import SUPPORTED_BITS
from ..models.registry import get_model
from ..quant.indicator import (
    IndicatorTable,
    synthetic_indicator,
    synthetic_kv_indicator,
)
from ..sim.pipeline import (
    PipelineResult,
    PipelineTotals,
    compose_pipeline,
    simulate_pipeline,
)
from ..workload.spec import Workload
from .ilp import BitAssignmentILP, ILPSolution
from .plan import KV_BITS_CHOICES, ExecutionPlan, StagePlan
from .search import PlannerStats

#: a candidate plan as the planner scores it: per stage, its device, layer
#: bitwidths and KV bitwidth, in pipeline order
Stages = tuple[tuple[Device, tuple[int, ...], int], ...]

__all__ = [
    "PlannerConfig",
    "CandidateRecord",
    "PlannerResult",
    "PlannerStats",
    "LLMPQOptimizer",
]


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs of Algorithm 1."""

    bits: tuple[int, ...] = (3, 4, 8, 16)
    theta: float = 1.0
    group_size: int = 1
    ordering_mode: str = "blocks"  # "blocks" | "full"
    max_orderings: int = 24
    prefill_mb_cap: int | None = None  # xi; default: global_batch
    decode_mb_candidates: tuple[int, ...] | None = None
    #: KV-cache bitwidth: 16 (fp16 baseline), 8 or 4 (uniform quantized
    #: KV priced into the ILP's memory *and* time tables), or ``"auto"``
    #: — enumerate the uniform levels, pick the best under
    #: ``objective + theta * kv_error``, then refine per stage
    kv_bits: int | str = 16

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if not self.theta >= 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if not self.bits or not set(self.bits) <= set(SUPPORTED_BITS):
            raise ValueError(
                f"bits must be a non-empty subset of {SUPPORTED_BITS}, "
                f"got {tuple(self.bits)}"
            )
        if self.max_orderings < 1:
            raise ValueError(f"max_orderings must be >= 1, got {self.max_orderings}")
        if self.prefill_mb_cap is not None and self.prefill_mb_cap < 1:
            raise ValueError(f"prefill_mb_cap must be >= 1, got {self.prefill_mb_cap}")
        mbs = self.decode_mb_candidates
        if mbs is not None and (not mbs or min(mbs) < 1):
            raise ValueError(
                f"decode_mb_candidates must be non-empty and >= 1, got {tuple(mbs)}"
            )


@dataclass(frozen=True)
class CandidateRecord:
    """One (ordering, micro-batch pair) candidate's outcome."""

    ordering: tuple[str, ...]
    prefill_microbatch: int
    decode_microbatch: int
    status: str
    objective: float
    latency: float
    quality: float
    solve_seconds: float


@dataclass(frozen=True)
class PlannerResult:
    """Best plan plus the full exploration record."""

    plan: ExecutionPlan | None
    objective: float
    predicted: PipelineResult | None
    candidates: tuple[CandidateRecord, ...]
    total_seconds: float
    stats: PlannerStats | None = None

    @property
    def feasible(self) -> bool:
        """Whether any candidate produced a servable plan."""
        return self.plan is not None


def _block_orderings(cluster: Cluster) -> list[tuple[Device, ...]]:
    """Permutations of same-type device blocks."""
    import itertools

    by_type: dict[str, list[Device]] = {}
    for d in cluster.devices:
        by_type.setdefault(d.type_name, []).append(d)
    out = []
    for perm in itertools.permutations(sorted(by_type)):
        ordering: list[Device] = []
        for t in perm:
            ordering.extend(by_type[t])
        out.append(tuple(ordering))
    return out


def _microbatch_pairs(
    workload: Workload, n_devices: int, cfg: PlannerConfig
) -> list[tuple[int, int]]:
    b = workload.global_batch
    xi = b if cfg.prefill_mb_cap is None else cfg.prefill_mb_cap
    prefill = [m for m in (1, 2, 4, 8, 16, 32, 64) if m <= min(b, xi)]
    if cfg.decode_mb_candidates is not None:
        decode = [m for m in cfg.decode_mb_candidates if m <= b]
    else:
        even = max(1, -(-b // n_devices))
        decode = sorted({even, min(2 * even, b), b})
    return [(p, d) for p in prefill for d in decode]


class LLMPQOptimizer:
    """The offline assigner: cost models + indicator + ILP search."""

    def __init__(
        self,
        model_name: str,
        cluster: Cluster,
        workload: Workload,
        *,
        config: PlannerConfig | None = None,
        latency_model: LatencyModel | None = None,
        indicator: IndicatorTable | None = None,
        profile_seed: int = 0,
    ) -> None:
        self.model_name = model_name
        self.cfg = get_model(model_name)
        self.cluster = cluster
        self.workload = workload
        self.config = config or PlannerConfig()
        self.latency_model = latency_model or build_latency_model(
            [d.type_name for d in cluster.devices], self.cfg, seed=profile_seed
        )
        base_indicator = indicator or synthetic_indicator(
            self.cfg, bits=self.config.bits
        )
        self.indicator = base_indicator.normalized()
        # hoisted per-run state shared by every candidate: the grouped
        # omega table (identical for all candidates), the cost-model
        # prediction memo (stage rows included), the DP's range tables
        # (one per layer-bytes row, so per KV level) and Algorithm 2's
        # per-plan evaluations
        self.grouped_indicator = self.indicator.grouped(self.config.group_size)
        self.prediction_cache = PredictionCache(self.latency_model)
        self.range_tables: dict = {}
        self.evaluations: dict = {}
        kv = self.config.kv_bits
        if kv != "auto" and kv not in KV_BITS_CHOICES:
            raise ValueError(
                f"kv_bits must be one of {KV_BITS_CHOICES} or 'auto', got {kv!r}"
            )
        # per-layer KV quantization error, same normalization contract as
        # the weight indicator — the quality term of the kv_bits choice
        self.kv_indicator = synthetic_kv_indicator(self.cfg).normalized()

    # ------------------------------------------------------------------
    def orderings(self) -> list[tuple[Device, ...]]:
        """Candidate pipeline device orderings under the configured mode."""
        if self.config.ordering_mode == "full":
            return list(
                self.cluster.distinct_orderings(limit=self.config.max_orderings)
            )
        if self.config.ordering_mode == "blocks":
            out = _block_orderings(self.cluster)
            return out[: self.config.max_orderings]
        raise ValueError(f"unknown ordering_mode {self.config.ordering_mode!r}")

    def build_ilp(
        self, ordering: Sequence[Device], mb_p: int, mb_d: int
    ) -> BitAssignmentILP:
        """One candidate's Sec.-4.3 problem under this planner's knobs, its
        coefficients and range tables read through the run's memos."""
        return BitAssignmentILP(
            cfg=self.cfg,
            workload=self.workload,
            devices=list(ordering),
            latency_model=self.latency_model,
            indicator=self.grouped_indicator,
            prefill_microbatch=mb_p,
            decode_microbatch=mb_d,
            bits=self.config.bits,
            group_size=self.config.group_size,
            theta=self.config.theta,
            kv_bits=self.config.kv_bits,
            prediction_cache=self.prediction_cache,
            range_tables=self.range_tables,
        )

    def simulate(self, plan: ExecutionPlan) -> PipelineResult:
        """The planner's view of ``plan``: the pipeline simulator priced
        by the fitted latency model through the run's shared memo, so a
        stage scored or simulated before is one row hit (same floats as
        ``simulate_pipeline(..., latency_model=...)``)."""
        scm = StageCostModel(
            plan, self.cluster, prediction_cache=self.prediction_cache
        )
        return simulate_pipeline(plan, self.cluster, cost_model=scm)

    def score(self, stages: Stages, mb_p: int, mb_d: int) -> PipelineTotals:
        """The planner's view of a candidate without building it: the
        pipeline composed from each stage's :func:`stage_row`, memoised
        for the run in the prediction cache under all it reads, so a
        candidate that differs from a scored one in a few stages prices
        only those, and :meth:`simulate` of a scored plan reads the same
        rows.  Equals :meth:`simulate` of the same plan bit for bit."""
        cache, cluster, n = self.prediction_cache, self.cluster, len(stages)
        rows = [
            stage_row(
                cache, self.cfg, self.workload, device.spec,
                cluster.link_between(device, stages[(j + 1) % n][0]), bits, kv,
                first=j == 0, last=j == n - 1,
                prefill_microbatch=mb_p, decode_microbatch=mb_d,
            )
            for j, (device, bits, kv) in enumerate(stages)
        ]
        return compose_pipeline(
            rows, [device.spec.memory_bytes for device, _, _ in stages],
            global_batch=self.workload.global_batch,
            prefill_microbatch=mb_p,
            decode_microbatch=mb_d,
        )

    def plan_from_solution(
        self,
        ordering: Sequence[Device],
        sol: ILPSolution,
        ilp: BitAssignmentILP,
        mb_p: int,
        mb_d: int,
    ) -> ExecutionPlan:
        """Materialize an ILP solution into an executable plan."""
        dev_per_layer, bits_per_layer = ilp.expand_groups(sol)
        stages = []
        for j, dev in enumerate(ordering):
            bits = tuple(
                b for d, b in zip(dev_per_layer, bits_per_layer) if d == j
            )
            if bits:
                stages.append(
                    StagePlan(device=dev, layer_bits=bits, kv_bits=ilp.kv_bits)
                )
        return ExecutionPlan(
            model_name=self.model_name,
            stages=tuple(stages),
            prefill_microbatch=mb_p,
            decode_microbatch=mb_d,
            workload=self.workload,
            meta={
                "theta": self.config.theta,
                "group_size": self.config.group_size,
            },
        )

    # ------------------------------------------------------------------
    def optimize(self) -> PlannerResult:
        """Run the full Algorithm-1 search on the
        :class:`~repro.core.search.SearchEngine` (dedup + memoized cost
        queries and range tables + best-first DP solves under the
        incumbent).

        ``result.stats`` records the work the engine saved.

        With ``kv_bits="auto"`` the search additionally chooses KV-cache
        bitwidths: the uniform levels are enumerated (each its own full
        Algorithm-1 run at that level's prices), ranked by
        ``objective + theta * kv_error``, and the winner refined per
        stage (see :meth:`_refine_stage_kv`).
        """
        from .search import SearchEngine

        if self.config.kv_bits == "auto":
            return self._optimize_auto_kv(SearchEngine)
        return SearchEngine(self).run()

    # ------------------------------------------------------------------
    def _kv_penalty(self, plan: ExecutionPlan, levels: Sequence[int]) -> float:
        """Summed per-layer KV-error omega under per-stage KV levels."""
        cols = {b: self.kv_indicator.column(b) for b in KV_BITS_CHOICES}
        total, off = 0.0, 0
        for st, lv in zip(plan.stages, levels):
            total += float(cols[lv][off : off + st.num_layers].sum())
            off += st.num_layers
        return total

    def _refine_stage_kv(
        self, res: PlannerResult
    ) -> tuple[ExecutionPlan, PipelineResult, float]:
        """Per-stage KV refinement of a uniform-KV winner.

        Scores every per-stage level assignment (exhaustive for shallow
        pipelines, coordinate descent otherwise) from the run's per-stage
        rows (:meth:`score`) — memory fits are re-checked at the variant's
        per-stage KV footprint — plus ``theta`` times the KV-error penalty
        of the levels; only the winner is built and simulated.  Returns
        the best variant, its simulation, and its objective on the same
        ``latency + theta * weight_quality`` scale as every other
        :class:`PlannerResult`.
        """
        import itertools

        plan, theta = res.plan, self.config.theta
        n = plan.num_stages
        quality_part = res.objective - res.predicted.total_latency
        held = [(st.device, st.layer_bits) for st in plan.stages]
        mb_p, mb_d = plan.prefill_microbatch, plan.decode_microbatch

        def score(levels: tuple[int, ...]) -> float:
            stages = tuple((d, bits, kv) for (d, bits), kv in zip(held, levels))
            lat = self.score(stages, mb_p, mb_d).total_latency
            return lat + quality_part + theta * self._kv_penalty(plan, levels)

        best_levels = plan.kv_bits_per_stage
        best_s = score(best_levels)
        if n <= 4:
            for levels in itertools.product(KV_BITS_CHOICES, repeat=n):
                if levels == best_levels:
                    continue
                s = score(levels)
                if s < best_s:
                    best_s, best_levels = s, levels
        else:
            improved = True
            while improved:
                improved = False
                for j in range(n):
                    for lv in KV_BITS_CHOICES:
                        if lv == best_levels[j]:
                            continue
                        cand = best_levels[:j] + (lv,) + best_levels[j + 1 :]
                        s = score(cand)
                        if s < best_s:
                            best_s, best_levels = s, cand
                            improved = True
        best_plan = plan.with_kv_bits(best_levels)
        best_pred = self.simulate(best_plan)
        objective = quality_part + best_pred.total_latency
        return best_plan, best_pred, objective

    def _optimize_auto_kv(self, search) -> PlannerResult:
        """KV-bitwidth auto-search wrapped around a per-level plan search.

        KV levels are *not* extra ILP variables — that would make the
        latency terms bilinear.  Instead each uniform level is searched
        at that level's prices (time tables and memory both see
        ``kv_bits``), the best level wins under the KV-error-penalized
        objective, and a per-stage refinement pass then mixes levels
        where the simulator + memory model justify it.

        ``search(level_optimizer)`` is one level's search: ``prepare()``
        returns a lower bound on its objective (``-inf`` if it has none)
        and ``run(incumbent)`` a :class:`PlannerResult` that is exact for
        every plan at or below ``incumbent``.  A uniform level's penalty
        is the same for every plan, so the levels share one incumbent in
        penalized-score space: the level with the lowest penalized bound
        runs first and each later one only has to beat ``best score -
        its own penalty`` — a level that cannot is pruned whole.  Result,
        record order and the "higher level wins a tie" rule are those of
        the plain loop (``spec_optimize_auto_kv`` in
        ``tests/core/ilp_spec.py``).
        """
        import copy
        import dataclasses

        t0 = time.perf_counter()
        theta = self.config.theta
        levels = sorted(KV_BITS_CHOICES, reverse=True)
        runs, penalty = {}, {}
        for level in levels:
            at_level = copy.copy(self)  # shares cost model, memo, indicators
            at_level.config = dataclasses.replace(self.config, kv_bits=level)
            runs[level] = search(at_level)
            penalty[level] = theta * float(self.kv_indicator.column(level).sum())
        order = sorted(levels, key=lambda lv: runs[lv].prepare() + penalty[lv])
        results: dict[int, PlannerResult] = {}
        scores: dict[int, float] = {}
        best_score = np.inf
        for level in order:
            # a hair above the exact difference: the per-plan penalty
            # below is summed stage by stage and may differ in the last ulp
            seed = best_score - penalty[level] + 1e-9 * abs(best_score)
            res = results[level] = runs[level].run(seed)
            if res.feasible:
                uniform = (level,) * res.plan.num_stages
                scores[level] = res.objective + theta * self._kv_penalty(
                    res.plan, uniform
                )
                best_score = min(best_score, scores[level])
        records: list[CandidateRecord] = []
        stats: PlannerStats | None = None
        for level in levels:
            records.extend(results[level].candidates)
            st = results[level].stats
            if st is not None:
                stats = st if stats is None else stats.merged(st)
        best = next((results[lv] for lv in levels if scores.get(lv) == best_score), None)
        plan, pred, objective = (
            (None, None, np.inf) if best is None else self._refine_stage_kv(best)
        )
        return PlannerResult(
            plan=plan,
            objective=objective,
            predicted=pred,
            candidates=tuple(records),
            total_seconds=time.perf_counter() - t0,
            stats=stats,
        )
