"""ILP for joint bitwidth assignment + layer partition (paper Sec. 4.3).

Given a *fixed* device ordering and micro-batch pair, the remaining
decision is: which contiguous run of layer groups goes on which device,
and at which bitwidth each group runs.  Binary variables

``z[i, j, b] = 1``  iff layer-group ``i`` sits on device ``j`` at ``b`` bits

with the paper's constraints:

* (9)-(11) each group gets exactly one (device, bitwidth);
* (15)-(16) contiguity — group ``i-1`` may not sit on a *later* device
  than group ``i``;
* (12)-(13) per-device memory: weights at chosen bits + KV cache for the
  whole batch + embedding / LM-head / workspace extras must fit;
* auxiliary continuous ``T_pre_max / T_dec_max`` upper-bound every
  stage's phase time, linearizing the pipeline-latency objective

``min  theta_lat * [ T_pre_sum + (m_p - 1) T_pre_max
                     + (n - 1) (T_dec_sum + (m_d - 1) T_dec_max) ]
       + theta * sum omega[i, b] z[i, j, b]``

Solved with ``scipy.optimize.milp`` (HiGHS) — the open-source stand-in
for the paper's GUROBI.

The build/solve split matters for the parallel planner
(:mod:`repro.core.search`): :meth:`BitAssignmentILP.assemble` produces a
self-contained, picklable :class:`AssembledILP` in the parent process
(reusing the shared :class:`~repro.cost.predictions.PredictionCache`),
and the module-level :func:`solve_assembled` / :func:`lp_lower_bound`
run in worker processes with nothing but that payload.  Coefficient
tensors and constraint matrices are built from numpy index arrays; the
cell-by-cell construction they must equal exactly is written out in
``tests/core/ilp_spec.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cost.latency import LatencyModel
from ..cost.memory import (
    FRAMEWORK_OVERHEAD_BYTES,
    embedding_bytes,
    kv_cache_bytes,
    logits_workspace_bytes,
    temp_bytes_decode,
    temp_bytes_prefill,
)
from ..cost.predictions import PredictionCache
from ..cost.stagecosts import planner_time_tables
from ..hardware.cluster import Device
from ..models.config import ModelConfig
from ..quant.indicator import IndicatorTable
from ..workload.spec import Workload

if TYPE_CHECKING:  # pragma: no cover - scipy loads on the first solve
    from scipy import sparse

__all__ = [
    "ILPSolution",
    "AssembledILP",
    "BitAssignmentILP",
    "solve_assembled",
    "lp_lower_bound",
]

# NOTE: earlier revisions wrapped every solve in an fd-1 dup/dup2 dance
# ("_quiet_fd1") to mute HiGHS debug prints.  scipy >= 1.9 passes
# ``output_flag=False`` to HiGHS itself unless ``disp`` is requested, so
# the solver is silent without touching process-global file descriptors —
# which the redirection raced on under concurrent solves (two overlapping
# dup2 calls could permanently point fd 1 at /dev/null).  The context
# manager is gone; ``tests/core/test_ilp.py`` keeps a concurrent-solve
# regression test against stdout corruption.


@dataclass(frozen=True)
class ILPSolution:
    """Solver output: per-group device index and bitwidth."""

    group_device: tuple[int, ...]
    group_bits: tuple[int, ...]
    objective: float
    latency_term: float
    quality_term: float
    status: str
    solve_seconds: float

    @property
    def feasible(self) -> bool:
        """True when the solver proved an optimal assignment."""
        return self.status == "optimal"


def _infeasible(seconds: float, status: str = "infeasible") -> ILPSolution:
    return ILPSolution(
        group_device=(), group_bits=(), objective=np.inf,
        latency_term=np.inf, quality_term=np.inf,
        status=status, solve_seconds=seconds,
    )


@dataclass(frozen=True)
class AssembledILP:
    """One candidate's fully built MILP, detached from its builder.

    Everything a worker process needs to solve and decode the problem:
    objective vector ``c``, constraint matrix ``A`` with row bounds
    ``lo``/``hi`` (variables are ``[z..., T_pre_max, T_dec_max]``), and
    the metadata to map the solution back to (device, bits) per group.
    """

    c: np.ndarray
    A: sparse.csr_matrix
    lo: np.ndarray
    hi: np.ndarray
    num_groups: int
    num_devices: int
    bits: tuple[int, ...]
    theta: float
    omega: np.ndarray
    time_limit: float

    @property
    def num_z(self) -> int:
        """Count of binary placement variables."""
        return self.num_groups * self.num_devices * len(self.bits)


def _highs(prob: AssembledILP, *, relaxed: bool, cutoff: float = np.inf, **options):
    """One HiGHS call on an assembled problem, integral or (``relaxed``)
    its LP relaxation.  scipy loads here, on the first solve: importing
    the planner package — which serving, simulation and the fleet all do
    — must not pay for a solver they never call."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n_var = prob.num_z + 2
    integrality = np.zeros(n_var)
    if not relaxed:
        integrality[: prob.num_z] = 1
    constraints = [LinearConstraint(prob.A, prob.lo, prob.hi)]
    if np.isfinite(cutoff):
        constraints.append(LinearConstraint(prob.c[None, :], -np.inf, cutoff))
    return milp(
        prob.c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(
            lb=np.zeros(n_var),
            ub=np.concatenate([np.ones(prob.num_z), [np.inf, np.inf]]),
        ),
        options={"time_limit": prob.time_limit, **options},
    )


def solve_assembled(prob: AssembledILP, cutoff: float = np.inf) -> ILPSolution:
    """Solve one assembled MILP with HiGHS and decode the assignment.

    Module-level and dependent only on the (picklable) payload so the
    parallel planner can ship it to ``ProcessPoolExecutor`` workers.

    A finite ``cutoff`` (the search's incumbent) adds the row ``c @ x <=
    cutoff``: assignments that cannot beat the incumbent leave the
    feasible set, so HiGHS stops at "nothing under the cutoff" instead
    of proving the optimality of a loser.  A solve that finds nothing
    under the cutoff comes back with status ``"pruned"``.
    """
    import time

    t0 = time.perf_counter()
    res = _highs(prob, relaxed=False, cutoff=cutoff, mip_rel_gap=1e-4)
    dt = time.perf_counter() - t0
    if res.status != 0 or res.x is None:
        pruned = np.isfinite(cutoff) and res.status == 2
        return _infeasible(dt, "pruned" if pruned else "infeasible")
    nG, nD, nB = prob.num_groups, prob.num_devices, len(prob.bits)
    z = res.x[: prob.num_z].reshape(nG, nD, nB)
    gdev, gbits = [], []
    for i in range(nG):
        j, k = np.unravel_index(np.argmax(z[i]), (nD, nB))
        gdev.append(int(j))
        gbits.append(prob.bits[int(k)])
    quality_term = float(
        sum(prob.omega[i, prob.bits.index(gbits[i])] for i in range(nG))
    )
    return ILPSolution(
        group_device=tuple(gdev),
        group_bits=tuple(gbits),
        objective=float(res.fun),
        latency_term=float(res.fun - prob.theta * quality_term),
        quality_term=quality_term,
        status="optimal",
        solve_seconds=dt,
    )


def lp_lower_bound(prob: AssembledILP) -> float:
    """Admissible lower bound: optimum of the LP relaxation.

    Dropping integrality can only lower the optimum, so this bounds the
    MILP objective from below; the MILP objective in turn lower-bounds
    the planner's final ``simulate + theta * quality`` score (the
    simulator adds communication, embedding work and pipeline bubbles on
    top of the same cost-model terms, and evaluates decode at per-step
    contexts whose mean dominates the ILP's ``avg_ctx``).  Returns
    ``+inf`` when even the relaxation is infeasible (the candidate can be
    discarded outright) and ``-inf`` when the LP did not finish (never
    prune on an unproven bound).
    """
    res = _highs(prob, relaxed=True)
    if res.status == 2:  # proven infeasible
        return np.inf
    if res.status == 0 and res.fun is not None:
        return float(res.fun)
    return -np.inf


@dataclass
class BitAssignmentILP:
    """Builds and solves the Sec.-4.3 ILP for one configuration.

    Parameters
    ----------
    cfg, workload:
        Model architecture and offline workload.
    devices:
        Pipeline-ordered devices (a candidate ordering from Algorithm 1).
    latency_model:
        Fitted per-(gpu, bits, phase) cost model.
    indicator:
        omega table, already *grouped* to ``num_groups`` rows.
    bits:
        Candidate precisions.
    group_size:
        Layers per group (Optimization #2).
    theta:
        Quality-vs-latency scalar (higher = favour quality).
    phase_aware:
        ``False`` drops the decode phase from the latency objective — a
        PipeEdge-style single-phase view used by the phase-awareness
        ablation.  Memory constraints are unaffected.
    prediction_cache:
        Optional shared :class:`PredictionCache`; when set, coefficient
        tables are filled from the memo instead of per-cell
        ``predict_layer`` calls (numerically identical).
    """

    cfg: ModelConfig
    workload: Workload
    devices: Sequence[Device]
    latency_model: LatencyModel
    indicator: IndicatorTable
    prefill_microbatch: int
    decode_microbatch: int
    bits: tuple[int, ...] = (3, 4, 8, 16)
    group_size: int = 1
    theta: float = 1.0
    phase_aware: bool = True
    kv_bits: int = 16
    time_limit: float = 60.0
    prediction_cache: PredictionCache | None = None

    # ------------------------------------------------------------------
    def _group_sizes(self) -> list[int]:
        L = self.cfg.num_layers
        g = self.group_size
        sizes = [g] * (L // g)
        if L % g:
            sizes.append(L % g)
        return sizes

    def _coefficients(self):
        """Latency, memory and quality coefficients per (group, dev, bit).

        The per-(device, bits) layer-time tables come from vectorized
        queries, memoized when a ``prediction_cache`` is attached.
        """
        w = self.workload
        sizes = self._group_sizes()
        n_groups, n_bits = len(sizes), len(self.bits)
        avg_ctx = w.prompt_len + max(w.decode_passes, 1) // 2

        omega = np.zeros((n_groups, n_bits))
        per_layer_kv = kv_cache_bytes(
            self.cfg, 1, w.global_batch, w.max_seq_len, kv_bits=self.kv_bits
        )

        cache = self.prediction_cache or PredictionCache(self.latency_model)
        type_names = [d.type_name for d in self.devices]
        # the same (device, bits) layer-time blocks a source="model"
        # StageCostModel serves to the simulators
        lp, ld = planner_time_tables(
            cache, type_names, self.bits,
            prefill_microbatch=self.prefill_microbatch,
            decode_microbatch=self.decode_microbatch,
            prompt_len=w.prompt_len, avg_context=avg_ctx,
            kv_bits=self.kv_bits,
        )
        sizes_arr = np.asarray(sizes, dtype=np.float64)
        t_pre = sizes_arr[:, None, None] * lp[None, :, :]
        t_dec = sizes_arr[:, None, None] * ld[None, :, :]
        layer_bytes = (
            np.array([self.cfg.layer_weight_bytes(b) for b in self.bits])
            + per_layer_kv
        )
        mem = sizes_arr[:, None] * layer_bytes[None, :]

        if self.indicator.num_layers != n_groups:
            raise ValueError(
                f"indicator has {self.indicator.num_layers} rows, expected "
                f"{n_groups} groups (did you call .grouped({self.group_size})?)"
            )
        for k, b in enumerate(self.bits):
            omega[:, k] = self.indicator.column(b)
        return sizes, t_pre, t_dec, mem, omega

    def _device_capacity(self, j: int) -> float:
        """Memory budget of device ``j`` after fixed per-stage extras."""
        w = self.workload
        dev = self.devices[j]
        cap = dev.spec.memory_bytes - FRAMEWORK_OVERHEAD_BYTES
        temp = max(
            temp_bytes_prefill(self.cfg, self.prefill_microbatch, w.prompt_len),
            temp_bytes_decode(self.cfg, self.decode_microbatch, w.max_seq_len),
        )
        cap -= temp
        if j == 0:
            cap -= embedding_bytes(self.cfg)
        if j == len(self.devices) - 1:
            if j != 0:
                cap -= embedding_bytes(self.cfg)
            mb = max(self.prefill_microbatch, self.decode_microbatch)
            cap -= logits_workspace_bytes(self.cfg, mb, 1)
        return cap

    # ------------------------------------------------------------------
    def assemble(self) -> AssembledILP | None:
        """Build the full MILP; ``None`` when a device capacity is already
        negative (no assignment can exist at this micro-batch setting)."""
        sizes, t_pre, t_dec, mem, omega = self._coefficients()
        w = self.workload
        nG, nD, nB = len(sizes), len(self.devices), len(self.bits)
        n_var = nG * nD * nB + 2

        m_p = -(-w.global_batch // self.prefill_microbatch)
        m_d = -(-w.global_batch // self.decode_microbatch)
        n_pass = max(w.decode_passes, 0) if self.phase_aware else 0

        caps = np.array([self._device_capacity(j) for j in range(nD)])
        if np.any(caps <= 0):
            return None

        c = np.empty(n_var)
        c[:-2] = ((t_pre + n_pass * t_dec) + self.theta * omega[:, None, :]).ravel()
        c[-2:] = m_p - 1, n_pass * (m_d - 1)
        A, lo, hi = self._constraints_vectorized(t_pre, t_dec, mem, caps, nG, nD, nB)
        return AssembledILP(
            c=c, A=A, lo=lo, hi=hi,
            num_groups=nG, num_devices=nD, bits=tuple(self.bits),
            theta=self.theta, omega=omega, time_limit=self.time_limit,
        )

    # ------------------------------------------------------------------
    def _constraints_vectorized(self, t_pre, t_dec, mem, caps, nG, nD, nB):
        """Constraint matrix from numpy index arrays (no Python dict loops).

        Row layout:
        one-assignment per group | non-empty device | contiguity |
        memory per device | per-device (T_pre, T_dec) definitions.
        """
        nZ = nG * nD * nB
        n_var = nZ + 2
        ip, idx_td = nZ, nZ + 1

        # full (i, j, k) -> column lattice, reused by several blocks
        cols_ijk = (
            (np.arange(nG)[:, None, None] * nD + np.arange(nD)[None, :, None]) * nB
            + np.arange(nB)[None, None, :]
        )  # shape (nG, nD, nB)

        data_parts: list[np.ndarray] = []
        ri_parts: list[np.ndarray] = []
        ci_parts: list[np.ndarray] = []
        lo_parts: list[np.ndarray] = []
        hi_parts: list[np.ndarray] = []
        row_base = 0

        def add_block(ri, ci, data, lo, hi, n_rows):
            nonlocal row_base
            ri_parts.append(np.asarray(ri).ravel() + row_base)
            ci_parts.append(np.asarray(ci).ravel())
            data_parts.append(np.asarray(data, dtype=np.float64).ravel())
            lo_parts.append(np.asarray(lo, dtype=np.float64).ravel())
            hi_parts.append(np.asarray(hi, dtype=np.float64).ravel())
            row_base += n_rows

        # (9) exactly one (device, bits) per group: row i covers z[i, :, :]
        add_block(
            ri=np.repeat(np.arange(nG), nD * nB),
            ci=cols_ijk,
            data=np.ones(nZ),
            lo=np.ones(nG),
            hi=np.ones(nG),
            n_rows=nG,
        )

        # every device hosts at least one group: row j covers z[:, j, :]
        add_block(
            ri=np.repeat(np.arange(nD), nG * nB),
            ci=np.swapaxes(cols_ijk, 0, 1),
            data=np.ones(nZ),
            lo=np.ones(nD),
            hi=np.full(nD, float(nG)),
            n_rows=nD,
        )

        # (16) contiguity: for i >= 1 and device pair j < k2,
        #   sum_b z[i, j, b] + sum_b z[i-1, k2, b] <= 1
        if nG > 1 and nD > 1:
            j_arr, k2_arr = np.triu_indices(nD, k=1)
            P = j_arr.size
            ii = np.arange(1, nG)
            kb = np.arange(nB)
            cur = ((ii[:, None, None] * nD + j_arr[None, :, None]) * nB
                   + kb[None, None, :])  # (nG-1, P, nB)
            prev = (((ii - 1)[:, None, None] * nD + k2_arr[None, :, None]) * nB
                    + kb[None, None, :])
            ci = np.concatenate(
                [cur.reshape(-1, nB), prev.reshape(-1, nB)], axis=1
            )  # ((nG-1)*P, 2*nB)
            n_rows = (nG - 1) * P
            add_block(
                ri=np.repeat(np.arange(n_rows), 2 * nB),
                ci=ci,
                data=np.ones(n_rows * 2 * nB),
                lo=np.full(n_rows, -np.inf),
                hi=np.ones(n_rows),
                n_rows=n_rows,
            )

        # (12)-(13) memory per device: row j is sum_{i,b} mem[i,b] z[i,j,b]
        add_block(
            ri=np.repeat(np.arange(nD), nG * nB),
            ci=np.swapaxes(cols_ijk, 0, 1),
            data=np.broadcast_to(mem[:, None, :], (nG, nD, nB)).swapaxes(0, 1),
            lo=np.full(nD, -np.inf),
            hi=caps,
            n_rows=nD,
        )

        # T_max definitions: interleaved (prefill, decode) rows per device
        dev_rows = np.repeat(np.arange(nD) * 2, nG * nB)
        cols_dev = np.swapaxes(cols_ijk, 0, 1).reshape(nD, -1)
        t_pre_dev = t_pre.swapaxes(0, 1).reshape(nD, -1)
        t_dec_dev = t_dec.swapaxes(0, 1).reshape(nD, -1)
        ri_t = np.concatenate(
            [dev_rows, dev_rows + 1, np.arange(nD) * 2, np.arange(nD) * 2 + 1]
        )
        ci_t = np.concatenate(
            [cols_dev.ravel(), cols_dev.ravel(),
             np.full(nD, ip), np.full(nD, idx_td)]
        )
        data_t = np.concatenate(
            [t_pre_dev.ravel(), t_dec_dev.ravel(),
             np.full(nD, -1.0), np.full(nD, -1.0)]
        )
        add_block(
            ri=ri_t, ci=ci_t, data=data_t,
            lo=np.full(2 * nD, -np.inf), hi=np.zeros(2 * nD), n_rows=2 * nD,
        )

        from scipy import sparse

        A = sparse.csr_matrix(
            (np.concatenate(data_parts),
             (np.concatenate(ri_parts), np.concatenate(ci_parts))),
            shape=(row_base, n_var),
        )
        return A, np.concatenate(lo_parts), np.concatenate(hi_parts)

    # ------------------------------------------------------------------
    def solve(self) -> ILPSolution:
        """Build the MILP and solve it with HiGHS; returns the assignment."""
        import time

        t0 = time.perf_counter()
        prob = self.assemble()
        if prob is None:
            return _infeasible(time.perf_counter() - t0)
        # account assembly time into the reported solve time
        return replace(solve_assembled(prob), solve_seconds=time.perf_counter() - t0)

    # ------------------------------------------------------------------
    def expand_groups(
        self, sol: ILPSolution
    ) -> tuple[list[int], list[int]]:
        """Ungroup a solution back to per-layer (device_idx, bits) lists."""
        sizes = self._group_sizes()
        dev_per_layer: list[int] = []
        bits_per_layer: list[int] = []
        for gs, d, b in zip(sizes, sol.group_device, sol.group_bits):
            dev_per_layer.extend([d] * gs)
            bits_per_layer.extend([b] * gs)
        return dev_per_layer, bits_per_layer
