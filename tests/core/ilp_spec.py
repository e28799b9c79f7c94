"""The Sec.-4.3 MILP and Algorithm 1's search, written out cell by cell.

This is the specification :meth:`BitAssignmentILP.solve` (an exact DP)
and :meth:`LLMPQOptimizer.optimize` are pinned to:

* :func:`spec_coefficients` fills the latency tensors with one scalar
  ``predict_layer`` call per (device, bits) cell and the memory table
  one group at a time — no prediction cache, no broadcasting;
* :func:`spec_assemble` writes the paper's MILP: the objective vector
  one variable at a time and every constraint row as a ``{column:
  coefficient}`` dict (one-assignment | non-empty device | contiguity |
  memory | per-device T_pre, T_dec); :func:`spec_solve` hands it to
  HiGHS, and :func:`spec_price` prices any assignment by the same
  vector and rows — the DP's optimum must equal the price of the MILP's
  assignment, and the DP's assignment must satisfy every row;
* :func:`spec_optimize` walks the (ordering x micro-batch) grid
  serially — one MILP per candidate, no dedup, no shared cache, no
  bound, no pruning — and keeps the strict-improvement best; the search
  engine must return the same objective and an equivalent plan;
* :func:`spec_optimize_auto_kv` is the ``kv_bits="auto"`` search as a
  plain loop over the uniform KV levels, highest first: every level is
  searched in full with nothing carried from one to the next, the
  strictly best penalized score wins, and the winner gets the planner's
  own per-stage refinement;
* :func:`spec_adabits` is Algorithm 2's quality-only seed problem as the
  MILP it used to be solved as — the oracle for the solver-free DP in
  ``core/heuristic.py``;
* :func:`spec_sweep` is one range-table sweep with a full ``lexsort`` of
  every step's candidates — the oracle for ``core.ilp._sweep``'s merge.

Deliberately slow; used by the ``tests/core`` equality tests only.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.ilp import BitAssignmentILP, ILPSolution, _infeasible
from repro.core.optimizer import (
    CandidateRecord,
    PlannerResult,
    _microbatch_pairs,
)
from repro.core.plan import KV_BITS_CHOICES
from repro.cost.memory import kv_cache_bytes
from repro.sim.pipeline import simulate_pipeline


@dataclass(frozen=True)
class AssembledILP:
    """One candidate's MILP: objective ``c``, rows ``lo <= A x <= hi``
    over ``x = [z..., T_pre_max, T_dec_max]``, and what decodes ``z``."""

    c: np.ndarray
    A: sparse.csr_matrix
    lo: np.ndarray
    hi: np.ndarray
    num_groups: int
    num_devices: int
    bits: tuple[int, ...]
    theta: float
    omega: np.ndarray

    @property
    def num_z(self) -> int:
        """Count of binary placement variables."""
        return self.num_groups * self.num_devices * len(self.bits)

    def x_of(self, group_device, group_bits) -> np.ndarray:
        """The MILP vector of an assignment, bottlenecks at their least."""
        nD, nB = self.num_devices, len(self.bits)
        x = np.zeros(self.num_z + 2)
        for i, (j, b) in enumerate(zip(group_device, group_bits)):
            x[(i * nD + j) * nB + self.bits.index(b)] = 1.0
        stage_rows = self.A[-2 * nD:] @ x  # per device: T_pre, T_dec
        x[-2:] = stage_rows[0::2].max(), stage_rows[1::2].max()
        return x


def spec_solve(prob: AssembledILP) -> ILPSolution:
    """HiGHS on the assembled MILP, stopped at ``mip_rel_gap`` 1e-4: its
    assignment is ε-optimal and ``res.fun`` is off in the last digits, so
    compare the DP against :func:`spec_price` of it, never against
    ``objective``."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n_var = prob.num_z + 2
    integrality = np.zeros(n_var)
    integrality[: prob.num_z] = 1
    t0 = time.perf_counter()
    res = milp(
        prob.c, constraints=[LinearConstraint(prob.A, prob.lo, prob.hi)],
        integrality=integrality,
        bounds=Bounds(np.zeros(n_var), np.r_[np.ones(prob.num_z), np.inf, np.inf]),
        options={"time_limit": 60.0, "mip_rel_gap": 1e-4},
    )
    dt = time.perf_counter() - t0
    if res.status != 0 or res.x is None:
        return _infeasible(dt)
    nG, nD, nB = prob.num_groups, prob.num_devices, len(prob.bits)
    z = res.x[: prob.num_z].reshape(nG, nD, nB)
    gdev, gbits = [], []
    for i in range(nG):
        j, k = np.unravel_index(np.argmax(z[i]), (nD, nB))
        gdev.append(int(j))
        gbits.append(prob.bits[int(k)])
    quality = float(sum(prob.omega[i, prob.bits.index(gbits[i])] for i in range(nG)))
    return ILPSolution(
        group_device=tuple(gdev), group_bits=tuple(gbits),
        objective=float(res.fun), latency_term=float(res.fun - prob.theta * quality),
        quality_term=quality, status="optimal", solve_seconds=dt,
    )


def spec_price(prob: AssembledILP, sol: ILPSolution) -> float:
    """``sol``'s assignment priced by the MILP's objective, in floats."""
    return float(prob.c @ prob.x_of(sol.group_device, sol.group_bits))


@dataclass
class CappedILP(BitAssignmentILP):
    """A ``BitAssignmentILP`` whose per-device capacities are given."""

    caps: tuple = ()

    def _device_capacity(self, j: int) -> float:
        return float(self.caps[j])


def spec_coefficients(ilp: BitAssignmentILP):
    """``(sizes, t_pre, t_dec, mem, omega)`` from per-cell scalar queries."""
    w = ilp.workload
    sizes = ilp._group_sizes()
    n_groups, n_dev, n_bits = len(sizes), len(ilp.devices), len(ilp.bits)
    avg_ctx = w.prompt_len + max(w.decode_passes, 1) // 2
    per_layer_kv = kv_cache_bytes(
        ilp.cfg, 1, w.global_batch, w.max_seq_len, kv_bits=ilp.kv_bits
    )
    t_pre = np.zeros((n_groups, n_dev, n_bits))
    t_dec = np.zeros((n_groups, n_dev, n_bits))
    mem = np.zeros((n_groups, n_bits))
    for j, dev in enumerate(ilp.devices):
        for k, b in enumerate(ilp.bits):
            lp = ilp.latency_model.predict_layer(
                dev.spec, b, "prefill", ilp.prefill_microbatch,
                w.prompt_len, w.prompt_len, kv_bits=ilp.kv_bits,
            )
            ld = ilp.latency_model.predict_layer(
                dev.spec, b, "decode", ilp.decode_microbatch, 1, avg_ctx,
                kv_bits=ilp.kv_bits,
            )
            for i, gs in enumerate(sizes):
                t_pre[i, j, k] = gs * lp
                t_dec[i, j, k] = gs * ld
    for k, b in enumerate(ilp.bits):
        layer_bytes = ilp.cfg.layer_weight_bytes(b) + per_layer_kv
        for i, gs in enumerate(sizes):
            mem[i, k] = gs * layer_bytes
    omega = np.zeros((n_groups, n_bits))
    for k, b in enumerate(ilp.bits):
        omega[:, k] = ilp.indicator.column(b)
    return sizes, t_pre, t_dec, mem, omega


def _spec_constraints(t_pre, t_dec, mem, caps, nG, nD, nB):
    nZ = nG * nD * nB
    n_var = nZ + 2
    ip, idx_td = nZ, nZ + 1

    def zidx(i: int, j: int, k: int) -> int:
        return (i * nD + j) * nB + k

    rows: list[tuple[dict[int, float], float, float]] = []
    for i in range(nG):
        coefs = {zidx(i, j, k): 1.0 for j in range(nD) for k in range(nB)}
        rows.append((coefs, 1.0, 1.0))
    for j in range(nD):
        coefs = {zidx(i, j, k): 1.0 for i in range(nG) for k in range(nB)}
        rows.append((coefs, 1.0, float(nG)))
    for i in range(1, nG):
        for j in range(nD - 1):
            for k2 in range(j + 1, nD):
                coefs: dict[int, float] = {}
                for kb in range(nB):
                    coefs[zidx(i, j, kb)] = 1.0
                    coefs[zidx(i - 1, k2, kb)] = (
                        coefs.get(zidx(i - 1, k2, kb), 0.0) + 1.0
                    )
                rows.append((coefs, -np.inf, 1.0))
    for j in range(nD):
        coefs = {
            zidx(i, j, k): mem[i, k] for i in range(nG) for k in range(nB)
        }
        rows.append((coefs, -np.inf, caps[j]))
    for j in range(nD):
        coefs = {
            zidx(i, j, k): t_pre[i, j, k] for i in range(nG) for k in range(nB)
        }
        coefs[ip] = -1.0
        rows.append((coefs, -np.inf, 0.0))
        coefs = {
            zidx(i, j, k): t_dec[i, j, k] for i in range(nG) for k in range(nB)
        }
        coefs[idx_td] = -1.0
        rows.append((coefs, -np.inf, 0.0))

    data, ri, ci, lo, hi = [], [], [], [], []
    for r, (coefs, lb, ub) in enumerate(rows):
        for col, val in coefs.items():
            ri.append(r)
            ci.append(col)
            data.append(val)
        lo.append(lb)
        hi.append(ub)
    A = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n_var))
    return A, np.asarray(lo), np.asarray(hi)


def spec_assemble(ilp: BitAssignmentILP) -> AssembledILP | None:
    """The paper's MILP for ``ilp``, or ``None`` when a device has no
    capacity left at this micro-batch setting."""
    sizes, t_pre, t_dec, mem, omega = spec_coefficients(ilp)
    w = ilp.workload
    nG, nD, nB = len(sizes), len(ilp.devices), len(ilp.bits)
    nZ = nG * nD * nB

    m_p = -(-w.global_batch // ilp.prefill_microbatch)
    m_d = -(-w.global_batch // ilp.decode_microbatch)
    n_pass = max(w.decode_passes, 0) if ilp.phase_aware else 0

    caps = np.array([ilp._device_capacity(j) for j in range(nD)])
    if np.any(caps <= 0):
        return None

    c = np.zeros(nZ + 2)
    for i in range(nG):
        for j in range(nD):
            for k in range(nB):
                c[(i * nD + j) * nB + k] = (
                    t_pre[i, j, k] + n_pass * t_dec[i, j, k]
                ) + ilp.theta * omega[i, k]
    c[nZ] = m_p - 1
    c[nZ + 1] = n_pass * (m_d - 1)
    A, lo, hi = _spec_constraints(t_pre, t_dec, mem, caps, nG, nD, nB)
    return AssembledILP(
        c=c, A=A, lo=lo, hi=hi,
        num_groups=nG, num_devices=nD, bits=tuple(ilp.bits),
        theta=ilp.theta, omega=omega,
    )


def spec_adabits(ilp: BitAssignmentILP) -> ILPSolution:
    """The "adabits" seed problem as a MILP: ``ilp``'s constraint rows
    with the latency terms struck from the objective — quality only, under
    memory.  The oracle ``core.heuristic._seed_dp`` must match in
    feasibility and optimal quality."""
    prob = spec_assemble(ilp)
    if prob is None:
        return _infeasible(0.0)
    nG, nD, nB = prob.num_groups, prob.num_devices, len(prob.bits)
    c = np.zeros(prob.num_z + 2)
    for i in range(nG):
        for j in range(nD):
            for k in range(nB):
                c[(i * nD + j) * nB + k] = ilp.theta * prob.omega[i, k]
    return spec_solve(dataclasses.replace(prob, c=c))


def spec_sweep(sizes, omega, layer_bytes, limit, starts, stop):
    """``core.ilp._sweep`` by sorting every step's candidates by (tag,
    ``sum omega``, parent row, bitwidth) — one ``lexsort`` per step — and
    keeping each tag's first."""
    n_bits = omega.shape[1]
    base = int(sizes.sum()) + 1  # layer counts are digits in this base
    radix = base ** np.arange(n_bits, dtype=np.int64)
    st = np.asarray(starts, dtype=np.int64)
    key = np.zeros(st.size, np.int64)
    W = np.zeros(st.size)
    B = np.zeros(st.size)
    ids = np.full(st.size, -1)
    out = [(st[:0], st[:0], key[:0], W[:0], ids[:0], ids[:0])]
    n_rows, t = 0, 0
    while True:
        live = st + t < stop
        st, key, W, B, ids = st[live], key[live], W[live], B[live], ids[live]
        if not st.size:
            break
        grp = st + t
        s = sizes[grp][:, None]
        cand_key = (key[:, None] + s * radix).ravel()
        cand_W = (W[:, None] + omega[grp]).ravel()
        cand_B = (B[:, None] + s * layer_bytes).ravel()
        fit = np.flatnonzero(cand_B <= limit)
        tag = np.repeat(st, n_bits)[fit] * base**n_bits + cand_key[fit]
        order = np.lexsort((cand_W[fit], tag))
        first = np.ones(order.size, bool)
        first[1:] = tag[order[1:]] != tag[order[:-1]]
        sel = fit[order[first]]
        st, key, W, B = np.repeat(st, n_bits)[sel], cand_key[sel], cand_W[sel], cand_B[sel]
        out.append((st, np.full(sel.size, t + 1), key, W, ids[sel // n_bits], sel % n_bits))
        ids = n_rows + np.arange(sel.size)
        n_rows += sel.size
        t += 1
    st, length, key, W, parent, bit = (np.concatenate(col) for col in zip(*out))
    L = ((key[:, None] // radix) % base).astype(np.float64)
    return st, length, L, W, parent, bit


def spec_optimize(opt) -> PlannerResult:
    """Algorithm 1 as a serial loop over ``opt``'s candidate grid."""
    t0 = time.perf_counter()
    records: list[CandidateRecord] = []
    best_plan = best_pred = None
    best_obj = np.inf
    for ordering in opt.orderings():
        type_seq = tuple(d.type_name for d in ordering)
        for mb_p, mb_d in _microbatch_pairs(opt.workload, len(ordering), opt.config):
            ilp = BitAssignmentILP(
                cfg=opt.cfg,
                workload=opt.workload,
                devices=list(ordering),
                latency_model=opt.latency_model,
                indicator=opt.indicator.grouped(opt.config.group_size),
                prefill_microbatch=mb_p,
                decode_microbatch=mb_d,
                bits=opt.config.bits,
                group_size=opt.config.group_size,
                theta=opt.config.theta,
                kv_bits=int(opt.config.kv_bits),
            )
            t_solve = time.perf_counter()
            prob = spec_assemble(ilp)
            sol = None if prob is None else spec_solve(prob)
            seconds = time.perf_counter() - t_solve
            status, obj, lat, quality = "infeasible", np.inf, np.inf, np.inf
            if sol is not None and sol.feasible:
                plan = opt.plan_from_solution(ordering, sol, ilp, mb_p, mb_d)
                pred = simulate_pipeline(
                    plan, opt.cluster, latency_model=opt.latency_model
                )
                status, quality = "oom", sol.quality_term
                if pred.feasible:
                    status = "optimal"
                    lat = pred.total_latency
                    obj = lat + opt.config.theta * sol.quality_term
            records.append(
                CandidateRecord(
                    ordering=type_seq, prefill_microbatch=mb_p,
                    decode_microbatch=mb_d, status=status, objective=obj,
                    latency=lat, quality=quality, solve_seconds=seconds,
                )
            )
            if obj < best_obj:
                best_obj, best_plan, best_pred = obj, plan, pred
    return PlannerResult(
        plan=best_plan,
        objective=best_obj,
        predicted=best_pred,
        candidates=tuple(records),
        total_seconds=time.perf_counter() - t0,
    )


def spec_optimize_auto_kv(opt, search=spec_optimize) -> PlannerResult:
    """``kv_bits="auto"`` level by level; ``search`` plans one level."""
    import copy
    import dataclasses

    t0 = time.perf_counter()
    records: list[CandidateRecord] = []
    best, best_score = None, np.inf
    for level in sorted(KV_BITS_CHOICES, reverse=True):
        at_level = copy.copy(opt)
        at_level.config = dataclasses.replace(opt.config, kv_bits=level)
        res = search(at_level)
        records.extend(res.candidates)
        if not res.feasible:
            continue
        uniform = (level,) * res.plan.num_stages
        score = res.objective + opt.config.theta * opt._kv_penalty(res.plan, uniform)
        if score < best_score:
            best_score, best = score, res
    plan, pred, objective = (
        (None, None, np.inf) if best is None else opt._refine_stage_kv(best)
    )
    return PlannerResult(
        plan=plan, objective=objective, predicted=pred,
        candidates=tuple(records), total_seconds=time.perf_counter() - t0,
    )
