"""Joint bitwidth assignment + layer partition (paper Sec. 4.3).

Given a *fixed* device ordering and micro-batch pair, the remaining
decision is: which contiguous run of layer groups goes on which device,
and at which bitwidth each group runs.  The paper writes it as an ILP
over binaries ``z[i, j, b] = 1`` iff layer-group ``i`` sits on device
``j`` at ``b`` bits, with the constraints

* (9)-(11) each group gets exactly one (device, bitwidth);
* (15)-(16) contiguity — group ``i-1`` may not sit on a *later* device
  than group ``i``;
* (12)-(13) per-device memory: weights at chosen bits + KV cache for the
  whole batch + embedding / LM-head / workspace extras must fit;
* auxiliary ``T_pre_max / T_dec_max`` bound every stage's phase time,
  linearizing the pipeline-latency objective

``min  theta_lat * [ T_pre_sum + (m_p - 1) T_pre_max
                     + (n - 1) (T_dec_sum + (m_d - 1) T_dec_max) ]
       + theta * sum omega[i, b] z[i, j, b]``

and solves it with GUROBI.  Here it is solved exactly, without a solver,
by a dynamic program over a range table (DESIGN.md §8.3): a stage's
seconds and bytes are linear in how many layers it runs at each bitwidth,
so a :class:`RangeTable` row — one contiguous group range and one such
layer-count vector, with the least ``sum omega`` that realises it — prices
that stage on any device, and a DP over devices in pipeline order keeps,
per device and range end, the states no other state dominates.  The MILP
itself is written out in ``tests/core/ilp_spec.py``: it is the oracle
the DP is tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

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

__all__ = ["ILPSolution", "BitAssignmentILP", "RangeTable"]


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


# ----------------------------------------------------------------------
# range table


def _sweep(sizes, omega, layer_bytes, limit, starts, stop):
    """Forward sweeps from every ``a`` in ``starts`` over groups ``a ..
    stop-1``, all starts one step at a time.

    Step ``t`` extends every row of ``[a, a+t)`` by group ``a+t`` at each
    bitwidth and keeps, per ``(a, layer counts)``, the least ``sum omega``
    — the first such candidate in (parent row, bitwidth) order on ties.
    A candidate whose bytes exceed ``limit`` is dropped: bytes only grow.
    ``starts`` ascend.  Returns per-row arrays in step order (so by range
    length): ``start, length, layers per bitwidth, sum omega, parent row,
    bit index``.

    A row's tag is ``a`` and its layer counts as digits of one integer.
    Rows stay in tag order, and a step's candidates are laid out
    bit-major: adding a group's layers to one digit never carries (no
    digit reaches ``base``), so each bitwidth's candidates keep their
    parents' order and the stable sort only merges ``n_bits`` sorted runs.
    Each tag's winner is then its least ``sum omega``, ties to the least
    (parent row, bitwidth) — what a ``lexsort`` by (tag, ``sum omega``)
    keeps first (``spec_sweep`` in ``tests/core/ilp_spec.py``).
    """
    n_bits = omega.shape[1]
    base = int(sizes.sum()) + 1  # layer counts are digits in this base
    radix = base ** np.arange(n_bits, dtype=np.int64)
    radix_col, bytes_col, omega_t = radix[:, None], layer_bytes[:, None], omega.T.copy()
    never = np.iinfo(np.int64).max  # outranks every (parent row, bit) index
    st = np.asarray(starts, dtype=np.int64)
    tag = st * base**n_bits
    W = np.zeros(st.size)
    B = np.zeros(st.size)
    out = [(st[:0], tag[:0], W[:0], st[:0], st[:0])]
    prev = n_rows = t = 0
    while st.size:
        if st[-1] + t >= stop:  # rows are start-major: the live ones lead
            n = np.searchsorted(st, stop - t)
            st, tag, W, B = st[:n], tag[:n], W[:n], B[:n]
            if not n:
                break
        n = st.size
        grp = st + t
        s = sizes[grp]
        cand_B = (B + s * bytes_col).ravel()  # bit-major: (bit, row)
        fit = np.flatnonzero(cand_B <= limit)
        if not fit.size:
            break
        cand_tag = (tag + s * radix_col).ravel()[fit]
        cand_W = (W + omega_t[:, grp]).ravel()[fit]
        order = np.argsort(cand_tag, kind="stable")
        cand_tag, cand_W, fit = cand_tag[order], cand_W[order], fit[order]
        first = np.ones(fit.size, bool)
        first[1:] = cand_tag[1:] != cand_tag[:-1]
        head = np.flatnonzero(first)
        W = np.minimum.reduceat(cand_W, head)
        first[0] = False  # now cumsum(first) numbers each candidate's tag
        k, r = np.divmod(fit, n)
        row_bit = np.where(cand_W == W[np.cumsum(first)], r * n_bits + k, never)
        pr, bit = np.divmod(np.minimum.reduceat(row_bit, head), n_bits)
        st, tag, B = st[pr], cand_tag[head], cand_B[bit * n + pr]
        out.append((st, tag, W, pr + prev if t else np.full(pr.size, -1), bit))
        prev, n_rows = n_rows, n_rows + pr.size
        t += 1
    st, tag, W, parent, bit = (np.concatenate(col) for col in zip(*out))
    length = np.repeat(np.arange(len(out)), [col[0].size for col in out])
    L = ((tag[:, None] // radix) % base).astype(np.float64)
    return st, length, L, W, parent, bit


@dataclass(frozen=True)
class _Block:
    """The rows one device position can take, ordered by range length."""

    L: np.ndarray  # (rows, bits) layers per bitwidth
    W: np.ndarray  # least sum omega
    nbytes: np.ndarray
    a: np.ndarray  # range [a, e)
    e: np.ndarray
    group: np.ndarray  # the group the row's sweep step added
    parent: np.ndarray  # row one group shorter on the same sweep, or -1
    bit: np.ndarray  # bit index of ``group``
    upto: np.ndarray  # rows of length <= r: the first upto[r]
    min_bytes: np.ndarray  # least bytes of any row of length r

    def rows_for(self, cap: float) -> int:
        """How many leading rows can fit under ``cap`` at all."""
        fits = np.flatnonzero(self.min_bytes <= cap)
        return int(self.upto[fits[-1]]) if fits.size else 0

    def bits_of(self, row: int) -> dict[int, int]:
        """``{group: bit index}`` of the assignment behind ``row``."""
        out = {}
        while row >= 0:
            out[int(self.group[row])] = int(self.bit[row])
            row = int(self.parent[row])
        return out


class RangeTable:
    """Least ``sum omega`` per (contiguous group range, layers per bitwidth).

    A stage that runs ``L[k]`` layers at ``bits[k]`` has prefill and
    decode seconds and bytes linear in ``L`` on any device; only which
    groups take which bitwidth — the quality term — depends on the range.
    Rows are built lazily per device position, and only the ranges that
    position can take: prefixes for the first device (one sweep from group
    0), suffixes for the last (one backward sweep), and, for three or more
    devices, every range a middle device can hold (one sweep per start).
    Sweeps stop growing a row past ``limit`` bytes, so no row is longer
    than the most any device can hold.  Every candidate whose layer bytes
    and capacities it covers shares one table
    (:meth:`BitAssignmentILP.solve` checks).
    """

    def __init__(self, sizes, omega, layer_bytes, limit: float) -> None:
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.omega = np.asarray(omega, dtype=np.float64)
        self.layer_bytes = np.asarray(layer_bytes, dtype=np.float64)
        self.limit = float(limit)
        self._blocks: dict[str, _Block] = {}
        self._priced: dict[tuple, tuple] = {}

    @property
    def num_rows(self) -> int:
        """Rows built so far."""
        return sum(b.W.size for b in self._blocks.values())

    def block(self, kind: str) -> _Block:
        """``"prefix"``, ``"suffix"`` or ``"middle"`` rows, built once."""
        if kind not in self._blocks:
            self._blocks[kind] = self._build(kind)
        return self._blocks[kind]

    def _build(self, kind: str) -> _Block:
        n = self.sizes.size
        sizes, omega = self.sizes, self.omega
        if kind == "suffix":  # a forward sweep over the reversed groups
            sizes, omega = sizes[::-1], omega[::-1]
        starts, stop = (range(1, n - 1), n - 1) if kind == "middle" else ([0], n)
        st, length, L, W, parent, bit = _sweep(
            sizes, omega, self.layer_bytes, self.limit, starts, stop
        )
        if kind == "suffix":
            a, e = n - length, np.full(length.size, n)
            group = a
        else:
            a, e = st, st + length
            group = e - 1
        nbytes = L @ self.layer_bytes
        longest = int(length[-1]) if length.size else 0
        upto = np.searchsorted(length, np.arange(longest + 1), side="right")
        min_bytes = np.full(longest + 1, np.inf)  # length 0 holds no row
        if longest:
            min_bytes[1:] = np.minimum.reduceat(nbytes, upto[:-1])
        return _Block(L, W, nbytes, a, e, group, parent, bit, upto, min_bytes)

    def priced(self, kind, device, cap, lp, ld, alpha, beta, n_pass, theta):
        """The ``kind`` rows a ``device``-type GPU holds under ``cap``,
        with their separable cost, prefill and decode seconds at per-layer
        seconds ``lp`` / ``ld``; a middle or last device's rows pre-filtered
        per range (:func:`_survivors` without its rounds).  Memoised on
        everything it reads, so every candidate asking the same shares it.
        """
        key = (kind, device, cap, lp.tobytes(), ld.tobytes(), alpha, beta, n_pass, theta)
        hit = self._priced.get(key)
        if hit is not None:
            return hit
        blk = self.block(kind)
        rows = np.flatnonzero(blk.nbytes[: blk.rows_for(cap)] <= cap)
        L = blk.L[rows]
        rC = L @ (lp + n_pass * ld) + theta * blk.W[rows]
        rP, rD = L @ lp, L @ ld
        if kind != "prefix" and rows.size:  # one pre-filter pass per range
            g = blk.a[rows] * (self.sizes.size + 1) + blk.e[rows]
            keep = np.sort(_survivors(np.unique(g, return_inverse=True)[1],
                                      rC, rP, rD, alpha, beta, exact=False))
            rows, rC, rP, rD = rows[keep], rC[keep], rP[keep], rD[keep]
        for a in (rows, rC, rP, rD):  # shared by every asker: read-only
            a.flags.writeable = False
        hit = self._priced[key] = rows, rC, rP, rD
        return hit


# ----------------------------------------------------------------------
# the DP over devices


def _precedes(i, j, C, V):
    """State ``i`` comes before state ``j`` in (C, V, position) order."""
    return (C[i] < C[j]) | ((C[i] == C[j]) & ((V[i] < V[j]) | ((V[i] == V[j]) & (i < j))))


def _dominated(s, t, C, P, D, alpha, beta):
    """State ``s`` dominates state ``t``: whatever later stages add, ``s``
    ends at least as low (a later stage raises ``s``'s two maxima by at
    most ``(P_s - P_t)+`` and ``(D_s - D_t)+`` more than ``t``'s)."""
    return (
        C[s] + alpha * np.maximum(P[s] - P[t], 0) + beta * np.maximum(D[s] - D[t], 0)
        <= C[t]
    )


def _survivors(g, C, P, D, alpha, beta, exact=True):
    """Positions of the states of each group ``g`` that no state before
    them in (C, V, position) order dominates, in (g, C, V, position)
    order (``V = C + alpha P + beta D``).

    First each group's least-``V`` and least-``C`` state remove what they
    dominate (one vectorized pass each); ``exact=False`` stops there.
    Then rounds: each group's first undecided state survives — any state
    before it survived and did not remove it, and dominance is transitive
    — and removes what it dominates; there are as many rounds as the
    largest surviving group."""
    V = C + alpha * P + beta * D
    pos = np.arange(C.size)
    alive = np.ones(C.size, bool)
    n_groups = int(g.max()) + 1 if g.size else 0
    for key in (V, C):
        least = np.full(n_groups, np.inf)
        np.minimum.at(least, g, key)
        hit = np.flatnonzero(key == least[g])[::-1]
        pivot = np.empty(n_groups, np.int64)
        pivot[g[hit]] = hit  # each group's first least state
        s = pivot[g]
        alive &= ~(_dominated(s, pos, C, P, D, alpha, beta) & _precedes(s, pos, C, V))
    live = np.flatnonzero(alive)
    order = live[np.lexsort((V[live], C[live], g[live]))]
    if not exact:
        return order
    kept, idx = [order[:0]], order
    while idx.size:
        first = np.ones(idx.size, bool)
        first[1:] = g[idx[1:]] != g[idx[:-1]]
        pivots = idx[first]
        kept.append(pivots)
        s = pivots[np.cumsum(first) - 1]
        idx = idx[~(first | _dominated(s, idx, C, P, D, alpha, beta))]
    kept = np.concatenate(kept)
    rank = np.empty(C.size, np.int64)
    rank[order] = np.arange(order.size)
    return kept[np.argsort(rank[kept])]


def _solve_dp(table, lp, ld, caps, types, alpha, beta, n_pass, theta, cutoff):
    """The range-table DP (DESIGN.md §8.3).

    ``lp``/``ld``: per-layer prefill/decode seconds per (device, bitwidth);
    ``types``: each device's GPU type.  A state is a prefix of the pipeline
    ending at group ``e`` with ``(C, P_max, D_max)``: separable cost and
    the two bottlenecks so far.  Returns ``(objective, per-device (block,
    row)), cut`` — ``None`` for the first when no assignment exists at or
    below ``cutoff``; ``cut`` tells whether the cutoff removed anything.
    """
    n_groups, n_dev = table.sizes.size, len(caps)
    # admissible rest after group e: each remaining group at its cheapest
    # cell, and the remaining layers spread evenly at the fastest cell
    cell = table.sizes[:, None] * (lp + n_pass * ld).min(axis=0) + theta * table.omega
    rest = np.r_[np.cumsum(cell.min(axis=1)[::-1])[::-1], 0.0]
    layers_after = np.r_[np.cumsum(table.sizes[::-1])[::-1], 0]
    limit = cutoff + 1e-9 * abs(cutoff) if np.isfinite(cutoff) else np.inf
    cut = False
    fe = np.zeros(1, np.int64)  # the empty prefix
    fC = fP = fD = np.zeros(1)
    trail = []
    for j in range(n_dev):
        last = j == n_dev - 1
        kind = "prefix" if j == 0 else "suffix" if last else "middle"
        blk = table.block(kind)
        rows, rC, rP, rD = table.priced(
            kind, types[j], caps[j], lp[j], ld[j], alpha, beta, n_pass, theta
        )
        ra, re = blk.a[rows], blk.e[rows]
        count = np.bincount(fe, minlength=n_groups + 1)
        cheapest = np.full(n_groups + 1, np.inf)
        np.minimum.at(cheapest, fe, fC)
        ok = (count[ra] > 0) & (re <= n_groups - (n_dev - 1 - j))
        if last:
            ok &= re == n_groups
        spread = layers_after / max(n_dev - 1 - j, 1)
        tail_P, tail_D = spread * lp.min(), spread * ld.min()

        def bound(C, P, D, e):
            return (C + alpha * np.maximum(P, tail_P[e])
                    + beta * np.maximum(D, tail_D[e]) + rest[e])

        over = bound(cheapest[ra] + rC, rP, rD, re) > limit
        cut |= bool((ok & over).any())
        pick = np.flatnonzero(ok & ~over)
        # every surviving row with every state that ends where it starts
        c = count[ra[pick]]
        pr = np.repeat(pick, c)
        start = np.searchsorted(fe, ra[pr])
        ps = start + np.arange(pr.size) - np.repeat(np.cumsum(c) - c, c)
        pC = fC[ps] + rC[pr]
        pP = np.maximum(fP[ps], rP[pr])
        pD = np.maximum(fD[ps], rD[pr])
        pe = re[pr]
        V = pC + alpha * pP + beta * pD
        if last:
            if not V.size or V.min() > cutoff:
                return None, cut or bool(V.size)
            # lowest objective, then lowest separable cost, then first made
            q = int(np.lexsort((pC, V))[0])
            trail.append((ps, rows[pr], blk))
            break
        over = bound(pC, pP, pD, pe) > limit
        cut |= bool(over.any())
        keep = np.flatnonzero(~over)
        keep = keep[_survivors(pe[keep], pC[keep], pP[keep], pD[keep], alpha, beta)]
        if not keep.size:
            return None, cut
        fe, fC, fP, fD = pe[keep], pC[keep], pP[keep], pD[keep]
        trail.append((ps[keep], rows[pr[keep]], blk))
    stages = []
    for ps, rows, blk in reversed(trail):
        stages.append((blk, int(rows[q])))
        q = int(ps[q])
    return (float(V.min()), stages[::-1]), cut


@dataclass
class BitAssignmentILP:
    """The Sec.-4.3 problem for one configuration, solved exactly.

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
    range_tables:
        Optional shared memo of :class:`RangeTable` s, keyed by what a
        table depends on; the planner passes one per run so every
        candidate reuses the rows its layer bytes and capacities allow.
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
    prediction_cache: PredictionCache | None = None
    range_tables: dict | None = None
    _tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    def _group_sizes(self) -> list[int]:
        L = self.cfg.num_layers
        g = self.group_size
        sizes = [g] * (L // g)
        if L % g:
            sizes.append(L % g)
        return sizes

    def _layer_tables(self):
        """Per-layer ``(prefill s, decode s)`` per (device, bits) and
        bytes per bits, read through the prediction memo when attached;
        built once per problem (the bound and the solve both read them)."""
        if self._tables is not None:
            return self._tables
        w = self.workload
        avg_ctx = w.prompt_len + max(w.decode_passes, 1) // 2
        cache = self.prediction_cache or PredictionCache(self.latency_model)
        # the same (device, bits) layer-time blocks a source="model"
        # StageCostModel serves to the simulators
        lp, ld = planner_time_tables(
            cache, [d.type_name for d in self.devices], self.bits,
            prefill_microbatch=self.prefill_microbatch,
            decode_microbatch=self.decode_microbatch,
            prompt_len=w.prompt_len, avg_context=avg_ctx,
            kv_bits=self.kv_bits,
        )
        per_layer_kv = kv_cache_bytes(
            self.cfg, 1, w.global_batch, w.max_seq_len, kv_bits=self.kv_bits
        )
        layer_bytes = (
            np.array([self.cfg.layer_weight_bytes(b) for b in self.bits])
            + per_layer_kv
        )
        self._tables = lp, ld, layer_bytes
        return self._tables

    def _omega(self) -> np.ndarray:
        """The grouped quality table, one column per bitwidth."""
        n_groups = len(self._group_sizes())
        if self.indicator.num_layers != n_groups:
            raise ValueError(
                f"indicator has {self.indicator.num_layers} rows, expected "
                f"{n_groups} groups (did you call .grouped({self.group_size})?)"
            )
        return np.stack([self.indicator.column(b) for b in self.bits], axis=1)

    def _coefficients(self):
        """Latency, memory and quality coefficients per (group, dev, bit)."""
        lp, ld, layer_bytes = self._layer_tables()
        sizes = self._group_sizes()
        sizes_arr = np.asarray(sizes, dtype=np.float64)
        t_pre = sizes_arr[:, None, None] * lp[None, :, :]
        t_dec = sizes_arr[:, None, None] * ld[None, :, :]
        mem = sizes_arr[:, None] * layer_bytes[None, :]
        return sizes, t_pre, t_dec, mem, self._omega()

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

    def _range_table(self, omega, layer_bytes, caps) -> RangeTable:
        """The shared table for these rows, or a new one (memoized when a
        ``range_tables`` memo is attached) reaching every device's memory."""
        sizes = np.asarray(self._group_sizes())
        key = (sizes.tobytes(), omega.tobytes(), layer_bytes.tobytes())
        memo = self.range_tables if self.range_tables is not None else {}
        table = memo.get(key)
        if table is None or table.limit < max(caps):
            limit = max(max(caps), *(d.spec.memory_bytes for d in self.devices))
            table = memo[key] = RangeTable(sizes, omega, layer_bytes, limit)
        return table

    def _terms(self):
        """``(m_p - 1, n (m_d - 1), n)``: the two bottleneck weights and
        the decode passes the objective prices (none without phases)."""
        w = self.workload
        m_p = -(-w.global_batch // self.prefill_microbatch)
        m_d = -(-w.global_batch // self.decode_microbatch)
        n_pass = max(w.decode_passes, 0) if self.phase_aware else 0
        return m_p - 1, n_pass * (m_d - 1), n_pass

    def lower_bound(self) -> float:
        """A cheap bound no assignment undercuts: every group at its
        cheapest (device, bitwidth) cell, and each bottleneck at least an
        even share of its phase's least total time."""
        alpha, beta, n_pass = self._terms()
        lp, ld, _ = self._layer_tables()
        sizes = np.asarray(self._group_sizes(), dtype=np.float64)
        cells = sizes[:, None] * (lp + n_pass * ld).min(axis=0) + self.theta * self._omega()
        share = sizes.sum() / len(self.devices)
        return float(
            cells.min(axis=1).sum() + share * (alpha * lp.min() + beta * ld.min())
        )

    # ------------------------------------------------------------------
    def solve(self, cutoff: float = np.inf) -> ILPSolution:
        """The exact optimum by the range-table DP.

        A finite ``cutoff`` (the search's incumbent) drops every partial
        assignment that cannot end at or below it; when nothing is left
        and the cutoff removed something the status is ``"pruned"``.  A
        solution exactly at the cutoff is kept.
        """
        t0 = time.perf_counter()
        omega = self._omega()
        lp, ld, layer_bytes = self._layer_tables()
        alpha, beta, n_pass = self._terms()
        caps = [self._device_capacity(j) for j in range(len(self.devices))]
        table = self._range_table(omega, layer_bytes, caps)
        types = [d.type_name for d in self.devices]
        found, cut = _solve_dp(
            table, lp, ld, caps, types, alpha, beta, n_pass, self.theta, cutoff
        )
        if found is None:
            return _infeasible(time.perf_counter() - t0, "pruned" if cut else "infeasible")
        objective, stages = found
        group_device, choice = [], []
        for j, (blk, row) in enumerate(stages):
            for _, k in sorted(blk.bits_of(row).items()):
                group_device.append(j)
                choice.append(k)
        # summed in group order: the quality term the simulated objective adds
        quality = float(sum(omega[i, k] for i, k in enumerate(choice)))
        return ILPSolution(
            group_device=tuple(group_device),
            group_bits=tuple(self.bits[k] for k in choice),
            objective=objective,
            latency_term=objective - self.theta * quality,
            quality_term=quality,
            status="optimal",
            solve_seconds=time.perf_counter() - t0,
        )

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
