"""Event-batch engine of the online simulator.

:func:`repro.sim.online.simulate_online` — admit at a token boundary,
price one iteration, retire, poll the drift detector — runs here as
array-based event processing over **boundary-indexed state**; nothing is
kept per in-flight request.  Both scheduling policies are admission
rules of this one engine, and both go through
:func:`~repro.cost.stagecosts.admit_run` — the runtime
:class:`~repro.runtime.scheduler.ContinuousScheduler`'s rule too:

* ``"continuous"`` admits the FIFO prefix that fits the free token slots
  at every boundary (the rest of this docstring);
* ``"wave"`` admits only into an empty system, the prefix
  :func:`~repro.cost.stagecosts.wave_admits` takes, and pads every
  member to the wave's maxima: each goes on the ring at ``n_max`` with
  ``s_max + n_max`` slots, and the context sum counts ``s_max`` per
  member, so ring, ``ctx`` and ``held`` stay one ledger.  While a wave
  is in flight its advances admit nothing (the head bound is the head
  itself).  Samples need nothing new: TTFT comes from ``adm_it`` and
  latency at each member's own ``gen_len``, where the runtime stamps
  ``finish_time``; throughput counts useful tokens.

Both engines price an iteration from the same unit rows:
``engine="analytic"`` with the closed form (the first unit's stage sum
plus each later unit's slowest stage), ``engine="des"`` with the
flow-shop recurrence of :func:`iteration_makespan_des`, which lives
here because this engine is its only caller.

State.  Request columns (``arrival`` / ``prompt_len`` / ``gen_len``)
stay numpy arrays end to end.  The in-flight set is three integers —
``b`` requests, ``ctx`` = sum of (prompt + produced) over them, ``held``
KV token slots — and a **retire ring**: ``r_cnt[i]`` requests and
``r_tok[i]`` token slots leave at the end of boundary ``i``.  A request
admitted in boundary ``i`` leaves at ``i + gen_len - 1``, and what it
then takes out of ``ctx`` is ``prompt + gen`` — exactly its slots — so
two ring columns serve all three integers.  ``adm_it[k]`` records the
boundary that admitted trace row ``k`` (0: never) and ``t_end[i]`` the
clock after boundary ``i``.

* KV admission is one integer ledger: ``held`` against the cost model's
  :meth:`~repro.cost.stagecosts.StageCostModel.kv_token_budget`.  A
  request's per-stage bytes are exactly ``tokens x a per-stage constant``
  in float64, so counting slots decides what the spec's per-stage byte
  test decides, and ``held`` times the slot's bytes is the byte ledger's
  float bit for bit (the drift detector's occupancy).  Admission at a
  boundary is two ``searchsorted`` calls: the arrived candidates on the
  arrival column, the FIFO prefix that fits on the token prefix sums.
  Heads that do not fit even alone are rejected, and only into an empty
  system.
* The context mean of a boundary is ``float(ctx) / float(b)``: the spec
  averages integers (an exact float64 sum below 2^53, divided once), so
  the integer running sum yields the same quotient bit for bit.
* With a group in flight the engine takes one **speculative advance**,
  for either policy and either engine.  It walks up to ``_K`` boundaries
  onto the ring under the exact admission rule — the queue head moves to
  ``min(F_t, A_t)``, the KV-slot/cap bound of the state entering boundary
  ``t`` and the rows arrived by ``t``'s start — on the *schedule's own
  clock*: the decode price of the batch it schedules, from
  :meth:`~repro.cost.stagecosts.StageCostModel.decode_price_pieces`, plus
  the prefill units it admits.  Between events (an arrival landing, a
  retirement, a breakpoint of the price) a run's clock is one closed
  form.  While the head stays inside the rows arrived before the
  advance (``F_t <= q``) the clock cannot move it, so a backlog's heads
  come in array steps, a chunk per ``searchsorted`` of the retirements
  on the ring, exact through the first end at which a row the chunk
  admits leaves.  Every boundary is then priced in one
  :meth:`~repro.cost.stagecosts.StageCostModel.unit_decode_times_batch`
  call (prefill tails folded left; the DES runs the flow-shop
  recurrence :func:`iteration_makespan_des` on admitting boundaries and
  :func:`iteration_makespan_des_batch` on the rest), the clock is
  ``np.add.accumulate`` — the same left fold as ``now += step`` — and
  the advance commits the longest prefix whose every head equals the
  exact rule's, ``E_t = max(pr[t-1], min(F_t, arr.searchsorted(C[t-1],
  "right")))`` at the priced start ``C[t-1]``.  The guess agrees with
  the price to rounding, so below capacity one pricing commits the
  whole schedule (the seed-0 ``sim_trace_slo`` ladder: 36 advances,
  36 pricings, 34,547 boundaries; a clock guessed from the previous
  advance's steps took 115 advances, 242 pricings and 141,127 priced
  boundaries).  Boundary 1 sees the true arrivals, so at least one
  boundary commits; the commit also stops after a drift-window
  crossing, and its rows past the cut come off the ring.
* Samples are **derived, not accumulated**, once per *block* of at most
  ``_BLOCK`` boundaries: TTFT is ``t_end[adm_it[k]] - arrival[k]`` in
  row order (= FIFO admission order) and latency is ``t_end[fin] -
  arrival`` in the stable order of ``fin = adm_it + gen_len - 1`` — the
  (boundary, admission) order the spec appends in, because within a
  boundary retirees leave in admission order and a later block holds
  only later boundaries.  The sort key ``fin - block start`` fits int16
  (numpy radix-sorts 16-bit keys); closing a block re-bases ring and
  clock log, so memory beside the O(requests) columns is O(max
  ``gen_len`` + block), not O(iterations).

The floating-point contract is that of a one-boundary-at-a-time loop
(``tests/sim/online_spec.py``, which the equality tests replay every
case through): the batch cost-model views are bit-for-bit equal to
their scalar counterparts and KV byte arithmetic is exact in float64, so
every :class:`~repro.sim.online.OnlineResult` field and every
``sample_sink`` array is **byte-identical** to the spec's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from ..cost.stagecosts import StageCostModel, admit_run

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.plan import ExecutionPlan
    from ..runtime.replan import DriftConfig, Replanner

__all__ = [
    "trace_columns",
    "simulate_continuous_vectorized",
    "iteration_makespan_des",
    "iteration_makespan_des_batch",
]

#: boundaries an advance schedules at most; the largest admission whose
#: rows the schedule tracks one by one (below capacity admissions take a
#: few rows and the runs between their retirements are long); and the
#: boundaries a backlog's array step reads at once, a little above the
#: dozen it commits before a row it admitted leaves (DESIGN §13)
_K, _FEW, _CHUNK = 1024, 8, 16

#: boundaries per completion-ordering block: a block-relative finish
#: boundary must fit the int16 key numpy radix-sorts
_BLOCK = (1 << 15) - 1


def _landing(clock: float, at: float, step: float, beta: float, i: int) -> int:
    """The first boundary count ``j`` in ``[1, i]`` after which a run's
    clock — ``clock + j * step + beta * j (j - 1) / 2``, evaluated as the
    run evaluates it — reaches ``at``, given that ``j = i`` does: the
    quadratic's root, then a step either way for rounding."""
    d, v = at - clock, step - 0.5 * beta
    if d <= 0:
        return 1
    j = math.ceil(2.0 * d / (v + math.sqrt(v * v + 2.0 * beta * d)))
    j = 1 if j < 1 else i if j > i else j
    while j < i and clock + (j * step + beta * (j * (j - 1) // 2)) < at:
        j += 1
    while j > 1 and clock + ((j - 1) * step + beta * ((j - 1) * (j - 2) // 2)) >= at:
        j -= 1
    return j


def iteration_makespan_des(unit_stage_times: "list[np.ndarray]") -> float:
    """Event-driven makespan of one continuous-batching iteration.

    Each unit (the fused decode group, plus one prefill unit per newly
    admitted request) flows through the stages in order; units overlap
    across stages exactly as micro-batches do in the offline pipeline.
    ``unit_stage_times[u][j]`` is unit ``u``'s busy time on stage ``j``
    (comm folded into the sender).  That schedule is a permutation flow
    shop in unit order, so its completion times follow the recurrence
    ``C[u][j] = max(C[u-1][j], C[u][j-1]) + t[u][j]`` — the same floats
    an event-driven run of the task graph produces
    (``tests/sim/des_spec.py``), without building it.  The closed-form
    counterpart is ``sum_j t_0j + sum_{u>0} max_j t_uj``; this is its
    exact lower bound, which ``engine="des"`` uses.
    """
    done: list[float] = []  # C[u-1][j]: when stage j finished the last unit
    for stage_times in unit_stage_times:
        if not done:
            done = [0.0] * len(stage_times)
        c = 0.0
        for j, d in enumerate(stage_times):
            c = done[j] = max(done[j], c) + float(d)
    return done[-1] if done else 0.0


def iteration_makespan_des_batch(stage_times: np.ndarray) -> np.ndarray:
    """Vectorized DES makespans of single-unit (decode-only) iterations.

    Row ``i`` of ``stage_times`` holds one iteration's per-stage busy
    times.  With a single unit the event-driven schedule degenerates to
    the sequential chain through the stages, so the makespan is the
    left-fold sum ``((0 + t_0) + t_1) + ...`` — evaluated here as
    column-wise adds, bit-identical to ``iteration_makespan_des([row])``
    per row.  The engine prices whole decode runs through this instead
    of one recurrence per token step.
    """
    st = np.asarray(stage_times, dtype=np.float64)
    if st.ndim != 2:
        raise ValueError("stage_times must be a (iterations, stages) matrix")
    acc = np.zeros(st.shape[0])
    for j in range(st.shape[1]):
        acc = acc + st[:, j]
    return acc


def trace_columns(trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arrivals, prompt_lens, gen_lens)`` sorted by arrival (stable).

    :class:`~repro.workload.traces.ArrivalTrace` inputs pass their
    columns through without materializing per-request objects; any other
    sequence of arrival records becomes one first, so every trace is
    validated at one site.  The stable argsort matches ``sorted(trace,
    key=lambda r: r.arrival)`` tie for tie, so both engines see the same
    FIFO order; columns already in that order pass through uncopied.
    """
    from ..workload.traces import ArrivalTrace

    tr = ArrivalTrace.from_requests(trace)
    cols = tr.arrivals, tr.prompt_lens, tr.gen_lens
    if (tr.arrivals[1:] < tr.arrivals[:-1]).any():
        order = np.argsort(tr.arrivals, kind="stable")
        cols = tuple(c[order] for c in cols)
    return tuple(np.ascontiguousarray(c) for c in cols)


class _Engine:
    """One simulation run's mutable state (ring, clock, counters)."""

    def __init__(
        self,
        columns: tuple[np.ndarray, np.ndarray, np.ndarray],
        *,
        max_batch: int | None,
        engine: str,
        scm: StageCostModel,
        drift: "DriftConfig | None",
        replanner: "Replanner | None",
        sample_sink: "dict | None" = None,
        policy: str = "continuous",
    ) -> None:
        if max_batch is not None and max_batch <= 0:
            raise ValueError("max_batch must be positive")  # would never admit
        self.sample_sink = sample_sink
        self.policy = policy
        self.wave = policy == "wave"
        self.arr, self.spr, self.sgen = columns
        n = self.n_req = self.arr.size
        self._toks = self.spr + self.sgen
        self._gmax = int(self.sgen.max(initial=1))
        # distinct prompt lengths: small positive ints, so a bincount
        # stands in for np.unique's sort of the whole column
        self._spr_count = np.bincount(self.spr)
        self._uniq_spr = np.flatnonzero(self._spr_count)
        zero = np.zeros(1, dtype=np.int64)
        self._cumq = np.concatenate((zero, np.cumsum(self._toks)))
        self._cumspr = np.concatenate((zero, np.cumsum(self.spr)))
        self.max_batch = max_batch
        self.des = engine == "des"
        self.drift = drift
        self.replanner = replanner

        self.detector = None
        self.win_end = float("inf")
        if drift is not None:
            from ..runtime.replan import DriftDetector

            self.detector = DriftDetector(drift)
            self.win_end = self.detector.next_window_end()

        self._bind_cost_model(scm)

        # the in-flight set: requests, sum of (prompt + produced), KV
        # token slots — and when they leave.  Boundary i (1-based count
        # of iterations) lives at slot i - base of ring and clock log.
        self.b = self.ctx = self.held = 0
        self.it = 0  # boundaries run
        self.base = 0  # boundaries run before the open block
        ring = _BLOCK + self._gmax + 1
        self.r_cnt = np.zeros(ring, dtype=np.int64)
        self.r_tok = np.zeros(ring, dtype=np.int64)
        self.t_end = np.empty(_BLOCK + 1)
        self.adm_it = np.zeros(n, dtype=np.int64)
        self.ptr = 0  # queue head: requests [ptr, n_req) still pending
        self.blk_ptr = 0  # queue head when the open block began
        self.lw = 0  # low water: every trace row below it has left
        self.obs_ptr = 0  # arrivals already flushed to the detector
        self.now = 0.0
        # per-request samples, derived block by block; lat_idx joins each
        # latency back to its sorted-trace row (TTFTs are in row order)
        self.lat, self.tt = np.empty(n), np.empty(n)
        self.lat_idx = np.empty(n, dtype=np.int64)
        self.n_done = self.n_adm = 0
        self.obs_t: list[float] = []
        self.obs_v: list[float] = []
        self.rejected = 0
        self.inflight_sum = 0
        self.drift_triggers = 0
        self.migrations = 0
        self.replans = 0
        self.migration_seconds = 0.0

    # -- cost-model-dependent tables ------------------------------------
    def _bind_cost_model(self, scm: StageCostModel) -> None:
        """(Re)derive every table keyed by the current plan's cost model."""
        self.scm = scm
        self.budget = scm.kv_token_budget()
        # occupancy of the stages that have a KV pool: held slots times
        # one slot's bytes, over the pool
        headroom = scm.kv_headroom()
        pool = headroom > 0
        self._slot_bytes = scm.request_kv_bytes(1, 0)[pool]
        self._pool_bytes = headroom[pool]
        # batch-1 prefill units of every prompt length in the trace, priced
        # in one call and scattered into arrays indexed by prompt length:
        # a unit's stage sum (it heads an iteration), its stage max (it
        # follows one) and, for the DES, the per-stage row itself
        rows = scm.unit_prefill_times_batch(self._uniq_spr)
        top = int(self._uniq_spr.max(initial=0)) + 1
        self._pf_sum = np.full(top, np.nan)
        self._pf_max = np.full(top, np.nan)
        self._pf_sum[self._uniq_spr] = rows.sum(axis=1)
        self._pf_max[self._uniq_spr] = rows.max(axis=1)
        if self.des:
            self._pf_rows = np.full((top, rows.shape[1]), np.nan)
            self._pf_rows[self._uniq_spr] = rows
            self._dec_row = np.zeros(rows.shape[1])  # until a decode unit is priced
        # the trace's mean stage max: an advance's clock charges it per
        # row of a backlog until the backlog is admitted
        self._pf_mean = float(
            self._spr_count[self._uniq_spr] @ self._pf_max[self._uniq_spr]
        ) / max(self.n_req, 1)

    def _des_lead(self) -> np.ndarray:
        """Per prompt length, the time the DES charges a boundary's first
        prefill unit beyond its stage max (the closed form charges just
        that): behind the last priced decode unit, the two-unit flow
        shop's makespan — a max over the stage where the prefill takes
        over — less the decode unit's."""
        head = np.cumsum(self._dec_row)
        tail = np.cumsum(self._pf_rows[:, ::-1], axis=1)[:, ::-1]
        return (head + tail).max(axis=1) - head[-1] - self._pf_max

    def _ring_add(self, slots: np.ndarray, toks: np.ndarray, add=np.add) -> None:
        """Put per-request retire contributions on the ring at ``slots``
        (``add=np.subtract`` takes them back off)."""
        add.at(self.r_cnt, slots, 1)
        add.at(self.r_tok, slots, toks)

    # -- the boundary that opens a busy period --------------------------
    def _admission_iteration(self, p: int) -> None:
        """Run the boundary that admits trace rows ``[ptr, p)`` into an
        empty system: batch-1 prefill units only."""
        p0 = self.ptr
        n = p - p0
        prompts = self.spr[p0:p]
        if self.des:
            step = float(iteration_makespan_des(list(self._pf_rows[prompts])))
        else:
            step = self._units_price(prompts)
        self.now += step
        self.it += 1
        j = self.it - self.base
        self.t_end[j] = self.now
        self.inflight_sum += n
        self.adm_it[p0:p] = self.it
        self.ptr = p
        if self.wave:
            # every member is padded to the wave's maxima: s_max + n_max
            # slots, context s_max + produced, and all leave together
            # after n_max tokens
            s_max, n_max = int(prompts.max()), int(self.sgen[p0:p].max())
            self.b, self.ctx, self.held = n, n * (s_max + 1), n * (s_max + n_max)
            self.r_cnt[j + n_max - 1] += n
            self.r_tok[j + n_max - 1] += self.held
        else:
            self.b = n
            self.ctx = n + int(self._cumspr[p] - self._cumspr[p0])
            self.held = int(self._cumq[p] - self._cumq[p0])
            self._ring_add(j + self.sgen[p0:p] - 1, self._toks[p0:p])
        gone = int(self.r_cnt[j])
        if gone:  # retire at the boundary: the refund is available at once
            toks = int(self.r_tok[j])
            self.b -= gone
            self.ctx -= toks
            self.held -= toks
        self._observe_boundary()

    def _units_price(self, prompts: np.ndarray) -> float:
        """Closed-form price of one batch-1 prefill unit per prompt: the
        first heads the iteration (stage sum), the rest follow it (stage
        max), folded left."""
        tail = 0
        for v in self._pf_max[prompts[1:]].tolist():
            tail = tail + v
        return float(self._pf_sum[prompts[0]] + tail)

    # -- the speculative advance ----------------------------------------
    def _advance(self, q: int) -> int:
        """Run the boundaries ahead of a group in flight, priced in one
        batch, and commit the longest exact prefix (returned; >= 1).
        Rows ``[ptr, q)`` have arrived by ``now``.

        The schedule walks from event to event.  At boundary ``t`` the
        queue head moves to ``min(F_t, A_t)``: ``F_t`` the KV-slot/cap
        bound of the state entering ``t`` (the end
        :func:`~repro.cost.stagecosts.admit_run` admits to; for a wave,
        the head itself), ``A_t`` the rows arrived by ``t``'s start on
        the schedule's clock.  Between events — an arrival landing, a
        retirement on the ring, a breakpoint of the decode price — the
        batch is fixed and the mean context rises one token per
        boundary, so a run's clock is one closed form and where an
        arrival lands one quadratic (:func:`_landing`).  While the head
        is a row arrived before the advance and ``F_t <= q``, arrivals
        cannot move it, and the heads ahead come in array steps (DESIGN
        §13).  An admitting boundary adds its prefill tail (a backlog's
        rows at the trace's mean stage max until the backlog is in; the
        DES's first unit its flow-shop lead).  The walk stops at the drain, after the
        drift-window close or after ``_K`` boundaries; the batch price
        and the head validation then decide what commits.
        """
        arr, spr, sgen, toks = self.arr, self.spr, self.sgen, self._toks
        cumq, cumspr, pf_max = self._cumq, self._cumspr, self._pf_max
        r_cnt, r_tok = self.r_cnt, self.r_tok
        it0, now0, ptr0 = self.it, self.now, self.ptr
        b0, ctx0, held0 = self.b, self.ctx, self.held
        j0 = it0 - self.base  # advance boundary t lives at slot j0 + t
        budget, n_req, win_end = self.budget, self.n_req, self.win_end
        cap = self.max_batch or n_req
        K = min(_K, _BLOCK - j0)
        # the decode price of the batch in flight, as pieces of lines in
        # the mean context (the fitted model's read the truncated context)
        pieces, folds = self.scm.decode_price_pieces, self.scm._decode_price_folds
        floor = self.scm.source == "model"
        # boundaries whose end retires rows: a heap of the rows on the ring
        # (stale and repeated entries allowed), and up to `dense` any
        # boundary may (a large admission's rows are not pushed one by one)
        outs = (np.flatnonzero(r_cnt[j0 + 1:j0 + K + 1]) + 1).tolist()
        dense = 0

        def next_out(t: int) -> int:
            """A boundary from ``t`` on, no later than the first whose end
            retires rows."""
            while outs and outs[0] < t:
                heappop(outs)
            return t if t <= dense else outs[0] if outs else K + 1

        # ---- schedule: walk the events on the schedule's own clock -------
        adm_t: list[int] = []  # admitting boundaries, and the queue
        adm_p: list[int] = []  # head after each
        lead_of = self._des_lead() if self.des and not self.wave and ptr0 < n_req else None
        pf_mean, pf_ptr = self._pf_mean, ptr0  # rows [pf_ptr, ptr) at pf_mean
        gmax = self._gmax
        t, clock, b, ctx, held, ptr = 1, now0, b0, ctx0, held0, ptr0
        nxt = next_out(1)
        # the queue head's arrival (-inf: by now) and token slots, and the
        # slot and prompt prefix sums it starts (a wave in flight admits none)
        h_arr, h_tok, h_cq, h_cs = math.inf, 0, cumq.item(ptr), cumspr.item(ptr)
        if ptr < n_req and not self.wave:
            h_arr = -math.inf if ptr < q else arr.item(ptr)
            h_tok = toks.item(ptr)
        while True:
            # boundary t starts at clock; b, ctx and held enter it
            xs, al, be = pieces(b)
            c = ctx / b
            if floor:
                c = float(int(c))
            k = bisect_right(xs, c)
            beta = be[k]
            step = al[k] + beta * c
            fits = held + h_tok <= budget and b < cap
            p = ptr
            # bulk: the head arrived before the advance (ptr < q) and F_t <= q,
            # as when it does not fit (F_t is the head while held <= budget)
            bulk = not fits and h_arr <= now0 and held <= budget
            if fits and h_arr <= clock:  # the head is in and fits: min(F_t, A_t)
                if ptr + 1 == n_req or ptr + 1 >= q and arr.item(ptr + 1) > clock:
                    p = ptr + 1
                else:
                    f = min(
                        int(cumq.searchsorted(h_cq + (budget - held), "right")) - 1,
                        ptr + cap - b,
                    )
                    if f > q:  # past the backlog the clock decides
                        if pf_ptr < ptr:
                            clock += float(pf_max[spr[pf_ptr:ptr]].sum()) - (ptr - pf_ptr) * pf_mean
                            pf_ptr = ptr
                        p = min(f, int(arr.searchsorted(clock, "right")))
                    else:
                        p, bulk = f, True
            if bulk:  # boundaries t..s-1 in array steps (DESIGN §13): the
                # head after boundary x is min(cumq.searchsorted(A + RT) - 1,
                # B + RC), RT and RC the slots and rows retired since t
                A, B = h_cq + (budget - held), ptr + cap - b
                n = (win_end - clock) / (step + (p - ptr) * pf_mean)
                T = t + int(min(max(n, 0.0), K - t))  # about where the window closes
                s, hs, heads = t, ptr, []
                rc0, rt0 = -r_cnt.item(j0 + t - 1), -r_tok.item(j0 + t - 1)
                while s <= T:  # a chunk s..e-1, from the retirements on the
                    # ring: exact through m, the first end at which a row it
                    # admits leaves, the backlog's end or the drain
                    e = min(s + _CHUNK, T + 1)
                    rc = np.add.accumulate(r_cnt[j0 + s - 1:j0 + e])
                    rt = np.add.accumulate(r_tok[j0 + s - 1:j0 + e])
                    f = np.minimum(
                        cumq.searchsorted(rt[:-1] + (A + rt0), "right") - 1,
                        rc[:-1] + (B + rc0),
                    )
                    u = int(f.searchsorted(q))
                    stop = u < f.size  # the backlog is in by s + u
                    if not stop or f.item(u) > q:
                        u -= 1
                    if u < 0:
                        break
                    nb = f[:u + 1] - np.concatenate(((hs,), f[:u]))  # rows admitted
                    fin = np.repeat(np.arange(j0 + s - 1, j0 + s + u), nb) + sgen[hs:f.item(u)]
                    m = int(fin.min()) - j0 - s if fin.size else u
                    if m < u:
                        u, stop = m, False
                    if f.item(0) == hs:  # nothing admitted at s: it may drain
                        d = np.flatnonzero(f[:u] - rc[1:u + 1] == rc0 + ptr - b)
                        if d.size:
                            u, stop = int(d[0]), True
                    pu = f.item(u)
                    self._ring_add(fin[:pu - hs], toks[hs:pu])
                    if pu > hs:  # after it any boundary may retire rows
                        dense = max(dense, s + u - 1 + gmax)
                    heads.append(f[:u + 1])
                    rc0, rt0 = rc0 + rc.item(u), rt0 + rt.item(u)
                    s, hs = s + u + 1, pu
                    if stop or rc0 + r_cnt.item(j0 + s - 1) == b - ptr + pu:  # or drained
                        break
                # the schedule's clock through s - 1: each boundary's decode
                # price from the folded pieces, its rows at the mean stage max
                pr = np.concatenate(heads)
                nb = np.diff(pr, prepend=ptr)
                pv = pr - nb  # the head entering t + i
                rc = np.add.accumulate(r_cnt[j0 + t - 1:j0 + s - 1])
                rt = np.add.accumulate(r_tok[j0 + t - 1:j0 + s - 1])
                bi = pv - (rc - rc[0]) + (b - ptr)  # b, ctx entering t + i
                add = bi + nb + (cumspr[pr] - cumspr[pv])
                ci = (ctx + rt[0]) - rt + (np.cumsum(add) - add)
                c = np.floor(ci / bi) if floor else ci / bi
                fx, fa, fb, _ = folds(int(bi.max()))
                k = (fx[bi] <= c[:, None]).sum(axis=1)
                ends = fa[bi, k] + fb[bi, k] * c + nb * pf_mean
                if lead_of is not None:
                    ends += np.where(nb > 0, lead_of[spr[pv]], 0.0)
                clock += float(ends.sum())
                adm_t.extend(range(t, s))
                adm_p.extend(pr.tolist())
                i, nxt = s - t, s - 1
                b, ctx = bi.item(-1) + nb.item(-1), ci.item(-1) + add.item(-1)
                held += cumq.item(hs) - h_cq - (rt.item(-1) - rt.item(0))
                ptr, h_cq, h_cs = hs, cumq.item(hs), cumspr.item(hs)
                if ptr < q:
                    h_tok = toks.item(ptr)
                else:  # the backlog is in: exact units, and the clock decides
                    clock += float(pf_max[spr[pf_ptr:ptr]].sum()) - (ptr - pf_ptr) * pf_mean
                    pf_ptr = ptr
                    h_arr, h_tok = (arr.item(ptr), toks.item(ptr)) if ptr < n_req else (math.inf, 0)
            elif p > ptr:  # boundary t admits rows [ptr, p)
                n = p - ptr
                if n == 1:
                    ds = spr.item(ptr)
                    fin = t - 1 + sgen.item(ptr)
                    r_cnt[j0 + fin] += 1
                    r_tok[j0 + fin] += h_tok
                    heappush(outs, fin)
                    dq = h_tok
                else:
                    self._ring_add(j0 + t - 1 + sgen[ptr:p], toks[ptr:p])
                    dq, ds = cumq.item(p) - h_cq, cumspr.item(p) - h_cs
                    if n <= _FEW:
                        fins = [t - 1 + g for g in sgen[ptr:p].tolist()]
                        for g in fins:
                            heappush(outs, g)
                        fin = min(fins)
                    else:
                        fin, dense = t, max(dense, t - 1 + gmax)
                if ptr < q:
                    tail = n * pf_mean
                else:
                    tail = pf_max.item(ds) if n == 1 else float(pf_max[spr[ptr:p]].sum())
                    pf_ptr = p
                if lead_of is not None:
                    tail += lead_of.item(spr.item(ptr))
                clock += step + tail
                ctx += b + n + ds
                b, held = b + n, held + dq
                adm_t.append(t)
                adm_p.append(p)
                ptr, i = p, 1
                if fin < nxt:
                    nxt = fin
                if pf_ptr < ptr and ptr >= q:  # the backlog is in: exact units
                    clock += float(pf_max[spr[pf_ptr:ptr]].sum()) - (ptr - pf_ptr) * pf_mean
                    pf_ptr = ptr
                h_cq, h_cs = h_cq + dq, h_cs + ds
                if ptr < n_req:
                    h_arr = -math.inf if ptr < q else arr.item(ptr)
                    h_tok = toks.item(ptr)
                else:
                    h_arr, h_tok = math.inf, 0
            else:  # a run that admits nothing: through the next retirement,
                # K or the piece's end, cut where the head lands (if it
                # would fit) or the drift window closes
                i = (nxt if nxt < K else K) - t + 1
                if i > 1 and k < len(xs):
                    m = math.ceil(xs[k] - c)  # boundaries left on this piece
                    if m < i:
                        i = m
                end = clock + (i * step + beta * (i * (i - 1) // 2))
                if fits and end >= h_arr:
                    i = _landing(clock, h_arr, step, beta, i)
                    end = clock + (i * step + beta * (i * (i - 1) // 2))
                if end >= win_end:
                    i = _landing(clock, win_end, step, beta, i)
                    end = clock + (i * step + beta * (i * (i - 1) // 2))
                clock = end
                ctx += i * b
            t += i
            last = t - 1
            if last == nxt:  # rows may leave at its end
                gone = r_cnt.item(j0 + last)
                if gone:
                    tok = r_tok.item(j0 + last)
                    b, ctx, held = b - gone, ctx - tok, held - tok
                    if not b:
                        break
                nxt = t if t <= dense else next_out(t)
            if t > K or clock >= win_end:
                break
        L = last
        pr = np.full(L + 1, ptr0, dtype=np.int64)  # queue head after t
        if adm_t:
            pr[adm_t] = adm_p
            np.maximum.accumulate(pr, out=pr)
        nb = pr[1:] - pr[:-1]
        t_adm = np.repeat(np.arange(1, L + 1, dtype=np.int64), nb)
        b_aft = b0 + np.cumsum(nb - r_cnt[j0 + 1:j0 + L + 1])
        b_bef = np.concatenate(((b0,), b_aft[:-1]))
        cq = cumq[pr]
        held_aft = held0 + np.cumsum(cq[1:] - cq[:-1] - r_tok[j0 + 1:j0 + L + 1])
        # the exact rule's head bound: KV slots/cap, never below the head
        f = pr[:-1]
        if not self.wave:
            held_bef = np.concatenate(((held0,), held_aft[:-1]))
            f = np.maximum(f, np.minimum(
                cumq.searchsorted(cq[:-1] + (budget - held_bef), "right") - 1,
                (pr[:-1] + cap) - b_bef,
            ))
        cs, tok = cumspr[pr], r_tok[j0 + 1:j0 + L + 1]
        s_aft = ctx0 + np.cumsum(b_bef + nb + (cs[1:] - cs[:-1]) - tok)
        s_bef = np.concatenate(((ctx0,), s_aft[:-1]))
        # ---- price: one batch, prefill tails folded left ---------------
        rows = self.scm.unit_decode_times_batch(b_bef, s_bef / b_bef)
        step = iteration_makespan_des_batch(rows) if self.des else rows.sum(axis=1)
        adm = nb.nonzero()[0]
        if adm.size and self.des:
            for t in adm.tolist():
                step[t] = iteration_makespan_des([rows[t], *self._pf_rows[spr[pr[t]:pr[t + 1]]]])
        elif adm.size:  # each admitting boundary's stage maxes folded left
            # along a row of a zero-padded matrix (adding 0.0 is exact)
            lens, col = nb[adm, None], np.arange(int(nb.max()))
            m = pf_max[spr[np.minimum(pr[adm, None] + col, ptr - 1)]]
            step[adm] += np.add.accumulate(np.where(col < lens, m, 0.0), axis=1)[:, -1]
        C = np.add.accumulate(np.concatenate(((now0,), step)))
        # ---- validate: each head is E_t, the exact rule's --------------
        e = np.minimum(f, arr.searchsorted(C[:-1], "right"))
        miss = e != pr[1:]
        M = Mv = int(miss.argmax()) if miss.any() else L
        flush = False
        c = int(np.searchsorted(C[1:Mv + 1], win_end, side="left"))
        if c < Mv:
            M, flush = c + 1, True  # poll right after the crossing
        keep = int(pr[M])
        if keep < ptr:  # rows placed past the cut come off the ring
            slots = j0 - 1 + t_adm[keep - ptr0:] + sgen[keep:ptr]
            self._ring_add(slots, toks[keep:ptr], np.subtract)
        if self.des:  # the decode unit the next advance's leads follow
            self._dec_row = rows[min(Mv, L - 1)]

        # ---- commit M boundaries --------------------------------------
        if keep > ptr0:
            self.adm_it[ptr0:keep] = it0 + t_adm[:keep - ptr0]
        self.t_end[j0 + 1:j0 + M + 1] = C[1:M + 1]
        self.it = it0 + M
        self.inflight_sum += int(b_bef[:M].sum()) + keep - ptr0
        self.now = float(C[M])
        self.b, self.ctx = int(b_aft[M - 1]), int(s_aft[M - 1])
        self.held, self.ptr = int(held_aft[M - 1]), keep
        if self.detector is not None:
            self._observe(C[1:M + 1], held_aft[:M])
            if flush:
                self._flush_and_poll()
        return M

    # -- drift detection / live replanning ------------------------------
    def _observe(self, times: np.ndarray, held: np.ndarray) -> None:
        """Buffer one occupancy observation per boundary: the fullest
        stage's share of its KV pool.  ``held x slot bytes`` is an exact
        product, hence bitwise the byte ledger's running add/sub chain."""
        if self._pool_bytes.size:
            occ = (held[:, None] * self._slot_bytes / self._pool_bytes).max(axis=1)
            self.obs_v.extend(occ.tolist())
        else:
            self.obs_v.extend([0.0] * held.size)
        self.obs_t.extend(times.tolist())

    def _observe_boundary(self) -> None:
        """Record this boundary's occupancy; poll on window crossings."""
        if self.detector is None:
            return
        self._observe(np.array([self.now]), np.array([self.held]))
        if self.now >= self.win_end:
            self._flush_and_poll()

    def _flush_and_poll(self) -> None:
        """Deliver batched observations, close windows, maybe migrate.

        The scalar loop observes and polls at every boundary; polls
        strictly inside a window are no-ops, so delivering the buffered
        observations (whose stamps are unchanged) right before the poll
        that closes the window reproduces the same window contents,
        the same triggers, and the same estimates.
        """
        det = self.detector
        k = int(np.searchsorted(self.arr, self.now, side="right"))
        if k > self.obs_ptr:
            det.observe_arrivals(
                self.arr[self.obs_ptr:k],
                self.spr[self.obs_ptr:k],
                self.sgen[self.obs_ptr:k],
            )
            self.obs_ptr = k
        if self.obs_t:
            det.observe_occupancies(self.obs_t, self.obs_v)
            self.obs_t.clear()
            self.obs_v.clear()
        est = det.poll(self.now)
        self.win_end = det.next_window_end()
        if est is None:
            return
        self.drift_triggers += 1
        if self.replanner is None:
            return
        new_plan = self.replanner(self.scm.plan, est)
        if new_plan is None:
            return
        self._migrate(new_plan)

    def _migrate(self, new_plan: "ExecutionPlan") -> None:
        """Mirrored live migration on array state (same pricing as
        scalar).  The in-flight requests keep their token slots; only
        the budget they count against is the new plan's."""
        scm = self.scm
        recut = new_plan.stages != scm.plan.stages
        if recut:
            new_scm = StageCostModel(
                new_plan, scm.cluster, source=scm.source,
                latency_model=scm.model,
            )
        else:
            new_scm = scm.derive(new_plan)
        self._bind_cost_model(new_scm)
        pause = 0.0  # metadata-only switch: no shards re-cut
        if recut:
            pause = self.drift.rebuild_seconds
            if self.b:
                pause = self._replay_price(pause)
        self.now += pause
        self.migration_seconds += pause
        self.migrations += 1
        self.replans += 1
        self.detector.rebaseline(self.now)
        self.win_end = self.detector.next_window_end()

    def _in_flight(self) -> np.ndarray:
        """Trace rows of the requests in flight, in admission order: the
        admitted rows above the low-water index whose last boundary is
        still ahead (a scan — migrations and block closes are rare)."""
        lw, ptr = self.lw, self.ptr
        a = self.adm_it[lw:ptr]
        return lw + np.flatnonzero((a > 0) & (a + self.sgen[lw:ptr] - 1 > self.it))

    def _replay_price(self, pause: float) -> float:
        """Pipelined replay of in-flight KV state under the (already
        bound) new plan: one batch-1 prefill per active request, then the
        surviving decode group re-run token by token — priced exactly
        like the iterations it repeats.  ``pause`` accumulates in the
        same left-fold order as the scalar loop's ``pause +=`` chain."""
        live = self._in_flight()
        prompts = self.spr[live]
        prod = self.it + 1 - self.adm_it[live]  # tokens produced so far
        if self.des:
            pause = pause + float(iteration_makespan_des(list(self._pf_rows[prompts])))
        else:
            pause = pause + self._units_price(prompts)
        max_prod = int(prod.max())
        if max_prod > 1:
            cnt = np.bincount(prod, minlength=max_prod + 1)
            wsum = np.bincount(prod, weights=prompts, minlength=max_prod + 1)
            above = live.size - np.cumsum(cnt)
            s_above = float(prompts.sum()) - np.cumsum(wsum)
            ks = np.arange(1, max_prod, dtype=np.int64)
            b_k = above[1:max_prod]
            ctx_k = (s_above[1:max_prod] + ks * b_k) / b_k
            rows = self.scm.unit_decode_times_batch(b_k, ctx_k)
            prices = iteration_makespan_des_batch(rows) if self.des else rows.sum(axis=1)
            for v in prices.tolist():
                pause = pause + v
        return pause

    # -- sample derivation ----------------------------------------------
    def _close_block(self) -> None:
        """Derive the open block's TTFT and latency samples from
        ``adm_it`` and the clock log, then re-base ring and log on the
        block's last boundary."""
        base, it, t_end, arr = self.base, self.it, self.t_end, self.arr
        p0, p1 = self.blk_ptr, self.ptr
        # admitted in this block, row (= FIFO admission) order; rejected
        # rows keep adm_it 0
        a, at = self.adm_it[p0:p1], arr[p0:p1]
        if not a.all():
            a, at = a[a > 0], at[a > 0]
        n0, n1 = self.n_adm, self.n_adm + a.size
        self.tt[n0:n1] = t_end[a - base] - at
        self.n_adm = n1
        # finished in this block: stable int16 radix order of the
        # block-relative last boundary = (boundary, admission) order
        lw = self.lw
        a = self.adm_it[lw:p1]
        fin = a + self.sgen[lw:p1] - 1
        on = a > 0
        k = np.flatnonzero(on & (fin > base) & (fin <= it))
        key = (fin[k] - base).astype(np.int16)
        o = np.argsort(key, kind="stable")
        key, idx = key[o], lw + k[o]
        n0, n1 = self.n_done, self.n_done + idx.size
        self.lat[n0:n1] = t_end[key] - arr[idx]
        self.lat_idx[n0:n1] = idx
        self.n_done = n1
        live = np.flatnonzero(on & (fin > it))  # still in flight
        self.lw = lw + int(live[0]) if live.size else p1
        self.blk_ptr = p1
        span = it - base
        if span:
            for ring in (self.r_cnt, self.r_tok):
                ring[:-span] = ring[span:]
                ring[-span:] = 0
        self.base = it

    # -- main loop ------------------------------------------------------
    def _step(self) -> None:
        """Run one event: an advance while a group is in flight, else
        :func:`~repro.cost.stagecosts.admit_run` into the empty system —
        the rejection of heads that can never fit, then the boundary that
        opens a busy period."""
        arr = self.arr
        if self.it - self.base == _BLOCK or self.ptr - self.blk_ptr >= _BLOCK:
            self._close_block()
        ptr = q = self.ptr  # arrived, still queued: rows [ptr, q)
        if ptr < self.n_req:
            if not self.b and arr[ptr] > self.now:
                self.now = float(arr[ptr])  # jump the idle gap
            if arr[ptr] <= self.now:
                q = int(arr.searchsorted(self.now, side="right"))
        if self.b:
            self._advance(q)
            return
        r, p = admit_run(
            self._cumq, self.spr, self.sgen, ptr, q, held=self.held, b=0,
            budget=self.budget, cap=self.max_batch or self.n_req, wave=self.wave,
        )
        self.ptr = r
        self.rejected += r - ptr
        if p > r:
            self._admission_iteration(p)

    def run(self):
        from ..stats import quantile
        from .online import OnlineResult, _infeasible

        while self.ptr < self.n_req or self.b:
            self._step()
        self._close_block()
        if not self.n_done:
            return _infeasible(self.policy, self.rejected, self.sample_sink)
        lat, tt = self.lat[:self.n_done], self.tt[:self.n_adm]
        lat_idx = self.lat_idx[:self.n_done]
        if self.sample_sink is not None:
            # completion-order per-request samples for fleet-level pooling
            # (percentiles and SLO attainment are order-independent); the
            # idx arrays join each sample back to its sorted-trace row
            self.sample_sink["latencies"] = lat
            self.sample_sink["ttfts"] = tt
            self.sample_sink["lat_idx"] = lat_idx
            self.sample_sink["tt_idx"] = np.flatnonzero(self.adm_it)
        waves = np.unique(self.adm_it[self.adm_it > 0]).size if self.wave else 0
        p50, p95, p99 = np.quantile(lat, (0.5, 0.95, 0.99)).tolist()
        return OnlineResult(
            completed=lat.size,
            makespan=self.now,
            mean_latency=float(lat.mean()),
            p95_latency=p95,
            throughput=int(self.sgen[lat_idx].sum()) / self.now,
            waves=waves,
            mean_wave_batch=self.n_adm / waves if waves else 0.0,
            policy=self.policy,
            p50_latency=p50,
            p99_latency=p99,
            mean_ttft=float(tt.mean()),
            p95_ttft=quantile(tt, 0.95),
            rejected=self.rejected,
            iterations=self.it,
            mean_inflight=float(self.inflight_sum) / float(self.it),
            drift_triggers=self.drift_triggers,
            migrations=self.migrations,
            replans=self.replans,
            migration_seconds=self.migration_seconds,
        )


def simulate_continuous_vectorized(
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
    *,
    max_batch: int | None,
    engine: str,
    scm: StageCostModel,
    drift: "DriftConfig | None" = None,
    replanner: "Replanner | None" = None,
    sample_sink: "dict | None" = None,
    policy: str = "continuous",
):
    """Online simulation over pre-sorted trace ``columns`` under
    ``policy`` (``"continuous"`` or ``"wave"``): admission control,
    pricing, drift detection and migration accounting evaluated as event
    batches.  Named for the continuous policy it first ran; ``bench/``
    wraps it under this name.

    ``scm`` carries the plan, the cluster and the time source; a
    migration's cost model is built from them.  ``sample_sink``, when
    given, receives the raw per-request ``latencies``/``ttfts`` arrays so
    fleet aggregation can pool exact samples across replicas.
    """
    return _Engine(
        columns, max_batch=max_batch, engine=engine, scm=scm, drift=drift,
        replanner=replanner, sample_sink=sample_sink, policy=policy,
    ).run()
