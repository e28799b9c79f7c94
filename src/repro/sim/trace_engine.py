"""Event-batch engine of the online simulator.

:func:`repro.sim.online.simulate_online` — admit at a token boundary,
price one iteration, retire, poll the drift detector — runs here as
array-based event processing over **boundary-indexed state**; nothing is
kept per in-flight request.  Both scheduling policies are admission
rules of this one engine:

* ``"continuous"`` admits the FIFO prefix that fits the free token slots
  at every boundary (the rest of this docstring);
* ``"wave"`` admits only into an empty system, the prefix
  :func:`~repro.cost.stagecosts.wave_admits` takes — the runtime
  scheduler's rule — and pads every member to the wave's maxima: each
  goes on the ring at ``n_max`` with ``s_max + n_max`` slots, and the
  context sum counts ``s_max`` per member, so ring, ``ctx`` and ``held``
  stay one ledger.  Its decode runs watch no queue head (the wave drains
  first); it opens no stretch or window.  Samples need nothing new: TTFT
  comes from ``adm_it`` and latency at each member's own ``gen_len``,
  where the runtime stamps ``finish_time``; throughput counts useful
  tokens.

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
* The context mean of a boundary is ``float(ctx) / float(b)``: the spec
  averages integers (an exact float64 sum below 2^53, divided once), so
  the integer running sum yields the same quotient bit for bit.
* Stretches with no admission (DES; windows paused) are **decode
  runs**: three ring slices and three ``cumsum`` s give every future
  batch size, context sum and slot count, the run is priced in chunked
  :meth:`~repro.cost.stagecosts.StageCostModel.unit_decode_times_batch`
  calls, and the clock advances by ``np.add.accumulate`` — the same left
  fold as ``now += step``.  A run that only watches the queue head's
  arrival sizes its first chunk to the arrival gap (one call, not a
  ladder), and the first row priced past the run's end is kept as ``(b,
  ctx, row)``: it is the decode group of the boundary that follows, so
  that boundary is not priced again.  A run truncates at the first
  *event*: a boundary where the queue head could be admitted (arrival,
  KV fit and cap are each monotone within a run), the drift detector's
  next window close, the group draining dry, or the end of the block.
* With a real backlog — this boundary's admission leaves *arrived*
  requests unadmitted — the engine runs a **boundary stretch**: it
  schedules up to K admit/retire boundaries on the ring as integer
  arithmetic, prices them in one batch call, and commits the prefix
  before the first arrival or drift-window crossing it missed.
* Below capacity — every arrived request admitted — the analytic
  continuous engine runs an **admission window**: it guesses the
  boundary each queued arrival lands on from the last priced decode
  steps, schedules and prices up to K boundaries the same way, and
  commits the prefix on which each boundary admitted exactly the rows
  arrived by its priced start.  All three paths are exact.
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

from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from ..cost.stagecosts import StageCostModel, wave_admits

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.plan import ExecutionPlan
    from ..runtime.replan import DriftConfig, Replanner

__all__ = ["trace_columns", "simulate_continuous_vectorized"]

#: decode-run pricing chunk: start small (most runs truncate within a few
#: boundaries under load) unless the arrival gap says how far the run
#: goes, quadruple while it keeps going
_CHUNK0 = 8
_CHUNK_GROW = 4

#: speculative stretch sizing (boundaries scheduled before pricing)
_STRETCH0 = 8
_STRETCH_MAX = 8192

#: admission windows: boundaries scheduled before pricing, pricings per
#: window, queued rows placed; a commit shorter than _WINDOW_MIN
#: boundaries pauses windows for _WINDOW_PAUSE boundaries
_WINDOW, _WINDOW_TRIES, _WINDOW_ROWS = 1024, 3, 64
_WINDOW_MIN, _WINDOW_PAUSE = 4, 12

#: boundaries per completion-ordering block: a block-relative finish
#: boundary must fit the int16 key numpy radix-sorts
_BLOCK = (1 << 15) - 1


def trace_columns(trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arrivals, prompt_lens, gen_lens)`` sorted by arrival (stable).

    :class:`~repro.workload.traces.ArrivalTrace` inputs pass their
    columns through without materializing per-request objects; any other
    sequence of arrival records becomes one first, so every trace is
    validated at one site.  The stable argsort matches ``sorted(trace,
    key=lambda r: r.arrival)`` tie for tie, so both engines see the same
    FIFO order.
    """
    from ..workload.traces import ArrivalTrace

    tr = ArrivalTrace.from_requests(trace)
    order = np.argsort(tr.arrivals, kind="stable")
    return (
        np.ascontiguousarray(tr.arrivals[order]),
        np.ascontiguousarray(tr.prompt_lens[order]),
        np.ascontiguousarray(tr.gen_lens[order]),
    )


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
        # distinct prompt lengths: small positive ints, so a bincount
        # stands in for np.unique's sort of the whole column
        self._uniq_spr = np.flatnonzero(np.bincount(self.spr))
        zero = np.zeros(1, dtype=np.int64)
        self._cumq = np.concatenate((zero, np.cumsum(self._toks)))
        self._cumspr = np.concatenate((zero, np.cumsum(self.spr)))
        self.max_batch = max_batch
        self.des = engine == "des"
        if self.des:
            from .pipeline_des import (
                iteration_makespan_des,
                iteration_makespan_des_batch,
            )

            self._des_one = iteration_makespan_des
            self._des_rows = iteration_makespan_des_batch
        self.drift = drift
        self.replanner = replanner

        self.detector = None
        self.win_end = float("inf")
        if drift is not None:
            from ..runtime.replan import DriftDetector

            self.detector = DriftDetector(drift)
            self.win_end = self.detector.next_window_end()

        self._bind_cost_model(scm)

        # speculative stretch sizing: grows while stretches commit fully,
        # shrinks (and briefly pauses) when the saturation bet misses
        self._stretch_k = _STRETCH0
        # a wave admits only into an empty system: there is no backlog
        # schedule to bet on, so it never stretches
        self._stretch_block = float("inf") if self.wave else 0
        self._step_hint = 0.0
        # admission windows: analytic continuous runs only; the decode
        # steps priced past the last window's commit seed the next guess
        self._win_dec = np.empty(0)
        self._win_block = float("inf") if self.wave or self.des else 0
        # seconds per boundary of the last decode run (inf: none yet, so
        # the first run starts at _CHUNK0); sizes pricing chunks only
        self._run_pace = float("inf")

        # the in-flight set: requests, sum of (prompt + produced), KV
        # token slots — and when they leave.  Boundary i (1-based count
        # of iterations) lives at slot i - base of ring and clock log.
        self.b = self.ctx = self.held = 0
        self.it = 0  # boundaries run
        self.base = 0  # boundaries run before the open block
        ring = _BLOCK + int(self.sgen.max(initial=1)) + 1
        self.r_cnt = np.zeros(ring, dtype=np.int64)
        self.r_tok = np.zeros(ring, dtype=np.int64)
        self.t_end = np.empty(_BLOCK + 1)
        self.adm_it = np.zeros(n, dtype=np.int64)
        self.last_fin = 0  # last boundary any admitted request leaves at
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
        self._kept = None  # a row priced under the old plan is stale
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

    # -- admission ------------------------------------------------------
    def _fit_end(self, ptr: int, held: int) -> int:
        """End ``p`` of the longest FIFO run ``[ptr, p)`` whose token
        slots fit the budget beside ``held`` (one ``searchsorted`` on the
        token prefix sums); below ``ptr`` while ``held`` exceeds it."""
        cumq = self._cumq
        room = cumq[ptr] + (self.budget - held)
        return int(cumq.searchsorted(room, side="right")) - 1

    def _admit_end(self, q: int) -> int:
        """End ``p`` of the arrived FIFO run ``[ptr, p)`` this boundary
        admits: token slots within the budget, capped at ``max_batch``
        (at or below ``ptr``: nothing).  ``held`` above the budget (a
        migration to a tighter plan) admits nothing until retirements
        bring it back under.  A wave admits only into an empty system,
        the prefix :func:`~repro.cost.stagecosts.wave_admits` takes; its
        members' padded ``k * (s_max + n_max)`` slots are at least their
        ``sum(s + n)``, so the continuous fit end bounds the scan."""
        ptr = self.ptr
        p = min(self._fit_end(ptr, self.held), q)
        if self.max_batch is not None:
            p = min(p, ptr + self.max_batch - self.b)
        if self.wave:
            if self.b:
                return ptr
            return ptr + wave_admits(self.spr[ptr:p], self.sgen[ptr:p], self.budget)
        return p

    def _ring_add(self, slots: np.ndarray, toks: np.ndarray, add=np.add) -> None:
        """Put per-request retire contributions on the ring at ``slots``
        (``add=np.subtract`` takes them back off)."""
        add.at(self.r_cnt, slots, 1)
        add.at(self.r_tok, slots, toks)

    # -- one admission iteration (fused decode + batch-1 prefills) ------
    def _admission_iteration(self, p: int) -> None:
        """Run the boundary that admits trace rows ``[ptr, p)``."""
        p0, b = self.ptr, self.b
        n = p - p0
        new_prompts = self.spr[p0:p]
        if b:
            dec = self._decode_row()
        if self.des:
            units = [dec] if b else []
            units.extend(self._pf_rows[new_prompts])
            step = float(self._des_one(units))
        else:
            step = self._units_price(dec.sum() if b else None, new_prompts)
        self.now += step
        self.it += 1
        j = self.it - self.base
        self.t_end[j] = self.now
        self.inflight_sum += b + n
        self.adm_it[p0:p] = self.it
        self.ptr = p
        if self.wave:
            # the system is empty; every member is padded to the wave's
            # maxima: s_max + n_max slots, context s_max + produced, and
            # all leave together after n_max tokens
            s_max, n_max = int(new_prompts.max()), int(self.sgen[p0:p].max())
            self.b, self.ctx, self.held = n, n * (s_max + 1), n * (s_max + n_max)
            last = j + n_max - 1
            self.r_cnt[last] += n
            self.r_tok[last] += self.held
        else:
            self.b = b + n
            self.ctx += b + n + int(self._cumspr[p] - self._cumspr[p0])
            self.held += int(self._cumq[p] - self._cumq[p0])
            if n == 1:
                last = j + int(self.sgen[p0]) - 1
                self.r_cnt[last] += 1
                self.r_tok[last] += self._toks[p0]
            else:
                slots = j + self.sgen[p0:p] - 1
                last = int(slots.max())
                self._ring_add(slots, self._toks[p0:p])
        self.last_fin = max(self.last_fin, self.base + last)
        gone = int(self.r_cnt[j])
        if gone:  # retire at the boundary: the refund is available at once
            toks = int(self.r_tok[j])
            self.b -= gone
            self.ctx -= toks
            self.held -= toks
        self._observe_boundary()

    def _decode_row(self) -> np.ndarray:
        """Per-stage times of the in-flight group's next decode unit: the
        row the last decode run priced just past its end while the group
        is still that ``(b, ctx)`` — rows are a pure function of the pair
        under one cost model — else one scalar lookup."""
        kept = self._kept
        if kept is not None and kept[0] == self.b and kept[1] == self.ctx:
            return kept[2]
        return self.scm.unit_decode_times(self.b, float(self.ctx) / float(self.b))

    def _units_price(self, head, prompts: np.ndarray) -> float:
        """Closed-form price of ``head`` (a decode group's stage sum, or
        ``None``: the first prompt's prefill unit heads the iteration)
        followed by one batch-1 prefill unit per prompt."""
        if head is None:
            head = self._pf_sum[prompts[0]]
            prompts = prompts[1:]
        tail = 0
        for v in self._pf_max[prompts].tolist():
            tail = tail + v
        return float(head + tail)

    # -- speculative event-batch stretches ------------------------------
    def _stretch(self) -> int:
        """Schedule up to K boundaries speculatively, price them in one
        batch, and commit the longest valid prefix (returned; >= 1).

        While the queue outpaces the pipeline, admission depends only on
        KV slots and the concurrency cap — never on the clock — so the
        admit/retire schedule of many future boundaries is pure integer
        arithmetic on the ring: no cost model in the loop, one
        :meth:`unit_decode_times_batch` call for every boundary's decode
        group, one ``np.add.accumulate`` to recover the clock.  Boundary
        1 admits from the truly-arrived rows only, so at least one
        boundary always commits; later boundaries whose admissions
        turn out to include requests that had not yet arrived at scan
        time are discarded — their retirements taken back off the ring —
        and re-run through the exact paths.  Stretches also truncate at
        drift-window crossings (the detector poll can migrate the plan,
        invalidating the speculated schedule).
        """
        arr, spr, sgen, toks = self.arr, self.spr, self.sgen, self._toks
        r_cnt, r_tok = self.r_cnt, self.r_tok
        it0, now0 = self.it, self.now
        j0 = it0 - self.base  # stretch boundary t lives at slot j0 + t
        K = self._stretch_k
        if self.detector is not None and self._step_hint > 0.0:
            # the drift window will truncate the stretch anyway — don't
            # schedule (and then discard) boundaries far past it
            kw = int((self.win_end - now0) / self._step_hint) + 2
            if kw < K:
                K = kw if kw > _STRETCH0 else _STRETCH0
        K = min(K, _BLOCK - j0)

        ptr0 = ptr_l = self.ptr
        q1 = int(np.searchsorted(arr, now0, side="right"))
        b_l, s_l, held = self.b, self.ctx, self.held
        # group size / context sum entering boundary t (slot L + 1: what
        # the stretch leaves behind), queue head and slots held after it
        b_rec = np.empty(K + 2, dtype=np.int64)
        s_rec = np.empty(K + 2, dtype=np.int64)
        ptr_rec = np.empty(K + 1, dtype=np.int64)
        held_rec = np.empty(K + 1, dtype=np.int64)
        ptr_rec[0] = ptr0
        n_req, max_batch = self.n_req, self.max_batch
        cumq, cumspr = self._cumq, self._cumspr
        L = 0
        for t in range(1, K + 1):
            b_rec[t] = b_l
            s_rec[t] = s_l
            # FIFO admission against slots/cap; boundary 1 sees only
            # requests that have really arrived, later boundaries bet on
            # a deep backlog (checked after pricing)
            lim = q1 if t == 1 else n_req
            t0_ptr = ptr_l
            if ptr_l < lim:
                p = min(self._fit_end(ptr_l, held), lim)
                if max_batch is not None and p - ptr_l > max_batch - b_l:
                    p = ptr_l + (max_batch - b_l)
                if p > ptr_l:
                    held += int(cumq[p] - cumq[ptr_l])
                    ptr_l = p
            ptr_rec[t] = ptr_l
            count = ptr_l - t0_ptr
            s_l += b_l + count
            if count:
                s_l += int(cumspr[ptr_l] - cumspr[t0_ptr])
                b_l += count
                self._ring_add(
                    j0 + t + sgen[t0_ptr:ptr_l] - 1, toks[t0_ptr:ptr_l]
                )
            c = int(r_cnt[j0 + t])
            if c:
                b_l -= c
                rt = int(r_tok[j0 + t])
                s_l -= rt
                held -= rt
            held_rec[t] = held
            L = t
            if b_l == 0:
                break
        b_rec[L + 1] = b_l
        s_rec[L + 1] = s_l

        # ---- price all boundaries in one batch ------------------------
        bL = b_rec[1:L + 1]
        rows = self.scm.unit_decode_times_batch(bL, s_rec[1:L + 1] / bL)
        step = rows.sum(axis=1)
        reps = np.diff(ptr_rec[:L + 1])
        ptr_L = int(ptr_rec[L])
        has = reps > 0
        if has.any():
            maxes = self._pf_max[spr[ptr0:ptr_L]]
            starts = ptr_rec[:L][has] - ptr0
            # per-segment left fold: ``np.add.reduceat`` sums pairwise,
            # which drifts a ULP from the scalar loop's ``tail += pf``
            # chain — ``np.add.accumulate`` is the exact same fold
            bounds = np.append(starts, maxes.size)
            tails = np.empty(starts.size)
            for k in range(starts.size):
                seg = maxes[bounds[k]:bounds[k + 1]]
                tails[k] = seg[0] if seg.size == 1 else np.add.accumulate(seg)[-1]
            step[has] = step[has] + tails
        now_t = np.add.accumulate(np.concatenate(((now0,), step)))[1:]

        # ---- longest valid prefix -------------------------------------
        lim_v = L
        if has.any():
            prev_now = np.concatenate(((now0,), now_t[:-1]))
            hidx = np.flatnonzero(has)
            last_arr = arr[ptr_rec[1:L + 1][has] - 1]
            bad = np.flatnonzero(last_arr > prev_now[hidx])
            if bad.size:
                lim_v = int(hidx[bad[0]])  # commit strictly before it
        flush = False
        M = lim_v
        if self.detector is not None:
            c = int(np.searchsorted(now_t[:lim_v], self.win_end, side="left"))
            if c < lim_v:
                M = c + 1  # poll right after the crossing boundary
                flush = True

        # ---- commit: M boundaries stay on the ring, the rest come off --
        ptr_m = int(ptr_rec[M])
        n_m = ptr_m - ptr0
        t_adm = np.repeat(np.arange(1, L + 1, dtype=np.int64), reps)
        slots = j0 + t_adm + sgen[ptr0:ptr_L] - 1
        if ptr_L > ptr_m:
            self._ring_add(slots[n_m:], toks[ptr_m:ptr_L], np.subtract)
        if n_m:
            self.adm_it[ptr0:ptr_m] = it0 + t_adm[:n_m]
            self.last_fin = max(
                self.last_fin, self.base + int(slots[:n_m].max())
            )
        self.t_end[j0 + 1:j0 + M + 1] = now_t[:M]
        self.it = it0 + M
        self.inflight_sum += int(b_rec[1:M + 1].sum()) + n_m
        self.now = float(now_t[M - 1])
        self._step_hint = (self.now - now0) / M
        self.b = int(b_rec[M + 1])
        self.ctx = int(s_rec[M + 1])
        self.held = int(held_rec[M])
        self.ptr = ptr_m

        if self.detector is not None:
            self._observe(now_t[:M], held_rec[1:M + 1])
            if flush:
                self._flush_and_poll()

        if M == K:
            self._stretch_k = min(K * _CHUNK_GROW, _STRETCH_MAX)
        else:
            # size the next bet near what actually committed
            self._stretch_k = max(_STRETCH0, 1 << int(M).bit_length())
            if M < 4:
                # the saturation bet is missing: let the exact paths run
                # a while before speculating again
                self._stretch_block = self.it + 12
        return M

    # -- admission windows below capacity -------------------------------
    def _window(self, q: int) -> int:
        """Run up to K boundaries, each admitting what has arrived by its
        start, priced in one batch; commit the longest exact prefix
        (returned; >= 1).  Entered with a group in flight when this
        boundary admits every arrived request (rows ``[ptr, q)``).

        Guess where each queued arrival lands, schedule admissions and
        retirements as integer cumsums up to a drain or a KV/cap bind,
        price, and keep the boundaries whose queue head equals
        ``arr.searchsorted(C[t-1], "right")`` — the exact path's.  An
        early miss is placed again from the decode steps just priced.
        """
        arr, spr, sgen, toks = self.arr, self.spr, self.sgen, self._toks
        cumq, cumspr, pf_max = self._cumq, self._cumspr, self._pf_max
        it0, now0, ptr0 = self.it, self.now, self.ptr
        b0, ctx0, held0, cap = self.b, self.ctx, self.held, self.max_batch
        j0 = it0 - self.base  # window boundary t lives at slot j0 + t
        K0 = min(_WINDOW, _BLOCK - j0)
        guess = self._win_dec if self._win_dec.size else (
            self._decode_row().sum(keepdims=True))
        for _ in range(_WINDOW_TRIES):
            # ---- guess: decode steps extended by the last, start clocks
            g = np.full(K0, guess[-1])
            g[0] = now0
            g[1:guess.size + 1] = guess[:K0 - 1]
            st = np.add.accumulate(g).tolist()
            K = K0 if self.detector is None else (  # a drift poll ends it
                min(K0, bisect_left(st, self.win_end) + 2))
            # a row lands at the first start at or past its arrival; each
            # admission delays every later start by its prefill unit
            hi = max(q, ptr0 + 2 * _WINDOW_ROWS)  # boundary 1 takes [ptr0, q)
            ts: list[int] = []
            cur, d_cur, d_next = 1, 0.0, 0.0
            for i, (a, d) in enumerate(zip(
                arr[ptr0:hi].tolist(), pf_max[spr[ptr0:hi]].tolist())):
                if a > st[cur - 1] + d_cur:
                    t = max(bisect_left(st, a - d_next, 0, K) + 1, cur + 1)
                    if t > K or i >= _WINDOW_ROWS:  # end before it lands
                        K = min(K, t - 1)
                        break
                    cur, d_cur = t, d_next
                ts.append(cur)
                d_next += d
            k = ptr0 + len(ts)
            t_adm = np.array(ts, dtype=np.int64)
            # ---- schedule: the ring plus the newcomers' retirements ----
            fin = t_adm + sgen[ptr0:k] - 1
            near = fin <= K
            nb = np.bincount(t_adm, minlength=K + 1)[1:]
            cnt = self.r_cnt[j0 + 1:j0 + K + 1] + np.bincount(
                fin[near], minlength=K + 1)[1:]
            tok = self.r_tok[j0 + 1:j0 + K + 1] + np.bincount(
                fin[near], toks[ptr0:k][near], minlength=K + 1)[1:].astype(np.int64)
            pr = np.concatenate(((0,), np.cumsum(nb))) + ptr0
            b_aft = b0 + np.cumsum(nb - cnt)
            b_bef = np.concatenate(((b0,), b_aft[:-1]))
            held_aft = held0 + np.cumsum(cumq[pr[1:]] - cumq[pr[:-1]] - tok)
            s_aft = ctx0 + np.cumsum(b_bef + nb + cumspr[pr[1:]] - cumspr[pr[:-1]] - tok)
            s_bef = np.concatenate(((ctx0,), s_aft[:-1]))
            bind = (nb > 0) & (  # the state before the admissions
                (held_aft + tok > self.budget) | (b_aft + cnt > (cap or self.n_req))
            )
            L = int(bind.argmax()) if bind.any() else K
            if not b_aft[:L].all():
                L = int(b_aft.argmin()) + 1
            # ---- price: one batch, prefill tails folded left -----------
            bb = b_bef[:L]
            dec = self.scm.unit_decode_times_batch(bb, s_bef[:L] / bb).sum(axis=1)
            step, has = dec.copy(), nb[:L] > 0
            if has.any():
                maxes = pf_max[spr[ptr0:pr[L]]]
                firsts, lens = pr[:L][has] - ptr0, nb[:L][has]
                tails = maxes[firsts]
                for i in np.flatnonzero(lens > 1).tolist():
                    f = firsts[i]
                    tails[i] = np.add.accumulate(maxes[f:f + lens[i]])[-1]
                step[has] += tails
            C = np.add.accumulate(np.concatenate(((now0,), step)))
            # ---- validate: each boundary admits what has arrived -------
            ok = arr.searchsorted(C[:L], side="right") == pr[1:L + 1]
            Mv = L if ok.all() else int(ok.argmin())
            if 2 * Mv >= L:  # held, or held for half the window
                break
            guess = dec
        M, flush = Mv, False
        if self.detector is not None:
            c = int(np.searchsorted(C[1:Mv + 1], self.win_end, side="left"))
            if c < Mv:
                M, flush = c + 1, True  # poll right after the crossing

        # ---- commit M boundaries --------------------------------------
        pm = int(pr[M])
        if pm > ptr0:
            slots = j0 + fin[:pm - ptr0]
            self._ring_add(slots, toks[ptr0:pm])
            self.adm_it[ptr0:pm] = it0 + t_adm[:pm - ptr0]
            self.last_fin = max(self.last_fin, self.base + int(slots.max()))
        self.t_end[j0 + 1:j0 + M + 1] = C[1:M + 1]
        self.it = it0 + M
        self.inflight_sum += int(b_bef[:M].sum()) + pm - ptr0
        self.now = float(C[M])
        self.b, self.ctx = int(b_aft[M - 1]), int(s_aft[M - 1])
        self.held, self.ptr = int(held_aft[M - 1]), pm
        self._win_dec = dec[M:] if M < L else dec[-1:]
        if self.detector is not None:
            self._observe(C[1:M + 1], held_aft[:M])
            if flush:
                self._flush_and_poll()

        if M < _WINDOW_MIN:
            self._win_block = self.it + _WINDOW_PAUSE
        return M

    # -- decode runs ----------------------------------------------------
    def _decode_run(self, arrived: bool) -> None:
        """Execute decode-only boundaries up to the next event.

        With nobody admitted, the ring pins down the whole run: batch
        size, context sum and KV slots at every future boundary are
        running sums of the two ring columns.  The three truncation
        conditions are each monotone within the run — the queue head's
        arrival (the clock only moves forward), its KV fit (memory is
        only released), and the concurrency cap (the group only shrinks)
        — so the first admission boundary is a ``max`` of three
        first-crossing indices, not a scan.  ``arrived``: the queue head
        is waiting (blocked on slots or the cap).  A wave watches no head:
        it runs until it drains.
        """
        arr = self.arr
        b, held, it, cap = self.b, self.held, self.it, self.max_batch
        j0 = it - self.base + 1  # ring / clock slot of the first boundary
        horizon = min(self.last_fin - it, _BLOCK + 1 - j0)
        cnt = self.r_cnt[j0:j0 + horizon]
        tok = self.r_tok[j0:j0 + horizon]
        head = self.ptr if self.ptr < self.n_req else None
        if self.wave:
            head, arrived = None, False
        if head is not None:
            # slots the in-flight group may keep for the head to fit
            room = self.budget - int(self._toks[head])

        # ---- fast path: the run is a single boundary ------------------
        # Saturated steady state hits this almost every time: the queue
        # head is waiting and fits as soon as this boundary's retirees
        # release their KV (fit/cap are monotone, so checking boundary 1
        # settles it).  Skips the running sums below.
        if arrived or horizon == 1:
            c1, t1 = int(cnt[0]), int(tok[0])
            if horizon == 1 or (
                held - t1 <= room and (cap is None or b - c1 < cap)
            ):
                dec = self._decode_row()
                step = self._des_rows(dec[None, :])[0] if self.des else dec.sum()
                self.now = float(self.now + step)
                self.t_end[j0] = self.now
                self.it = it + 1
                self.inflight_sum += b
                self.b = b - c1
                self.ctx += b - t1
                self.held = held - t1
                self._observe_boundary()
                return

        # ---- the run's schedule: running sums over the ring -----------
        left = cnt.cumsum()  # requests gone after boundary i
        b_i = b - (left - cnt)  # batch size at boundary i
        freed = tok.cumsum()  # KV slots released after boundary i
        grow = b_i - tok  # every member gains a token, leavers take theirs
        grown = grow.cumsum()
        ctx_i = self.ctx + (grown - grow)  # context sum at boundary i

        # ---- first boundary where the queue head could be admitted ----
        fit_at = None  # first boundary with cap room and KV fit
        if head is not None:
            if held <= room and (cap is None or b < cap):
                fit_at = 0
            else:
                okay = held - (freed - tok) <= room
                if cap is not None:
                    okay &= b_i < cap
                k = int(okay.argmax())
                if okay[k]:
                    fit_at = k
        t_run = horizon  # boundaries to execute barring timed events
        if arrived and fit_at is not None:
            # saturated case: admission timing is memory/cap-gated only
            t_run = min(horizon, max(fit_at, 1))

        # ---- price the run in growing chunks, watching timed events ---
        t_end = self.t_end
        carry = self.now
        done = 0
        watch_arrival = head is not None and not arrived
        chunk = _CHUNK0
        if self.detector is None:
            chunk = t_run
            if watch_arrival:
                # size the first chunk to the arrival gap at the last
                # run's pace, with slack to leave a priced row past the
                # end; rows are a pure function of (b_i, ctx_i) and the
                # clock the same left fold across chunks, so chunking
                # moves speed only
                est = (arr[head] - carry) / self._run_pace * 1.25 + 2
                chunk = int(min(t_run, max(est, _CHUNK0)))
        while done < t_run:
            stop = min(t_run, done + chunk)
            b_c = b_i[done:stop]
            rows = self.scm.unit_decode_times_batch(b_c, ctx_i[done:stop] / b_c)
            post_c = self._des_rows(rows) if self.des else rows.sum(axis=1)
            post_c[0] += carry  # then the same left fold as ``now += step``
            np.add.accumulate(post_c, out=post_c)
            if watch_arrival:
                # head arrives mid-run: admission at the first boundary
                # past both the arrival and the memory/cap fit point
                j = int(post_c.searchsorted(arr[head], side="left"))
                if j < stop - done:
                    watch_arrival = False
                    if fit_at is not None:
                        t_run = min(t_run, max(done + j + 1, fit_at))
            if self.detector is not None:
                j = int(post_c.searchsorted(self.win_end, side="left"))
                if j < stop - done and done + j < t_run:
                    t_run = done + j + 1  # poll right after this iteration
            take = min(t_run, stop) - done
            t_end[j0 + done:j0 + done + take] = post_c[:take]
            carry = float(post_c[take - 1])
            if t_run < stop:  # priced, not run: the row of the boundary after
                self._kept = (b_i[t_run], ctx_i[t_run], rows[take])
            done += take
            chunk = min(chunk * _CHUNK_GROW, 65536)

        self._run_pace = (carry - self.now) / done
        self.now = carry
        self.it = it + done
        self.inflight_sum += int(b_i[:done].sum())
        self.b = b - int(left[done - 1])
        self.ctx += int(grown[done - 1])
        self.held = held - int(freed[done - 1])
        if self.detector is not None:
            self._observe(t_end[j0:j0 + done], held - freed[:done])
            if self.now >= self.win_end:
                self._flush_and_poll()

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
            pause = pause + float(self._des_one(list(self._pf_rows[prompts])))
        else:
            pause = pause + self._units_price(None, prompts)
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
            prices = self._des_rows(rows) if self.des else rows.sum(axis=1)
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
        a = self.adm_it[p0:p1]
        k = np.flatnonzero(a)
        n0, n1 = self.n_adm, self.n_adm + k.size
        self.tt[n0:n1] = t_end[a[k] - base] - arr[p0 + k]
        self.n_adm = n1
        # finished in this block: stable int16 radix order of the
        # block-relative last boundary = (boundary, admission) order
        lw = self.lw
        a = self.adm_it[lw:p1]
        fin = a + self.sgen[lw:p1] - 1
        k = np.flatnonzero((a > 0) & (fin > base) & (fin <= it))
        key = (fin[k] - base).astype(np.int16)
        o = np.argsort(key, kind="stable")
        key, idx = key[o], lw + k[o]
        n0, n1 = self.n_done, self.n_done + idx.size
        self.lat[n0:n1] = t_end[key] - arr[idx]
        self.lat_idx[n0:n1] = idx
        self.n_done = n1
        live = self._in_flight()
        self.lw = int(live[0]) if live.size else p1
        self.blk_ptr = p1
        span = it - base
        if span:
            for ring in (self.r_cnt, self.r_tok):
                ring[:-span] = ring[span:]
                ring[-span:] = 0
        self.base = it

    # -- main loop ------------------------------------------------------
    def _step(self) -> None:
        """Run one event: a stretch, an admission boundary, a decode run,
        or the rejection of heads that can never fit."""
        arr = self.arr
        if self.it - self.base == _BLOCK or self.ptr - self.blk_ptr >= _BLOCK:
            self._close_block()
        ptr = q = self.ptr  # arrived, still queued: rows [ptr, q)
        if ptr < self.n_req:
            if not self.b and arr[ptr] > self.now:
                self.now = float(arr[ptr])  # jump the idle gap
            if arr[ptr] <= self.now:
                q = int(arr.searchsorted(self.now, side="right"))
        p = self._admit_end(q) if q > ptr else ptr
        if p < q and self.b and not self.des and self.it >= self._stretch_block:
            # a real backlog: arrived requests stay queued behind this
            # boundary's admission
            self._stretch()
        elif p == q and self.b and self.it >= self._win_block:
            # below capacity: nothing arrived is left queued
            self._window(q)
        elif p > ptr:
            self._admission_iteration(p)
        elif self.b:
            self._decode_run(q > ptr)
        else:
            # alone in an empty system and still unfit: never fits —
            # drop the leading run of solo-unfit heads
            fits = np.flatnonzero(self._toks[ptr:q] <= self.budget)
            r = int(fits[0]) if fits.size else q - ptr
            self.ptr += r
            self.rejected += r

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
        return OnlineResult(
            completed=lat.size,
            makespan=self.now,
            mean_latency=float(lat.mean()),
            p95_latency=quantile(lat, 0.95),
            throughput=int(self.sgen[lat_idx].sum()) / self.now,
            waves=waves,
            mean_wave_batch=self.n_adm / waves if waves else 0.0,
            policy=self.policy,
            p50_latency=quantile(lat, 0.50),
            p99_latency=quantile(lat, 0.99),
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
