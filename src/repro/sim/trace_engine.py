"""Event-batch engine for the continuous online simulator.

:func:`repro.sim.online.simulate_online`'s continuous policy — admit at
a token boundary, price one iteration, retire, poll the drift detector —
runs here as array-based event processing, so million-request traces
replay in seconds:

* request columns (``arrival`` / ``prompt_len`` / ``gen_len``) stay as
  numpy arrays end to end;
* KV admission is one integer ledger: ``held`` token slots against the
  cost model's :meth:`~repro.cost.stagecosts.StageCostModel.kv_token_budget`.
  A request's per-stage bytes are exactly ``tokens x a per-stage
  constant`` in float64, so counting slots decides what the spec's
  per-stage byte test decides, and ``held`` times the slot's bytes is the
  byte ledger's float bit for bit (the drift detector's occupancy);
* admission at a boundary is two ``searchsorted`` calls: the arrived
  candidates on the arrival column, the FIFO prefix that fits on the
  token prefix sums;
* stretches with no admission are **decode runs**: the retire schedule
  of the in-flight group fully determines every future batch size,
  context mean, and KV refund, so whole runs are priced in one
  :meth:`~repro.cost.stagecosts.StageCostModel.unit_decode_times_batch`
  call and the clock advances by one ``np.add.accumulate``;
* runs truncate at the first *event*: a boundary where the queue head
  could be admitted (memory/cap conditions are monotone within a run, so
  the boundary is found by a couple of searchsorted/argmax calls), the
  drift detector's next window close, or the group draining dry;
* under sustained load the engine switches to **boundary stretches**:
  speculatively schedule up to K admission/retire boundaries against a
  bincount retire ring, price the whole stretch in one batch call, then
  validate and truncate at the first arrival or drift-window crossing
  the schedule missed (K adapts to the observed commit length and the
  time remaining in the drift window).

The floating-point contract is that of a one-boundary-at-a-time loop
(``tests/sim/online_spec.py``, which the equality tests replay every
case through): the batch cost-model views are bit-for-bit equal to
their scalar counterparts, KV byte arithmetic is exact in float64, and
``np.add.accumulate`` is the same left fold as ``now += step``, so every
:class:`~repro.sim.online.OnlineResult` field is **byte-identical** to
the spec's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..cost.stagecosts import StageCostModel

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.plan import ExecutionPlan
    from ..runtime.replan import DriftConfig, Replanner

__all__ = ["trace_columns", "simulate_continuous_vectorized"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)

#: decode-run pricing chunk: start small (most runs truncate within a few
#: boundaries under load), quadruple while the run keeps going
_CHUNK0 = 8
_CHUNK_GROW = 4

#: speculative stretch sizing (boundaries scheduled before pricing)
_STRETCH0 = 8
_STRETCH_MAX = 8192


def trace_columns(trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arrivals, prompt_lens, gen_lens)`` sorted by arrival (stable).

    :class:`~repro.workload.traces.ArrivalTrace` inputs pass their
    columns through without materializing per-request objects; any other
    sequence of arrival records is converted field by field.  The stable
    argsort matches ``sorted(trace, key=lambda r: r.arrival)`` tie for
    tie, so both engines see the same FIFO order.
    """
    from ..workload.traces import ArrivalTrace

    if isinstance(trace, ArrivalTrace):
        a, s, g = trace.arrivals, trace.prompt_lens, trace.gen_lens
    else:
        a = np.array([r.arrival for r in trace], dtype=np.float64)
        s = np.array([r.prompt_len for r in trace], dtype=np.int64)
        g = np.array([r.gen_len for r in trace], dtype=np.int64)
    order = np.argsort(a, kind="stable")
    return (
        np.ascontiguousarray(a[order]),
        np.ascontiguousarray(s[order]),
        np.ascontiguousarray(g[order]),
    )


class _Engine:
    """One simulation run's mutable state (arrays, clock, counters)."""

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
    ) -> None:
        if max_batch is not None and max_batch <= 0:
            raise ValueError("max_batch must be positive")  # would never admit
        self.sample_sink = sample_sink
        self.arr, self.spr, self.sgen = columns
        self.n_req = self.arr.size
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
        self.held = 0  # token slots reserved by the in-flight requests

        # speculative stretch sizing: grows while stretches commit fully,
        # shrinks (and briefly pauses) when the saturation bet misses
        self._stretch_k = _STRETCH0
        self._stretch_block = 0
        self._step_hint = 0.0
        self._smax = int(self.sgen.max(initial=1))

        # active set, admission order: request index + tokens produced
        self.a_idx = _EMPTY_I8
        self.a_prod = _EMPTY_I8
        self.ptr = 0  # queue head: requests [ptr, n_req) still pending
        self.obs_ptr = 0  # arrivals already flushed to the detector
        self.now = 0.0
        self.lat_parts: list[np.ndarray] = []
        self.tt_parts: list[np.ndarray] = []
        # request indices aligned with lat/tt parts (sorted-trace order),
        # so sample_sink consumers can join samples back to requests
        self.lat_idx_parts: list[np.ndarray] = []
        self.tt_idx_parts: list[np.ndarray] = []
        self.obs_t: list[float] = []
        self.obs_v: list[float] = []
        self.total_tokens = 0
        self.rejected = 0
        self.iterations = 0
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

    # -- admission ------------------------------------------------------
    def _fit_end(self, ptr: int, held: int) -> int:
        """End ``p`` of the longest FIFO run ``[ptr, p)`` whose token
        slots fit the budget beside ``held`` (one ``searchsorted`` on the
        token prefix sums); below ``ptr`` while ``held`` exceeds it."""
        cumq = self._cumq
        room = cumq[ptr] + (self.budget - held)
        return int(np.searchsorted(cumq, room, side="right")) - 1

    def _admission_scan(self) -> np.ndarray:
        """Batched mirror of the scalar FIFO admission while-loop.

        Admits the longest arrived prefix whose token slots fit the
        budget, capped at ``max_batch``, and — only while the system is
        completely empty — rejects queue heads that cannot fit even
        alone.  ``held`` above the budget (a migration to a tighter plan)
        admits nothing until retirements bring it back under.
        """
        cumq = self._cumq
        b0 = self.a_idx.size
        q = int(np.searchsorted(self.arr, self.now, side="right"))
        while self.ptr < q:
            p = min(self._fit_end(self.ptr, self.held), q)
            if self.max_batch is not None:
                p = min(p, self.ptr + self.max_batch - b0)
            if p > self.ptr:
                admitted = np.arange(self.ptr, p, dtype=np.int64)
                self.held += int(cumq[p] - cumq[self.ptr])
                self.ptr = p
                return admitted
            if b0:
                break  # blocked with work in flight: stop admitting
            # alone in an empty system and still unfit: never fits —
            # drop the leading run of solo-unfit heads
            fits = np.flatnonzero(self._toks[self.ptr:q] <= self.budget)
            r = int(fits[0]) if fits.size else q - self.ptr
            self.ptr += r
            self.rejected += r
        return _EMPTY_I8

    # -- one admission iteration (fused decode + batch-1 prefills) ------
    def _admission_iteration(self, admitted: np.ndarray) -> None:
        scm = self.scm
        b = self.a_idx.size
        new_prompts = self.spr[admitted]
        if b:
            s_ctx = int((self.spr[self.a_idx] + self.a_prod).sum())
            ctx = float(s_ctx) / float(b)
            dec = scm.unit_decode_times(b, ctx)
        if self.des:
            units = [dec] if b else []
            units.extend(self._pf_rows[new_prompts])
            step = float(self._des_one(units))
        else:
            step = self._units_price(dec.sum() if b else None, new_prompts)
        self.now += step
        self.iterations += 1
        self.inflight_sum += b + admitted.size
        self.tt_parts.append(self.now - self.arr[admitted])
        self.tt_idx_parts.append(admitted)
        self.a_idx = np.concatenate((self.a_idx, admitted))
        self.a_prod = np.concatenate(
            (self.a_prod + 1, np.ones(admitted.size, dtype=np.int64))
        )
        self._retire()
        self._observe_boundary()

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

    def _retire(self) -> None:
        fin = self.a_prod >= self.sgen[self.a_idx]
        if fin.any():
            fidx = self.a_idx[fin]
            self.lat_parts.append(self.now - self.arr[fidx])
            self.lat_idx_parts.append(fidx)
            self.total_tokens += int(self.sgen[fidx].sum())
            self.held -= int(self._toks[fidx].sum())
            keep = ~fin
            self.a_idx = self.a_idx[keep]
            self.a_prod = self.a_prod[keep]

    # -- speculative event-batch stretches ------------------------------
    @staticmethod
    def _ring_add(ring_cnt: np.ndarray, ring_tok: np.ndarray,
                  fins: np.ndarray, toks: np.ndarray) -> None:
        """Accumulate per-boundary retire contributions into the ring.

        One ``np.bincount`` per column over the (narrow) span of finish
        boundaries — both summed quantities (counts, token sums) are
        exact in float64, so the grouping order cannot change the result.
        """
        lo = int(fins.min())
        span = int(fins.max()) - lo + 1
        off = fins - lo
        stop = lo + span
        ring_cnt[lo:stop] += np.bincount(off, minlength=span)
        ring_tok[lo:stop] += np.bincount(off, weights=toks, minlength=span)

    def _stretch(self) -> int:
        """Schedule up to K boundaries speculatively, price them in one
        batch, and commit the longest valid prefix.

        While the queue outpaces the pipeline, admission depends only on
        KV slots and the concurrency cap — never on the clock — so the
        admit/retire schedule of many future boundaries is pure integer
        arithmetic: no cost model in the loop, one
        :meth:`unit_decode_times_batch` call for every boundary's decode
        group, one ``np.add.accumulate`` to recover the clock, and bulk
        appends for TTFTs, latencies, and drift observations.  Boundary
        1 admissions are gated on the truly-arrived set, so at least one
        boundary always commits; later boundaries whose admissions turn
        out to include requests that had not yet arrived at scan time
        are discarded and re-run through the exact paths.  Stretches
        also truncate at drift-window crossings (the detector poll can
        migrate the plan, invalidating the speculated schedule).
        """
        arr, spr, sgen = self.arr, self.spr, self.sgen
        a_idx, a_prod = self.a_idx, self.a_prod
        b0 = a_idx.size
        K = self._stretch_k
        now0 = self.now
        if self.detector is not None and self._step_hint > 0.0:
            # the drift window will truncate the stretch anyway — don't
            # schedule (and then discard) boundaries far past it
            kw = int((self.win_end - now0) / self._step_hint) + 2
            if kw < K:
                K = kw if kw > _STRETCH0 else _STRETCH0

        # retire ring seeded from the in-flight group: boundary t
        # (1-based) retires requests with rel == t; columns are
        # [count, sum(prompt+gen)]
        rel0 = sgen[a_idx] - a_prod
        m0 = rel0 <= K
        rel0m = rel0[m0]
        ring_cnt = np.zeros(K + 2, dtype=np.int64)
        ring_tok = np.zeros(K + 2)
        if rel0m.size:
            self._ring_add(ring_cnt, ring_tok, rel0m, self._toks[a_idx][m0])

        ptr0 = self.ptr
        ptr_l = ptr0
        b_l = b0
        s_l = int((spr[a_idx] + a_prod).sum())
        q1 = int(np.searchsorted(arr, self.now, side="right"))

        b_rec = np.empty(K + 1, dtype=np.int64)
        s_rec = np.empty(K + 1, dtype=np.float64)
        ptr_rec = np.empty(K + 1, dtype=np.int64)
        held_rec = np.empty(K + 1, dtype=np.int64)
        ptr_rec[0] = ptr0
        n_req, max_batch = self.n_req, self.max_batch
        cumq, cumspr = self._cumq, self._cumspr
        held = self.held
        L = 0
        for t in range(1, K + 1):
            b_rec[t] = b_l
            s_rec[t] = float(s_l)
            # FIFO admission against slots/cap; boundary 1 sees only
            # requests that have really arrived, later boundaries bet on
            # a deep backlog (checked after pricing)
            lim = q1 if t == 1 else n_req
            t0_ptr = ptr_l
            count = 0
            if ptr_l < lim:
                p = min(self._fit_end(ptr_l, held), lim)
                if max_batch is not None and p - ptr_l > max_batch - b_l:
                    p = ptr_l + (max_batch - b_l)
                if p > ptr_l:
                    count = p - ptr_l
                    held += int(cumq[p] - cumq[ptr_l])
                    ptr_l = p
            ptr_rec[t] = ptr_l
            s_l += b_l + count
            if count:
                s_l += int(cumspr[ptr_l] - cumspr[t0_ptr])
                b_l += count
                gs = sgen[t0_ptr:ptr_l]
                fins = t + gs - 1
                toks = self._toks[t0_ptr:ptr_l]
                if t + self._smax > K + 1:
                    fm = fins <= K
                    fins, toks = fins[fm], toks[fm]
                if fins.size:
                    self._ring_add(ring_cnt, ring_tok, fins, toks)
            c = int(ring_cnt[t])
            if c:
                b_l -= c
                rt = int(ring_tok[t])
                s_l -= rt
                held -= rt
            held_rec[t] = held
            L = t
            if b_l == 0:
                break

        # ---- price all boundaries in one batch ------------------------
        bL = b_rec[1:L + 1]
        ctx = s_rec[1:L + 1] / bL
        rows = self.scm.unit_decode_times_batch(bL, ctx)
        step = rows.sum(axis=1)
        reps = np.diff(ptr_rec[:L + 1])
        has = reps > 0
        if has.any():
            maxes = self._pf_max[spr[ptr0:int(ptr_rec[L])]]
            starts = ptr_rec[:L][has] - ptr0
            # per-segment left fold: ``np.add.reduceat`` sums pairwise,
            # which drifts a ULP from the scalar loop's ``tail += pf``
            # chain — ``np.add.accumulate`` is the exact same fold
            bounds = np.append(starts, maxes.size)
            tails = np.empty(starts.size)
            for k in range(starts.size):
                seg = maxes[bounds[k]:bounds[k + 1]]
                tails[k] = seg[0] if seg.size == 1 else np.add.accumulate(seg)[-1]
            step = step.copy()
            step[has] = step[has] + tails
        now_t = np.add.accumulate(np.concatenate(((self.now,), step)))[1:]

        # ---- longest valid prefix -------------------------------------
        lim_v = L
        if has.any():
            prev_now = np.concatenate(((self.now,), now_t[:-1]))
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

        # ---- commit ---------------------------------------------------
        reps_m = reps[:M]
        ptr_m = int(ptr_rec[M])
        self.iterations += M
        self.inflight_sum += int(b_rec[1:M + 1].sum() + reps_m.sum())
        self.now = float(now_t[M - 1])
        self._step_hint = (self.now - now0) / M
        self.held = int(held_rec[M])
        self.ptr = ptr_m
        adm_idx = np.arange(ptr0, ptr_m, dtype=np.int64)
        if ptr_m > ptr0:
            self.tt_parts.append(
                np.repeat(now_t[:M], reps_m) - arr[ptr0:ptr_m]
            )
            self.tt_idx_parts.append(adm_idx)
        t_admit = np.repeat(np.arange(1, M + 1, dtype=np.int64), reps_m)
        adm_fin = t_admit + sgen[ptr0:ptr_m] - 1
        pre_f = rel0 <= M
        adm_f = adm_fin <= M
        fidx = np.concatenate((a_idx[pre_f], adm_idx[adm_f]))
        if fidx.size:
            fbound = np.concatenate((rel0[pre_f], adm_fin[adm_f]))
            o = np.argsort(fbound, kind="stable")
            fo = fidx[o]
            self.lat_parts.append(now_t[fbound[o] - 1] - arr[fo])
            self.lat_idx_parts.append(fo)
            self.total_tokens += int(sgen[fidx].sum())
        keep_pre = ~pre_f
        adm_keep = ~adm_f
        self.a_idx = np.concatenate((a_idx[keep_pre], adm_idx[adm_keep]))
        self.a_prod = np.concatenate(
            (a_prod[keep_pre] + M, (M + 1) - t_admit[adm_keep])
        )

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
                self._stretch_block = self.iterations + 12
        return M

    # -- decode runs ----------------------------------------------------
    def _decode_run(self) -> None:
        """Execute decode-only boundaries up to the next event.

        The in-flight group's retire schedule pins down the whole run:
        request ``j`` (``rem_j`` tokens left) leaves at boundary
        ``rem_j``, so batch size, context mean, and released KV slots at
        every future boundary are closed-form in the retire counts.  The
        three truncation conditions are each monotone within the run —
        the queue head's arrival (the clock only moves forward), its KV
        fit (memory is only released), and the concurrency cap (the
        group only shrinks) — so the first admission boundary is a
        ``max`` of three first-crossing indices, not a scan.
        """
        arr, toks = self.arr, self._toks
        a_idx, a_prod = self.a_idx, self.a_prod
        b = a_idx.size
        rem = self.sgen[a_idx] - a_prod
        horizon = int(rem.max())
        head = self.ptr if self.ptr < self.n_req else None
        arrived = head is not None and arr[head] <= self.now
        if head is not None:
            # slots the in-flight group may keep for the head to fit
            room = self.budget - int(toks[head])

        # ---- fast path: the run is a single boundary ------------------
        # Saturated steady state hits this almost every time: the queue
        # head is waiting and fits as soon as this boundary's retirees
        # release their KV (fit/cap are monotone, so checking boundary 1
        # settles ``max(fit_at, 1) == 1``).  Skips the full-schedule
        # construction below.
        if arrived or horizon == 1:
            leave1 = rem == 1
            rel1 = int(toks[a_idx[leave1]].sum())
            fast = horizon == 1 or (
                self.held - rel1 <= room
                and (
                    self.max_batch is None
                    or b - int(np.count_nonzero(leave1)) < self.max_batch
                )
            )
            if fast:
                base_sum = (self.spr[a_idx] + a_prod).sum()
                ctx0 = float(base_sum) / float(b)
                dec = self.scm.unit_decode_times(b, ctx0)
                step = (
                    self._des_rows(dec[None, :])[0] if self.des else dec.sum()
                )
                self.now = float(self.now + step)
                self.iterations += 1
                self.inflight_sum += b
                if leave1.any():
                    fidx = a_idx[leave1]
                    self.lat_parts.append(self.now - arr[fidx])
                    self.lat_idx_parts.append(fidx)
                    self.total_tokens += int(self.sgen[fidx].sum())
                self.held -= rel1
                keep = ~leave1
                self.a_idx = a_idx[keep]
                self.a_prod = a_prod[keep] + 1
                self._observe_boundary()
                return

        # ---- closed-form schedule over the run horizon ----------------
        ord_ = np.argsort(rem, kind="stable")
        rem_s = rem[ord_]
        pos = np.searchsorted(rem_s, np.arange(horizon + 1), side="right")
        base = self.spr[a_idx] + a_prod
        gone = np.concatenate(
            ((0.0,), np.cumsum(base[ord_].astype(np.float64)))
        )
        steps_i = np.arange(horizon, dtype=np.int64)
        b_i = b - pos[:horizon]  # batch size at boundary i
        ctx_i = ((float(base.sum()) - gone[pos[:horizon]]) + steps_i * b_i) / b_i
        # KV slots still held after boundary i
        held_i = self.held - np.concatenate(
            ((0,), np.cumsum(toks[a_idx[ord_]]))
        )[pos]

        # ---- first boundary where the queue head could be admitted ----
        fit_at = None  # first boundary with cap room and KV fit
        if head is not None:
            okay = held_i[:horizon] <= room
            if self.max_batch is not None:
                okay &= b_i < self.max_batch
            if okay.any():
                fit_at = int(np.argmax(okay))
        t_nom = horizon  # boundaries to execute barring timed events
        if arrived:
            # saturated case: admission timing is memory/cap-gated only
            t_nom = horizon if fit_at is None else min(horizon, max(fit_at, 1))

        # ---- price the run in growing chunks, watching timed events ---
        post_parts: list[np.ndarray] = []
        carry = self.now
        done = 0
        t_run = t_nom
        watch_arrival = head is not None and not arrived
        chunk = t_run if (not watch_arrival and self.detector is None) else _CHUNK0
        while done < t_run:
            stop = min(t_run, done + chunk)
            rows = self.scm.unit_decode_times_batch(
                b_i[done:stop], ctx_i[done:stop]
            )
            step_c = self._des_rows(rows) if self.des else rows.sum(axis=1)
            post_c = np.add.accumulate(np.concatenate(((carry,), step_c)))[1:]
            if watch_arrival:
                # head arrives mid-run: admission at the first boundary
                # past both the arrival and the memory/cap fit point
                j = int(np.searchsorted(post_c, arr[head], side="left"))
                if j < stop - done:
                    watch_arrival = False
                    if fit_at is not None:
                        t_run = min(t_run, max(done + j + 1, fit_at))
            if self.detector is not None:
                j = int(np.searchsorted(post_c, self.win_end, side="left"))
                if j < stop - done and done + j < t_run:
                    t_run = done + j + 1  # poll right after this iteration
            take = min(t_run, stop) - done
            post_parts.append(post_c[:take])
            carry = float(post_c[take - 1])
            done += take
            chunk = min(chunk * _CHUNK_GROW, 65536)

        t_run = done
        now_post = (
            post_parts[0] if len(post_parts) == 1 else np.concatenate(post_parts)
        )
        self.now = float(now_post[t_run - 1])
        self.iterations += t_run
        self.inflight_sum += int(b_i[:t_run].sum())

        # ---- retire everyone whose schedule ended inside the run ------
        # ``ord_`` is stable-sorted by ``rem``, so its prefix is exactly
        # the retirees ordered by (boundary, admission order) — the order
        # the scalar loop appends latencies in.
        n_ret = int(pos[t_run])
        if n_ret:
            ridx = ord_[:n_ret]
            fidx = a_idx[ridx]
            self.lat_parts.append(now_post[rem_s[:n_ret] - 1] - arr[fidx])
            self.lat_idx_parts.append(fidx)
            self.total_tokens += int(self.sgen[fidx].sum())
        self.held = int(held_i[t_run])
        keep = rem > t_run
        self.a_idx = a_idx[keep]
        self.a_prod = a_prod[keep] + t_run

        if self.detector is not None:
            self._observe(now_post[:t_run], held_i[1:t_run + 1])
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
            if self.a_idx.size:
                pause = self._replay_price(pause)
        self.now += pause
        self.migration_seconds += pause
        self.migrations += 1
        self.replans += 1
        self.detector.rebaseline(self.now)
        self.win_end = self.detector.next_window_end()

    def _replay_price(self, pause: float) -> float:
        """Pipelined replay of in-flight KV state under the (already
        bound) new plan: one batch-1 prefill per active request, then the
        surviving decode group re-run token by token — priced exactly
        like the iterations it repeats.  ``pause`` accumulates in the
        same left-fold order as the scalar loop's ``pause +=`` chain."""
        prompts = self.spr[self.a_idx]
        if self.des:
            pause = pause + float(self._des_one(list(self._pf_rows[prompts])))
        else:
            pause = pause + self._units_price(None, prompts)
        max_prod = int(self.a_prod.max())
        if max_prod > 1:
            cnt = np.bincount(self.a_prod, minlength=max_prod + 1)
            wsum = np.bincount(
                self.a_prod, weights=prompts, minlength=max_prod + 1
            )
            above = self.a_idx.size - np.cumsum(cnt)
            s_above = float(prompts.sum()) - np.cumsum(wsum)
            ks = np.arange(1, max_prod, dtype=np.int64)
            b_k = above[1:max_prod]
            ctx_k = (s_above[1:max_prod] + ks * b_k) / b_k
            rows = self.scm.unit_decode_times_batch(b_k, ctx_k)
            prices = self._des_rows(rows) if self.des else rows.sum(axis=1)
            for v in prices.tolist():
                pause = pause + v
        return pause

    # -- main loop ------------------------------------------------------
    def run(self):
        from ..stats import quantile
        from .online import OnlineResult, _infeasible

        arr = self.arr
        while self.ptr < self.n_req or self.a_idx.size:
            if not self.a_idx.size:
                if self.ptr < self.n_req and arr[self.ptr] > self.now:
                    self.now = float(arr[self.ptr])  # jump the idle gap
                admitted = self._admission_scan()
                if admitted.size:
                    self._admission_iteration(admitted)
                continue
            if (
                not self.des
                and self.ptr < self.n_req
                and arr[self.ptr] <= self.now
                and self.iterations >= self._stretch_block
            ):
                if self._stretch():
                    continue
            admitted = self._admission_scan()
            if admitted.size:
                self._admission_iteration(admitted)
            else:
                self._decode_run()

        if not self.lat_parts:
            return _infeasible("continuous", self.rejected, self.sample_sink)
        lat = (
            self.lat_parts[0]
            if len(self.lat_parts) == 1
            else np.concatenate(self.lat_parts)
        )
        tt = (
            self.tt_parts[0]
            if len(self.tt_parts) == 1
            else np.concatenate(self.tt_parts)
        )
        if self.sample_sink is not None:
            # completion-order per-request samples for fleet-level pooling
            # (percentiles and SLO attainment are order-independent); the
            # idx arrays join each sample back to its sorted-trace row
            self.sample_sink["latencies"] = lat
            self.sample_sink["ttfts"] = tt
            self.sample_sink["lat_idx"] = np.concatenate(self.lat_idx_parts)
            self.sample_sink["tt_idx"] = np.concatenate(self.tt_idx_parts)
        return OnlineResult(
            completed=lat.size,
            makespan=self.now,
            mean_latency=float(lat.mean()),
            p95_latency=quantile(lat, 0.95),
            throughput=self.total_tokens / self.now,
            waves=0,
            mean_wave_batch=0.0,
            policy="continuous",
            p50_latency=quantile(lat, 0.50),
            p99_latency=quantile(lat, 0.99),
            mean_ttft=float(tt.mean()),
            p95_ttft=quantile(tt, 0.95),
            rejected=self.rejected,
            iterations=self.iterations,
            mean_inflight=float(self.inflight_sum) / float(self.iterations),
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
):
    """Continuous-policy simulation over pre-sorted trace ``columns``:
    admission control, pricing, drift detection and migration accounting
    evaluated as event batches.

    ``scm`` carries the plan, the cluster and the time source; a
    migration's cost model is built from them.  ``sample_sink``, when
    given, receives the raw per-request ``latencies``/``ttfts`` arrays so
    fleet aggregation can pool exact samples across replicas.
    """
    return _Engine(
        columns, max_batch=max_batch, engine=engine, scm=scm, drift=drift,
        replanner=replanner, sample_sink=sample_sink,
    ).run()
