"""Iteration-level (continuous-batching) online scheduler.

Runs an admission queue over the real :class:`~repro.runtime.engine
.PipelineRuntime`: requests arrive over (virtual) time, are admitted into
the in-flight group at token boundaries whenever their KV token slots fit
the cost model's budget — the one integer ledger the trace engine and the
fleet admit against too — run prefill while everything else keeps
decoding (a rolling hybrid mix of phases), and retire the moment their
last token is sampled — a :class:`~repro.runtime.messages.ReleaseMessage`
rides the data path so every stage frees the request's KV slots
immediately and the next queued request can take them over at the very
next iteration.  This is the ORCA-style counterpart of the paper's
offline two-phase schedule.

The serving state is the trace engine's: columns over the queue rows —
arrival (times ``time_scale``), prompt and generation lengths in
``(arrival, request_id)`` order, their token-slot prefix sums and a head
index — plus, per row, the admitting boundary ``adm_it``, the retiring
boundary ``fin``, the reservation, the tokens produced, the tokens in
one flat buffer and three clocks; ``live`` is the in-flight rows in
admission order.  Every boundary admits through the engine's one rule,
:func:`~repro.cost.stagecosts.admit_run`, with the rows arrived by
``now``; a row retires by boundary count at its ``fin``, as on the
engine's retire ring; and the drift detector gets the same column slices
the engine feeds it.  Only the loop drivers differ: priced time there,
pipeline I/O here.  Per-request records are built from the columns once,
when the serve ends.

Decode is fused and batched: at each token boundary every live row with
a token is stacked into one ``(B, 1, h)`` ragged batch, each stage runs
one QKV/MLP GEMM per layer against the shared dequant-cached weights
(amortizing the weight stream over the whole batch — the dominant decode
cost), attention stays ragged over per-row KV slab rows, and the master
samples all ``B`` next tokens from one stacked logit GEMM.  Each request
owns one batch-1 KV unit, keyed by its queue row, which admission,
retirement, migration and replay work on.  The master's offline decode
groups ride the same :class:`~repro.runtime.messages
.BatchedDecodeMessage`, one message per group over its prefill units'
slab rows.

Equality contract: fused greedy *token streams* equal the
single-process ``generate(model, prompt[None], n)`` reference and a
batch-1-message-per-request drive of the same workers
(``tests/runtime/per_request_spec.py``).  The guarantee is at argmax
level, not logit bytes: BLAS batch-1 matvec kernels round differently
from rows of a batched matmul (~1e-14 relative drift), so logits can
differ in their last bits while every argmax — and hence every token —
agrees; ties are impossible to mis-break because all samplers share
:func:`repro.ops.greedy_pick`'s first-index rule.  Migration KV replay
prefills each request batch-1, then sends one fused message per replay
round, so rebuilt KV equals the lost KV at the same argmax level.

``policy="wave"`` emulates the offline baseline on the same
execution path: admission only into an empty system, every member
padded to the wave's maxima (KV reserved at ``s_max + n_max``, decode run
for ``n_max`` tokens even for requests that finished early), memory
freed only when the whole wave drains.  The policy is an admission rule
only: admission sets each request's reservation and ``fin``, and the
iteration that runs them is the same for both policies — and so is
recovery.  Only drift replanning needs the continuous policy.

Live reconfiguration is the scheduler's own: :meth:`ContinuousScheduler
.migrate` is the one plan switch for manual, drift and crash-recovery
switches, at a token boundary (the pipeline is idle there by
construction — the whole quiesce protocol).  It adopts a plan with the
same shards in place, or rebuilds through :meth:`~repro.runtime.engine
.PipelineRuntime.recover` and replays the live rows' KV; a crash first
takes one step of the runtime's recovery ladder.  ``migration_log``
keeps one :class:`MigrationRecord` per switch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

from .. import stats
from ..core.plan import ExecutionPlan
from ..cost.stagecosts import StageCostModel, admit_run
from ..ops import greedy_pick
from ..workload.traces import RequestArrival
from .engine import PipelineRuntime, StageFailureError
from .messages import ActivationMessage, BatchedDecodeMessage, ReleaseMessage
from .replan import DriftConfig, DriftDetector, Replanner

__all__ = [
    "ServeRequest",
    "RequestRecord",
    "ServeReport",
    "MigrationRecord",
    "ContinuousScheduler",
    "requests_from_arrivals",
]


@dataclass(frozen=True)
class ServeRequest:
    """One online request: a prompt, a generation budget, an arrival time."""

    request_id: int
    prompt: np.ndarray          #: ``(s,)`` int64 token ids
    gen_len: int                #: tokens to generate (>= 1)
    arrival: float = 0.0        #: seconds since trace start

    def __post_init__(self) -> None:
        p = np.asarray(self.prompt)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        if self.gen_len <= 0:
            raise ValueError("gen_len must be positive")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")

    @property
    def prompt_len(self) -> int:
        """Prompt tokens."""
        return int(np.asarray(self.prompt).size)


@dataclass
class RequestRecord:
    """Per-request outcome: tokens plus the serving timeline (virtual s)."""

    request_id: int
    prompt_len: int
    gen_len: int
    arrival: float
    admit_time: float = 0.0      #: when the scheduler admitted it
    first_token_time: float = 0.0  #: when its prefill token was sampled
    finish_time: float = 0.0     #: when its last token was sampled
    rejected: bool = False       #: could never fit, even alone
    tokens: np.ndarray | None = None  #: ``(gen_len,)`` generated ids

    @property
    def latency(self) -> float:
        """Arrival -> last token (seconds)."""
        return self.finish_time - self.arrival

    @property
    def ttft(self) -> float:
        """Arrival -> first token (seconds)."""
        return self.first_token_time - self.arrival


@dataclass
class ServeReport:
    """Aggregate outcome of one trace replay."""

    policy: str
    records: list[RequestRecord] = field(default_factory=list)
    makespan: float = 0.0        #: trace start -> last completion (virtual s)
    # --- reconfiguration counters (live replanning / recovery) ---------
    drift_triggers: int = 0      #: drift-detector firings during the replay
    migrations: int = 0          #: live plan switches executed
    replans: int = 0             #: migrations that adopted a *new* plan
    crash_recoveries: int = 0    #: stage failures recovered in-flight
    quiesce_seconds: float = 0.0  #: virtual seconds admission was paused
    replayed_tokens: int = 0     #: tokens recomputed to rebuild KV state
    replay_divergences: int = 0  #: replayed samples differing from record

    @property
    def completed(self) -> list[RequestRecord]:
        """Records that finished (arrival order)."""
        return [r for r in self.records if not r.rejected]

    @property
    def rejected(self) -> list[RequestRecord]:
        """Records that could never be admitted."""
        return [r for r in self.records if r.rejected]

    @property
    def generated_tokens(self) -> int:
        """Total tokens produced across completed requests."""
        return int(sum(r.gen_len for r in self.completed))

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated tokens per second of makespan."""
        return self.generated_tokens / self.makespan if self.makespan > 0 else 0.0

    def _latencies(self) -> list[float]:
        return [r.latency for r in self.completed]

    def latency_percentile(self, q: float) -> float:
        """Request-latency percentile (seconds; 0 when nothing completed)."""
        return stats.percentile(self._latencies(), q, empty=0.0)

    @property
    def latency_p50(self) -> float:
        """Median completion latency."""
        return self.latency_percentile(50)

    @property
    def latency_p95(self) -> float:
        """95th-percentile completion latency."""
        return self.latency_percentile(95)

    @property
    def latency_p99(self) -> float:
        """99th-percentile completion latency."""
        return self.latency_percentile(99)

    @property
    def ttft_mean(self) -> float:
        """Mean time-to-first-token across completed requests."""
        return stats.mean([r.ttft for r in self.completed], empty=0.0)

    @property
    def ttft_p95(self) -> float:
        """95th-percentile time-to-first-token."""
        return stats.percentile([r.ttft for r in self.completed], 95, empty=0.0)


@dataclass
class MigrationRecord:
    """What one live plan switch did (one entry of ``migration_log``)."""

    reason: str
    rebuilt: bool               #: workers rebuilt (shards re-cut / restarted)
    stages_before: int = 0
    stages_after: int = 0
    inflight: int = 0           #: requests carried across the switch
    replayed_tokens: int = 0    #: tokens recomputed to rebuild KV state
    divergences: int = 0        #: replayed samples that differed (bit changes)
    quiesce_seconds: float = 0.0  #: admission-paused virtual seconds


def requests_from_arrivals(
    arrivals: Iterable[RequestArrival],
    vocab_size: int,
    *,
    seed: int = 0,
) -> list[ServeRequest]:
    """Materialize arrival records into concrete prompts.

    Token ids are drawn deterministically from ``seed``, so the same
    trace replayed against the runtime and against the single-process
    reference sees identical prompts — the byte-identity check depends
    on it.
    """
    rng = np.random.default_rng(seed)
    out: list[ServeRequest] = []
    for i, a in enumerate(arrivals):
        prompt = rng.integers(0, vocab_size, size=a.prompt_len, dtype=np.int64)
        out.append(
            ServeRequest(
                request_id=i, prompt=prompt, gen_len=a.gen_len, arrival=a.arrival
            )
        )
    return out


class ContinuousScheduler:
    """Admission queue + iteration-level execution over a live runtime.

    Parameters
    ----------
    runtime:
        A started :class:`PipelineRuntime`.  The scheduler drives its
        stage queues directly (batch-1 prefills, one fused decode
        message per boundary); the engine's offline ``generate`` path is
        untouched and can still be used on the same runtime afterwards.
    policy:
        ``"continuous"`` (iteration-level admission and eager
        retirement) or ``"wave"`` (the offline baseline: gang admission
        into an empty system, padded decode, drain before re-admitting).
    max_inflight:
        Optional hard cap on concurrently admitted requests on top of
        the memory model (``None`` = memory-limited only).
    time_scale:
        Multiplier applied to request arrival times; ``0.0`` replays the
        whole trace as if it arrived at once.  Arrival gaps larger than
        the time already spent computing are *jumped* by a virtual
        clock, so replays never sleep.
    drift:
        Optional :class:`~repro.runtime.replan.DriftConfig` enabling the
        drift detector (continuous policy only).  Triggers consult
        ``replanner``; a migration is executed at the next token
        boundary without dropping traffic.
    replanner:
        ``(plan, estimate) -> new plan | None`` callback consulted on
        drift triggers (e.g. :func:`~repro.runtime.replan
        .workload_refit_replanner` or :func:`~repro.runtime.replan
        .make_search_replanner`).

    Stage failures under either policy take the runtime's one recovery
    ladder, the one offline ``generate`` takes (retry, then
    ``replan_after_failure`` when the runtime's ``SupervisionConfig``
    allows), and are recovered in flight by a forced :meth:`migrate`:
    the runtime's one rebuild, then KV replay.
    """

    def __init__(
        self,
        runtime: PipelineRuntime,
        *,
        policy: Literal["continuous", "wave"] = "continuous",
        max_inflight: int | None = None,
        time_scale: float = 1.0,
        drift: DriftConfig | None = None,
        replanner: Replanner | None = None,
    ) -> None:
        if policy not in ("continuous", "wave"):
            raise ValueError(f"unknown policy {policy!r}")
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if not 0 <= time_scale < float("inf"):
            raise ValueError(f"time_scale must be >= 0 and finite, got {time_scale}")
        if drift is not None and policy != "continuous":
            raise ValueError("drift replanning requires the continuous policy")
        self.rt = runtime
        self.policy = policy
        self.max_inflight = max_inflight
        self.time_scale = time_scale
        self._wsb_plan: ExecutionPlan | None = None  # weight-bytes memo key
        self._wsb: float = 0.0
        self._bind_cost_model()
        self._t0: float | None = None
        self._offset = 0.0
        # --- live replanning / recovery -------------------------------
        self.replanner = replanner
        self._detector = DriftDetector(drift) if drift is not None else None
        self._pending_plan: ExecutionPlan | None = None
        #: one record per executed plan switch, in order
        self.migration_log: list[MigrationRecord] = []
        #: the running serve's report; its reconfiguration counters are
        #: written in place by the loop and :meth:`migrate`
        self._report: ServeReport | None = None
        #: token boundaries whose results were collected
        self.it = 0
        self._columns([])

    @property
    def detector(self) -> DriftDetector | None:
        """The drift detector, when drift replanning is enabled."""
        return self._detector

    @property
    def held(self) -> int:
        """KV token slots the in-flight rows hold: ``prompt + reserve``
        each, the quantity admission prices against ``budget``."""
        live = self.live
        return int((self._spr[live] + self.reserve[live]).sum())

    def _columns(self, requests: Sequence[ServeRequest]) -> None:
        """The serving state as the trace engine's columns over the queue.

        The queue is ``requests`` in ``(arrival, request_id)`` order:
        arrival (times ``time_scale``), prompt and generation columns,
        their token-slot prefix sums and a head index.  Per queue row the
        scheduler keeps the boundary that admitted it (``adm_it``, 0 =
        never), the boundary it retires after (``fin``), the KV slots it
        reserves past its prompt, the tokens it has produced, its tokens
        in one flat buffer (row ``k`` at ``_off[k]:_off[k + 1]``) and its
        admit / first-token / finish clocks.  ``live`` is the in-flight
        rows in admission order; a row's KV unit id is its queue row.
        """
        q = self._queue = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        n = len(q)
        self._arr = np.array([r.arrival for r in q], dtype=np.float64) * self.time_scale
        self._spr = np.array([r.prompt_len for r in q], dtype=np.int64)
        self._sgen = np.array([r.gen_len for r in q], dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        self._cumq = np.concatenate((zero, np.cumsum(self._spr + self._sgen)))
        self._off = np.concatenate((zero, np.cumsum(self._sgen)))
        self._tok = np.zeros(int(self._off[-1]), dtype=np.int64)
        self.adm_it, self.fin, self.reserve, self.prod = (
            np.zeros(n, dtype=np.int64) for _ in range(4))
        self._t_adm, self._t_first, self._t_fin = (np.zeros(n) for _ in range(3))
        self.live = zero[:0]
        self._ptr = self._obs = 0  # queue head; arrivals fed to the detector

    def _bind_cost_model(self) -> None:
        """Price admission under the runtime's current plan.

        The planner's memory model, shared with the planner and the
        simulators: the per-stage KV pool nets out the dequant caches'
        actual byte budgets, and ``budget`` is the token slots it holds.
        """
        rt = self.rt
        dequant = [c.budget_bytes for c in rt.dequant_caches]
        self.cost = StageCostModel(rt.plan, cfg=rt.cfg)
        self.headroom = self.cost.kv_headroom(dequant)
        self.budget = self.cost.kv_token_budget(dequant)

    def request_migration(self, new_plan: ExecutionPlan) -> None:
        """Ask for a migration to ``new_plan`` at the next token boundary.

        Safe to call from a callback or another thread while
        :meth:`serve` is running; the switch happens between iterations
        (the quiesce point), carries all in-flight requests across, and
        drops nothing.
        """
        self._pending_plan = new_plan

    # ------------------------------------------------------------------
    # Virtual clock
    # ------------------------------------------------------------------
    def _now(self) -> float:
        assert self._t0 is not None
        return (time.perf_counter() - self._t0) + self._offset

    def _jump_to(self, t: float) -> float:
        """Advance the virtual clock over an idle gap; returns new now."""
        now = self._now()
        if t > now:
            self._offset += t - now
            now = t
        return now

    # ------------------------------------------------------------------
    # Pipeline I/O (batch-1 prefill/replay; fused decode)
    # ------------------------------------------------------------------
    def _send_prefill(self, k: int) -> None:
        x = self.rt.reference._embed(np.asarray(self._queue[k].prompt)[None, :], 0)
        self.rt.head.put(
            ActivationMessage(
                microbatch_id=k, phase="prefill", start=0,
                hidden=x, reserve=int(self.reserve[k]),
            )
        )
        self.rt.stats.prefill_tokens += int(self._spr[k])

    def _send_batched_decode(self, rows: np.ndarray, pos) -> None:
        """Stack one decode step of queue rows ``rows`` into one message:
        each row feeds its token ``pos - 1`` at position ``spr + pos - 1``.

        Live decode passes the tokens each row has produced (its newest
        token); replay round ``k`` passes ``k`` (its recorded token
        ``k - 1``).  Row order is ``rows`` order, and the returned batched
        hidden states keep it.
        """
        starts = self._spr[rows] + (pos - 1)
        tokens = self._tok[self._off[rows] + (pos - 1)]
        x = self.rt.reference._embed_ragged(tokens[:, None], starts)
        self.rt.head.put(
            BatchedDecodeMessage(
                unit_ids=tuple(rows.tolist()), starts=starts, hidden=x
            )
        )

    def _release(self, rows: np.ndarray) -> None:
        """Free finished rows' units on every stage and wait for the ack.

        Called at an iteration boundary (pipeline idle), so waiting for
        the release to come out the tail is deterministic — after this
        returns, every stage's ``current_bytes`` has already dropped.  A
        failure before the ack leaves ``live`` untouched: the rows stay
        in flight, holding their slots, and a later release frees them.
        """
        self.rt.head.put(ReleaseMessage(unit_ids=tuple(rows.tolist())))
        while True:
            msg = self.rt._next_message("release ack")
            if isinstance(msg, ReleaseMessage):
                break

    def _sample(self, msg: ActivationMessage) -> int:
        """Greedy next token from one request's own logits.

        Greedy-only by design: argmax is rng-free, so a request's stream
        cannot depend on how many co-batched neighbours consumed random
        draws before it.  Routed through the shared
        :func:`~repro.ops.greedy_pick` tie-break rule.
        """
        logits = self.rt._logits_last(msg.hidden)
        return int(greedy_pick(logits)[0])

    def _weight_stream_bytes(self) -> float:
        """Packed weight bytes one decode iteration streams across all
        stages (memoized per plan) — the per-extra-request saving the
        fused counters credit."""
        plan = self.rt.plan
        if self._wsb_plan is not plan:
            cfg = self.rt.cfg
            self._wsb = float(
                sum(
                    cfg.layer_weight_bytes(bits)
                    for sp in plan.stages
                    for bits in sp.layer_bits
                )
            )
            self._wsb_plan = plan
        return self._wsb

    # ------------------------------------------------------------------
    # Queue and admission
    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[ServeRequest]) -> ServeReport:
        """Replay a trace; returns per-request records + aggregates.

        A stage failure the recovery ladder cannot absorb (recovery
        off, the ladder exhausted) fails the replay cleanly, raising
        ``RuntimeError``.  A request whose positions overrun the model's
        position table raises ``ValueError`` before any pipeline I/O.
        """
        report = ServeReport(policy=self.policy)
        if not requests:
            return report
        self._columns(requests)
        worst = int(np.argmax(self._spr + self._sgen))
        self.rt.cfg.check_positions(int(self._spr[worst]), int(self._sgen[worst]))
        self._report = report
        self.rt._failures = 0
        self._t0 = time.perf_counter()
        self._offset = 0.0
        try:
            self._loop()
        except StageFailureError as err:
            self.rt._fail_cleanly(err)  # raises RuntimeError
        report.makespan = self._now()
        report.records = self._records()
        self._publish_stats(report)
        return report

    def _records(self) -> list[RequestRecord]:
        """Every queue row's outcome, in ``request_id`` order: a row never
        admitted is a rejection, any other carries its clocks and tokens."""
        cols = zip(
            self._queue, self._spr.tolist(), self._arr.tolist(),
            self.adm_it.tolist(), self._t_adm.tolist(), self._t_first.tolist(),
            self._t_fin.tolist(), np.split(self._tok, self._off[1:-1]),
        )
        records = [
            RequestRecord(
                request_id=req.request_id, prompt_len=s, gen_len=req.gen_len,
                arrival=arr, admit_time=t_adm, first_token_time=t_first,
                finish_time=t_fin, rejected=not adm,
                tokens=tokens if adm else None,
            )
            for req, s, arr, adm, t_adm, t_first, t_fin, tokens in cols
        ]
        records.sort(key=lambda r: r.request_id)
        return records

    def _admit(self, now: float) -> None:
        """Admit at a token boundary through the trace engine's rule,
        :func:`~repro.cost.stagecosts.admit_run`, and feed the arrivals
        up to ``now`` to the drift detector.  A request holds ``prompt +
        gen`` slots; a wave member the wave's ``s_max + n_max``.  Admitted
        rows join ``live``; rejected ones keep ``adm_it`` 0."""
        arr, spr, sgen = self._arr, self._spr, self._sgen
        arrived = int(arr.searchsorted(now, side="right"))
        if self._detector is not None and arrived > self._obs:
            o = self._obs
            self._detector.observe_arrivals(
                arr[o:arrived], spr[o:arrived], sgen[o:arrived])
            self._obs = arrived
        wave = self.policy == "wave"
        r, p = admit_run(
            self._cumq, spr, sgen, self._ptr, arrived, held=self.held,
            b=self.live.size, budget=self.budget,
            cap=self.max_inflight or len(arr), wave=wave,
        )
        self._ptr = p
        if p == r:
            return
        self.adm_it[r:p] = self.it + 1
        self._t_adm[r:p] = now
        if wave:
            s_max, n_max = int(spr[r:p].max()), int(sgen[r:p].max())
            self.fin[r:p] = self.it + n_max
            self.reserve[r:p] = s_max + n_max - spr[r:p]
        else:
            self.fin[r:p] = self.it + sgen[r:p]
            self.reserve[r:p] = sgen[r:p]
        self.live = np.concatenate((self.live, np.arange(r, p)))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        n = len(self._queue)
        while self._ptr < n or self.live.size:
            now = self._now()
            if not self.live.size:
                # idle gap: jump the virtual clock to the next arrival
                now = self._jump_to(float(self._arr[self._ptr]))
            self._admit(now)
            if not self.live.size:
                continue  # everything at the head was rejected
            try:
                self._iteration()
                self._boundary()
            except StageFailureError as err:
                self._recover(err)
            else:
                # a completed boundary ends a run of failures: the ladder's
                # retry budget counts consecutive ones
                self.rt._failures = 0

    def _iteration(self) -> None:
        """One token boundary: prefill the rows with no token yet, decode
        the rest of ``live``.

        Admission puts rows in ``live`` *before* any pipeline I/O, so a
        mid-iteration failure can never orphan them — the recovery path
        sees every admitted row.  Rows with no token yet (fresh
        admissions, or admissions whose prefill was lost to a crash) are
        prefilled; the rest decode as one fused message.  The boundary
        counts once its results are collected (a crash re-runs the same
        boundary number); then every row whose ``fin`` it reached
        retires, as on the trace engine's ring.  A wave member that has
        its ``gen_len`` tokens keeps decoding (padding) until its ``fin``.
        """
        live, prod, sgen = self.live, self.prod, self._sgen
        fresh = prod[live] == 0
        pre, dec = live[fresh], live[~fresh]
        for k in pre.tolist():
            self._send_prefill(k)
        if dec.size:
            self._send_batched_decode(dec, prod[dec])
        outs = self.rt._collect(pre.size + (dec.size > 0))
        self.it += 1
        now = self._now()
        stats = self.rt.stats
        for k in pre.tolist():
            self._tok[self._off[k]] = self._sample(outs[k])
        prod[pre] = 1
        self._t_first[pre] = now
        stats.tokens_generated += pre.size
        made = pre
        if dec.size:
            # one stacked logit GEMM for the whole decode batch, then a
            # scatter of the sampled tokens into the rows still generating
            b = dec.size
            stats.fused_iterations += 1
            stats.fused_batch_sum += b
            stats.fused_batch_max = max(stats.fused_batch_max, b)
            stats.fused_weight_bytes_saved += (b - 1) * self._weight_stream_bytes()
            stats.decode_tokens += b
            stats.tokens_generated += b
            toks = greedy_pick(self.rt._logits_last(outs[int(dec[0])].hidden))
            pos = prod[dec]
            grow = pos < sgen[dec]
            rows = dec[grow]
            self._tok[self._off[rows] + pos[grow]] = toks[grow]
            prod[rows] += 1
            made = np.concatenate((pre, rows))
        self._t_fin[made[prod[made] == sgen[made]]] = now
        self._retire()

    def _retire(self) -> None:
        """Release every live row whose last boundary has run."""
        live = self.live
        done = self.fin[live] <= self.it
        if done.any():
            self._release(live[done])
            self.live = live[~done]

    # ------------------------------------------------------------------
    # Live replanning / recovery (all at token boundaries)
    # ------------------------------------------------------------------
    def _occupancy(self) -> float:
        """Max per-stage KV usage fraction under the current headroom:
        ``held x slot bytes`` over the pool, the trace engine's product."""
        pool = self.headroom > 0
        if not pool.any():
            return 1.0 if self.held else 0.0
        slot = self.cost.kv_token_charges()[pool]
        return float(np.max(self.held * slot / self.headroom[pool]))

    def _boundary(self) -> None:
        """Quiesce point between iterations: migrations happen here."""
        if self._pending_plan is not None:
            plan, self._pending_plan = self._pending_plan, None
            self._switch(plan, "manual")
        if self._detector is None:
            return
        now = self._now()
        self._detector.observe_occupancies((now,), (self._occupancy(),))
        est = self._detector.poll(now)
        if est is None:
            return
        self._report.drift_triggers += 1
        if self.replanner is None:
            return
        new_plan = self.replanner(self.rt.plan, est)
        if new_plan is None:
            return
        self._switch(new_plan, est.reason)

    def _recover(self, err: StageFailureError) -> None:
        """Recovery at a token boundary: the runtime's ladder step picks
        the plan — the current one for a retry, the bit-preserving
        ``replan_after_failure`` plan past ``max_retries`` consecutive
        failures (a completed boundary ends the run) — and a forced
        migration rebuilds the workers under it and replays the
        in-flight KV, so nothing is dropped.  A failure during that
        replay takes the next step.
        """
        while True:
            plan = self.rt._ladder(err)  # raises once the ladder is exhausted
            if plan is self.rt.plan:
                reason = f"crash-retry:stage{err.stage_idx}"
            else:
                reason = f"crash:stage{err.stage_idx}"
                if self._detector is not None:
                    self._detector.observe_device_loss(self._now(), err.stage_idx)
            try:
                self._switch(plan, reason, force_restart=True)
            except StageFailureError as again:
                err = again
                continue
            self._report.crash_recoveries += 1
            return

    def _switch(
        self, plan: ExecutionPlan, reason: str, *, force_restart: bool = False
    ) -> None:
        """Migrate, then re-baseline the drift detector on the new regime:
        the step the manual, drift and crash paths share."""
        self.migrate(plan, reason=reason, force_restart=force_restart)
        if self._detector is not None:
            self._detector.rebaseline(self._now())

    def migrate(
        self,
        new_plan: ExecutionPlan | None = None,
        *,
        reason: str = "manual",
        force_restart: bool = False,
    ) -> MigrationRecord:
        """Switch the running pipeline to ``new_plan`` (or rebuild in place).

        Must run at a token boundary.  ``new_plan=None`` keeps the
        current plan.  A plan with the current shards is adopted in
        place; a plan that re-cuts them, or ``force_restart=True`` (a
        crash recovery), rebuilds the workers through
        :meth:`PipelineRuntime.recover` and replays the live rows' KV.
        Admission is re-priced under the new plan; queued requests stay
        queued and every in-flight row is carried across under its unit
        id, holding the slots it held, so nothing is dropped.  A switch
        that adopts a different plan object counts as a replan.
        """
        rt, report = self.rt, self._report
        t0 = self._now()
        before = rt.plan
        target = new_plan if new_plan is not None else before
        rec = MigrationRecord(
            reason=reason,
            rebuilt=force_restart or not rt._same_shards(target),
            stages_before=before.num_stages,
            stages_after=target.num_stages,
            inflight=self.live.size,
        )
        if rec.rebuilt:
            rt.recover(target)
        else:
            rt.plan = target
        if target is not before:
            report.replans += 1
        self._bind_cost_model()
        if rec.rebuilt:
            self._replay(rec)
        # a crash during the release handshake leaves finished requests
        # in flight; decoding them again would corrupt the schedule
        self._retire()

        rec.quiesce_seconds = self._now() - t0
        report.migrations += 1
        report.quiesce_seconds += rec.quiesce_seconds
        report.replayed_tokens += rec.replayed_tokens
        report.replay_divergences += rec.divergences
        self.migration_log.append(rec)
        return rec

    def _replay(self, rec: MigrationRecord) -> None:
        """Rebuild lost KV state by replaying each live row's computation.

        Each live row with a token is prefilled batch-1 over its original
        prompt, as it was admitted; replay round ``k`` is then one fused
        :class:`~repro.runtime.messages.BatchedDecodeMessage` over the
        rows that produced more than ``k`` tokens, feeding each its
        recorded token ``k - 1`` — the batched decode unit the simulator
        prices a replay round as.  A single prefill over prompt+tokens
        would instead change the prompt's GEMM shapes and hence its KV.
        A padding wave member has all its tokens, so its next padded
        decode rewrites its one unreplayed slot before reading it.
        Replayed samples are compared against the recorded stream: under
        a bit-preserving plan they match; under changed bitwidths
        mismatches are *counted* (the recorded, already-emitted tokens
        stay authoritative so client-visible streams remain
        self-consistent).
        """
        rt = self.rt
        rows = self.live[self.prod[self.live] > 0]
        if not rows.size:
            return
        for k in rows.tolist():
            self._send_prefill(k)
        outs = rt._collect(rows.size)
        first = [self._sample(outs[k]) for k in rows.tolist()]
        recorded = self._tok[self._off[rows]]
        rec.replayed_tokens += rows.size
        rec.divergences += int(np.count_nonzero(first != recorded))
        k = 1
        while True:
            rows = rows[self.prod[rows] > k]
            if not rows.size:
                break
            self._send_batched_decode(rows, k)
            (fused,) = rt._collect(1).values()
            toks = greedy_pick(rt._logits_last(fused.hidden))
            recorded = self._tok[self._off[rows] + k]
            rec.replayed_tokens += rows.size
            rec.divergences += int(np.count_nonzero(toks != recorded))
            k += 1

    def _publish_stats(self, report: ServeReport) -> None:
        """Mirror per-request metrics onto the runtime's ``RuntimeStats``."""
        self.rt._sync_cache_stats()
        stats = self.rt.stats
        for r in report.completed:
            stats.request_latencies.append(r.latency)
            stats.request_ttfts.append(r.ttft)
