"""Event-driven pipeline simulation (exact counterpart of the closed forms).

Builds the full serving task graph of a plan — every (stage, micro-batch)
prefill task, every (stage, decode-group, token) decode task, with the
token-feedback dependency from the last stage back to the first — and
executes it with :func:`repro.sim.events.simulate_task_graph`.  Task
durations are the closed form's own stage rows
(``StageCostModel.stage_rows()``); under ``async_comm`` each row's
outbound transfer is peeled off its busy time and becomes a link task.

One continuous-batching iteration (:func:`iteration_makespan_des`) is a
flow shop of units through the stages, priced by its completion-time
recurrence instead of a task graph.

The closed-form simulator costs decode with a per-token barrier
(``sum + (m-1) * max``); the event-driven schedule lets micro-batches of
*different* token indices overlap, so its makespan is a lower bound.
The validation tests assert ``DES <= analytic <= DES * small factor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cost.stagecosts import StageCostModel
from .events import ScheduleResult, Task, simulate_task_graph

if TYPE_CHECKING:  # type-only: keeps repro.sim importable without repro.core
    from ..core.plan import ExecutionPlan
    from ..cost.latency import LatencyModel
    from ..hardware.cluster import Cluster

__all__ = [
    "DESResult",
    "simulate_pipeline_des",
    "iteration_makespan_des",
    "iteration_makespan_des_batch",
    "FaultModel",
    "FaultyDESResult",
    "simulate_pipeline_des_with_faults",
    "mtbf_sweep",
]


@dataclass(frozen=True)
class DESResult:
    """Event-driven makespan plus the underlying schedule."""

    total_latency: float
    schedule: ScheduleResult
    num_tasks: int


@dataclass(frozen=True)
class FaultModel:
    """MTBF-style failure trace mirroring the runtime's fault handling.

    Stage crashes arrive as a seeded Poisson process with mean
    inter-arrival ``mtbf_seconds`` (aggregated over the whole pipeline).
    Each crash costs ``restart_seconds`` of worker rebuild (cheap,
    because shards are cached quantized — the paper's loading plugin)
    plus the lost work.  ``replay_from_start=True`` models the real
    runtime, which replays the whole batch after a failure because KV
    state is stage-local and unrecoverable; ``False`` is the ideal
    per-step-checkpoint lower bound, useful as the other end of the
    bracket in MTBF sweeps.
    """

    mtbf_seconds: float
    restart_seconds: float = 0.0
    seed: int = 0
    max_failures: int = 1000
    replay_from_start: bool = True

    def __post_init__(self) -> None:
        if self.mtbf_seconds <= 0:
            raise ValueError("mtbf_seconds must be positive")
        if self.restart_seconds < 0:
            raise ValueError("restart_seconds must be non-negative")


@dataclass(frozen=True)
class FaultyDESResult:
    """DES makespan under a failure trace, plus recovery accounting."""

    total_latency: float
    fault_free_latency: float
    num_failures: int
    downtime_seconds: float
    completed: bool

    @property
    def recovery_overhead(self) -> float:
        """Relative latency inflation caused by failures."""
        if self.fault_free_latency <= 0:
            return 0.0
        return self.total_latency / self.fault_free_latency - 1.0


def _link_resource_keys(plan: ExecutionPlan, cluster: Cluster) -> list:
    """Shared-fabric resource key per stage boundary.

    Boundaries inside one node share that node's NVLink/PCIe fabric;
    boundaries between the same node pair share the Ethernet path — so
    two pipeline crossings of the same physical backbone serialize when
    link contention is modelled.
    """
    devices = [s.device for s in plan.stages]
    keys = []
    for j in range(len(devices)):
        a = devices[j]
        b = devices[(j + 1) % len(devices)]
        if a.node_id == b.node_id:
            keys.append(("link", "intra", a.node_id))
        else:
            keys.append(("link", "inter", min(a.node_id, b.node_id),
                         max(a.node_id, b.node_id)))
    return keys


def simulate_pipeline_des(
    plan: ExecutionPlan,
    cluster: Cluster,
    *,
    async_comm: bool = False,
    latency_model: LatencyModel | None = None,
    cost_model: StageCostModel | None = None,
) -> DESResult:
    """Exact event-driven latency of one offline batch under ``plan``.

    With ``async_comm=True`` activation transfers become their own tasks
    on shared-fabric link resources, modelling the paper runtime's
    asynchronous communication: the sender is free to start its next
    micro-batch while the transfer is in flight (overlap — faster), but
    two boundaries crossing the same node pair or the same intra-node
    fabric serialize (contention — slower).  The default folds comm into
    the sender's busy time, matching the closed-form model.

    Stage times come from the same :class:`StageCostModel` the analytic
    simulator uses; ``latency_model`` switches it to the planner's fitted
    cost model, ``cost_model`` shares an existing instance's memos.
    """
    w = plan.workload
    n_stages = plan.num_stages
    m_p = -(-w.global_batch // plan.prefill_microbatch)
    m_d = -(-w.global_batch // plan.decode_microbatch)
    if cost_model is None:
        cost_model = StageCostModel(plan, cluster, latency_model=latency_model)
    rows = cost_model.stage_rows()
    pre = [r.prefill for r in rows]
    dec = [r.decode for r in rows]
    comm_pre = [r.prefill_comm for r in rows]
    comm_dec = [r.decode_comm for r in rows]
    if async_comm:
        # comm leaves the stage busy-time (it rides the link resource now)
        pre = [t - c for t, c in zip(pre, comm_pre)]
        if w.decode_passes:
            dec = [t - c for t, c in zip(dec, comm_dec)]
    link_keys = _link_resource_keys(plan, cluster)

    tasks: list[Task] = []
    # ---- prefill: task P(j, i) on device j, dep on P(j-1, i) ----
    for i in range(m_p):
        for j in range(n_stages):
            if async_comm and j > 0:
                deps = [("Xp", j - 1, i)]
            else:
                deps = [] if j == 0 else [("P", j - 1, i)]
            tasks.append(
                Task(
                    task_id=("P", j, i),
                    duration=float(pre[j]),
                    resource=("dev", j),
                    deps=tuple(deps),
                    priority=(0, i, j),
                )
            )
            if async_comm and j < n_stages - 1:
                tasks.append(
                    Task(
                        task_id=("Xp", j, i),
                        duration=float(comm_pre[j]),
                        resource=link_keys[j],
                        deps=(("P", j, i),),
                        priority=(0, i, j, 1),
                    )
                )
    # ---- decode: D(j, g, k); deps: previous stage same token, and the
    # feedback edge D(last, g, k-1) -> D(0, g, k) (sampling closes the
    # loop through the master).  Token 1 comes from prefill: the decode
    # group g's first step depends on every member prefill finishing.
    group_members = max(1, plan.decode_microbatch // plan.prefill_microbatch)
    for g in range(m_d):
        members = [
            i for i in range(g * group_members, min((g + 1) * group_members, m_p))
        ] or [min(g, m_p - 1)]
        for k in range(w.decode_passes):
            for j in range(n_stages):
                deps: list = []
                if j == 0:
                    if k == 0:
                        deps = [("P", n_stages - 1, i) for i in members]
                    elif async_comm:
                        deps = [("Xd", n_stages - 1, g, k - 1)]
                    else:
                        deps = [("D", n_stages - 1, g, k - 1)]
                elif async_comm:
                    deps = [("Xd", j - 1, g, k)]
                else:
                    deps = [("D", j - 1, g, k)]
                tasks.append(
                    Task(
                        task_id=("D", j, g, k),
                        duration=float(dec[j][k]),
                        resource=("dev", j),
                        deps=tuple(deps),
                        priority=(1, k, g, j),
                    )
                )
                if async_comm:
                    tasks.append(
                        Task(
                            task_id=("Xd", j, g, k),
                            duration=float(comm_dec[j]),
                            resource=link_keys[j],
                            deps=(("D", j, g, k),),
                            priority=(1, k, g, j, 1),
                        )
                    )
    schedule = simulate_task_graph(tasks)
    return DESResult(
        total_latency=schedule.makespan,
        schedule=schedule,
        num_tasks=len(tasks),
    )


def iteration_makespan_des(unit_stage_times: "list[np.ndarray]") -> float:
    """Event-driven makespan of one continuous-batching iteration.

    Each unit (the fused decode group, plus one prefill unit per newly
    admitted request) flows through the stages in order; units overlap
    across stages exactly as micro-batches do in the offline pipeline.
    ``unit_stage_times[u][j]`` is unit ``u``'s busy time on stage ``j``
    (comm folded into the sender).  That schedule is a permutation flow
    shop in unit order, so its completion times follow the recurrence
    ``C[u][j] = max(C[u-1][j], C[u][j-1]) + t[u][j]`` — the same floats
    :func:`~repro.sim.events.simulate_task_graph` produces on the task
    graph, without building it.  The closed-form counterpart is
    ``sum_j t_0j + sum_{u>0} max_j t_uj``; this is its exact lower
    bound, which the online simulator's ``engine="des"`` uses.
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
    per row.  The vectorized online engine prices whole decode runs
    through this instead of building one task graph per token step.
    """
    st = np.asarray(stage_times, dtype=np.float64)
    if st.ndim != 2:
        raise ValueError("stage_times must be a (iterations, stages) matrix")
    acc = np.zeros(st.shape[0])
    for j in range(st.shape[1]):
        acc = acc + st[:, j]
    return acc


def simulate_pipeline_des_with_faults(
    plan: ExecutionPlan,
    cluster: Cluster,
    faults: FaultModel,
    *,
    async_comm: bool = False,
    cost_model: StageCostModel | None = None,
) -> FaultyDESResult:
    """Batch latency under ``plan`` when stages crash per ``faults``.

    The fault-free DES makespan is the batch's work requirement; the
    failure trace then overlays the runtime's recovery semantics: a
    crash wastes the uptime accumulated since the last consistent point
    (batch start when ``replay_from_start``, the crash instant
    otherwise) and adds ``restart_seconds`` of rebuild before serving
    resumes.  Deterministic for a given seed, so planner evaluations
    under failure traces (MTBF sweeps) are reproducible.
    """
    base = simulate_pipeline_des(
        plan, cluster, async_comm=async_comm, cost_model=cost_model
    )
    work = base.total_latency
    rng = np.random.default_rng(faults.seed)

    wall = 0.0
    progress = 0.0
    failures = 0
    completed = False
    while failures <= faults.max_failures:
        gap = float(rng.exponential(faults.mtbf_seconds))
        remaining = work - progress
        if gap >= remaining:
            wall += remaining
            completed = True
            break
        wall += gap + faults.restart_seconds
        failures += 1
        if faults.replay_from_start:
            progress = 0.0  # KV state is stage-local: the batch replays
        else:
            progress += gap  # ideal checkpoint: only the restart is lost
    total = wall if completed else float("inf")
    return FaultyDESResult(
        total_latency=total,
        fault_free_latency=work,
        num_failures=failures,
        downtime_seconds=(total - work) if completed else float("inf"),
        completed=completed,
    )


def mtbf_sweep(
    plan: ExecutionPlan,
    cluster: Cluster,
    mtbf_values: "list[float] | tuple[float, ...]",
    *,
    restart_seconds: float = 0.0,
    seed: int = 0,
    replay_from_start: bool = True,
    async_comm: bool = False,
) -> list[FaultyDESResult]:
    """Evaluate a plan across an MTBF grid (one seeded trace per point)."""
    return [
        simulate_pipeline_des_with_faults(
            plan, cluster,
            FaultModel(
                mtbf_seconds=m, restart_seconds=restart_seconds,
                seed=seed, replay_from_start=replay_from_start,
            ),
            async_comm=async_comm,
        )
        for m in mtbf_values
    ]
