"""The offline serving batch as an event-driven task graph.

This is the reference the closed form of :mod:`repro.sim.pipeline`
(``sum + (m-1) * max`` per phase, the latency the planner scores every
candidate with) is checked against, and the reference the online DES's
flow-shop recurrence (``trace_engine.iteration_makespan_des``) is pinned
to:

* :func:`simulate_task_graph` executes a dependency graph of tasks bound
  to exclusive resources (devices) with a greedy non-idling policy;
* :func:`simulate_pipeline_des` builds the full serving task graph of a
  plan — every (stage, micro-batch) prefill task, every (stage,
  decode-group, token) decode task, with the token-feedback dependency
  from the last stage back to the first — from the closed form's own
  stage rows (``StageCostModel.stage_rows()``, comm folded into the
  sender) and runs it.

The closed form costs decode with a per-token barrier; the event-driven
schedule lets micro-batches of *different* token indices overlap, so its
makespan is a lower bound, and with one micro-batch per phase the two
price the identical task chain.  Deliberately slow; used by the
``tests/sim`` equality tests only.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.cost.stagecosts import StageCostModel

TaskId = Hashable


@dataclass(frozen=True)
class Task:
    """One unit of work.

    ``duration`` seconds of exclusive use of ``resource`` (tasks sharing
    a resource serialize), after every task in ``deps`` finished.  When
    several ready tasks contend for one resource the smallest
    ``priority`` runs first — pipeline schedules use (token, microbatch).
    """

    task_id: TaskId
    duration: float
    resource: Hashable
    deps: tuple[TaskId, ...] = ()
    priority: tuple = ()

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of an event-driven execution."""

    finish_times: Mapping[TaskId, float]
    makespan: float
    resource_busy: Mapping[Hashable, float]

    def utilization(self, resource: Hashable) -> float:
        """Busy fraction of ``resource`` over the makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.resource_busy.get(resource, 0.0) / self.makespan


def simulate_task_graph(tasks: Iterable[Task]) -> ScheduleResult:
    """Event-driven execution of a task DAG over exclusive resources.

    Greedy non-idling policy: whenever a resource is free and has ready
    tasks, it runs the one with the smallest ``priority`` (then push
    order for determinism).  Raises on unknown dependencies or cycles.
    """
    tasks = list(tasks)
    by_id: dict[TaskId, Task] = {}
    for t in tasks:
        if t.task_id in by_id:
            raise ValueError(f"duplicate task id {t.task_id!r}")
        by_id[t.task_id] = t
    indeg: dict[TaskId, int] = {}
    dependents: dict[TaskId, list[TaskId]] = {}
    for t in tasks:
        indeg[t.task_id] = len(t.deps)
        for d in t.deps:
            if d not in by_id:
                raise ValueError(f"task {t.task_id!r} depends on unknown {d!r}")
            dependents.setdefault(d, []).append(t.task_id)

    # per-resource ready queues (priority, push order, task_id)
    ready: dict[Hashable, list] = {}
    pushed = itertools.count()

    def push_ready(tid: TaskId) -> None:
        t = by_id[tid]
        heapq.heappush(
            ready.setdefault(t.resource, []), (t.priority, next(pushed), tid)
        )

    for t in tasks:
        if indeg[t.task_id] == 0:
            push_ready(t.task_id)

    resource_free_at: dict[Hashable, float] = {}
    resource_busy: dict[Hashable, float] = {}
    finish: dict[TaskId, float] = {}
    dep_ready_at: dict[TaskId, float] = {t.task_id: 0.0 for t in tasks}

    now = 0.0
    completed = 0
    # process until all tasks done: at each step, start every startable
    # task; then advance time to the next completion
    running: list[tuple[float, TaskId]] = []  # (finish_time, task)
    while completed < len(tasks):
        started_any = True
        while started_any:
            started_any = False
            for res, queue_ in list(ready.items()):
                if not queue_:
                    continue
                free_at = resource_free_at.get(res, 0.0)
                if free_at > now:
                    continue
                # among ready tasks, the scheduler may only start those
                # whose dependencies finished by `now`
                startable = [
                    entry for entry in queue_ if dep_ready_at[entry[2]] <= now
                ]
                if not startable:
                    continue
                entry = min(startable)
                queue_.remove(entry)
                heapq.heapify(queue_)
                tid = entry[2]
                t = by_id[tid]
                end = now + t.duration
                resource_free_at[res] = end
                resource_busy[res] = resource_busy.get(res, 0.0) + t.duration
                heapq.heappush(running, (end, tid))
                started_any = True
        if not running:
            raise ValueError("dependency cycle detected")
        end, tid = heapq.heappop(running)
        now = max(now, end)
        finish[tid] = end
        completed += 1
        for dep_id in dependents.get(tid, ()):  # release dependents
            indeg[dep_id] -= 1
            dep_ready_at[dep_id] = max(dep_ready_at[dep_id], end)
            if indeg[dep_id] == 0:
                push_ready(dep_id)

    makespan = max(finish.values(), default=0.0)
    return ScheduleResult(
        finish_times=finish, makespan=makespan, resource_busy=resource_busy
    )


@dataclass(frozen=True)
class DESResult:
    """Event-driven makespan plus the underlying schedule."""

    total_latency: float
    schedule: ScheduleResult
    num_tasks: int


def simulate_pipeline_des(plan, cluster, *, latency_model=None) -> DESResult:
    """Exact event-driven latency of one offline batch under ``plan``.

    Stage times come from the same :class:`StageCostModel` the analytic
    simulator uses, comm folded into the sender's busy time;
    ``latency_model`` switches it to the planner's fitted cost model.
    """
    w = plan.workload
    n_stages = plan.num_stages
    m_p = -(-w.global_batch // plan.prefill_microbatch)
    m_d = -(-w.global_batch // plan.decode_microbatch)
    rows = StageCostModel(plan, cluster, latency_model=latency_model).stage_rows()

    tasks: list[Task] = []
    # prefill: task P(j, i) on device j, after P(j-1, i)
    for i in range(m_p):
        for j in range(n_stages):
            tasks.append(Task(
                task_id=("P", j, i),
                duration=float(rows[j].prefill),
                resource=("dev", j),
                deps=(("P", j - 1, i),) if j else (),
                priority=(0, i, j),
            ))
    # decode: D(j, g, k) after the previous stage's same token, and the
    # feedback edge D(last, g, k-1) -> D(0, g, k) (sampling closes the
    # loop through the master).  Token 1 comes from prefill: decode
    # group g's first step waits for every member prefill to finish.
    group_members = max(1, plan.decode_microbatch // plan.prefill_microbatch)
    for g in range(m_d):
        members = [
            i for i in range(g * group_members, min((g + 1) * group_members, m_p))
        ] or [min(g, m_p - 1)]
        for k in range(w.decode_passes):
            for j in range(n_stages):
                if j:
                    deps = (("D", j - 1, g, k),)
                elif k:
                    deps = (("D", n_stages - 1, g, k - 1),)
                else:
                    deps = tuple(("P", n_stages - 1, i) for i in members)
                tasks.append(Task(
                    task_id=("D", j, g, k),
                    duration=float(rows[j].decode[k]),
                    resource=("dev", j),
                    deps=deps,
                    priority=(1, k, g, j),
                ))
    schedule = simulate_task_graph(tasks)
    return DESResult(
        total_latency=schedule.makespan, schedule=schedule, num_tasks=len(tasks)
    )
