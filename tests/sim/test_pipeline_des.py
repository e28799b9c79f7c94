"""Validation: event-driven pipeline schedule vs the closed-form model."""

import pytest

from repro.core.plan import ExecutionPlan
from repro.hardware import make_cluster
from repro.sim.pipeline import simulate_pipeline
from repro.sim.pipeline_des import simulate_pipeline_des
from repro.workload import Workload


@pytest.fixture(scope="module")
def small_w():
    return Workload(prompt_len=512, gen_len=20, global_batch=16)


def test_des_close_to_analytic(cluster3, small_w):
    """The closed form uses per-token barriers, so it upper-bounds the
    event-driven makespan and stays within ~15% of it."""
    plan = ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, small_w, bits=8,
        prefill_microbatch=4, decode_microbatch=8,
    )
    ana = simulate_pipeline(plan, cluster3).total_latency
    des = simulate_pipeline_des(plan, cluster3).total_latency
    assert des <= ana * 1.001
    assert ana <= des * 1.25


def test_des_exact_for_single_stage_single_microbatch():
    """No pipelining at all: DES and closed form must agree exactly."""
    cl = make_cluster([("A800-80G", 1)])
    w = Workload(prompt_len=128, gen_len=4, global_batch=2)
    plan = ExecutionPlan.uniform(
        "opt-13b", cl.devices, w, bits=8,
        prefill_microbatch=2, decode_microbatch=2,
    )
    ana = simulate_pipeline(plan, cl).total_latency
    des = simulate_pipeline_des(plan, cl).total_latency
    assert des == pytest.approx(ana, rel=1e-9)


def test_des_task_count(cluster3, small_w):
    plan = ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, small_w, bits=8,
        prefill_microbatch=4, decode_microbatch=8,
    )
    res = simulate_pipeline_des(plan, cluster3)
    m_p, m_d, S = 4, 2, 4
    expected = m_p * S + m_d * small_w.decode_passes * S
    assert res.num_tasks == expected


def test_des_utilization_bounded(cluster3, small_w):
    plan = ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, small_w, bits=8,
        prefill_microbatch=4, decode_microbatch=8,
    )
    res = simulate_pipeline_des(plan, cluster3)
    for j in range(4):
        u = res.schedule.utilization(("dev", j))
        assert 0.0 < u <= 1.0


def test_des_more_microbatches_do_not_hurt(cluster3, small_w):
    """Pipelining with more prefill micro-batches shouldn't slow down
    the event-driven schedule by much (bubbles shrink)."""
    coarse = ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, small_w, bits=8,
        prefill_microbatch=16, decode_microbatch=16,
    )
    fine = ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, small_w, bits=8,
        prefill_microbatch=4, decode_microbatch=16,
    )
    t_coarse = simulate_pipeline_des(coarse, cluster3).total_latency
    t_fine = simulate_pipeline_des(fine, cluster3).total_latency
    assert t_fine <= t_coarse * 1.05


def test_async_comm_overlap_helps(small_w):
    """With heavy comm, letting transfers ride the link while the sender
    starts its next micro-batch must not slow the pipeline down."""
    from repro.hardware.interconnect import Link
    from repro.sim.pipeline_des import simulate_pipeline_des as des

    slow = Link("slow-backbone", bandwidth=2e9, latency=1e-4)
    cl = make_cluster([("V100-32G", 2), ("V100-32G", 2)], inter_node_link=slow)
    w = Workload(prompt_len=1024, gen_len=4, global_batch=16)
    plan = ExecutionPlan.uniform(
        "opt-13b", cl.devices, w, bits=8,
        prefill_microbatch=2, decode_microbatch=8,
    )
    folded = des(plan, cl).total_latency
    overlapped = des(plan, cl, async_comm=True).total_latency
    assert overlapped <= folded * 1.001


# ---------------------------------------------------------------------------
# Fault-model overlay (mirrors the runtime's recovery semantics)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def faulty_plan(cluster3, small_w):
    return ExecutionPlan.uniform(
        "opt-30b", cluster3.devices, small_w, bits=8,
        prefill_microbatch=4, decode_microbatch=8,
    )


def test_fault_model_validation():
    from repro.sim.pipeline_des import FaultModel

    with pytest.raises(ValueError):
        FaultModel(mtbf_seconds=0.0)
    with pytest.raises(ValueError):
        FaultModel(mtbf_seconds=10.0, restart_seconds=-1.0)


def test_huge_mtbf_means_no_failures(faulty_plan, cluster3):
    from repro.sim.pipeline_des import FaultModel, simulate_pipeline_des_with_faults

    res = simulate_pipeline_des_with_faults(
        faulty_plan, cluster3, FaultModel(mtbf_seconds=1e12)
    )
    assert res.completed
    assert res.num_failures == 0
    assert res.total_latency == pytest.approx(res.fault_free_latency)
    assert res.recovery_overhead == pytest.approx(0.0)


def test_small_mtbf_inflates_latency(faulty_plan, cluster3):
    from repro.sim.pipeline_des import FaultModel, simulate_pipeline_des_with_faults

    base = simulate_pipeline_des(faulty_plan, cluster3).total_latency
    res = simulate_pipeline_des_with_faults(
        faulty_plan, cluster3,
        FaultModel(mtbf_seconds=base / 2, restart_seconds=1.0,
                   replay_from_start=False),
    )
    assert res.completed
    assert res.num_failures > 0
    assert res.fault_free_latency == pytest.approx(base)
    assert res.total_latency > base
    assert res.downtime_seconds >= res.num_failures * 1.0 - 1e-9
    assert res.recovery_overhead > 0


def test_fault_trace_deterministic_per_seed(faulty_plan, cluster3):
    from repro.sim.pipeline_des import FaultModel, simulate_pipeline_des_with_faults

    base = simulate_pipeline_des(faulty_plan, cluster3).total_latency
    mk = lambda seed: simulate_pipeline_des_with_faults(
        faulty_plan, cluster3,
        FaultModel(mtbf_seconds=base / 3, restart_seconds=0.5, seed=seed,
                   replay_from_start=False),
    )
    a, b, c = mk(1), mk(1), mk(2)
    assert (a.total_latency, a.num_failures) == (b.total_latency, b.num_failures)
    assert (a.total_latency, a.num_failures) != (c.total_latency, c.num_failures)


def test_checkpoint_bound_never_worse_than_replay(faulty_plan, cluster3):
    """Ideal per-step checkpointing (the lower bound) cannot be slower
    than the real runtime's replay-from-start semantics."""
    from repro.sim.pipeline_des import FaultModel, simulate_pipeline_des_with_faults

    base = simulate_pipeline_des(faulty_plan, cluster3).total_latency
    replay = simulate_pipeline_des_with_faults(
        faulty_plan, cluster3,
        FaultModel(mtbf_seconds=2 * base, restart_seconds=1.0, seed=3,
                   replay_from_start=True),
    )
    ckpt = simulate_pipeline_des_with_faults(
        faulty_plan, cluster3,
        FaultModel(mtbf_seconds=2 * base, restart_seconds=1.0, seed=3,
                   replay_from_start=False),
    )
    assert ckpt.total_latency <= replay.total_latency


def test_replay_from_start_can_fail_to_complete(faulty_plan, cluster3):
    """When the MTBF is far below the batch makespan, replay-from-start
    never accumulates a full batch of uptime: the sweep reports that
    honestly instead of looping forever."""
    from repro.sim.pipeline_des import FaultModel, simulate_pipeline_des_with_faults

    base = simulate_pipeline_des(faulty_plan, cluster3).total_latency
    res = simulate_pipeline_des_with_faults(
        faulty_plan, cluster3,
        FaultModel(mtbf_seconds=base / 100, max_failures=50),
    )
    assert not res.completed
    assert res.total_latency == float("inf")


def test_mtbf_sweep_monotone_tail(faulty_plan, cluster3):
    from repro.sim.pipeline_des import mtbf_sweep

    base = simulate_pipeline_des(faulty_plan, cluster3).total_latency
    grid = [base / 2, 10 * base, 1e12]
    results = mtbf_sweep(
        faulty_plan, cluster3, grid, restart_seconds=1.0,
        replay_from_start=False,
    )
    assert len(results) == 3
    # rarer failures -> overhead shrinks to zero at the reliable end
    assert results[-1].recovery_overhead == pytest.approx(0.0)
    assert results[0].recovery_overhead >= results[-1].recovery_overhead


def test_async_comm_shared_fabric_serializes(small_w):
    """Interleaving stages across two nodes makes every boundary cross
    the same node pair: the DES must account all that traffic against a
    single shared link resource."""
    from repro.core.plan import StagePlan
    from repro.sim.comm import activation_bytes
    from repro.sim.pipeline_des import simulate_pipeline_des as des
    from repro.models import get_model

    cl = make_cluster([("V100-32G", 2), ("V100-32G", 2)])
    w = Workload(prompt_len=512, gen_len=3, global_batch=8)
    devs = list(cl.devices)
    interleaved = [devs[0], devs[2], devs[1], devs[3]]  # n0,n1,n0,n1
    stages = tuple(StagePlan(d, (8,) * 10) for d in interleaved)
    plan = ExecutionPlan(
        model_name="opt-13b", stages=stages,
        prefill_microbatch=2, decode_microbatch=4, workload=w,
    )
    res = des(plan, cl, async_comm=True)
    key = ("link", "inter", 0, 1)
    busy = res.schedule.resource_busy.get(key, 0.0)
    # all 4 boundaries share the node pair: every prefill and decode
    # transfer lands on this one resource
    cfg = get_model("opt-13b")
    per_pre = activation_bytes(cfg, 2, 512) / cl.inter_node_link.bandwidth
    # 3 forward boundaries cross the pair x 4 prefill micro-batches, plus
    # the decode-phase transfers on all 4 boundaries
    assert busy > 3 * 4 * per_pre
    assert res.total_latency >= busy


def test_iteration_makespan_identical_units_closed_form():
    """With every unit carrying the same stage-time vector the pipeline
    behaves like GPipe prefill: makespan = sum_j u_j + (m-1) * max_j u_j."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.sim.pipeline_des import iteration_makespan_des

    @settings(max_examples=50, deadline=None)
    @given(
        stage_times=st.lists(
            st.floats(min_value=1e-6, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=5,
        ),
        m=st.integers(min_value=1, max_value=6),
    )
    def check(stage_times, m):
        u = np.array(stage_times)
        got = iteration_makespan_des([u] * m)
        want = float(u.sum() + (m - 1) * u.max())
        assert got == pytest.approx(want, rel=1e-9)

    check()


def _units_task_graph_makespan(units):
    """The iteration's task graph run through the event-driven scheduler:
    unit ``u`` on stage ``j`` after itself on stage ``j - 1``, units
    contending for each stage in unit order."""
    from repro.sim.events import Task, simulate_task_graph

    tasks = [
        Task(
            task_id=("U", u, j), duration=float(d), resource=("dev", j),
            deps=(("U", u, j - 1),) if j else (), priority=(u, j),
        )
        for u, times in enumerate(units)
        for j, d in enumerate(times)
    ]
    return simulate_task_graph(tasks).makespan


def test_iteration_makespan_recurrence_equals_task_graph():
    """The flow-shop recurrence ``C[u][j] = max(C[u-1][j], C[u][j-1]) +
    t[u][j]`` gives exactly the event-driven scheduler's makespan on the
    same graph — mixed units, tied durations and zero durations
    included."""
    import numpy as np
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    from repro.sim.pipeline_des import iteration_makespan_des

    # a small menu of durations makes ties and zeros common
    duration = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
        st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n_units=st.integers(min_value=0, max_value=6),
        n_stages=st.integers(min_value=1, max_value=5),
    )
    @example(data=None, n_units=3, n_stages=3)
    def check(data, n_units, n_stages):
        if data is None:  # ties across units and stages, zeros between
            units = [np.array([1.0, 0.0, 1.0])] * n_units
        else:
            units = [
                np.array(data.draw(st.lists(
                    duration, min_size=n_stages, max_size=n_stages
                )))
                for _ in range(n_units)
            ]
        assert iteration_makespan_des(units) == _units_task_graph_makespan(units)

    check()
