"""Validation: event-driven pipeline schedule vs the closed-form model,
and the online DES's flow-shop recurrence vs the event-driven task graph
(the task-graph reference is :mod:`tests.sim.des_spec`)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan
from repro.hardware import make_cluster
from repro.sim.pipeline import simulate_pipeline
from repro.sim.trace_engine import (
    iteration_makespan_des,
    iteration_makespan_des_batch,
)
from repro.workload import Workload

from .des_spec import Task, simulate_pipeline_des, simulate_task_graph


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


def test_iteration_makespan_identical_units_closed_form():
    """With every unit carrying the same stage-time vector the pipeline
    behaves like GPipe prefill: makespan = sum_j u_j + (m-1) * max_j u_j."""
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


# a small menu of durations makes ties and zeros common
_DURATION = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
)


def _units_task_graph_makespan(units):
    """The iteration's task graph run through the event-driven scheduler:
    unit ``u`` on stage ``j`` after itself on stage ``j - 1``, units
    contending for each stage in unit order."""
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
                    _DURATION, min_size=n_stages, max_size=n_stages
                )))
                for _ in range(n_units)
            ]
        assert iteration_makespan_des(units) == _units_task_graph_makespan(units)

    check()


def test_iteration_makespan_batch_equals_one_unit_rows():
    """The batch form the online DES prices every decode-only boundary
    with is the one-unit recurrence, row for row and bit for bit — zero
    rows, zero and tied durations and magnitudes that round included."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.integers(min_value=0, max_value=12),
        n_stages=st.integers(min_value=1, max_value=8),
    )
    @example(data=None, n_rows=4, n_stages=8)
    def check(data, n_rows, n_stages):
        if data is None:  # ties across rows and stages, zeros between
            rows = np.tile([1.0, 0.0], (n_rows, n_stages // 2))
        else:
            cell = st.one_of(
                _DURATION,
                st.floats(min_value=1e-9, max_value=1e-3,
                          allow_nan=False, allow_infinity=False),
            )
            rows = np.array(data.draw(st.lists(
                cell, min_size=n_rows * n_stages, max_size=n_rows * n_stages
            ))).reshape(n_rows, n_stages)
        got = iteration_makespan_des_batch(rows)
        assert got.shape == (n_rows,)
        for i in range(n_rows):
            want = iteration_makespan_des([rows[i]])
            assert float(got[i]).hex() == want.hex()

    check()
