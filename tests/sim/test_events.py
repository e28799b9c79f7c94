"""Unit tests for the discrete-event task-graph scheduler of the DES spec."""

import pytest

from .des_spec import Task, simulate_task_graph


def test_single_task():
    res = simulate_task_graph([Task("a", 2.0, "r")])
    assert res.makespan == 2.0
    assert res.finish_times["a"] == 2.0
    assert res.utilization("r") == 1.0


def test_chain_serializes():
    tasks = [
        Task("a", 1.0, "r1"),
        Task("b", 2.0, "r2", deps=("a",)),
        Task("c", 3.0, "r1", deps=("b",)),
    ]
    res = simulate_task_graph(tasks)
    assert res.makespan == 6.0
    assert res.finish_times == {"a": 1.0, "b": 3.0, "c": 6.0}


def test_resource_exclusivity():
    tasks = [Task(f"t{i}", 1.0, "gpu") for i in range(4)]
    res = simulate_task_graph(tasks)
    assert res.makespan == 4.0  # serialized on one resource
    assert res.utilization("gpu") == 1.0


def test_independent_resources_parallel():
    tasks = [Task("a", 5.0, "r1"), Task("b", 3.0, "r2")]
    res = simulate_task_graph(tasks)
    assert res.makespan == 5.0


def test_priority_ordering():
    tasks = [
        Task("low", 1.0, "r", priority=(2,)),
        Task("high", 1.0, "r", priority=(1,)),
    ]
    res = simulate_task_graph(tasks)
    assert res.finish_times["high"] < res.finish_times["low"]


def test_gpipe_makespan():
    """2 stages x 3 micro-batches of unit time: classic GPipe makespan
    = sum + (m-1)*max = 2 + 2 = 4."""
    tasks = []
    for i in range(3):
        tasks.append(Task(("p", 0, i), 1.0, "s0", priority=(i, 0)))
        tasks.append(Task(("p", 1, i), 1.0, "s1", deps=(("p", 0, i),), priority=(i, 1)))
    res = simulate_task_graph(tasks)
    assert res.makespan == 4.0


def test_cycle_detected():
    tasks = [
        Task("a", 1.0, "r", deps=("b",)),
        Task("b", 1.0, "r", deps=("a",)),
    ]
    with pytest.raises(ValueError, match="cycle"):
        simulate_task_graph(tasks)


def test_unknown_dep_rejected():
    with pytest.raises(ValueError, match="unknown"):
        simulate_task_graph([Task("a", 1.0, "r", deps=("ghost",))])


def test_duplicate_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        simulate_task_graph([Task("a", 1.0, "r"), Task("a", 2.0, "r")])


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        Task("a", -1.0, "r")


def test_empty_graph():
    res = simulate_task_graph([])
    assert res.makespan == 0.0
