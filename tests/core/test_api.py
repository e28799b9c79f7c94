"""Unit tests for the high-level API (plan / evaluate / compare)."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.api import compare_schemes, evaluate_plan, plan_llmpq
from repro.core.plan import ExecutionPlan


@pytest.fixture(scope="module")
def reports(small_hetero_cluster, latmodel_13b):
    from repro.workload import Workload

    w = Workload(prompt_len=256, gen_len=50, global_batch=16)
    return compare_schemes(
        "opt-13b", small_hetero_cluster, w,
        schemes=("PipeEdge", "Uniform", "FlexGen-int8", "LLM-PQ", "adabits"),
        group_size=4, latency_model=latmodel_13b,
    )


def test_all_schemes_reported(reports):
    names = [r.scheme for r in reports]
    assert names == ["PipeEdge", "Uniform", "FlexGen-int8", "LLM-PQ", "adabits"]


def test_llmpq_wins_on_hetero_cluster(reports):
    by = {r.scheme: r for r in reports}
    llmpq = by["LLM-PQ"]
    assert llmpq.feasible
    for other in ("PipeEdge", "Uniform", "FlexGen-int8"):
        if by[other].feasible:
            assert llmpq.throughput >= by[other].throughput * 0.95


def test_quality_within_target(reports):
    by = {r.scheme: r for r in reports}
    # LLM-PQ's PPL stays close to the best baseline's (paper: negligible
    # degradation, often better)
    feasible_ppls = [r.perplexity for r in reports if r.feasible and np.isfinite(r.perplexity)]
    assert by["LLM-PQ"].perplexity <= min(feasible_ppls) + 0.6


def test_speedup_over(reports):
    by = {r.scheme: r for r in reports}
    x = by["LLM-PQ"].speedup_over(by["PipeEdge"])
    assert x == pytest.approx(by["LLM-PQ"].throughput / by["PipeEdge"].throughput)


def test_report_row_format(reports):
    row = reports[0].row()
    assert set(row) == {"scheme", "ppl", "latency_s", "throughput_tok_s", "avg_bits"}


def test_evaluate_plan_roundtrip(small_hetero_cluster):
    from repro.workload import Workload

    w = Workload(prompt_len=256, gen_len=50, global_batch=16)
    plan = ExecutionPlan.uniform("opt-13b", small_hetero_cluster.devices, w, bits=8)
    rep = evaluate_plan(plan, small_hetero_cluster, scheme="test")
    assert rep.scheme == "test"
    assert rep.feasible
    assert rep.average_bits == 8.0


def test_unknown_scheme_rejected(small_hetero_cluster):
    from repro.workload import Workload

    w = Workload(prompt_len=64, gen_len=4, global_batch=4)
    with pytest.raises(ValueError, match="unknown scheme"):
        compare_schemes("opt-13b", small_hetero_cluster, w, schemes=("vLLM",))


def test_plan_llmpq_heuristic_mode(small_hetero_cluster, latmodel_13b):
    from repro.workload import Workload

    w = Workload(prompt_len=256, gen_len=20, global_batch=8)
    res = plan_llmpq(
        "opt-13b", small_hetero_cluster, w,
        use_heuristic=True, group_size=4, latency_model=latmodel_13b,
    )
    assert res.feasible


# ---------------------------------------------------------------------------
# replan_after_failure (the runtime's last degradation rung)
# ---------------------------------------------------------------------------


def _four_stage_plan():
    from repro.hardware import make_cluster
    from repro.workload import Workload

    cl = make_cluster([("T4-16G", 4)], name="quad")
    w = Workload(prompt_len=128, gen_len=8, global_batch=8)
    return ExecutionPlan.uniform("opt-13b", cl.devices, w, bits=8)


def _all_bits(plan):
    return [b for st in plan.stages for b in st.layer_bits]


def test_replan_middle_stage_splits_layers_to_neighbours():
    from repro.core.api import replan_after_failure

    plan = _four_stage_plan()
    new = replan_after_failure(plan, 1)
    assert new.num_stages == 3
    assert new.num_layers == plan.num_layers
    assert _all_bits(new) == _all_bits(plan)  # per-layer recipe preserved
    # the dead stage's 10 layers split between stages 0 and 2
    assert new.stages[0].num_layers == 10 + 5
    assert new.stages[1].num_layers == 10 + 5
    assert new.meta["replanned_after_stage_failure"] == 1
    assert new.meta["lost_device"] == plan.stages[1].device.name
    # serving shape unchanged
    assert new.prefill_microbatch == plan.prefill_microbatch
    assert new.decode_microbatch == plan.decode_microbatch
    assert new.workload == plan.workload


def test_replan_first_and_last_stage():
    from repro.core.api import replan_after_failure

    plan = _four_stage_plan()
    first = replan_after_failure(plan, 0)
    assert first.num_stages == 3
    assert first.stages[0].num_layers == 20  # absorbed downstream
    assert _all_bits(first) == _all_bits(plan)
    last = replan_after_failure(plan, 3)
    assert last.num_stages == 3
    assert last.stages[-1].num_layers == 20  # absorbed upstream
    assert _all_bits(last) == _all_bits(plan)


def test_replan_validation():
    from repro.core.api import replan_after_failure
    from repro.hardware import make_cluster
    from repro.workload import Workload

    plan = _four_stage_plan()
    with pytest.raises(ValueError, match="out of range"):
        replan_after_failure(plan, 4)
    cl = make_cluster([("T4-16G", 1)])
    w = Workload(prompt_len=128, gen_len=8, global_batch=8)
    single = ExecutionPlan.uniform("opt-13b", cl.devices, w, bits=8)
    with pytest.raises(ValueError, match="no surviving"):
        replan_after_failure(single, 0)


def test_serving_imports_leave_scipy_to_the_first_solve():
    """The runtime, the simulators, the fleet and the CLI all reach
    ``repro.core`` but never solve or fit anything at import: scipy loads
    on the first MILP / NNLS call, and the planner still works then."""
    code = (
        "import sys\n"
        "import repro.runtime, repro.sim, repro.fleet, repro.cli\n"
        "early = [m for m in ('scipy', 'scipy.optimize') if m in sys.modules]\n"
        "assert not early, f'imports alone loaded {early}'\n"
        "from repro.core.api import plan_llmpq\n"
        "from repro.hardware import make_cluster\n"
        "from repro.workload import Workload\n"
        "res = plan_llmpq(\n"
        "    'opt-13b', make_cluster([('T4-16G', 1), ('V100-32G', 1)]),\n"
        "    Workload(prompt_len=128, gen_len=16, global_batch=8),\n"
        "    group_size=8, prefill_mb_cap=4, decode_mb_candidates=(8,),\n"
        ")\n"
        "assert res.feasible and 'scipy.optimize' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
