"""Cost-drift guard: every consumer prices plans through StageCostModel.

Three layers of protection:

* **Golden byte-identity** — the committed
  ``tests/data/costview_golden.json`` was captured from the pre-refactor
  code (each consumer still carrying its private pricing copy) with the
  ``kernels`` source; the refactored stack must reproduce every float bit
  for bit.
* **Model-source oracle** — the fitted-latency-model path is checked in
  the same run against the pre-refactor formulas re-derived inline from
  the raw :class:`LatencyModel`, again with exact ``==``.
* **Cross-path equality** — planner tables, simulator stage times, DES,
  scheduler admission and the online helpers must all resolve to the same
  floats (the Sec.-4.1 "one cost model" property the CI step pins).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cost.predictions import PredictionCache
from repro.cost.stagecosts import StageCostModel, planner_time_tables
from repro.sim.comm import boundary_links, stage_comm_time
from repro.sim.kernels import embedding_exec_time
from repro.sim.pipeline import simulate_pipeline

from .costview_cases import canned_trace, compute_snapshot, mb1_plan, mixed_plan
from .costview_spec import spec_unit_decode_times, spec_unit_prefill_times
from .des_spec import simulate_pipeline_des

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "costview_golden.json"


# ---------------------------------------------------------------------------
# layer 1: pre-refactor kernels-source goldens, bit for bit
# ---------------------------------------------------------------------------


def test_kernels_source_byte_identical_to_prerefactor_golden():
    got = compute_snapshot()
    want = json.loads(GOLDEN.read_text())
    assert got == want


# ---------------------------------------------------------------------------
# layer 2: model source vs the pre-refactor formulas, exact
# ---------------------------------------------------------------------------


def _oracle_stage_times_model(plan, cluster, model, contexts):
    """Pre-refactor analytic-simulator pricing under a fitted model:
    per-stage prefill busy times and the decode context-sweep table,
    re-derived here straight from the LatencyModel the way
    ``sim/pipeline.py`` did before the refactor."""
    cfg = model.cfg
    w = plan.workload
    n = plan.num_stages
    links = boundary_links(cluster, [s.device for s in plan.stages])
    mb_p, mb_d, s = plan.prefill_microbatch, plan.decode_microbatch, w.prompt_len
    pre = np.empty(n)
    dec = np.empty((n, contexts.size))
    for j, stage in enumerate(plan.stages):
        gpu = stage.device.spec
        kv = stage.kv_bits
        t = model.predict_layers(
            gpu, stage.layer_bits, "prefill", mb_p, s, s, kv_bits=kv
        )
        if j == 0:
            t += embedding_exec_time(gpu, cfg, mb_p, s, with_logits=False)
        if j == n - 1:
            t += embedding_exec_time(gpu, cfg, mb_p, 1, with_logits=True)
        if j < n - 1:
            t += stage_comm_time(links[j], cfg, mb_p, s)
        pre[j] = t
        total = np.zeros_like(contexts, dtype=np.float64)
        for bits, count in stage.bit_counts.items():
            total += count * model.decode_step_times(
                gpu, bits, mb_d, contexts, kv_bits=kv
            )
        extra = 0.0
        if j == 0:
            extra += embedding_exec_time(gpu, cfg, mb_d, 1, with_logits=False)
        if j == n - 1:
            extra += embedding_exec_time(gpu, cfg, mb_d, 1, with_logits=True)
        row = total + extra
        row = row + stage_comm_time(links[j], cfg, mb_d, 1)
        dec[j] = row
    return pre, dec


@pytest.mark.parametrize("case", [mixed_plan, mb1_plan])
def test_model_source_stage_times_match_prerefactor_oracle(
    case, latmodel_cluster3
):
    plan, cluster = case()
    w = plan.workload
    contexts = w.prompt_len + np.arange(1, w.decode_passes + 1, dtype=np.float64)
    oracle_pre, oracle_dec = _oracle_stage_times_model(
        plan, cluster, latmodel_cluster3, contexts
    )
    scm = StageCostModel(plan, cluster, latency_model=latmodel_cluster3)
    assert scm.source == "model"
    rows = scm.stage_rows()
    got_pre = np.array([r.prefill for r in rows])
    got_dec = np.stack([r.decode for r in rows])
    assert np.array_equal(got_pre, oracle_pre)
    assert np.array_equal(got_dec, oracle_dec)
    # and the simulator consumes exactly these tables
    res = simulate_pipeline(plan, cluster, latency_model=latmodel_cluster3)
    m_p = -(-w.global_batch // plan.prefill_microbatch)
    assert res.prefill_latency == float(
        oracle_pre.sum() + (m_p - 1) * oracle_pre.max()
    )
    for j, r in enumerate(res.stage_reports):
        assert r.prefill_time == oracle_pre[j]
        assert r.decode_time_first == oracle_dec[j, 0]
        assert r.decode_time_last == oracle_dec[j, -1]


# ---------------------------------------------------------------------------
# layer 3: cross-path equalities
# ---------------------------------------------------------------------------


def test_unit_tables_bitwise_equal_scalar_spec():
    """The precomputed-constant vectorized unit tables (the online
    continuous fast path) must be bitwise equal to the per-layer scalar
    walk of ``costview_spec``, for any (batch, context) / prompt length —
    one row at a time and as one multi-row table."""
    plan, cluster = mixed_plan()
    scm = StageCostModel(plan, cluster)
    cells = [
        (batch, context)
        for batch in (1, 2, 5, 16)
        for context in (33.0, 128.0, 140.0, 1024.0)
    ]
    want = {c: spec_unit_decode_times(plan, cluster, *c) for c in cells}
    for batch, context in cells:
        assert np.array_equal(
            scm.unit_decode_times(batch, context), want[batch, context]
        ), (batch, context)
        assert np.array_equal(
            scm.unit_decode_times_batch(
                np.array([batch]), np.array([context])
            )[0],
            want[batch, context],
        ), (batch, context)
    table = scm.unit_decode_times_batch(
        np.array([b for b, _ in cells]), np.array([c for _, c in cells])
    )
    assert np.array_equal(table, np.array([want[c] for c in cells]))
    for s in (24, 96, 128):
        assert np.array_equal(
            scm.unit_prefill_times(s), spec_unit_prefill_times(plan, cluster, s)
        )


@settings(max_examples=20, deadline=None)
@given(
    kv=st.sampled_from([16, 4, (4, 8, 16, 4)]),
    cells=st.lists(
        st.tuples(st.integers(1, 300), st.floats(1.0, 4096.0)),
        min_size=1, max_size=16,
    ),
)
@example(
    kv=(4, 8, 16, 4),
    cells=[(5, 33.0), (64, 128.0), (200, 1024.0), (300, 7.5), (64, 128.0)],
)
def test_decode_table_rows_bitwise_equal_spec(kv, cells):
    """The per-batch-size table hands ``unit_decode_times_batch`` every
    batch-only term: rows must still equal the per-layer spec bit for bit
    while the table doubles twice (64 -> 128 -> 256+ rows) under mixed
    per-layer bits and per-stage KV bits, for unsorted rows with
    duplicates, whichever of a model and its ``derive()``d twin grew the
    shared table."""
    from dataclasses import replace

    plan, cluster = mixed_plan()
    plan = plan.with_kv_bits(kv)
    parent = StageCostModel(plan, cluster)
    child = parent.derive(replace(plan, decode_microbatch=3))
    assert child._decode_table_memo is parent._decode_table_memo
    cells = cells + cells[::-1]
    for top, scm in ((63, parent), (127, child), (300, parent), (300, child)):
        sub = [c for c in cells if c[0] <= top]
        got = scm.unit_decode_times_batch(
            [b for b, _ in sub], [c for _, c in sub]
        )
        want = [spec_unit_decode_times(plan, cluster, *c) for c in sub]
        assert np.array_equal(got, np.array(want).reshape(len(sub), plan.num_stages)), top


@pytest.mark.parametrize("source", ["kernels", "model"])
def test_decode_units_validate_batch_sizes_alike(source, latmodel_cluster3):
    """Both decode-unit entry points refuse a batch size that is not a
    whole number >= 1 with one ``ValueError`` (the table kernel used to
    index its memo from the end at -1, return its NaN row at 0 and
    truncate 2.7 to 2); an empty table is a ``(0, stages)`` array."""
    plan, cluster = mixed_plan()
    model = latmodel_cluster3 if source == "model" else None
    scm = StageCostModel(plan, cluster, latency_model=model)
    for bad in (0, -1, 2.7):
        with pytest.raises(ValueError, match="whole numbers >= 1"):
            scm.unit_decode_times(bad, 10.0)
        with pytest.raises(ValueError, match="whole numbers >= 1"):
            scm.unit_decode_times_batch([3, bad], [10.0, 10.0])
    assert scm.unit_decode_times_batch([], []).shape == (0, plan.num_stages)
    assert np.array_equal(
        scm.unit_decode_times_batch([2.0], [10.0])[0],
        scm.unit_decode_times(2, 10.0),
    )


@pytest.mark.parametrize("source", ["kernels", "model"])
def test_analytic_equals_des_on_mb1_plan(source, latmodel_cluster3):
    """With one micro-batch in both phases there is no overlap to model:
    the closed form and the event-driven schedule price the identical
    task chain, at either time source."""
    plan, cluster = mb1_plan()
    model = latmodel_cluster3 if source == "model" else None
    ana = simulate_pipeline(plan, cluster, latency_model=model).total_latency
    des = simulate_pipeline_des(plan, cluster, latency_model=model).total_latency
    assert des == pytest.approx(ana, rel=1e-12)


def test_planner_tables_share_floats_with_cost_model(latmodel_cluster3):
    """The ILP's coefficient blocks and a source="model" StageCostModel
    must literally share floats when handed the same PredictionCache."""
    plan, cluster = mixed_plan()
    w = plan.workload
    cache = PredictionCache(latmodel_cluster3)
    scm = StageCostModel(plan, cluster, prediction_cache=cache)
    bits = (3, 4, 8, 16)
    type_names = [s.device.type_name for s in plan.stages]
    avg_ctx = w.prompt_len + max(w.decode_passes, 1) // 2
    lp, ld = planner_time_tables(
        cache, type_names, bits,
        prefill_microbatch=plan.prefill_microbatch,
        decode_microbatch=plan.decode_microbatch,
        prompt_len=w.prompt_len, avg_context=avg_ctx,
    )
    rows, n = scm.stage_rows(), plan.num_stages
    for j in range(n):
        for k, b in enumerate(bits):
            assert lp[j, k] == scm.layer_time(
                j, b, "prefill", plan.prefill_microbatch, w.prompt_len, w.prompt_len
            )
            assert ld[j, k] == scm.layer_time(
                j, b, "decode", plan.decode_microbatch, 1, avg_ctx
            )
        # a whole shard: the ILP's sum of table cells is the stage row's
        # prefill-layers sum (same addition order over layer_bits), to
        # which the row adds the head/tail terms and the transfer
        cells = {b: lp[j, k] for k, b in enumerate(bits)}
        oracle = float(sum(cells[b] for b in plan.stages[j].layer_bits))
        gpu, mb = plan.stages[j].device.spec, plan.prefill_microbatch
        if j == 0:
            oracle += embedding_exec_time(gpu, scm.cfg, mb, w.prompt_len, with_logits=False)
        if j == n - 1:
            oracle += embedding_exec_time(gpu, scm.cfg, mb, 1, with_logits=True)
        assert oracle + rows[j].prefill_comm == rows[j].prefill


def test_online_wrappers_delegate_to_cost_model():
    from repro.sim.online import max_admissible_batch

    plan, _cluster = mixed_plan()
    scm = StageCostModel(plan)
    assert max_admissible_batch(
        plan, prompt_len=128, gen_len=12
    ) == scm.max_admissible_batch(prompt_len=128, gen_len=12)


def test_scheduler_headroom_matches_cost_model(tiny8l):
    """The real runtime's admission ledger prices KV headroom and its
    token budget through the same StageCostModel view (minus the live
    dequant-cache budgets)."""
    from repro.core.plan import ExecutionPlan, StagePlan
    from repro.hardware import Device, get_gpu
    from repro.models import TinyDecoderLM
    from repro.runtime import ContinuousScheduler, PipelineRuntime
    from repro.workload import Workload

    stages = tuple(
        StagePlan(Device(get_gpu("T4-16G"), node_id=0, local_rank=i), (16,) * 4)
        for i in range(2)
    )
    plan = ExecutionPlan(
        model_name="tiny-8l", stages=stages,
        prefill_microbatch=2, decode_microbatch=4,
        workload=Workload(prompt_len=12, gen_len=8, global_batch=8),
    )
    with PipelineRuntime(TinyDecoderLM(tiny8l, seed=3), plan) as rt:
        sched = ContinuousScheduler(rt)
        dequant = [c.budget_bytes for c in rt.dequant_caches]
        scm = StageCostModel(rt.plan, cfg=rt.cfg)
        assert np.array_equal(sched.headroom, scm.kv_headroom(dequant))
        assert sched.budget == scm.kv_token_budget(dequant)
        assert 0 < sched.budget < scm.kv_token_budget()  # the caches cost slots
        charge = sched.cost.request_kv_bytes(12, 8)
        assert np.array_equal(
            charge, StageCostModel(rt.plan, cfg=rt.cfg).request_kv_bytes(12, 8)
        )


def test_wave_derive_shares_parent_memos():
    plan, cluster = mixed_plan()
    parent = StageCostModel(plan, cluster)
    parent.comm_time(0, plan.prefill_microbatch, plan.workload.prompt_len)
    from dataclasses import replace

    reshaped = replace(
        plan, workload=replace(plan.workload, global_batch=3),
        prefill_microbatch=2, decode_microbatch=3,
    )
    child = parent.derive(reshaped)
    assert child._comm_memo is parent._comm_memo
    assert child._emb_memo is parent._emb_memo
    # a different-stages plan is refused
    other, _ = mb1_plan()
    with pytest.raises(ValueError, match="identical stages"):
        parent.derive(other)


def test_online_results_identical_with_shared_cost_model():
    """Passing an externally built (and warm) cost model must not change
    a single float of the online result."""
    from repro.sim.online import simulate_online

    plan, cluster = mixed_plan()
    trace = canned_trace()
    base = simulate_online(plan, cluster, trace, policy="continuous")
    scm = StageCostModel(plan, cluster)
    scm.unit_decode_times(3, 200.0)  # pre-warm with unrelated queries
    shared = simulate_online(
        plan, cluster, trace, policy="continuous", cost_model=scm
    )
    assert base == shared


# ---------------------------------------------------------------------------
# satellite 6: workload/cost imports stay free of the sim stack
# ---------------------------------------------------------------------------


def test_workload_and_cost_import_without_sim():
    code = (
        "import sys\n"
        "import repro\n"
        "assert 'repro.core' not in sys.modules, 'repro eagerly imports core'\n"
        "import repro.workload\n"
        "import repro.cost\n"
        "bad = [m for m in sys.modules if m.startswith('repro.sim')]\n"
        "assert not bad, f'sim leaked via {bad}'\n"
        "assert 'repro.core' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
