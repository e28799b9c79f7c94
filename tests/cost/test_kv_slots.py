"""KV token slots == per-stage KV bytes.

The trace engine, the fleet router and the runtime scheduler count KV
capacity in integer token slots (``StageCostModel.kv_token_budget``); the
paper's memory constraint counts per-stage bytes.  The two agree because a
request's per-stage bytes are *exactly* ``tokens x kv_token_charges()``
in float64 — the fact checked here, once, instead of at every cost-model
bind.  A KV layout whose bytes are not linear in tokens (slot pages,
per-request metadata) must fail this file before it reaches the engine.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import KV_BITS_CHOICES, ExecutionPlan
from repro.cost.stagecosts import StageCostModel
from repro.hardware import paper_cluster
from repro.models.registry import list_models
from repro.workload import Workload

from ..sim.online_spec import memory_model_charge

W = Workload(prompt_len=128, gen_len=16, global_batch=8)


@pytest.mark.parametrize("model", list_models())
@settings(max_examples=12, deadline=None)
@given(
    depth=st.integers(1, 4),
    kv=st.lists(st.sampled_from(KV_BITS_CHOICES), min_size=4, max_size=4),
    tokens=st.lists(st.integers(1, 10**7), min_size=1, max_size=16),
)
def test_request_bytes_are_tokens_times_slot_bytes(model, depth, kv, tokens):
    plan = ExecutionPlan.uniform(
        model, paper_cluster(3).devices[:depth], W, bits=4
    )
    plan = plan.with_kv_bits(tuple(kv[: plan.num_stages]))
    scm = StageCostModel(plan)
    slot = scm.kv_token_charges()
    t = np.array(tokens, dtype=np.int64)
    assert np.array_equal(scm.request_kv_bytes_batch(t), t[:, None] * slot)
    for tok in tokens:
        prompt, gen = tok // 3, tok - tok // 3
        assert np.array_equal(
            scm.request_kv_bytes(prompt, gen),
            memory_model_charge(scm, prompt, gen),
        )


def _fits(scm: StageCostModel, tokens: int, dequant=None) -> bool:
    """The byte ledger's admission test for ``tokens`` slots at once."""
    return bool(np.all(
        scm.request_kv_bytes(tokens, 0) <= scm.kv_headroom(dequant) + 1e-6
    ))


@pytest.mark.parametrize("cluster_id", range(1, 12))
def test_token_budget_is_the_byte_tests_answer(cluster_id):
    """Mixed per-stage KV, with and without dequant caches netted out of
    the pool (the runtime scheduler's budget): ``T`` fits, ``T + 1`` does
    not, and a cache-netted query leaves the default memo alone."""
    devices = paper_cluster(cluster_id).devices
    plan = ExecutionPlan.uniform("opt-30b", devices, W, bits=4)
    plan = plan.with_kv_bits(tuple(
        KV_BITS_CHOICES[(cluster_id + j) % 3] for j in range(plan.num_stages)
    ))
    scm = StageCostModel(plan)
    budget = scm.kv_token_budget()
    assert budget > 0
    assert _fits(scm, budget) and not _fits(scm, budget + 1)
    # uneven, non-round cache budgets: a growing share of each stage's pool
    pool = scm.kv_headroom()
    dequant = [p * (j + 1) / (plan.num_stages + 2) + 0.3 for j, p in enumerate(pool)]
    netted = scm.kv_token_budget(dequant)
    assert 0 < netted < budget
    assert _fits(scm, netted, dequant) and not _fits(scm, netted + 1, dequant)
    assert scm.kv_token_budget() == budget


def test_token_budget_is_zero_without_headroom():
    """fp16 opt-66b does not fit 4xT4: no KV pool, no slots."""
    plan = ExecutionPlan.uniform("opt-66b", paper_cluster(9).devices, W, bits=16)
    scm = StageCostModel(plan)
    assert not scm.kv_headroom().any()
    assert scm.kv_token_budget() == 0
    assert not _fits(scm, 1)


def test_workload_refit_changes_budget_not_slot_bytes():
    """``derive()`` shares what one slot costs, never how many fit: a
    longer declared prompt grows the temp workspace and shrinks the pool."""
    plan = ExecutionPlan.uniform("opt-30b", paper_cluster(3).devices, W, bits=4)
    scm = StageCostModel(plan)
    budget = scm.kv_token_budget()
    refit = replace(plan, workload=replace(W, prompt_len=1024))
    derived = scm.derive(refit)
    assert derived.kv_token_charges() is scm.kv_token_charges()
    assert derived.kv_token_budget() == StageCostModel(refit).kv_token_budget()
    assert derived.kv_token_budget() < budget
    assert _fits(derived, derived.kv_token_budget())
    assert not _fits(derived, derived.kv_token_budget() + 1)
