"""Batched-decode pricing: a fused iteration shares the weight stream,
and the latency model's per-row batch vector prices each fused iteration
exactly like the scalar-batch call.

(The cost model's fused unit tables are pinned to the layer-at-a-time
spec in ``test_costview_equality.py``.)
"""

import numpy as np

from repro.cost.latency import LatencyModel
from repro.cost.stagecosts import StageCostModel
from repro.models import get_model

from .costview_cases import mixed_plan


def test_fused_iteration_beats_b_batch1_iterations():
    """The batch shares each layer's weight read, so a batch-``b``
    iteration is strictly cheaper than ``b`` batch-1 iterations."""
    scm = StageCostModel(*mixed_plan())
    one = scm.unit_decode_times(1, 256.0).sum()
    for b in (2, 4, 8):
        assert scm.unit_decode_times(b, 256.0).sum() < b * one


def test_decode_unit_table_equals_scalar_across_memo_growth():
    """The per-batch embedding/comm add-ons are filled for a whole range
    of batch sizes whenever their memo grows; every row — first fill,
    each doubling, sizes never asked for before — still equals the
    scalar unit bit for bit, on the parent and on a ``derive()`` clone
    that shares the memo."""
    plan, cluster = mixed_plan()
    scm = StageCostModel(plan, cluster)
    ref = StageCostModel(plan, cluster)  # scalar path only
    for batches in ([3, 1, 63], [64, 2, 200], [999, 130, 7]):
        for model in (scm, scm.derive(plan)):
            b = np.array(batches)
            ctx = 100.0 + b / 7.0
            want = np.array(
                [ref.unit_decode_times(int(x), float(c)) for x, c in zip(b, ctx)]
            )
            assert np.array_equal(model.unit_decode_times_batch(b, ctx), want)


def _toy_latency_model():
    cfg = get_model("opt-13b")
    m = LatencyModel(cfg)
    # hand-set coefficients: values only flow through dot products, so
    # any non-negative triple exercises the feature math
    m.coef[("T4-16G", 16, "decode")] = np.array([1e-13, 2e-12, 5e-4])
    return m


def test_latency_vector_batch_rows_match_scalar_batch():
    """A ``(K,)`` batch vector prices row i exactly like a scalar
    ``batch=b_i`` call at ``contexts[i]`` — w_bytes charged once per row
    (fused semantics) in both shapes."""
    m = _toy_latency_model()
    batches = np.array([1, 2, 5, 3])
    contexts = np.array([32.0, 100.0, 257.0, 64.0])
    vec = m.decode_step_times("T4-16G", 16, batches, contexts)
    for i in range(batches.size):
        scalar = m.decode_step_times(
            "T4-16G", 16, int(batches[i]), np.array([contexts[i]])
        )
        np.testing.assert_array_equal(vec[i], scalar[0])


def test_latency_scalar_batch_unchanged_by_vector_support():
    """Scalar batch stays the original code path: same rows as a
    constant vector of that batch."""
    m = _toy_latency_model()
    contexts = np.array([32.0, 100.0, 257.0])
    a = m.decode_step_times("T4-16G", 16, 4, contexts)
    b = m.decode_step_times("T4-16G", 16, np.array([4, 4, 4]), contexts)
    np.testing.assert_array_equal(a, b)
