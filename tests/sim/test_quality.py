"""Unit tests for the quality surrogate and real tiny-model measurements."""

import pytest

from repro.models import get_model
from repro.sim.quality import (
    QUALITY_ANCHORS,
    QualityAnchors,
    QualityModel,
    measure_kl_tiny,
    plan_accuracy,
    plan_perplexity,
)


def _uniform(model_name, bits):
    L = get_model(model_name).num_layers
    return [bits] * L


def test_uniform_plans_reproduce_paper_anchors():
    a = QUALITY_ANCHORS["opt-30b"]
    assert plan_perplexity("opt-30b", _uniform("opt-30b", 16)) == pytest.approx(a.ppl_fp16)
    assert plan_perplexity("opt-30b", _uniform("opt-30b", 8)) == pytest.approx(a.ppl_by_bits[8])
    assert plan_perplexity("opt-30b", _uniform("opt-30b", 4)) == pytest.approx(a.ppl_by_bits[4])


def test_mixed_between_endpoints():
    L = get_model("opt-13b").num_layers
    mixed = [4] * (L // 2) + [16] * (L - L // 2)
    ppl = plan_perplexity("opt-13b", mixed)
    lo = plan_perplexity("opt-13b", _uniform("opt-13b", 16))
    hi = plan_perplexity("opt-13b", _uniform("opt-13b", 4))
    assert lo < ppl < hi


def test_ppl_monotone_in_bits():
    vals = [plan_perplexity("opt-66b", _uniform("opt-66b", b)) for b in (16, 8, 4, 3)]
    assert vals == sorted(vals)


def test_later_layers_cost_more():
    """Table-1 structure: quantizing late layers hurts more than early."""
    L = get_model("opt-1.3b").num_layers
    early = [4] * (L // 3) + [16] * (L - L // 3)
    late = [16] * (L - L // 3) + [4] * (L // 3)
    assert plan_perplexity("opt-1.3b", late) > plan_perplexity("opt-1.3b", early)


def test_extrapolation_for_missing_anchor():
    anchors = QualityAnchors(ppl_fp16=10.0, ppl_by_bits={4: 10.5})
    # 3-bit should extrapolate worse than 4-bit via the (qmax ratio)^2 law
    assert anchors.ppl_delta(3) > anchors.ppl_delta(4)
    assert anchors.ppl_delta(8) < anchors.ppl_delta(4)
    assert anchors.ppl_delta(16) == 0.0


def test_accuracy_path():
    L = get_model("opt-1.3b").num_layers
    acc16 = plan_accuracy("opt-1.3b", _uniform("opt-1.3b", 16))
    acc4 = plan_accuracy("opt-1.3b", _uniform("opt-1.3b", 4))
    assert acc16 == pytest.approx(63.5)
    assert acc4 == pytest.approx(61.0)
    # models without accuracy anchors return None
    assert plan_accuracy("opt-30b", _uniform("opt-30b", 16)) is None


def test_quality_model_validation():
    with pytest.raises(KeyError, match="anchors"):
        QualityModel("tiny-4l")
    with pytest.raises(ValueError, match="per layer"):
        plan_perplexity("opt-13b", [16] * 3)


def test_measured_kl_monotone_in_bits(tiny4l):
    L = tiny4l.num_layers
    kls = [measure_kl_tiny("tiny-4l", [b] * L) for b in (16, 8, 4, 3)]
    assert kls[0] == pytest.approx(0.0, abs=1e-12)
    assert kls[0] < kls[1] < kls[2] < kls[3]


def test_measured_kl_mixed_between_endpoints(tiny4l):
    L = tiny4l.num_layers
    kl_mixed = measure_kl_tiny("tiny-4l", [4] * (L // 2) + [16] * (L - L // 2))
    kl_16 = measure_kl_tiny("tiny-4l", [16] * L)
    kl_4 = measure_kl_tiny("tiny-4l", [4] * L)
    assert kl_16 < kl_mixed < kl_4


def test_surrogate_and_measurement_agree_on_ordering(tiny4l):
    """The surrogate's rank order across plans must match real KL on the
    tiny model: fp16 < mixed < uniform-4bit < uniform-3bit."""
    L = tiny4l.num_layers
    plans = [
        [16] * L,
        [8] * L,
        [4] * L,
        [3] * L,
    ]
    kls = [measure_kl_tiny("tiny-4l", p) for p in plans]
    assert kls == sorted(kls)
