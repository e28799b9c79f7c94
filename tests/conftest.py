"""Shared fixtures.

Latency-model fitting sweeps a profile grid per GPU type, so fitted
models are cached per session.  Planner tests use deliberately small
search spaces to stay fast.
"""

from __future__ import annotations

import pytest

from repro.cost.profiler import build_latency_model
from repro.hardware import make_cluster, paper_cluster
from repro.models import get_model
from repro.workload import Workload


@pytest.fixture(scope="session")
def cluster3():
    """3xT4 + 1xV100 (paper cluster 3, OPT-30b)."""
    return paper_cluster(3)


@pytest.fixture(scope="session")
def small_hetero_cluster():
    """A 2-device heterogeneous cluster for fast planner tests."""
    return make_cluster([("T4-16G", 1), ("V100-32G", 1)], name="mini")


@pytest.fixture(scope="session")
def workload():
    return Workload(prompt_len=512, gen_len=100, global_batch=32)


@pytest.fixture(scope="session")
def small_workload():
    return Workload(prompt_len=128, gen_len=16, global_batch=8)


@pytest.fixture(scope="session")
def opt30b():
    return get_model("opt-30b")


@pytest.fixture(scope="session")
def opt13b():
    return get_model("opt-13b")


@pytest.fixture(scope="session")
def tiny8l():
    return get_model("tiny-8l")


@pytest.fixture(scope="session")
def sharp(tiny8l):
    """tiny-8l (seed 3, the runtime tests' reference) with every layer's
    linear weights x10.  The stock model's greedy streams mostly repeat
    the prompt's last token, so a decode fed the wrong token or the wrong
    KV history still matches ``generate()``; this one's streams move
    (about four distinct tokens per stream of up to eight), so stream
    equality sees such a fault."""
    from repro.models import TinyDecoderLM

    model = TinyDecoderLM(tiny8l, seed=3)
    for i in range(tiny8l.num_layers):
        model.apply_to_layer(i, lambda _n, w: w * 10.0)
    return model


@pytest.fixture(scope="session")
def tiny4l():
    return get_model("tiny-4l")


@pytest.fixture(scope="session")
def latmodel_cluster3(opt30b):
    return build_latency_model(["T4-16G", "V100-32G"], opt30b)


@pytest.fixture(scope="session")
def latmodel_13b(opt13b):
    return build_latency_model(["T4-16G", "V100-32G"], opt13b)
