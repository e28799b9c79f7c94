"""Unit tests for the device profiler."""

import pytest

from repro.cost import ProfileGrid, build_latency_model, profile_cluster, profile_device


def test_sample_count_matches_grid(opt13b):
    grid = ProfileGrid(batches=(1, 2), prompt_lens=(64, 128), decode_contexts=(128,), bits=(8, 16))
    samples = profile_device("T4-16G", opt13b, grid=grid)
    # per bits: 2 batches x (2 prefill + 1 decode) = 6; x2 bits = 12
    assert len(samples) == 12
    phases = {s.phase for s in samples}
    assert phases == {"prefill", "decode"}


def test_profiler_deterministic_by_seed(opt13b):
    grid = ProfileGrid(batches=(2,), prompt_lens=(128,), decode_contexts=(128,), bits=(8,))
    a = profile_device("T4-16G", opt13b, grid=grid, seed=1)
    b = profile_device("T4-16G", opt13b, grid=grid, seed=1)
    c = profile_device("T4-16G", opt13b, grid=grid, seed=2)
    assert [s.seconds for s in a] == [s.seconds for s in b]
    assert [s.seconds for s in a] != [s.seconds for s in c]


def test_noise_jitters_measurements(opt13b):
    quiet = ProfileGrid(batches=(2,), prompt_lens=(128,), decode_contexts=(128,), bits=(8,), noise=0.0)
    noisy = ProfileGrid(batches=(2,), prompt_lens=(128,), decode_contexts=(128,), bits=(8,), noise=0.05)
    a = profile_device("T4-16G", opt13b, grid=quiet)
    b = profile_device("T4-16G", opt13b, grid=noisy, seed=3)
    # same workload, different values due to jitter
    assert a[0].seconds != b[0].seconds
    assert b[0].seconds == pytest.approx(a[0].seconds, rel=0.25)


def test_profile_cluster_dedups_types(opt13b):
    grid = ProfileGrid(batches=(2,), prompt_lens=(128,), decode_contexts=(128,), bits=(8,))
    samples = profile_cluster(["T4-16G", "T4-16G", "V100-32G"], opt13b, grid=grid)
    gpus = {s.gpu_name for s in samples}
    assert gpus == {"T4-16G", "V100-32G"}
    # per type: 1 prefill + 1 decode sample
    assert len(samples) == 2 * 2


def test_build_latency_model_end_to_end(opt13b):
    model = build_latency_model(["T4-16G"], opt13b)
    t = model.predict_layer("T4-16G", 8, "prefill", 4, 256, 256)
    assert t > 0
