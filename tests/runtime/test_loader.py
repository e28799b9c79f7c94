"""Unit tests for the on-the-fly quantized loader."""

import numpy as np
import pytest

from repro.models import TinyDecoderLM
from repro.quant import quantize_dequantize
from repro.runtime import load_stage_weights, simulate_loading


@pytest.fixture(scope="module")
def model(tiny8l):
    return TinyDecoderLM(tiny8l, seed=1)


def test_fp16_layers_pass_through(model):
    load = load_stage_weights(model, [0, 1], [16, 16])
    np.testing.assert_array_equal(load.layers[0].wq, model.layers[0].wq)
    np.testing.assert_array_equal(load.layers[1].fc2, model.layers[1].fc2)


def test_quantized_layers_match_fake_quant(model):
    load = load_stage_weights(model, [2], [4])
    expected = quantize_dequantize(model.layers[2].wq, 4)
    np.testing.assert_allclose(load.layers[0].wq, expected, atol=1e-12)
    # biases and layer norms untouched
    np.testing.assert_array_equal(load.layers[0].bq, model.layers[2].bq)
    np.testing.assert_array_equal(load.layers[0].ln1_g, model.layers[2].ln1_g)


def test_packed_bytes_scale_with_bits(model, tiny8l):
    fp16 = load_stage_weights(model, [0], [16]).packed_weight_bytes
    int4 = load_stage_weights(model, [0], [4]).packed_weight_bytes
    linear = tiny8l.layer_shape.linear_params
    assert fp16 == linear * 2
    # 4-bit packs two weights per byte + per-channel scales
    assert int4 < fp16 / 3
    assert int4 > linear / 2


def test_load_validation(model):
    with pytest.raises(ValueError, match="per layer"):
        load_stage_weights(model, [0, 1], [16])


def test_module_granularity_slashes_host_dram(tiny8l):
    shard = simulate_loading(tiny8l, [4] * 4, granularity="shard")
    module = simulate_loading(tiny8l, [4] * 4, granularity="module")
    layer = simulate_loading(tiny8l, [4] * 4, granularity="layer")
    # the plugin's headline: module-level decoupling bounds DRAM
    assert module.peak_host_dram_bytes < layer.peak_host_dram_bytes
    assert layer.peak_host_dram_bytes < shard.peak_host_dram_bytes
    assert module.num_chunks == 4 * 6
    assert shard.num_chunks == 1


def test_overlap_keeps_total_time_close_to_bottleneck(tiny8l):
    module = simulate_loading(tiny8l, [4] * 8, granularity="module")
    shard = simulate_loading(tiny8l, [4] * 8, granularity="shard")
    # overlap means fine granularity costs barely more than one big read
    assert module.total_seconds < shard.total_seconds * 1.3


def test_unknown_granularity(tiny8l):
    with pytest.raises(ValueError, match="granularity"):
        simulate_loading(tiny8l, [4], granularity="tensor")


def test_quantized_output_bytes_smaller(tiny8l):
    t16 = simulate_loading(tiny8l, [16] * 4, granularity="module")
    t4 = simulate_loading(tiny8l, [4] * 4, granularity="module")
    # disk reads identical (FP16 checkpoint), but the copy stage shrinks
    assert t4.total_seconds <= t16.total_seconds
