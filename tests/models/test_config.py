"""Unit tests for architecture metadata and FLOP/memory accounting."""

import dataclasses

import pytest

from repro.models import ModelConfig, get_model


def test_total_params_match_published_sizes():
    # within a few percent of the advertised parameter counts
    expectations = {
        "opt-13b": 13.0e9,
        "opt-30b": 30.0e9,
        "opt-66b": 66.0e9,
        "opt-175b": 175.0e9,
        "bloom-176b": 176.0e9,
    }
    for name, expected in expectations.items():
        got = get_model(name).total_params
        assert abs(got - expected) / expected < 0.035, name


def test_heads_must_divide_hidden():
    with pytest.raises(ValueError, match="divide"):
        ModelConfig(
            name="bad", num_layers=2, hidden_size=10, num_heads=3,
            ffn_dim=40, vocab_size=100,
        )


def test_layer_flops_composition():
    cfg = get_model("opt-1.3b")
    h, f = cfg.hidden_size, cfg.ffn_dim
    # one token, context 1: projections 8h^2 + attention 4h + mlp 4hf
    expected = 8 * h * h + 4 * h + 4 * h * f
    assert cfg.layer_flops(1, 1, 1) == pytest.approx(expected)
    # linear in batch
    assert cfg.layer_flops(4, 1, 1) == pytest.approx(4 * expected)


def test_prefill_vs_decode_flops():
    cfg = get_model("opt-30b")
    s, b = 512, 8
    pre = cfg.prefill_layer_flops(b, s)
    dec = cfg.decode_layer_flops(b, s)
    # prefill processes s tokens: roughly s x the decode work
    assert pre / dec > s / 2


def test_flops_validation():
    cfg = get_model("opt-1.3b")
    with pytest.raises(ValueError):
        cfg.layer_flops(-1, 1, 1)


def test_kv_bytes_per_token():
    cfg = get_model("opt-13b")
    # 2 (K and V) * hidden * 2 bytes at FP16
    assert cfg.kv_bytes_per_token_per_layer(16) == 2 * cfg.hidden_size * 2
    assert cfg.kv_bytes_per_token_per_layer(8) == 2 * cfg.hidden_size


def test_layer_weight_bytes_scaling():
    cfg = get_model("opt-13b")
    b16 = cfg.layer_weight_bytes(16)
    b8 = cfg.layer_weight_bytes(8)
    b4 = cfg.layer_weight_bytes(4)
    b3 = cfg.layer_weight_bytes(3)
    assert b16 > b8 > b4 > b3
    # quantized formats carry scale/zero metadata: more than the raw ratio
    assert b4 > b16 * 4 / 16
    # but within 10% of it
    assert b4 < b16 * 4 / 16 * 1.10


def test_embedding_weight_bytes_never_quantized():
    cfg = get_model("opt-13b")
    assert cfg.embedding_weight_bytes(4) == cfg.embedding_weight_bytes(16)


def test_bloom_has_no_position_table():
    bloom = get_model("bloom-176b")
    opt = get_model("opt-13b")
    assert bloom.max_position_embeddings == 0
    assert opt.max_position_embeddings == 2048
    assert bloom.embedding_params == bloom.vocab_size * bloom.hidden_size


def test_activation_bytes():
    cfg = get_model("opt-1.3b")
    assert cfg.activation_bytes(2, 3) == 2 * 3 * cfg.hidden_size * 2


def test_layer_shape_operators():
    cfg = get_model("opt-1.3b")
    ops = cfg.layer_shape.operators
    assert set(ops) == {"q_proj", "k_proj", "v_proj", "out_proj", "fc1", "fc2"}
    h, f = cfg.hidden_size, cfg.ffn_dim
    assert ops["fc1"] == (h, f) and ops["fc2"] == (f, h)
    assert cfg.layer_shape.linear_params == 4 * h * h + 2 * h * f


def test_derived_quantities_are_memoised_per_value():
    """The per-layer constants are computed once per config instance and
    the memo can neither leak between configs nor be poisoned."""
    cfg = get_model("opt-1.3b")
    twin = dataclasses.replace(cfg)
    assert twin == cfg and twin is not cfg
    for bits in (3, 4, 8, 16):
        assert cfg.layer_weight_bytes(bits) == twin.layer_weight_bytes(bits)
        assert cfg.layer_weight_bytes(bits) == cfg.layer_weight_bytes(bits)
    assert cfg.params_per_layer == twin.params_per_layer
    assert cfg.layer_shape is cfg.layer_shape

    # a replaced field sees fresh values, not the original's memo
    wide = dataclasses.replace(cfg, ffn_dim=2 * cfg.ffn_dim)
    h, f = cfg.hidden_size, wide.ffn_dim
    assert wide.layer_shape.linear_params == 4 * h * h + 2 * h * f
    assert wide.params_per_layer > cfg.params_per_layer
    assert wide.layer_weight_bytes(4) > cfg.layer_weight_bytes(4)
    assert hash(twin) == hash(cfg) and wide != cfg

    # mutating a returned operators mapping cannot poison later calls
    before = cfg.layer_weight_bytes(4)
    ops = cfg.layer_shape.operators
    ops["fc1"] = (1, 1)
    ops.pop("fc2")
    assert cfg.layer_shape.operators["fc1"] == (h, cfg.ffn_dim)
    assert set(cfg.layer_shape.operators) == set(twin.layer_shape.operators)
    assert cfg.layer_shape.linear_params == twin.layer_shape.linear_params
    assert dataclasses.replace(cfg).layer_weight_bytes(4) == before
