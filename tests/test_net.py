import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.net import (
    NetworkConfig,
    _conv_grads,
    conv2d_valid,
    dense_affine,
    downsized_config,
    forward_batch,
    init_params,
    leaky_relu,
    param_shapes,
    softmax,
)

from oracles import brute_conv, brute_conv_grads, brute_dense


def test_default_config_shape_chain():
    chain = NetworkConfig(classes=4).spatial_chain()
    assert [h for h, _ in chain] == [24, 21, 18, 15, 12, 1, 1]
    assert [w for _, w in chain] == [7, 7, 7, 7, 7, 7, 1]
    assert chain[-1] == (1, 1)


def test_downsized_config_closes_to_one_cell():
    assert downsized_config().spatial_chain()[-1] == (1, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"classes": 1},
        {"classes": 4, "hours": 10},                      # default kernels overrun
        {"classes": 4, "days": 6},                        # 1x7 kernel overruns
        {"classes": 4, "dense": (8,)},
        {"classes": 4, "alpha": 1.0},
        {"classes": 4, "alpha": -0.1},
        {"classes": 4, "filters": (16, 16, 16, 16, 32)},  # length mismatch
        {"classes": 4, "hours": 23},                      # chain lands on 0 hours
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        NetworkConfig(**kwargs)


def test_param_shapes_default_config():
    shapes = param_shapes(NetworkConfig(classes=4))
    assert shapes["conv1.w"] == (16, 8, 4, 1)
    assert shapes["conv4.w"] == (16, 16, 4, 1)
    assert shapes["conv5.w"] == (32, 16, 12, 1)
    assert shapes["conv6.w"] == (64, 32, 1, 7)
    assert shapes["dense7.w"] == (128, 64)
    assert shapes["dense8.w"] == (64, 128)
    assert shapes["head.w"] == (4, 64)
    assert shapes["head.b"] == (4,)
    assert len(shapes) == 18


def test_conv_matches_oracle_fixed_case():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 5))
    w = rng.normal(size=(4, 3, 2, 3))
    b = rng.normal(size=4)
    np.testing.assert_allclose(conv2d_valid(x, w, b), brute_conv(x, w, b), atol=1e-12)


def test_conv_identity_kernel():
    x = np.arange(24.0).reshape(1, 1, 4, 6)
    w = np.ones((1, 1, 1, 1))
    np.testing.assert_array_equal(conv2d_valid(x, w, np.zeros(1)), x)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    kh=st.integers(2, 3),
    kw=st.integers(2, 3),
    extra_h=st.integers(0, 3),
    extra_w=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_grads_match_direct_sum(n, c_in, c_out, kh, kw, extra_h, extra_w, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in, kh + extra_h, kw + extra_w))
    w = rng.normal(size=(c_out, c_in, kh, kw))
    dz = rng.normal(size=(n, c_out, extra_h + 1, extra_w + 1))
    dw, dx = _conv_grads(x, w, dz)
    dw_ref, dx_ref = brute_conv_grads(x, w, dz)
    np.testing.assert_allclose(dw, dw_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-10)


def test_conv_shape_errors():
    x = np.zeros((1, 2, 3, 3))
    with pytest.raises(ValueError):
        conv2d_valid(x, np.zeros((1, 3, 2, 2)), np.zeros(1))  # channel mismatch
    with pytest.raises(ValueError):
        conv2d_valid(x, np.zeros((1, 2, 4, 2)), np.zeros(1))  # kernel too tall
    with pytest.raises(ValueError):
        conv2d_valid(np.zeros(5), np.zeros((1, 1, 1, 1)), np.zeros(1))


def test_dense_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 7))
    w = rng.normal(size=(3, 7))
    b = rng.normal(size=3)
    np.testing.assert_allclose(dense_affine(x, w, b), brute_dense(x, w, b), atol=1e-12)
    np.testing.assert_allclose(dense_affine(x[0], w, b), brute_dense(x[:1], w, b)[0], atol=1e-12)


def test_dense_dimension_mismatch():
    with pytest.raises(ValueError):
        dense_affine(np.zeros(5), np.zeros((3, 7)), np.zeros(3))


def test_leaky_relu_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
    np.testing.assert_allclose(leaky_relu(x, 0.01), [-0.02, -0.005, 0.0, 0.5, 3.0])
    np.testing.assert_allclose(leaky_relu(x, 0.0), [0.0, 0.0, 0.0, 0.5, 3.0])


def test_softmax_is_a_distribution():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(10, 6)) * 5
    p = softmax(z)
    assert (p > 0).all()
    np.testing.assert_allclose(p.sum(axis=1), np.ones(10), atol=1e-9)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    z = rng.normal(size=9)
    np.testing.assert_allclose(softmax(z), softmax(z + 123.456), atol=1e-12)


def test_softmax_survives_huge_logits():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)


def test_init_params_deterministic_and_zero_biased():
    cfg = downsized_config()
    a = init_params(cfg, 9)
    b = init_params(cfg, 9)
    c = init_params(cfg, 10)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
        if name.endswith(".b"):
            np.testing.assert_array_equal(a.tensors[name], np.zeros_like(a.tensors[name]))
    assert any((a.tensors[n] != c.tensors[n]).any() for n in a.tensors if n.endswith(".w"))


def test_init_scale_follows_fan_in():
    cfg = NetworkConfig(classes=4)
    params = init_params(cfg, 0)
    w = params.tensors["dense7.w"]  # fan_in 64, plenty of samples
    expected = math.sqrt(2.0 / ((1.0 + cfg.alpha**2) * 64))
    assert w.std() == pytest.approx(expected, rel=0.15)
    assert abs(w.mean()) < 0.02


def test_forward_batch_outputs():
    cfg = downsized_config()
    params = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, cfg.in_channels, cfg.hours, cfg.days))
    probs, feats, trace = forward_batch(params, x)
    assert probs.shape == (5, cfg.classes)
    assert feats.shape == (5, cfg.feature_dim)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-9)
    assert trace.logits.shape == (5, cfg.classes)


def test_forward_single_matches_batch_row():
    cfg = downsized_config()
    params = init_params(cfg, 1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, cfg.in_channels, cfg.hours, cfg.days))
    probs_b, feats_b, _ = forward_batch(params, x)
    for i in range(3):
        probs, feats, _ = forward_batch(params, x[i : i + 1])
        probs, feats = probs[0], feats[0]
        np.testing.assert_allclose(probs, probs_b[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(feats, feats_b[i], rtol=1e-12, atol=1e-12)


def test_forward_rejects_wrong_shape():
    params = init_params(downsized_config(), 0)
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((2, 3, 10, 7)))
    with pytest.raises(ValueError):
        forward_batch(params, np.zeros((1, 2, 10, 6)))


def test_conv_is_linear_in_input_and_weights():
    rng = np.random.default_rng(9)
    x1 = rng.normal(size=(2, 3, 8, 7))
    x2 = rng.normal(size=(2, 3, 8, 7))
    w1 = rng.normal(size=(4, 3, 3, 2))
    w2 = rng.normal(size=(4, 3, 3, 2))
    zero = np.zeros(4)
    np.testing.assert_allclose(
        conv2d_valid(x1 + x2, w1, zero),
        conv2d_valid(x1, w1, zero) + conv2d_valid(x2, w1, zero),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        conv2d_valid(x1, w1 + w2, zero),
        conv2d_valid(x1, w1, zero) + conv2d_valid(x1, w2, zero),
        atol=1e-12,
    )


def test_conv_translation_equivariant_along_hours():
    rng = np.random.default_rng(10)
    w = rng.normal(size=(2, 1, 3, 1))
    b = rng.normal(size=2)
    pattern = rng.normal(size=(3, 4))
    x1 = np.zeros((1, 1, 10, 4))
    x2 = np.zeros((1, 1, 10, 4))
    x1[0, 0, 2:5] = pattern
    x2[0, 0, 3:6] = pattern
    y1 = conv2d_valid(x1, w, b)
    y2 = conv2d_valid(x2, w, b)
    np.testing.assert_allclose(y2[:, :, 1:], y1[:, :, :-1], atol=1e-12)


def test_forward_is_pure():
    cfg = downsized_config()
    params = init_params(cfg, 3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, cfg.in_channels, cfg.hours, cfg.days))
    probs_a, feats_a, _ = forward_batch(params, x)
    probs_b, feats_b, _ = forward_batch(params, x)
    np.testing.assert_array_equal(probs_a, probs_b)
    np.testing.assert_array_equal(feats_a, feats_b)
