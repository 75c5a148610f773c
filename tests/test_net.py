import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.net import (
    NetworkConfig,
    _conv_grads,
    _leaky_relu,
    backward,
    conv2d_valid,
    dense_affine,
    downsized_config,
    forward_batch,
    init_params,
    param_shapes,
    softmax,
)
from cdrnet.training import loss_gradient

from oracles import batch_first, brute_conv, brute_conv_grads, brute_dense, hour_major


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
        {"classes": 4, "kernels": ((4, 1),) * 4 + ((12, 7), (1, 1))},  # a 2-D kernel
        {"classes": 4, "kernels": ((1, 7),) + ((4, 1),) * 4 + ((12, 1),)},  # day kernel first
        {"classes": 4, "hours": 20, "kernels": ((0, 1),) + ((4, 1),) * 3 + ((12, 1), (1, 7))},
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


def _conv(x, w, b):
    """conv2d_valid on an (N, C, H, W) batch, answered in the same layout."""
    return batch_first(conv2d_valid(hour_major(x), w, b), len(x))


def test_conv_matches_oracle_fixed_case():
    rng = np.random.default_rng(1)
    b = rng.normal(size=4)
    x = rng.normal(size=(2, 3, 6, 5))
    w = rng.normal(size=(4, 3, 2, 1))  # an hour kernel
    np.testing.assert_allclose(_conv(x, w, b), brute_conv(x, w, b), atol=1e-12)
    x = rng.normal(size=(2, 3, 1, 5))
    w = rng.normal(size=(4, 3, 1, 5))  # a closing kernel over whole days
    np.testing.assert_allclose(_conv(x, w, b), brute_conv(x, w, b), atol=1e-12)


def test_conv_identity_kernel():
    x = np.arange(24.0).reshape(1, 1, 4, 6)
    w = np.ones((1, 1, 1, 1))
    np.testing.assert_array_equal(_conv(x, w, np.zeros(1)), x)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    kh=st.integers(2, 12),
    kw=st.integers(2, 3),
    extra_h=st.integers(0, 3),
    extra_w=st.integers(0, 3),
    closing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_grads_match_direct_sum(n, c_in, c_out, kh, kw, extra_h, extra_w, closing, seed):
    # the kernels the net accepts: kh x 1 over any width, or 1 x W over a
    # one-hour input of width W
    if closing:
        kh, extra_h, extra_w = 1, 0, 0
    else:
        kw = 1
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in, kh + extra_h, kw + extra_w))
    w = rng.normal(size=(c_out, c_in, kh, kw))
    dz = rng.normal(size=(n, c_out, extra_h + 1, extra_w + 1))
    dw, dx = _conv_grads(hour_major(x), w, hour_major(dz))
    dw_ref, dx_ref = brute_conv_grads(x, w, dz)
    np.testing.assert_allclose(dw, dw_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(batch_first(dx, n), dx_ref, rtol=0, atol=1e-10)


def test_conv_shape_errors():
    x = hour_major(np.zeros((1, 2, 3, 3)))
    with pytest.raises(ValueError):
        conv2d_valid(x, np.zeros((1, 3, 2, 1)), np.zeros(1))  # channel mismatch
    with pytest.raises(ValueError):
        conv2d_valid(x, np.zeros((1, 2, 4, 1)), np.zeros(1))  # kernel too tall
    with pytest.raises(ValueError):
        conv2d_valid(x, np.zeros((1, 2, 1, 3)), np.zeros(1))  # day kernel on 3 hours
    with pytest.raises(ValueError):
        conv2d_valid(x, np.zeros((1, 2, 2, 3)), np.zeros(1))  # a 2-D kernel
    with pytest.raises(ValueError):
        conv2d_valid(x[:1], np.zeros((1, 2, 1, 2)), np.zeros(1))  # 3 columns, 2-day rows
    with pytest.raises(ValueError):
        conv2d_valid(np.zeros(5), np.zeros((1, 1, 1, 1)), np.zeros(1))


def test_dense_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 7))
    w = rng.normal(size=(3, 7))
    b = rng.normal(size=3)
    np.testing.assert_allclose(dense_affine(x, w, b), brute_dense(x, w, b), atol=1e-12)


def test_dense_dimension_mismatch():
    with pytest.raises(ValueError):
        dense_affine(np.zeros(5), np.zeros((3, 7)), np.zeros(3))
    with pytest.raises(ValueError):
        dense_affine(np.zeros(7), np.zeros((3, 7)), np.zeros(3))  # a vector, not a batch


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


def _leaky(z, alpha):
    return np.where(z >= 0, z, alpha * z)


@pytest.mark.parametrize("alpha", [0.01, 0.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_slope_is_where_bit_for_bit(dtype, alpha):
    info = np.finfo(dtype)
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, -info.smallest_subnormal, -info.tiny / 2]
    z = np.concatenate([special, np.random.default_rng(0).normal(size=200)]).astype(dtype)
    with np.errstate(invalid="ignore"):  # -inf * 0
        want = z * np.where(z >= 0, 1, alpha).astype(dtype)
        got = _leaky_relu(z.copy(), alpha)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_untraced_leaky_relu_is_the_traced_product_bit_for_bit(dtype, alpha):
    info = np.finfo(dtype)
    tiny = [info.smallest_subnormal, 3 * info.smallest_subnormal, info.tiny / 2, info.tiny]
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, *tiny, *(-t for t in tiny)]
    z = np.concatenate([special, np.random.default_rng(0).normal(size=200)]).astype(dtype)
    with np.errstate(invalid="ignore"):  # -inf * 0
        want = z * np.where(z >= 0, 1, alpha).astype(dtype)
        got = _leaky_relu(z.copy(), alpha)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


@settings(max_examples=30, deadline=None)
@given(
    config=st.sampled_from([NetworkConfig(classes=4), downsized_config()]),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    n=st.integers(1, 33),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_untraced_forward_gives_the_traced_outputs_bit_for_bit(config, alpha, n, dtype, seed):
    cfg = dataclasses.replace(config, alpha=alpha)
    params = init_params(cfg, seed % 1000)
    rng = np.random.default_rng(seed)
    for name in params.tensors:
        if name.endswith(".b"):
            params.tensors[name] = rng.normal(0.0, 0.1, params.tensors[name].shape)
    x = rng.normal(size=(n, cfg.in_channels, cfg.hours, cfg.days)).astype(dtype)
    probs, feats, trace = forward_batch(params, x)
    probs_u, feats_u, none = forward_batch(params, x, trace=False)
    assert trace is not None and none is None
    assert probs_u.dtype == feats_u.dtype == dtype
    assert np.array_equal(probs_u, probs) and np.array_equal(feats_u, feats)


@pytest.mark.parametrize(
    "alpha, leaky_values",
    [(0.01, [-0.02, -0.005, 0.0, 0.5, 3.0]), (0.0, [0.0, 0.0, 0.0, 0.5, 3.0])],
    ids=["alpha=0.01", "alpha=0"],
)
@pytest.mark.parametrize(
    "config", [NetworkConfig(classes=4), downsized_config()], ids=["default", "downsized"]
)
@pytest.mark.parametrize("n", [1, 7])
def test_forward_matches_layer_by_layer_oracle(alpha, leaky_values, config, n):
    """float64 probs and features of a layer-by-layer brute-force composition."""
    np.testing.assert_allclose(_leaky(np.array([-2.0, -0.5, 0.0, 0.5, 3.0]), alpha), leaky_values)
    cfg = dataclasses.replace(config, alpha=alpha)
    params = init_params(cfg, 2)
    rng = np.random.default_rng(n)
    for name in params.tensors:
        if name.endswith(".b"):
            params.tensors[name] = rng.normal(0.0, 0.1, params.tensors[name].shape)
    x = rng.normal(size=(n, cfg.in_channels, cfg.hours, cfg.days))
    probs, feats, _ = forward_batch(params, x)

    t = params.tensors
    a = x
    for i in range(1, len(cfg.kernels) + 1):
        z = brute_conv(a, t[f"conv{i}.w"], t[f"conv{i}.b"])
        assert (z < 0).any() and (z > 0).any()  # both arms of the slope are taken
        a = _leaky(z, alpha)
    a = a.reshape(n, -1)
    for name in ("dense7", "dense8"):
        a = _leaky(brute_dense(a, t[f"{name}.w"], t[f"{name}.b"]), alpha)
    logits = brute_dense(a, t["head.w"], t["head.b"])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    np.testing.assert_allclose(feats, a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(probs, e / e.sum(axis=1, keepdims=True), rtol=0, atol=1e-10)


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
    w1 = rng.normal(size=(4, 3, 3, 1))
    w2 = rng.normal(size=(4, 3, 3, 1))
    zero = np.zeros(4)
    np.testing.assert_allclose(
        _conv(x1 + x2, w1, zero),
        _conv(x1, w1, zero) + _conv(x2, w1, zero),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        _conv(x1, w1 + w2, zero),
        _conv(x1, w1, zero) + _conv(x1, w2, zero),
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
    y1 = _conv(x1, w, b)
    y2 = _conv(x2, w, b)
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


def _relative(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


@settings(max_examples=25, deadline=None)
@given(
    hour_kernels=st.lists(st.integers(1, 4), max_size=4),
    days=st.integers(1, 7),
    widths=st.lists(st.integers(1, 4), min_size=8, max_size=8),
    classes=st.integers(2, 4),
    n=st.integers(1, 40),
    param_dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_input_runs_in_float32_and_tracks_float64(
    hour_kernels, days, widths, classes, n, param_dtype, seed
):
    kernels = tuple((k, 1) for k in hour_kernels) + ((1, days),)
    cfg = NetworkConfig(
        classes=classes,
        in_channels=widths[0],
        hours=1 + sum(k - 1 for k in hour_kernels),
        days=days,
        kernels=kernels,
        filters=tuple(widths[1 : 1 + len(kernels)]),
        dense=(widths[6] + 2, widths[7] + 1),
    )
    params = init_params(cfg, seed % 1000)
    rng = np.random.default_rng(seed)
    for name in params.tensors:
        if name.endswith(".b"):
            params.tensors[name] = rng.normal(0.0, 0.1, params.tensors[name].shape)
    x = rng.normal(size=(n, cfg.in_channels, cfg.hours, cfg.days))
    labels = rng.integers(classes, size=n)
    probs64, _, trace64 = forward_batch(params, x)
    grads64 = backward(params, trace64, loss_gradient(probs64, labels))

    params.tensors = {k: v.astype(param_dtype) for k, v in params.tensors.items()}
    probs32, feats32, trace32 = forward_batch(params, x.astype(np.float32))
    grads32 = backward(params, trace32, loss_gradient(probs32, labels))

    arrays = [x_in for x_in, _ in trace32.layers]
    arrays += [probs32, feats32, trace32.logits, trace32.probs, *grads32.values()]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert {m.dtype for _, m in trace32.layers[:-1]} == {np.dtype(bool)}  # the z >= 0 masks
    assert _relative(probs32, probs64) <= 1e-4
    # over all gradients at once: a single tensor's gradient can be a
    # near-cancelling sum, whose float32 rounding is large relative to it
    names = sorted(grads64)
    flat32 = np.concatenate([grads32[k].ravel() for k in names])
    flat64 = np.concatenate([grads64[k].ravel() for k in names])
    assert _relative(flat32, flat64) <= 1e-4
