import numpy as np

from cdrnet.net import backward, downsized_config, forward_batch, init_params
from cdrnet.training import GRAD_TOL, grad_check, loss_gradient, max_relative_error


def _random_params(seed):
    """Downsized net with random non-zero biases.

    Zero biases would leave pre-activations of an all-channel-balanced input
    near the leaky-ReLU kink, where one-sided analytic slopes and central
    differences legitimately disagree. Any seed will do: grad_check picks,
    per entry, the largest step that crosses no kink.
    """
    cfg = downsized_config()
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed + 1000)
    for name in params.tensors:
        if name.endswith(".b"):
            params.tensors[name] = rng.normal(0.0, 0.1, params.tensors[name].shape)
    x = rng.normal(size=(cfg.in_channels, cfg.hours, cfg.days))
    label = int(rng.integers(cfg.classes))
    return params, x, label


def test_analytic_gradients_match_central_differences():
    params, x, label = _random_params(0)
    errors = grad_check(params, x, label)
    assert set(errors) == set(params.tensors)
    assert max(errors.values()) < GRAD_TOL


def test_grad_check_across_more_seeds():
    for seed in range(40):
        params, x, label = _random_params(seed)
        assert max(grad_check(params, x, label).values()) < GRAD_TOL, seed


def test_grad_check_on_zero_input_exercises_bias_gradients():
    params, x, label = _random_params(9)
    errors = grad_check(params, np.zeros_like(x), label)
    assert max(errors.values()) < GRAD_TOL


def test_batch_gradient_is_mean_of_per_sample_gradients():
    params, _, _ = _random_params(3)
    cfg = params.config
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, cfg.in_channels, cfg.hours, cfg.days))
    labels = rng.integers(cfg.classes, size=4)

    probs, _, trace = forward_batch(params, x)
    batch_grads = backward(params, trace, loss_gradient(probs, labels))

    sums = {name: np.zeros_like(g) for name, g in batch_grads.items()}
    for i in range(4):
        p_i, _, t_i = forward_batch(params, x[i : i + 1])
        g_i = backward(params, t_i, loss_gradient(p_i, labels[i : i + 1]))
        for name in sums:
            sums[name] += g_i[name]
    for name, g in batch_grads.items():
        np.testing.assert_allclose(g, sums[name] / 4.0, rtol=1e-10, atol=1e-12)


def test_grad_check_detects_a_broken_gradient():
    """Corrupting the analytic result must push the reported error past tolerance."""
    params, x, label = _random_params(9)
    errors = grad_check(params, x, label)
    assert max(errors.values()) < GRAD_TOL

    import cdrnet.training as training

    original = training.backward
    def corrupted(p, t, d):
        grads = original(p, t, d)
        grads["head.w"] = grads["head.w"] * 1.1
        return grads
    training.backward = corrupted
    try:
        broken = grad_check(params, x, label)
    finally:
        training.backward = original
    assert broken["head.w"] > 1e-2


def test_max_relative_error_definition():
    assert max_relative_error(1.0, 1.0) == 0.0
    assert max_relative_error(2.0, 1.0) == 1.0 / 3.0
    assert max_relative_error(0.0, 1e-10) == 1e-10 / 1e-8


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    params, x, _ = _random_params(0)
    _, _, trace = forward_batch(params, x[None])
    grads = backward(params, trace, np.zeros((1, params.config.classes)))
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_backward_scales_linearly_with_the_upstream_gradient():
    params, x, label = _random_params(3)
    probs, _, trace = forward_batch(params, x[None])
    dlogits = loss_gradient(probs, np.array([label]))
    single = backward(params, trace, dlogits)
    doubled = backward(params, trace, 2.0 * dlogits)
    for name in single:
        np.testing.assert_array_equal(doubled[name], 2.0 * single[name])
