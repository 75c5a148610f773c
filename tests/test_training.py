from datetime import date

import numpy as np
import pytest

from cdrnet import training
from cdrnet.featurize import LabelSpace, WeekId
from cdrnet.ingest import LabelRecord
from cdrnet.net import NetworkConfig
from cdrnet.training import (
    EpochStats,
    NumericError,
    TrainConfig,
    cross_entropy,
    loss_gradient,
    sgd_step,
    split_users,
    train,
)

from oracles import dense_dataset

MONDAY = date(2024, 1, 1)


def test_cross_entropy_perfect_prediction():
    assert cross_entropy(np.array([[1.0, 0.0]]), [0]) == 0.0
    np.testing.assert_array_equal(loss_gradient(np.array([[1.0, 0.0]]), [0]), [[0.0, 0.0]])


def test_cross_entropy_is_clipped():
    assert cross_entropy(np.array([[0.0, 1.0]]), [0]) == pytest.approx(-np.log(1e-12))


def test_cross_entropy_batch_mean():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    got = cross_entropy(probs, [0, 1])
    assert got == pytest.approx((-np.log(0.5) - np.log(0.75)) / 2)


def test_loss_gradient_batch():
    probs = np.array([[0.2, 0.8], [0.6, 0.4]])
    g = loss_gradient(probs, [1, 0])
    np.testing.assert_allclose(g, [[0.1, -0.1], [-0.2, 0.2]])


def test_sgd_momentum_worked_example():
    w = {"p.w": np.array([1.0])}
    v = {"p.w": np.array([0.0])}
    g = {"p.w": np.array([1.0])}
    sgd_step(w, v, g, learning_rate=0.1, momentum=0.9)
    assert w["p.w"][0] == pytest.approx(0.9)
    assert v["p.w"][0] == pytest.approx(-0.1)
    sgd_step(w, v, g, learning_rate=0.1, momentum=0.9)
    assert v["p.w"][0] == pytest.approx(-0.19)
    assert w["p.w"][0] == pytest.approx(0.71)


def test_weight_decay_skips_biases():
    w = {"p.w": np.array([1.0]), "p.b": np.array([1.0])}
    v = {k: np.zeros(1) for k in w}
    g = {k: np.zeros(1) for k in w}
    sgd_step(w, v, g, learning_rate=0.1, momentum=0.0, weight_decay=0.5)
    assert w["p.w"][0] == pytest.approx(0.95)  # lr * wd * w pulled off
    assert w["p.b"][0] == 1.0


def test_split_users_deterministic_and_disjoint():
    users = [f"u{i}" for i in range(20)]
    a_train, a_val = split_users(users, 0.25, 7)
    b_train, b_val = split_users(users, 0.25, 7)
    assert (a_train, a_val) == (b_train, b_val)
    assert len(a_val) == 5
    assert set(a_train) | set(a_val) == set(users)
    assert set(a_train) & set(a_val) == set()
    c_train, c_val = split_users(users, 0.25, 8)
    assert c_val != a_val


def test_split_users_keeps_at_least_one_training_user():
    train_u, val_u = split_users(["a", "b"], 0.9, 0)
    assert len(train_u) >= 1


def test_class_assignments_gender_sorted():
    labels = {
        "u1": LabelRecord("u1", "m", 30),
        "u2": LabelRecord("u2", "f", 40),
        "u3": LabelRecord("u3", "f", 50),
    }
    space = LabelSpace.fit("gender", labels.values())
    assert space.class_labels == ("f", "m")
    assert {u: space.index(r) for u, r in labels.items()} == {"u1": 1, "u2": 0, "u3": 0}
    with pytest.raises(ValueError, match="'x'"):
        space.index(LabelRecord("u9", "x", 30))


def test_class_assignments_single_gender_rejected():
    labels = {"u1": LabelRecord("u1", "f", 30)}
    with pytest.raises(ValueError):
        LabelSpace.fit("gender", labels.values())


def test_class_assignments_age_buckets():
    labels = {"u1": LabelRecord("u1", "f", 27), "u2": LabelRecord("u2", "m", 48)}
    space = LabelSpace.fit("age", labels.values(), (28, 38, 48))
    assert {u: space.index(r) for u, r in labels.items()} == {"u1": 0, "u2": 3}
    assert space.n_classes == 4


def test_unknown_attribute_rejected():
    with pytest.raises(ValueError):
        LabelSpace.fit("height", [])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": 0},
        {"batch_size": 0},
        {"val_fraction": 1.0},
        {"val_fraction": -0.1},
        {"learning_rate": 0.0},
    ],
)
def test_bad_train_config_rejected(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


GENDER = LabelSpace("gender", ("f", "m"))


def _toy_dataset(n_users=24, weeks=3, seed=0):
    """Small learnable task: class 0 users are busy at hour 3, class 1 at hour 15."""
    rng = np.random.default_rng(seed)
    user_ids, week_ids, rows, labels = [], [], [], {}
    for i in range(n_users):
        uid = f"u{i:03d}"
        cls = i % 2
        labels[uid] = LabelRecord(uid, "f" if cls == 0 else "m", 30)
        for w in range(weeks):
            t = np.zeros((8, 24, 7))
            hour = 3 if cls == 0 else 15
            t[1, hour] = rng.poisson(9.0, size=7)
            t[2] = rng.poisson(0.5, size=(24, 7))
            user_ids.append(uid)
            week_ids.append(WeekId(date(2024, 1, 1)))
            rows.append(t)
    return dense_dataset(user_ids, week_ids, np.stack(rows)), labels


SMALL_NET = dict(
    kernels=((4, 1), (4, 1), (4, 1), (4, 1), (12, 1), (1, 7)),
    filters=(4, 4, 4, 4, 4, 8),
    dense=(16, 8),
)


def test_train_learns_a_separable_toy_task():
    ds, labels = _toy_dataset()
    cfg = TrainConfig(learning_rate=0.02, epochs=8, batch_size=8, seed=0, val_fraction=0.25)
    net = NetworkConfig(classes=2, **SMALL_NET)
    params, history = train(ds, labels, GENDER, cfg, net)
    assert len(history) == 8
    assert all(isinstance(h, EpochStats) for h in history)
    assert history[-1].train_loss < history[0].train_loss
    assert history[-1].val_accuracy == 1.0
    assert params.label_space.attribute == "gender"
    assert params.label_space.class_labels == ("f", "m")
    assert params.norm_stats is not None
    assert params.label_space.age_edges is None


def test_train_without_validation_split():
    ds, labels = _toy_dataset(n_users=8, weeks=2)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, val_fraction=0.0)
    net = NetworkConfig(classes=2, **SMALL_NET)
    _, history = train(ds, labels, GENDER, cfg, net)
    assert history[0].val_accuracy is None


def test_train_is_deterministic():
    ds, labels = _toy_dataset(n_users=8, weeks=2)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5, val_fraction=0.0)
    net = NetworkConfig(classes=2, **SMALL_NET)
    a, _ = train(ds, labels, GENDER, cfg, net)
    b, _ = train(ds, labels, GENDER, cfg, net)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


def test_train_age_attribute_sets_bucket_metadata():
    ds, labels = _toy_dataset(n_users=8, weeks=1)
    labels = {u: LabelRecord(u, r.gender, 20 + 10 * (i % 4)) for i, (u, r) in enumerate(sorted(labels.items()))}
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, val_fraction=0.0)
    net = NetworkConfig(classes=4, **SMALL_NET)
    params, _ = train(ds, labels, LabelSpace.fit("age", labels.values(), (28, 38, 48)), cfg, net)
    assert params.label_space.attribute == "age"
    assert params.label_space.age_edges == (28, 38, 48)
    assert params.label_space.class_labels == ("[0,28)", "[28,38)", "[38,48)", "[48,inf)")


def test_train_skips_unlabeled_users():
    ds, labels = _toy_dataset(n_users=8, weeks=1)
    partial = {u: r for u, r in labels.items() if u not in ("u000", "u001")}
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, val_fraction=0.0)
    net = NetworkConfig(classes=2, **SMALL_NET)
    params, _ = train(ds, partial, GENDER, cfg, net)
    assert params.tensors["head.w"].shape == (2, 8)


def test_train_with_no_labeled_users_rejected():
    ds, _ = _toy_dataset(n_users=4, weeks=1)
    with pytest.raises(ValueError):
        train(ds, {}, GENDER, TrainConfig(epochs=1), NetworkConfig(classes=2, **SMALL_NET))


def test_class_count_mismatch_rejected():
    ds, labels = _toy_dataset(n_users=8, weeks=1)
    with pytest.raises(ValueError):
        train(ds, labels, GENDER, TrainConfig(epochs=1), NetworkConfig(classes=3, **SMALL_NET))


def test_non_finite_input_raises_numeric_error():
    ds, labels = _toy_dataset(n_users=8, weeks=1)
    tensors = ds.tensors.copy()  # the dataset's dense view is read-only
    tensors[0, 0, 0, 0] = np.inf
    ds = dense_dataset(ds.user_ids, ds.weeks, tensors)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, val_fraction=0.0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        train(ds, labels, GENDER, cfg, NetworkConfig(classes=2, **SMALL_NET))


@pytest.mark.parametrize("bad, message", [
    ("gradient", "non-finite conv3.w gradient at epoch 1, step 2"),
    ("parameter", "non-finite dense7.b parameter at epoch 1, step 2"),
])
def test_numeric_error_names_the_tensor_epoch_and_step(monkeypatch, bad, message):
    ds, labels = _toy_dataset(n_users=8, weeks=2)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, val_fraction=0.0)
    calls = []
    real_backward = training.backward

    def backward(params, trace, dlogits):
        grads = real_backward(params, trace, dlogits)
        calls.append(None)
        if len(calls) == 2:
            if bad == "gradient":
                grads["conv3.w"][0, 0, 0, 0] = np.inf
            else:  # a parameter gone non-finite under finite gradients
                params.tensors["dense7.b"][0] = np.inf
        return grads

    monkeypatch.setattr(training, "backward", backward)
    with pytest.raises(NumericError) as info:
        train(ds, labels, GENDER, cfg, NetworkConfig(classes=2, **SMALL_NET))
    assert str(info.value) == message
