import re
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.classify import (
    CHUNK_ROWS,
    SvmModel,
    UserPrediction,
    evaluate,
    format_table,
    predict_dataset,
    read_predictions,
    svm_margins,
    train_linear_svm,
    write_predictions,
)
from cdrnet.featurize import NormStats, TensorDataset, WeekId, fit_normalizer
from cdrnet.net import COMPUTE_DTYPE, NetworkConfig, forward_batch, init_params
from oracles import brute_pegasos, dense_apply_normalizer, dense_dataset

SMALL_NET = NetworkConfig(
    classes=3,
    kernels=((4, 1), (4, 1), (4, 1), (4, 1), (12, 1), (1, 7)),
    filters=(4, 4, 4, 4, 4, 8),
    dense=(16, 8),
)


@pytest.fixture(scope="module")
def weeks():
    rng = np.random.default_rng(0)
    return rng.poisson(2.0, size=(4, 8, 24, 7)).astype(np.float64)


@pytest.fixture(scope="module")
def model(weeks):
    params = init_params(SMALL_NET, 0)
    params.norm_stats = fit_normalizer(_dataset([("u1", w) for w in weeks]))
    return params


def _dataset(rows) -> TensorDataset:
    """TensorDataset from (user_id, week tensor) rows, kept in the given order."""
    monday = date(2024, 1, 1)
    return dense_dataset(
        [u for u, _ in rows],
        [WeekId(monday + timedelta(days=7 * i)) for i in range(len(rows))],
        np.stack([t for _, t in rows]) if rows else np.zeros((0, 8, 24, 7)),
    )


def _chunk_forward(model, weeks):
    """forward_batch's (probs, dense8) of weeks as predict_dataset runs them, widened to float64.

    The weeks are normalized by the model's stats and padded with zero weeks
    to one CHUNK_ROWS chunk in COMPUTE_DTYPE.
    """
    padded = np.concatenate([weeks, np.zeros((CHUNK_ROWS - len(weeks), 8, 24, 7))])
    x = dense_apply_normalizer(padded, model.norm_stats).astype(COMPUTE_DTYPE)
    probs, feats, _ = forward_batch(model, x)
    return probs[: len(weeks)].astype(np.float64), feats[: len(weeks)].astype(np.float64)


def _predict_one(model, weeks, head="avg", user_id="u1") -> UserPrediction:
    (pred,) = predict_dataset(model, _dataset([(user_id, w) for w in weeks]), head=head)
    return pred


def _svm_classes(svm, x):
    return np.argmax(svm_margins(svm, x), axis=-1)


def test_predict_user_averages_softmax(model, weeks):
    pred = _predict_one(model, weeks)
    probs, _ = _chunk_forward(model, weeks)
    np.testing.assert_allclose(pred.scores, probs.mean(axis=0), atol=1e-12)
    # the softmax runs in COMPUTE_DTYPE, so its rows sum to 1 to that precision
    assert pred.scores.sum() == pytest.approx(1.0, abs=np.finfo(COMPUTE_DTYPE).eps)
    assert pred.class_index == int(np.argmax(pred.scores))
    assert pred.weeks_used == 4 and pred.user_id == "u1"


def test_predict_user_single_week_equals_softmax(model, weeks):
    pred = _predict_one(model, weeks[:1])
    probs, _ = _chunk_forward(model, weeks[:1])
    np.testing.assert_allclose(pred.scores, probs[0], atol=1e-12)


def test_predict_user_week_order_invariant(model, weeks):
    a = _predict_one(model, weeks)
    b = _predict_one(model, weeks[::-1].copy())
    np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)
    assert a.class_index == b.class_index


def test_predict_user_duplication_idempotent(model, weeks):
    a = _predict_one(model, weeks)
    b = _predict_one(model, np.concatenate([weeks, weeks]))
    np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)


def test_predict_user_applies_model_normalizer(model, weeks):
    scores = []
    for stats in (NormStats(np.zeros(8), np.ones(8)), model.norm_stats):
        params = replace(model, norm_stats=stats)
        pred = _predict_one(params, weeks).scores
        probs, _ = _chunk_forward(params, weeks)
        np.testing.assert_allclose(pred, probs.mean(axis=0), atol=1e-12)
        scores.append(pred)
    assert not np.allclose(*scores)


def test_predict_user_empty_weeks_rejected(model):
    with pytest.raises(ValueError):
        predict_dataset(model, _dataset([]))


def test_extract_user_features_is_mean_of_week_features(model, weeks):
    d = SMALL_NET.feature_dim
    # an identity SVM: its margins are the mean dense8 vector itself
    identity = SvmModel(weights=np.eye(d), bias=np.zeros(d), lam=1.0,
                        feature_mean=np.zeros(d), feature_std=np.ones(d))
    with_svm = replace(model, svm=identity)
    feats = _predict_one(with_svm, weeks, head="svm").scores
    _, per_week = _chunk_forward(model, weeks)
    np.testing.assert_allclose(feats, per_week.mean(axis=0), atol=1e-12)
    assert feats.shape == (SMALL_NET.feature_dim,)
    single = _predict_one(with_svm, weeks[:1], head="svm").scores
    np.testing.assert_allclose(single, per_week[0], atol=1e-12)


def test_predict_dataset_packs_users_across_chunks(model):
    rng = np.random.default_rng(5)
    week_counts = [1, 3, 2] * 9  # 54 rows, so users straddle chunk borders
    users = [f"u{i:02d}" for i in rng.permutation(len(week_counts))]
    per_user = {u: rng.poisson(1.5, size=(n, 8, 24, 7)).astype(np.float64)
                for u, n in zip(users, week_counts)}
    # each user's weeks in one run, users sorted, as featurize writes them
    rows = [(u, week) for u in sorted(users) for week in per_user[u]]
    assert len(rows) > CHUNK_ROWS
    preds = predict_dataset(model, _dataset(rows))
    assert [p.user_id for p in preds] == sorted(users)
    for p in preds:
        probs, _ = _chunk_forward(model, per_user[p.user_id])
        np.testing.assert_allclose(p.scores, probs.mean(axis=0), atol=1e-12)
        assert p.weeks_used == len(per_user[p.user_id])


@settings(max_examples=25, deadline=None)
@given(
    week_counts=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    classes=st.integers(2, 4),
    rate=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_float64_and_float32_parameters_predict_alike(week_counts, classes, rate, seed):
    """The net runs in float32 either way, so the saved float32 cast predicts what
    the float64 masters do, under both heads."""
    rng = np.random.default_rng(seed)
    users = [f"u{i:02d}" for i in range(len(week_counts))]
    rows = [(u, w) for u, n in zip(users, week_counts)
            for w in rng.poisson(rate, size=(n, 8, 24, 7))]
    ds = _dataset(rows)
    wide = init_params(replace(SMALL_NET, classes=classes), seed)
    d = wide.config.feature_dim
    wide.norm_stats = fit_normalizer(ds)
    wide.svm = SvmModel(rng.normal(size=(classes, d)), rng.normal(size=classes), 1e-4,
                        rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    narrow = replace(wide, tensors={n: t.astype(np.float32) for n, t in wide.tensors.items()})
    for head in ("avg", "svm"):
        a, b = predict_dataset(wide, ds, head=head), predict_dataset(narrow, ds, head=head)
        assert [p.class_index for p in a] == [p.class_index for p in b]
        assert np.array_equal(np.stack([p.scores for p in a]), np.stack([p.scores for p in b]))


def _separable_set():
    x = np.array([[-1.0, 0.0], [-0.9, 0.1], [-1.1, -0.2], [1.0, 0.0], [0.9, -0.1], [1.1, 0.2]])
    y = [0, 0, 0, 1, 1, 1]
    return x, y


def test_svm_fits_separable_data():
    x, y = _separable_set()
    svm = train_linear_svm(x, y, lam=1e-3, epochs=100, seed=0)
    np.testing.assert_array_equal(_svm_classes(svm, x), y)


def test_svm_training_is_deterministic():
    x, y = _separable_set()
    a = train_linear_svm(x, y, lam=1e-3, epochs=20, seed=3)
    b = train_linear_svm(x, y, lam=1e-3, epochs=20, seed=3)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.bias, b.bias)


def test_svm_huge_lambda_collapses_to_bias():
    x, y = _separable_set()
    svm = train_linear_svm(x, y, lam=1e6, epochs=30, seed=0)
    assert np.linalg.norm(svm.weights) < 1e-2
    margins = svm_margins(svm, x)
    np.testing.assert_allclose(margins, np.broadcast_to(svm.bias, margins.shape), atol=1e-2)


def test_svm_single_class_rejected():
    with pytest.raises(ValueError):
        train_linear_svm(np.zeros((4, 2)), [0, 0, 0, 0], epochs=1)


def test_svm_dimension_mismatch_rejected():
    x, y = _separable_set()
    svm = train_linear_svm(x, y, epochs=5)
    with pytest.raises(ValueError):
        svm_margins(svm, np.zeros(3))


def test_svm_all_zero_model_ties_to_lowest_index(model, weeks):
    d = SMALL_NET.feature_dim
    svm = SvmModel(
        weights=np.zeros((3, d)),
        bias=np.zeros(3),
        lam=1.0,
        feature_mean=np.zeros(d),
        feature_std=np.ones(d),
    )
    rows = [(f"u{i}", w) for i, w in enumerate(weeks)]
    preds = predict_dataset(replace(model, svm=svm), _dataset(rows), head="svm")
    assert [p.class_index for p in preds] == [0] * len(weeks)


def test_svm_bias_shift_invariance():
    x, y = _separable_set()
    svm = train_linear_svm(x, y, epochs=10, seed=1)
    shifted = SvmModel(
        weights=svm.weights,
        bias=svm.bias + 11.0,
        lam=svm.lam,
        feature_mean=svm.feature_mean,
        feature_std=svm.feature_std,
    )
    np.testing.assert_array_equal(_svm_classes(svm, x), _svm_classes(shifted, x))


def test_svm_margin_example():
    svm = SvmModel(
        weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
        bias=np.array([0.0, 0.0]),
        lam=1.0,
        feature_mean=np.zeros(2),
        feature_std=np.ones(2),
    )
    np.testing.assert_array_equal(svm_margins(svm, np.array([0.5, -0.2])), [0.5, -0.2])
    assert _svm_classes(svm, np.array([0.5, -0.2])) == 0


def test_svm_objective_history_shape_and_convergence():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(-1, 1, size=(60, 6)), rng.normal(1, 1, size=(60, 6))])
    y = [0] * 60 + [1] * 60
    svm = train_linear_svm(x, y, lam=1e-1, epochs=30, seed=0)
    assert len(svm.objective_history) == 2
    for curve in svm.objective_history:
        assert len(curve) == 30
        assert curve[-1] < curve[0]
        tail = curve[len(curve) // 2 :]
        for a, b in zip(tail, tail[1:]):
            assert b <= a + 1e-3


def test_svm_standardizes_features():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 3)) * np.array([100.0, 1.0, 0.01]) + np.array([5.0, 0.0, -3.0])
    y = rng.integers(0, 2, size=50).tolist()
    y[0], y[1] = 0, 1
    svm = train_linear_svm(x, y, epochs=5, seed=0)
    np.testing.assert_allclose(svm.feature_mean, x.mean(axis=0))
    np.testing.assert_allclose(svm.feature_std, x.std(axis=0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(1, 8),
    k=st.integers(2, 4),
    epochs=st.integers(1, 5),
    lam=st.floats(1e-4, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_svm_matches_the_step_by_step_oracle(n, d, k, epochs, lam, seed):
    # lam up to 1e6 makes the projection onto the 1/sqrt(lam) ball fire
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    y = rng.integers(0, k, size=n)
    y[:2] = [0, 1]
    svm = train_linear_svm(x, y, lam=lam, epochs=epochs, seed=seed, n_classes=k)
    weights, bias, history = brute_pegasos(x, y, lam, epochs, seed, k)
    for got, want in ((svm.weights, weights), (svm.bias, bias),
                      (np.array(svm.objective_history), np.array(history))):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


GENDERS = ("f", "m")


def _rows(pairs, k=2):
    """UserPrediction rows of (user, class) pairs, one-hot scores over k classes."""
    return [UserPrediction(u, np.eye(k)[c], c, 1) for u, c in pairs]


def test_evaluate_perfect_predictions():
    preds = _rows([("u1", 0), ("u2", 1), ("u3", 0), ("u4", 1)])
    truth = {"u1": 0, "u2": 1, "u3": 0, "u4": 1}
    m = evaluate(preds, truth, GENDERS)
    assert m.accuracy == 1.0
    np.testing.assert_array_equal(m.confusion, [[2, 0], [0, 2]])
    np.testing.assert_array_equal(m.precision, [1.0, 1.0])
    np.testing.assert_array_equal(m.recall, [1.0, 1.0])


def test_evaluate_majority_baseline_counting():
    preds = _rows([("a", 0), ("b", 0), ("c", 0), ("d", 0)])
    truth = {"a": 0, "b": 0, "c": 0, "d": 1}
    m = evaluate(preds, truth, GENDERS)
    assert m.accuracy == 0.75
    assert m.majority_accuracy == 0.75
    assert m.uniform_accuracy == 0.5


def test_evaluate_imbalanced_majority():
    truth = {f"u{i}": (0 if i < 9 else 1) for i in range(16)}
    preds = _rows([(u, 0) for u in truth])
    m = evaluate(preds, truth, GENDERS)
    assert m.majority_accuracy == pytest.approx(0.5625)


def test_evaluate_confusion_invariants():
    rng = np.random.default_rng(2)
    truth = {f"u{i}": int(rng.integers(3)) for i in range(60)}
    pairs = [(u, int(rng.integers(3))) for u in truth]
    m = evaluate(_rows(pairs, 3), truth, ("a", "b", "c"))
    assert m.confusion.sum() == 60
    assert np.trace(m.confusion) / 60 == pytest.approx(m.accuracy)
    true_counts = np.bincount([truth[u] for u, _ in pairs], minlength=3)
    np.testing.assert_array_equal(m.confusion.sum(axis=1), true_counts)


def test_evaluate_missing_truth_rejected():
    with pytest.raises(ValueError):
        evaluate(_rows([("ghost", 0)]), {"u1": 0}, GENDERS)


def test_evaluate_scores_labeled_users_and_counts_the_rest():
    preds = _rows([("u1", 0), ("ghost", 1), ("u2", 1), ("phantom", 0)])
    m = evaluate(preds, {"u1": 0, "u2": 0, "u3": 1}, GENDERS)
    assert (m.n_users, m.unlabeled) == (2, 2)
    assert m.accuracy == 0.5
    assert m.confusion.sum() == 2
    assert m.to_json()["unlabeled"] == 2


def test_evaluate_accepts_user_prediction_objects():
    preds = [UserPrediction("u1", np.array([0.9, 0.1]), 0, 3)]
    m = evaluate(preds, {"u1": 0}, GENDERS)
    assert m.accuracy == 1.0


def test_metrics_to_json_round_trips_through_json():
    import json

    m = evaluate(_rows([("u1", 0)]), {"u1": 1}, GENDERS)
    parsed = json.loads(json.dumps(m.to_json()))
    assert parsed["accuracy"] == 0.0
    assert parsed["class_labels"] == ["f", "m"]


def test_predictions_csv_round_trip(tmp_path):
    preds = [
        UserPrediction("u1", np.array([0.125, 0.875]), 1, 4),
        UserPrediction("u2", np.array([0.6, 0.4]), 0, 2),
    ]
    path = tmp_path / "p.csv"
    write_predictions(path, preds)
    text = path.read_text()
    assert text.splitlines()[0] == "user_id,predicted_class,p_0,p_1"
    back = read_predictions(path)
    assert [p.user_id for p in back] == ["u1", "u2"]
    assert [p.class_index for p in back] == [1, 0]
    np.testing.assert_array_equal(back[0].scores, preds[0].scores)


def test_read_predictions_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("something,else\n1,2\n")
    with pytest.raises(ValueError):
        read_predictions(path)


@pytest.mark.parametrize(
    "row, reason",
    [
        ("u2,5,0.5,0.5", "predicted_class 5 outside [0, 2)"),
        ("u2,-1,0.5,0.5", "predicted_class -1 outside [0, 2)"),
        ("u2,0,0.5", "1 scores for 2 classes"),
        ("u2,0,0.5,0.25,0.25", "3 scores for 2 classes"),
        ("u2,one,0.5,0.5", "invalid literal"),
        ("u2,0,0.5,half", "could not convert"),
    ],
)
def test_read_predictions_rejects_a_malformed_row(tmp_path, row, reason):
    path = tmp_path / "p.csv"
    path.write_text(f"user_id,predicted_class,p_0,p_1\nu1,0,0.5,0.5\n{row}\n")
    with pytest.raises(ValueError, match=f"line 3: .*{re.escape(reason)}"):
        read_predictions(path)


@pytest.mark.parametrize(
    "header",
    ["user_id,predicted_class", "user_id,predicted_class,", "user_id,predicted_class,p_1"],
)
def test_read_predictions_rejects_a_header_without_k_scores(tmp_path, header):
    path = tmp_path / "p.csv"
    path.write_text(f"{header}\nu1,0,0.5\n")
    with pytest.raises(ValueError, match="not a predictions file"):
        read_predictions(path)


def test_format_table_layout():
    table = format_table([("majority", 0.5), ("model", 0.9821)])
    lines = table.splitlines()
    assert lines[0].startswith("classifier")
    assert "98.21%" in lines[2]
