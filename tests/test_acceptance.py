"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (pytest runs with -s) so the
verdicts can be read straight off the test output. The two training runs
share module fixtures; the whole file targets a single-machine budget of
a few minutes.
"""

import time
from datetime import date

import numpy as np
import pytest

from cdrnet.classify import (
    evaluate,
    predict_dataset,
    train_linear_svm,
    train_svm_head,
    write_predictions,
)
from cdrnet.container import ContainerError
from cdrnet.featurize import (
    LabelSpace,
    TensorDataset,
    WeekId,
    featurize_users,
)
from cdrnet.ingest import ingest
from cdrnet.modelfile import load_model, save_model
from cdrnet.net import (
    NetworkConfig,
    backward,
    conv2d_valid,
    dense_affine,
    downsized_config,
    forward_batch,
    init_params,
    softmax,
)
from cdrnet.synth import SynthConfig, generate
from cdrnet.training import (
    GRAD_TOL,
    TrainConfig,
    cross_entropy,
    grad_check,
    loss_gradient,
    sgd_step,
    split_users,
    train,
)

from oracles import (
    batch_first,
    brute_conv,
    brute_dense,
    brute_week_tensor,
    dense_dataset,
    format_cdr_line,
    hour_major,
    random_records,
    text_bytes,
)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _subset(ds: TensorDataset, users) -> TensorDataset:
    keep = set(users)
    idx = [i for i, u in enumerate(ds.user_ids) if u in keep]
    return dense_dataset(
        [ds.user_ids[i] for i in idx], [ds.weeks[i] for i in idx], ds.tensors[idx]
    )


def _experiment(signal: float, seed: int):
    """Train and score both attributes and both heads on a held-out user half."""
    config = SynthConfig(users=2000, weeks_per_user=8, signal=signal, seed=seed)
    cdr_lines, label_lines = generate(config)
    groups, labels, _ = ingest(text_bytes(cdr_lines), label_lines)
    ds = featurize_users(groups)
    users = sorted(set(ds.user_ids))
    train_users, test_users = split_users(users, 0.5, seed)
    train_ds, test_ds = _subset(ds, train_users), _subset(ds, test_users)

    results = {}
    for attribute in ("gender", "age"):
        train_config = TrainConfig(epochs=6, seed=seed, val_fraction=0.0)
        space = LabelSpace.fit(attribute, [labels[u] for u in train_users])
        model, _ = train(train_ds, labels, space, train_config)
        model.svm = train_svm_head(model, train_ds, labels, epochs=50, seed=seed)
        truth = {u: model.label_space.index(labels[u]) for u in test_users}
        for head in ("avg", "svm"):
            preds = predict_dataset(model, test_ds, head=head)
            results[(attribute, head)] = evaluate(preds, truth, class_labels=space.class_labels)
    return results


@pytest.fixture(scope="module")
def learnable_run():
    return _experiment(signal=1.0, seed=11)


@pytest.fixture(scope="module")
def null_run():
    return _experiment(signal=0.0, seed=17)


def test_acceptance_1_shape_chain():
    chain = NetworkConfig(classes=4).spatial_chain()
    expected = [(24, 7), (21, 7), (18, 7), (15, 7), (12, 7), (1, 7), (1, 1)]
    _report(1, "default conv stack reduces 24x7 to 1x1", chain == expected, f"chain {chain}")


def test_acceptance_2_gradient_check_five_seeds():
    start = time.perf_counter()
    worst = 0.0
    for seed in (3, 7, 8, 9, 11):
        config = downsized_config()
        params = init_params(config, seed)
        rng = np.random.default_rng(seed)
        for name in params.tensors:
            if name.endswith(".b"):
                params.tensors[name] = rng.normal(0.0, 0.1, params.tensors[name].shape)
        x = rng.normal(size=(config.in_channels, config.hours, config.days))
        label = int(rng.integers(config.classes))
        worst = max(worst, max(grad_check(params, x, label).values()))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "finite-difference gradient check passes on 5 seeds",
        worst < GRAD_TOL and elapsed < 120.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_3_featurization_oracle():
    rng = np.random.default_rng(7)
    monday = date(2024, 1, 1)
    total = 0
    exact = True
    while total < 10000:
        count = int(rng.integers(200, 600))
        records = random_records(rng, count, monday)
        columns, _, report = ingest(text_bytes(format_cdr_line(r) for r in records))
        ds = featurize_users(columns)
        exact = (
            exact
            and report.records_accepted == count
            and ds.weeks == [WeekId(monday)]
            and np.array_equal(ds.tensors[0], brute_week_tensor(records, monday))
        )
        total += count
    _report(
        3,
        "week tensors match a brute-force recount exactly",
        exact,
        f"{total} randomized records",
    )


def test_acceptance_4_kernel_oracles():
    rng = np.random.default_rng(11)
    worst_conv = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(2, 13)), int(rng.integers(2, 8))
        if rng.integers(2):  # an hour kernel
            kh, kw = int(rng.integers(1, h + 1)), 1
        else:  # a closing kernel over a one-hour input of whole days
            h, kh, kw = 1, 1, w
        x = rng.normal(size=(n, c_in, h, w))
        weight = rng.normal(size=(c_out, c_in, kh, kw))
        bias = rng.normal(size=c_out)
        out = batch_first(conv2d_valid(hour_major(x), weight, bias), n)
        diff = np.abs(out - brute_conv(x, weight, bias)).max()
        worst_conv = max(worst_conv, float(diff))

    worst_dense = 0.0
    for _ in range(100):
        n, d_in, d_out = int(rng.integers(1, 9)), int(rng.integers(1, 11)), int(rng.integers(1, 7))
        x = rng.normal(size=(n, d_in))
        weight = rng.normal(size=(d_out, d_in))
        bias = rng.normal(size=d_out)
        diff = np.abs(dense_affine(x, weight, bias) - brute_dense(x, weight, bias)).max()
        worst_dense = max(worst_dense, float(diff))

    logits = rng.normal(scale=10.0, size=(100, 5))
    probs = softmax(logits)
    sums_ok = np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    shifted = softmax(logits + rng.normal(scale=50.0, size=(100, 1)))
    shift_ok = np.allclose(probs, shifted, atol=1e-12)

    _report(
        4,
        "conv/dense match direct summation; softmax normalized and shift-invariant",
        worst_conv <= 1e-12 and worst_dense <= 1e-12 and sums_ok and shift_ok,
        f"conv err {worst_conv:.1e}, dense err {worst_dense:.1e}",
    )


def test_acceptance_5_learnable_signal(learnable_run):
    gender = learnable_run[("gender", "avg")]
    age = learnable_run[("age", "avg")]
    ok = (
        gender.accuracy >= 0.85
        and gender.accuracy >= gender.majority_accuracy + 0.15
        and age.accuracy >= age.majority_accuracy + 0.20
    )
    _report(
        5,
        "full-signal run clears the accuracy bars on held-out users",
        ok,
        f"gender {gender.accuracy:.3f} (majority {gender.majority_accuracy:.3f}), "
        f"age {age.accuracy:.3f} (majority {age.majority_accuracy:.3f})",
    )


def test_acceptance_6_null_signal(null_run):
    deltas = {
        f"{attr}/{head}": m.accuracy - m.majority_accuracy
        for (attr, head), m in null_run.items()
    }
    worst = max(abs(d) for d in deltas.values())
    detail = ", ".join(f"{k} {v:+.3f}" for k, v in sorted(deltas.items()))
    _report(6, "zero-signal accuracies stay within 3 points of majority", worst <= 0.03, detail)


def test_acceptance_7_svm_head_competitive(learnable_run):
    details = []
    ok = True
    for attr in ("gender", "age"):
        avg_acc = learnable_run[(attr, "avg")].accuracy
        svm_acc = learnable_run[(attr, "svm")].accuracy
        delta = svm_acc - avg_acc
        ok = ok and delta >= -0.02
        details.append(f"{attr} {100 * delta:+.1f} points")
    _report(
        7,
        "svm head within 2 points of the averaging head (reference range +1 to +3)",
        ok,
        "; ".join(details),
    )


def test_acceptance_8_determinism_and_serialization(tmp_path):
    config = SynthConfig(users=30, weeks_per_user=2, signal=1.0, seed=5)
    first, second = generate(config), generate(config)
    synth_ok = first == second

    groups, labels, _ = ingest(text_bytes(first[0]), first[1])
    ds = featurize_users(groups)
    net = NetworkConfig(classes=2, filters=(4, 4, 4, 4, 4, 8), dense=(16, 8))
    train_config = TrainConfig(epochs=2, seed=0, val_fraction=0.0)
    space = LabelSpace.fit("gender", labels.values())
    model_a, _ = train(ds, labels, space, train_config, net)
    model_b, _ = train(ds, labels, space, train_config, net)
    path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(path_a, model_a)
    save_model(path_b, model_b)
    model_ok = path_a.read_bytes() == path_b.read_bytes()

    for name in ("p1.csv", "p2.csv"):
        write_predictions(tmp_path / name, predict_dataset(model_a, ds, head="avg"))
    preds_ok = (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()

    back = load_model(path_a)
    round_ok = all(np.array_equal(back.tensors[k], model_a.tensors[k]) for k in model_a.tensors)

    raw = bytearray(path_a.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    (tmp_path / "bad.bin").write_bytes(bytes(raw))
    try:
        load_model(tmp_path / "bad.bin")
        reject_ok = False
    except ContainerError:
        reject_ok = True

    _report(
        8,
        "byte-identical reruns, bit-exact round trip, corrupted file rejected",
        synth_ok and model_ok and preds_ok and round_ok and reject_ok,
        f"synth {synth_ok}, model {model_ok}, predictions {preds_ok}, "
        f"round-trip {round_ok}, reject {reject_ok}",
    )


def test_acceptance_9_sgd_and_svm_sanity():
    config = downsized_config()
    wins = 0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        params = init_params(config, 1000 + case)
        for name in params.tensors:
            if name.endswith(".b"):
                params.tensors[name] = rng.normal(0.0, 0.1, params.tensors[name].shape)
        x = rng.normal(size=(1, config.in_channels, config.hours, config.days))
        label = [int(rng.integers(config.classes))]
        probs, _, trace = forward_batch(params, x)
        before = cross_entropy(probs, label)
        grads = backward(params, trace, loss_gradient(probs, label))
        velocity = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        sgd_step(params.tensors, velocity, grads, learning_rate=1e-3)
        after = cross_entropy(forward_batch(params, x)[0], label)
        wins += after < before
    sgd_ok = wins >= 99

    worst_rise = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        centers = rng.normal(scale=2.5, size=(3, 8))
        x = np.concatenate([centers[k] + rng.normal(size=(70, 8)) for k in range(3)])
        y = np.repeat(np.arange(3), 70)
        svm = train_linear_svm(x, y, lam=1e-1, epochs=30, seed=seed)
        for curve in svm.objective_history:
            tail = np.array(curve[len(curve) // 2 :])
            if len(tail) > 1:
                worst_rise = max(worst_rise, float(np.diff(tail).max()))
    svm_ok = worst_rise <= 1e-3

    _report(
        9,
        "single sgd steps reduce the sample loss; svm objective tail non-increasing",
        sgd_ok and svm_ok,
        f"{wins}/100 losses decreased, worst svm tail rise {worst_rise:.1e}",
    )
