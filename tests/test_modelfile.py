import math
from datetime import date, timedelta

import numpy as np
import pytest

from cdrnet.classify import SvmModel, predict_dataset
from cdrnet.cli import run
from cdrnet.container import (
    ChecksumError,
    ContainerError,
    FormatVersionError,
    read_container,
    write_container,
)
from cdrnet.featurize import NormStats, WeekId, fit_normalizer, save_tensor_dataset
from cdrnet.labels import LabelSpace
from cdrnet.modelfile import MODEL_MAGIC, load_model, save_model
from cdrnet.net import NetworkConfig, downsized_config, init_params, param_shapes
from cdrnet.scoring import write_predictions

from oracles import dense_dataset


def _model(with_extras=True):
    params = init_params(downsized_config(), 7)
    if with_extras:
        params.norm_stats = NormStats(mean=np.arange(2.0), std=np.array([1.0, 2.0]))
        params.label_space = LabelSpace("age", ("[0,28)", "[28,38)", "[38,inf)"), (28, 38))
        params.svm = SvmModel(
            weights=np.arange(18.0).reshape(3, 6),
            bias=np.array([0.1, -0.2, 0.3]),
            lam=1e-4,
            feature_mean=np.zeros(6),
            feature_std=np.ones(6),
        )
    return params


def test_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "m.bin"
    params = _model()
    save_model(path, params)
    back = load_model(path)
    assert back.config == params.config
    for name, tensor in params.tensors.items():  # the float32 net, from float64 masters
        assert back.tensors[name].dtype == np.float32
        np.testing.assert_array_equal(back.tensors[name], tensor.astype(np.float32))
    np.testing.assert_array_equal(back.norm_stats.mean, params.norm_stats.mean)
    np.testing.assert_array_equal(back.norm_stats.std, params.norm_stats.std)
    assert back.label_space.attribute == "age"
    assert back.label_space.class_labels == params.label_space.class_labels
    assert back.label_space.age_edges == (28, 38)
    np.testing.assert_array_equal(back.svm.weights, params.svm.weights)
    np.testing.assert_array_equal(back.svm.bias, params.svm.bias)
    np.testing.assert_array_equal(back.svm.feature_mean, params.svm.feature_mean)
    np.testing.assert_array_equal(back.svm.feature_std, params.svm.feature_std)
    assert back.svm.lam == params.svm.lam


def test_bare_model_round_trip(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, _model(with_extras=False))
    back = load_model(path)
    assert back.norm_stats is None
    assert back.svm is None
    assert back.label_space is None


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(a, _model())
    save_model(b, _model())
    assert a.read_bytes() == b.read_bytes()


def test_resaved_model_is_identical(tmp_path):
    first, second = tmp_path / "1.bin", tmp_path / "2.bin"
    save_model(first, _model())
    save_model(second, load_model(first))
    assert first.read_bytes() == second.read_bytes()


def test_svm_objective_history_not_serialized(tmp_path):
    params = _model()
    params.svm.objective_history = [[3.0, 2.0], [2.5, 2.0], [2.2, 2.0]]
    path = tmp_path / "m.bin"
    save_model(path, params)
    assert load_model(path).svm.objective_history == []


def test_corrupted_model_rejected(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, _model())
    raw = bytearray(path.read_bytes())
    raw[-40] ^= 0x01  # payload byte near the end
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_truncated_model_rejected(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, _model())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ContainerError):
        load_model(path)


def test_foreign_file_rejected(tmp_path):
    from cdrnet.container import write_container

    path = tmp_path / "other.bin"
    write_container(path, "CDRTENSOR/1", {}, {"x": np.zeros(3)})
    with pytest.raises(FormatVersionError):
        load_model(path)


def test_nondefault_geometry_survives_round_trip(tmp_path):
    cfg = NetworkConfig(
        classes=5,
        in_channels=3,
        hours=12,
        days=7,
        kernels=((3, 1), (3, 1), (3, 1), (3, 1), (4, 1), (1, 7)),
        filters=(4, 4, 4, 4, 8, 8),
        dense=(10, 6),
        alpha=0.05,
    )
    path = tmp_path / "m.bin"
    save_model(path, init_params(cfg, 1))
    assert load_model(path).config == cfg


def _trained_like(seed=5):
    """A default 2-class model with norm stats, label space and a random SVM head,
    and a tensor dataset of three users for it."""
    rng = np.random.default_rng(seed)
    monday = date(2024, 1, 1)
    users = ["a", "a", "b", "c", "c", "c"]
    weeks = [WeekId(monday + timedelta(days=7 * i)) for i in range(len(users))]
    ds = dense_dataset(users, weeks, rng.poisson(1.5, size=(len(users), 8, 24, 7)))
    params = init_params(NetworkConfig(classes=2), seed)
    params.norm_stats = fit_normalizer(ds)
    params.label_space = LabelSpace("gender", ("f", "m"))
    d = params.config.feature_dim
    params.svm = SvmModel(
        weights=rng.normal(size=(2, d)),
        bias=rng.normal(size=2),
        lam=1e-4,
        feature_mean=rng.normal(size=d),
        feature_std=rng.uniform(0.5, 2.0, size=d),
    )
    return params, ds


def _rewrite(src, dst, edit):
    """Copy a model file through edit(arrays), with a valid checksum."""
    header, arrays = read_container(src, MODEL_MAGIC)
    edit(arrays)
    write_container(dst, MODEL_MAGIC, header, arrays)


def test_f8_net_tensors_load_as_float32_and_predict_the_same_bytes(tmp_path):
    params, ds = _trained_like()
    new, old = tmp_path / "new.bin", tmp_path / "old.bin"
    save_model(new, params)
    # the layout written before the net was stored as <f4
    net = {name: params.tensors[name] for name in param_shapes(params.config)}
    _rewrite(new, old, lambda arrays: arrays.update(net))
    _, arrays = read_container(old, MODEL_MAGIC)
    assert arrays["conv1.w"].dtype == np.float64
    from_old, from_new = load_model(old), load_model(new)
    for name, tensor in from_new.tensors.items():
        assert from_old.tensors[name].dtype == tensor.dtype == np.float32
        np.testing.assert_array_equal(from_old.tensors[name], tensor)
    for head in ("avg", "svm"):
        a, b = tmp_path / f"old_{head}.csv", tmp_path / f"new_{head}.csv"
        write_predictions(a, predict_dataset(from_old, ds, head=head), from_old.label_space)
        write_predictions(b, predict_dataset(from_new, ds, head=head), from_new.label_space)
        assert a.read_bytes() == b.read_bytes()


def _put(value):
    """An edit that makes value the first entry of dense7.b, widened to float64."""

    def edit(arrays):
        arrays["dense7.b"] = arrays["dense7.b"].astype(np.float64)
        arrays["dense7.b"][0] = value

    return edit


@pytest.mark.parametrize("edit, reason", [
    (lambda a: a.update({"dense7.b": a["dense7.b"].astype("<i8")}), "<i8"),
    (lambda a: a.update({"dense7.b": a["dense7.b"].astype("|u1")}), "|u1"),
    (_put(np.nan), "finite"),
    (_put(1e39), "finite"),  # finite in an older <f8 file, not in float32
])
def test_a_net_tensor_that_is_not_a_finite_float_exits_two(tmp_path, capsys, edit, reason):
    params, ds = _trained_like()
    good, bad, tensors = tmp_path / "good.bin", tmp_path / "bad.bin", tmp_path / "weeks.bin"
    save_model(good, params)
    save_tensor_dataset(tensors, ds)
    _rewrite(good, bad, edit)
    out = tmp_path / "preds.csv"
    capsys.readouterr()
    assert run(["predict", "--model", str(bad), "--tensors", str(tensors), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(bad) in err[0] and "dense7.b" in err[0] and reason in err[0]
    assert not out.exists()


def test_the_default_model_stores_its_net_in_four_bytes_a_parameter(tmp_path):
    params, _ = _trained_like()
    path = tmp_path / "m.bin"
    save_model(path, params)
    raw = path.read_bytes()
    magic_line = len(MODEL_MAGIC) + 1
    header_len = int.from_bytes(raw[magic_line : magic_line + 8], "little")
    payload = len(raw) - magic_line - 8 - header_len - 32
    net = sum(math.prod(s) for s in param_shapes(params.config).values())
    assert net == 40_930
    f8 = 2 * 8 + 2 * 64 + 2 + 2 * 64  # norm mean and std; svm w, b, feature mean and std
    assert payload == 4 * net + 8 * f8
