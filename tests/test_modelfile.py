import numpy as np
import pytest

from cdrnet.classify import SvmModel
from cdrnet.container import ChecksumError, ContainerError, FormatVersionError
from cdrnet.featurize import LabelSpace, NormStats
from cdrnet.modelfile import load_model, save_model
from cdrnet.net import NetworkConfig, downsized_config, init_params


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
    for name, tensor in params.tensors.items():
        np.testing.assert_array_equal(back.tensors[name], tensor)
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
