"""Save and load trained models as a single binary file (magic "CDRNET/1").

The file is the generic checksummed container from container.py: a JSON
header with the layer geometry, the label space (attribute, class_labels
and, for age, age_edges) and an array manifest, followed by the raw float64
parameter payload. A model round trips bit-exactly, and any flipped byte is
rejected at load time.
"""

from __future__ import annotations

import numpy as np

from .container import ContainerError, read_container, write_container
from .featurize import LabelSpace, NormStats
from .net import ModelParams, NetworkConfig, param_shapes

MODEL_MAGIC = "CDRNET/1"


def _config_header(config: NetworkConfig) -> dict:
    return {
        "classes": config.classes,
        "in_channels": config.in_channels,
        "hours": config.hours,
        "days": config.days,
        "kernels": [list(k) for k in config.kernels],
        "filters": list(config.filters),
        "dense": list(config.dense),
        "alpha": config.alpha,
    }


def _config_from_header(h: dict) -> NetworkConfig:
    return NetworkConfig(
        classes=int(h["classes"]),
        in_channels=int(h["in_channels"]),
        hours=int(h["hours"]),
        days=int(h["days"]),
        kernels=tuple((int(a), int(b)) for a, b in h["kernels"]),
        filters=tuple(int(f) for f in h["filters"]),
        dense=tuple(int(d) for d in h["dense"]),
        alpha=float(h["alpha"]),
    )


def save_model(path, params: ModelParams) -> None:
    """Write a model file; arrays go in canonical parameter order."""
    header: dict = {"config": _config_header(params.config)}
    space = params.label_space
    if space is not None:
        header["attribute"] = space.attribute
        header["class_labels"] = list(space.class_labels)
        if space.age_edges is not None:
            header["age_edges"] = list(space.age_edges)

    arrays: dict[str, np.ndarray] = {}
    for name in param_shapes(params.config):
        arrays[name] = params.tensors[name]
    if params.norm_stats is not None:
        arrays["norm.mean"] = params.norm_stats.mean
        arrays["norm.std"] = params.norm_stats.std
    if params.svm is not None:
        header["svm"] = {"lam": params.svm.lam}
        arrays["svm.w"] = params.svm.weights
        arrays["svm.b"] = params.svm.bias
        arrays["svm.feature_mean"] = params.svm.feature_mean
        arrays["svm.feature_std"] = params.svm.feature_std
    write_container(path, MODEL_MAGIC, header, arrays)


def _label_space_from_header(path, h: dict, classes: int) -> LabelSpace | None:
    if "attribute" not in h:
        return None
    labels = h.get("class_labels")
    if not isinstance(labels, list) or len(labels) != classes:
        raise ContainerError(f"{path}: class_labels {labels!r} must hold {classes} labels")
    try:
        return LabelSpace(h["attribute"], tuple(labels), h.get("age_edges"))
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: {exc}") from None


def load_model(path) -> ModelParams:
    """Read a model file back; validates magic, checksum, tensor shapes and the label space."""
    from .classify import SvmModel

    header, arrays = read_container(path, MODEL_MAGIC)
    config = _config_from_header(header["config"])
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        arr = arrays[name]
        if arr.shape != shape:
            raise ValueError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        tensors[name] = arr

    label_space = _label_space_from_header(path, header, config.classes)
    norm_stats = None
    if "norm.mean" in arrays:
        norm_stats = NormStats(mean=arrays["norm.mean"], std=arrays["norm.std"])

    svm = None
    if "svm.w" in arrays:
        svm = SvmModel(
            weights=arrays["svm.w"],
            bias=arrays["svm.b"],
            lam=float(header["svm"]["lam"]),
            feature_mean=arrays["svm.feature_mean"],
            feature_std=arrays["svm.feature_std"],
        )

    return ModelParams(
        config=config,
        tensors=tensors,
        norm_stats=norm_stats,
        label_space=label_space,
        svm=svm,
    )
