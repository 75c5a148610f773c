"""Save and load trained models as a single binary file (magic "CDRNET/1").

The file is the generic checksummed container from container.py: a JSON
header with the layer geometry, the label space (attribute, class_labels
and, for age, age_edges) and an array manifest, followed by the raw float64
parameter payload. A model round trips bit-exactly, and any flipped byte is
rejected at load time.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from .container import ContainerError, read_container, write_container
from .featurize import LabelSpace, NormStats
from .net import ModelParams, NetworkConfig, param_shapes

MODEL_MAGIC = "CDRNET/1"


# file name of each SVM head array: (SvmModel field, shape for a network config)
_SVM_ARRAYS = {
    "svm.w": ("weights", lambda c: (c.classes, c.feature_dim)),
    "svm.b": ("bias", lambda c: (c.classes,)),
    "svm.feature_mean": ("feature_mean", lambda c: (c.feature_dim,)),
    "svm.feature_std": ("feature_std", lambda c: (c.feature_dim,)),
}


def save_model(path, params: ModelParams) -> None:
    """Write a model file; arrays go in canonical parameter order."""
    header: dict = {"config": asdict(params.config)}
    if params.label_space is not None:
        header.update((k, v) for k, v in asdict(params.label_space).items() if v is not None)

    arrays = {name: params.tensors[name] for name in param_shapes(params.config)}
    if params.norm_stats is not None:
        arrays["norm.mean"] = params.norm_stats.mean
        arrays["norm.std"] = params.norm_stats.std
    if params.svm is not None:
        header["svm"] = {"lam": params.svm.lam}
        arrays.update({name: getattr(params.svm, f) for name, (f, _) in _SVM_ARRAYS.items()})
    write_container(path, MODEL_MAGIC, header, arrays)


def _label_space_from_header(path, h: dict, classes: int) -> LabelSpace | None:
    if "attribute" not in h:
        return None
    labels = h.get("class_labels")
    if not isinstance(labels, list) or len(labels) != classes:
        raise ContainerError(f"{path}: class_labels {labels!r} must hold {classes} labels")
    try:
        return LabelSpace(**{f.name: h.get(f.name) for f in fields(LabelSpace)})
    except OverflowError as exc:  # an infinite age edge
        raise ContainerError(f"{path}: malformed age_edges: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: {exc}") from None


def load_model(path) -> ModelParams:
    """Read a model file back; validates magic, checksum, tensor shapes and the label space."""
    from .classify import SvmModel

    header, arrays = read_container(path, MODEL_MAGIC)
    try:
        h = header["config"]
        config = NetworkConfig(**{f.name: h[f.name] for f in fields(NetworkConfig)})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContainerError(f"{path}: malformed config: {exc}") from None
    shapes = param_shapes(config)
    if "norm.mean" in arrays:
        shapes.update({"norm.mean": (config.in_channels,), "norm.std": (config.in_channels,)})
    if "svm.w" in arrays:
        shapes.update({name: shape(config) for name, (_, shape) in _SVM_ARRAYS.items()})
    for name, shape in shapes.items():
        arr = arrays.get(name)
        if arr is None or arr.shape != shape:
            got = "missing" if arr is None else f"of shape {arr.shape}"
            raise ContainerError(f"{path}: array {name} {got}, expected {shape}")

    label_space = _label_space_from_header(path, header, config.classes)
    norm_stats = None
    if "norm.mean" in arrays:
        norm_stats = NormStats(mean=arrays["norm.mean"], std=arrays["norm.std"])

    svm = None
    if "svm.w" in arrays:
        try:
            lam = float(header["svm"]["lam"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ContainerError(f"{path}: malformed svm: {exc}") from None
        svm = SvmModel(lam=lam, **{f: arrays[name] for name, (f, _) in _SVM_ARRAYS.items()})

    return ModelParams(
        config=config,
        tensors={name: arrays[name] for name in param_shapes(config)},
        norm_stats=norm_stats,
        label_space=label_space,
        svm=svm,
    )
