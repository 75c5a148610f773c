"""Save and load trained models as a single binary file (magic "CDRNET/1").

The file is the generic checksummed container from container.py: a JSON
header with the layer geometry, the label space (attribute, class_labels
and, for age, age_edges) and an array manifest, followed by the raw
payload: the net tensors as <f4, the float32 (COMPUTE_DTYPE) that every
stage runs the net in, then the norm stats and SVM head as <f8, the
float64 they are used in. A model round trips bit-exactly, and any flipped
byte is rejected at load time. A file written with <f8 net tensors loads
cast to float32.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from .container import ContainerError, read_container, write_container
from .featurize import STD_FLOOR, NormStats
from .labels import LabelSpace
from .net import COMPUTE_DTYPE, ModelParams, NetworkConfig, param_shapes

MODEL_MAGIC = "CDRNET/1"


# file name of each SVM head array: (SvmModel field, shape for a network config)
_SVM_ARRAYS = {
    "svm.w": ("weights", lambda c: (c.classes, c.feature_dim)),
    "svm.b": ("bias", lambda c: (c.classes,)),
    "svm.feature_mean": ("feature_mean", lambda c: (c.feature_dim,)),
    "svm.feature_std": ("feature_std", lambda c: (c.feature_dim,)),
}


def save_model(path, params: ModelParams) -> None:
    """Write a model file; arrays go in canonical parameter order.

    The net tensors are cast to COMPUTE_DTYPE, the norm stats and SVM arrays to float64.
    """
    header: dict = {"config": asdict(params.config)}
    if params.label_space is not None:
        header.update((k, v) for k, v in asdict(params.label_space).items() if v is not None)

    shapes = param_shapes(params.config)
    arrays = {name: np.asarray(params.tensors[name], COMPUTE_DTYPE) for name in shapes}
    f8 = {}
    if params.norm_stats is not None:
        f8.update({"norm.mean": params.norm_stats.mean, "norm.std": params.norm_stats.std})
    if params.svm is not None:
        header["svm"] = {"lam": params.svm.lam}
        f8.update({name: getattr(params.svm, f) for name, (f, _) in _SVM_ARRAYS.items()})
    arrays.update({name: np.asarray(a, np.float64) for name, a in f8.items()})
    write_container(path, MODEL_MAGIC, header, arrays)


def _label_space_from_header(path, h: dict, classes: int) -> LabelSpace | None:
    if "attribute" not in h:
        return None
    labels = h.get("class_labels")
    if not isinstance(labels, list) or len(labels) != classes:
        raise ContainerError(f"{path}: class_labels {labels!r} must hold {classes} labels")
    try:
        return LabelSpace(**{f.name: h.get(f.name) for f in fields(LabelSpace)})
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: {exc}") from None


def load_model(path) -> ModelParams:
    """Read a model file back.

    Validates magic, checksum, tensor shapes and dtypes, the label space and
    the norm stats. Every array must be floating point; the net tensors come
    back as COMPUTE_DTYPE, and must be finite there.
    """
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
        if arr.dtype.kind != "f":
            raise ContainerError(
                f"{path}: array {name} of dtype {arr.dtype.str}, expected <f4 or <f8"
            )

    label_space = _label_space_from_header(path, header, config.classes)
    norm_stats = None
    if "norm.mean" in arrays:
        mean, std = arrays["norm.mean"], arrays["norm.std"]
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std >= STD_FLOOR).all()):
            raise ContainerError(
                f"{path}: norm stats must be finite with std at least {STD_FLOOR:g}"
            )
        norm_stats = NormStats(mean=mean, std=std)

    svm = None
    if "svm.w" in arrays:
        try:
            lam = float(header["svm"]["lam"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ContainerError(f"{path}: malformed svm: {exc}") from None
        svm = SvmModel(lam=lam, **{f: arrays[name] for name, (f, _) in _SVM_ARRAYS.items()})

    names = param_shapes(config)
    with np.errstate(over="ignore"):  # an overflow is refused below, not printed
        net = {name: arrays[name].astype(COMPUTE_DTYPE, copy=False) for name in names}
    for name, tensor in net.items():
        if not np.isfinite(tensor).all():
            raise ContainerError(f"{path}: array {name} is not finite in float32")
    return ModelParams(
        config=config,
        tensors=net,
        norm_stats=norm_stats,
        label_space=label_space,
        svm=svm,
    )
