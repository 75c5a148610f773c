"""Temporal ConvNet over weekly activity tensors: parameters, forward pass, backward.

Hour convolutions (default 4x1 four times, then 12x1: 24-21-18-15-12-1
hours), one closing convolution over the whole day (1x7), each with leaky
ReLU, then two leaky-ReLU dense layers and an affine class map feeding a
softmax. NetworkConfig accepts only that form.

Conv activations are channels first, (C, H, N*W), batch times day
innermost, so hour tap i reads the view a[:, i:i+Hp, :] as one (C, Hp*N*W)
matrix without a copy, and its share of the output, dW and dX is one
matmul; the closing kernel is one matmul on the (N, C*W) flatten.
backward walks forward_batch's layer list in reverse, reusing each layer's
input and leaky-ReLU slope from the trace.

The net computes in its input's floating dtype and casts parameters per
call: float32 (COMPUTE_DTYPE) for train, train-svm and predict, whose
parameters stay float64, and float64 for the finite-difference gradient
check (training.grad_check) that guards the hand-derived backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .featurize import N_CHANNELS, N_DAYS, N_HOURS, LabelSpace, NormStats

if TYPE_CHECKING:
    from .classify import SvmModel

DEFAULT_KERNELS = ((4, 1), (4, 1), (4, 1), (4, 1), (12, 1), (1, 7))
DEFAULT_FILTERS = (16, 16, 16, 16, 32, 64)
DEFAULT_DENSE = (128, 64)
COMPUTE_DTYPE = np.float32  # what train, train-svm and predict run the net in


@dataclass(frozen=True)
class NetworkConfig:
    """Layer stack description; validates the kernels and the shape chain on construction."""

    classes: int
    in_channels: int = N_CHANNELS
    hours: int = N_HOURS
    days: int = N_DAYS
    kernels: tuple[tuple[int, int], ...] = DEFAULT_KERNELS
    filters: tuple[int, ...] = DEFAULT_FILTERS
    dense: tuple[int, int] = DEFAULT_DENSE
    alpha: float = 0.01

    def __post_init__(self):
        for name in ("classes", "in_channels", "hours", "days"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "kernels", tuple((int(h), int(w)) for h, w in self.kernels))
        object.__setattr__(self, "filters", tuple(int(f) for f in self.filters))
        object.__setattr__(self, "dense", tuple(int(d) for d in self.dense))
        if self.classes < 2:
            raise ValueError("need at least 2 output classes")
        if len(self.kernels) != len(self.filters) or not self.kernels:
            raise ValueError("kernels and filters must be non-empty and equally long")
        if len(self.dense) != 2:
            raise ValueError("exactly two dense widths expected")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"leaky slope {self.alpha} outside [0, 1)")
        if min(self.filters) < 1 or min(self.dense) < 1:
            raise ValueError("layer widths must be positive")
        *hour, closing = self.kernels
        if any(kh < 1 or kw != 1 for kh, kw in hour) or closing != (1, self.days):
            raise ValueError(f"kernels {self.kernels} are not kh x 1, then 1 x {self.days}")
        chain = self.spatial_chain()
        if chain[-1] != (1, 1):
            raise ValueError(f"shape chain {chain} does not close on 1x1")

    def spatial_chain(self) -> list[tuple[int, int]]:
        """(H, W) after the input and after each conv; raises if a kernel overruns."""
        h, w = self.hours, self.days
        chain = [(h, w)]
        for i, (kh, kw) in enumerate(self.kernels, start=1):
            h, w = h - kh + 1, w - kw + 1
            if h < 1 or w < 1:
                raise ValueError(f"conv{i} kernel {kh}x{kw} larger than its {chain[-1]} input")
            chain.append((h, w))
        return chain

    @property
    def feature_dim(self) -> int:
        """Width of the last hidden layer (the SVM feature space)."""
        return self.dense[1]


def downsized_config(classes: int = 3) -> NetworkConfig:
    """Small config for finite-difference gradient checking: 2x10x7 input,
    hour kernels 2,2,2,2,6 (hours 10-9-8-7-6-1), then the 1x7 day kernel."""
    kernels = ((2, 1), (2, 1), (2, 1), (2, 1), (6, 1), (1, 7))
    return NetworkConfig(classes, 2, 10, 7, kernels, filters=(2,) * 6, dense=(8, 6))


def param_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Parameter tensor shapes in canonical order (also the file manifest order)."""
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = config.in_channels
    for i, ((kh, kw), f) in enumerate(zip(config.kernels, config.filters), start=1):
        shapes[f"conv{i}.w"] = (f, c_in, kh, kw)
        shapes[f"conv{i}.b"] = (f,)
        c_in = f
    d7, d8 = config.dense
    for name, shape in ("dense7", (d7, c_in)), ("dense8", (d8, d7)), ("head", (config.classes, d8)):
        shapes[f"{name}.w"], shapes[f"{name}.b"] = shape, shape[:1]
    return shapes


@dataclass
class ModelParams:
    """All learned tensors plus the metadata a trained model file carries."""

    config: NetworkConfig
    tensors: dict[str, np.ndarray]
    norm_stats: NormStats | None = None
    label_space: LabelSpace | None = None
    svm: "SvmModel | None" = None


def init_params(config: NetworkConfig, seed: int) -> ModelParams:
    """He-style init adjusted for the leaky slope: Var = 2/((1+alpha^2) fan_in).

    Weights are zero-mean Gaussians, biases zero; bit-identical for a seed.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        std = math.sqrt(2.0 / ((1.0 + config.alpha**2) * math.prod(shape[1:])))
        tensors[name] = np.zeros(shape) if name.endswith(".b") else rng.normal(0.0, std, shape)
    return ModelParams(config, tensors)


def _float_array(x) -> np.ndarray:
    """x as an array, widened to float64 unless it already holds floats."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def _day_rows(x: np.ndarray, days: int) -> np.ndarray:
    """The (N, C*days) flatten of a one-hour (C, 1, N*days) activation."""
    c, _, m = x.shape
    return x.reshape(c, m // days, days).transpose(1, 0, 2).reshape(m // days, c * days)


def _hour_taps(weights: np.ndarray, dtype) -> np.ndarray:
    """An hour kernel (C_out, C_in, kh, 1) as kh contiguous (C_out, C_in) tap matrices."""
    return np.ascontiguousarray(weights[:, :, :, 0].transpose(2, 0, 1), dtype=dtype)


def conv2d_valid(x, weights, bias) -> np.ndarray:
    """Valid cross-correlation of a channels-first (C, H, N*W) batch, in x's dtype.

    weights (C_out, C_in, kh, kw) is an hour kernel (kw == 1) or a closing
    kernel over one-hour rows of kw days (kh == H == 1). The output is
    (C_out, H-kh+1, N*(W-kw+1)) with
    out[o, y, n*Wp+d] = b[o] + sum x[c, y+i, n*W+d+j] * w[o, c, i, j].
    """
    x = _float_array(x)
    c_out, c_in, kh, kw = weights.shape
    if x.ndim != 3 or x.shape[0] != c_in:
        raise ValueError(f"expected a ({c_in}, H, N*W) input, got shape {x.shape}")
    c, h, m = x.shape
    b = bias.astype(x.dtype, copy=False)
    if kw > 1:
        if kh != 1 or h != 1 or m % kw:
            raise ValueError(f"a {kh}x{kw} kernel needs one-hour rows of {kw} days, not {x.shape}")
        out = _day_rows(x, kw) @ weights.reshape(c_out, -1).T.astype(x.dtype) + b
        return out.T[:, None, :]  # (C_out, 1, N), a view of the (N, C_out) product
    hp = h - kh + 1
    if hp < 1:
        raise ValueError(f"a {kh}x1 kernel is taller than the {h}-hour input")
    taps, x2 = _hour_taps(weights, x.dtype), x.reshape(c, h * m)
    out = taps[0] @ x2[:, : hp * m]
    for i in range(1, kh):
        out += taps[i] @ x2[:, i * m : (i + hp) * m]
    out += b[:, None]
    return out.reshape(c_out, hp, m)


def _conv_grads(x: np.ndarray, weights: np.ndarray, dz: np.ndarray, need_dx: bool = True):
    """(dW, dX) of conv2d_valid(x, weights, .) for its output gradient dz; dX only if need_dx."""
    c_out, c_in, kh, kw = weights.shape
    c, h, m = x.shape
    dz2, dx = dz.reshape(c_out, -1), None
    if kw > 1:
        rows = _day_rows(x, kw)
        dw = (dz2 @ rows).reshape(weights.shape)
        if need_dx:
            drows = dz2.T @ weights.reshape(c_out, -1).astype(dz.dtype)
            dx = drows.reshape(-1, c, kw).transpose(1, 0, 2).reshape(c, 1, m)
        return dw, dx
    hp, x2 = dz.shape[1], x.reshape(c, h * m)
    dw = np.empty((c_out, c_in, kh, 1), dtype=dz.dtype)
    for i in range(kh):
        dw[:, :, i, 0] = dz2 @ x2[:, i * m : (i + hp) * m].T
    if need_dx:
        taps = _hour_taps(weights, dz.dtype)
        dx = np.empty((c, h * m), dtype=dz.dtype)
        np.matmul(taps[0].T, dz2, out=dx[:, : hp * m])
        dx[:, hp * m :] = 0
        for i in range(1, kh):
            dx[:, i * m : (i + hp) * m] += taps[i].T @ dz2
        dx = dx.reshape(c, h, m)
    return dw, dx


def dense_affine(x, weights, bias) -> np.ndarray:
    """W x + b row-wise for an (N, d) batch, in x's dtype."""
    x = _float_array(x)
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"expected an (N, {weights.shape[1]}) input, got shape {x.shape}")
    return x @ weights.T.astype(x.dtype, copy=False) + bias.astype(x.dtype, copy=False)


def softmax(logits) -> np.ndarray:
    """Numerically stable exp-normalize over the last axis, in the logits' dtype."""
    z = np.asarray(logits)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_names(config: NetworkConfig) -> list[str]:
    """conv1..convL, dense7, dense8, head: the order forward_batch walks."""
    return [f"conv{i}" for i in range(1, len(config.kernels) + 1)] + ["dense7", "dense8", "head"]


@dataclass
class ForwardTrace:
    """Per-call cache for backward: each layer's input and leaky-ReLU slope
    where(z >= 0, 1, alpha) of its pre-activation z (None for the head)."""

    layers: list[tuple[np.ndarray, np.ndarray | None]]
    logits: np.ndarray
    probs: np.ndarray


def forward_batch(params: ModelParams, x) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """Full forward for an (N, C, H, W) batch, in the batch's floating dtype.

    Returns (probs (N,K), features (N, dense8), trace); the features are the
    last hidden activation, used for softmax averaging and as the SVM
    feature space.
    """
    cfg = params.config
    x, expected = _float_array(x), (cfg.in_channels, cfg.hours, cfg.days)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ValueError(f"input shape {x.shape} does not match (N, {expected})")
    last_conv = f"conv{len(cfg.kernels)}"
    slopes = np.array([cfg.alpha, 1.0], dtype=x.dtype)
    layers = []
    a = np.ascontiguousarray(x.transpose(1, 2, 0, 3)).reshape(cfg.in_channels, cfg.hours, -1)
    for name in _layer_names(cfg):
        w, b = params.tensors[f"{name}.w"], params.tensors[f"{name}.b"]
        if w.ndim == 4:
            z = conv2d_valid(a, w, b)
            if name == last_conv:
                z = z.reshape(len(b), len(x)).T  # the 1x1 extent flattens to (N, C)
        else:
            z = dense_affine(a, w, b)
        # a table lookup beats np.where with scalar arms; the indices are 0
        # or 1, so mode="wrap" only skips the bounds check
        slope = None if name == "head" else slopes.take((z >= 0).view(np.uint8), mode="wrap")
        layers.append((a, slope))
        a = z if slope is None else z * slope
    probs = softmax(a)
    return probs, layers[-1][0], ForwardTrace(layers, a, probs)


def backward(params: ModelParams, trace: ForwardTrace, dlogits) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients for every parameter tensor, in the trace's dtype.

    dlogits is the (N,K) loss gradient at the logits of the forward_batch
    call that produced the trace. Neither params nor trace are mutated;
    gradient shapes mirror parameter shapes. conv1's unused dX is skipped.
    """
    da = np.asarray(dlogits, dtype=trace.logits.dtype)
    if da.shape != trace.logits.shape:
        raise ValueError("upstream gradient does not match the forward trace")
    names = _layer_names(params.config)
    last_conv = len(params.config.kernels) - 1
    g: dict[str, np.ndarray] = {}
    for k in reversed(range(len(names))):
        (x_in, slope), w = trace.layers[k], params.tensors[f"{names[k]}.w"]
        dz = da if slope is None else da * slope
        if w.ndim == 4:
            if k == last_conv:
                dz = dz.T.reshape(len(w), 1, -1)  # back to the conv layout (C, 1, N)
            g[f"{names[k]}.w"], da = _conv_grads(x_in, w, dz, need_dx=k > 0)
            g[f"{names[k]}.b"] = dz.sum(axis=(1, 2))
        else:
            g[f"{names[k]}.w"] = dz.T @ x_in
            g[f"{names[k]}.b"] = dz.sum(axis=0)
            da = dz @ w.astype(dz.dtype, copy=False)
    return g
