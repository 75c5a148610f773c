"""Temporal ConvNet over weekly activity tensors: parameters, forward pass, backward.

Hour convolutions (default 4x1 four times, then 12x1: 24-21-18-15-12-1
hours), one closing convolution over the whole day (1x7), each with leaky
ReLU, then two leaky-ReLU dense layers and an affine class map feeding a
softmax. NetworkConfig accepts only that form.

Conv activations are hour-major, (H, C, N*W), batch times day innermost:
hours y..y+kh-1 are one contiguous (kh*C, N*W) block, and the blocks of all
output hours are one overlapping view, an unrolled input without the copy
(Chellapilla et al. 2006), so an hour conv is GEMMs with K = kh*C_in. The
closing kernel is one matmul on the (N, C*W) flatten. backward walks the
layers in reverse, reusing each one's input and leaky-ReLU slope.

The net computes in its input's floating dtype and casts parameters per
call: float32 (COMPUTE_DTYPE) for train, train-svm and predict, and float64
for the finite-difference gradient check (training.grad_check) that guards
the hand-derived backward. A trained or loaded model holds COMPUTE_DTYPE
parameters, so for train-svm and predict the casts are no-ops; they serve
train's float64 master weights and grad_check's float64 run.
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
            raise ValueError(f"expected {len(self.kernels)} counts, one per conv layer, in filters")
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
    """He-style init adjusted for the leaky slope, Var = 2/((1+alpha^2) fan_in): zero-mean
    Gaussian weights and zero biases, bit-identical for a seed."""
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
    """The (N, C*days) flatten of a one-hour (1, C, N*days) activation."""
    _, c, m = x.shape
    return x.reshape(c, m // days, days).transpose(1, 0, 2).reshape(m // days, c * days)


def _windows(a: np.ndarray, kh: int) -> np.ndarray:
    """Read-only (H-kh+1, kh*C, M) view of an (H, C, M) array; window y is hours y..y+kh-1."""
    a = np.ascontiguousarray(a)
    h, c, m = a.shape
    # the view as_strided builds, over a read-only buffer, at a quarter of its cost
    return np.ndarray((h - kh + 1, kh * c, m), a.dtype, memoryview(a).toreadonly(), 0, a.strides)


def _stacked(weights: np.ndarray, dtype) -> np.ndarray:
    """An hour kernel (C_out, C_in, kh, 1) as one tap-major (C_out, kh*C_in) matrix in dtype.

    The cast matters only for train's float64 masters and grad_check's float64 run.
    """
    w = np.ascontiguousarray(weights[:, :, :, 0].transpose(0, 2, 1), dtype=dtype)
    return w.reshape(len(w), -1)


def conv2d_valid(x, weights, bias) -> np.ndarray:
    """Valid cross-correlation of an hour-major (H, C, N*W) batch, in x's dtype.

    weights (C_out, C_in, kh, kw) is an hour kernel (kw == 1) or a closing
    kernel over one-hour rows of kw days (kh == H == 1). The output is
    (H-kh+1, C_out, N*(W-kw+1)) with
    out[y, o, n*Wp+d] = b[o] + sum x[y+i, c, n*W+d+j] * w[o, c, i, j].
    """
    x = _float_array(x)
    c_out, c_in, kh, kw = weights.shape
    if x.ndim != 3 or x.shape[1] != c_in:
        raise ValueError(f"expected an (H, {c_in}, N*W) input, got shape {x.shape}")
    h, _, m = x.shape
    b = bias.astype(x.dtype, copy=False)
    if kw > 1:
        if kh != 1 or h != 1 or m % kw:
            raise ValueError(f"a {kh}x{kw} kernel needs one-hour rows of {kw} days, not {x.shape}")
        out = _day_rows(x, kw) @ weights.reshape(c_out, -1).T.astype(x.dtype) + b
        return out.T[None]  # (1, C_out, N), a view of the (N, C_out) product
    if kh > h:
        raise ValueError(f"a {kh}x1 kernel is taller than the {h}-hour input")
    out = np.matmul(_stacked(weights, x.dtype), _windows(x, kh))
    out += b[:, None]
    return out


def _conv_grads(x: np.ndarray, weights: np.ndarray, dz: np.ndarray, need_dx: bool = True):
    """(dW, dX) of conv2d_valid(x, weights, .) for its output gradient dz; dX only if need_dx.

    An hour kernel's dW sums dz[y] times window y's transpose over hours y. dX is
    chosen by shape: one GEMM, stacked weight transposed times dz[0], when kh == H;
    else the flipped stacked weight times the windows of dz padded by kh-1 zero hours.
    """
    c_out, c_in, kh, kw = weights.shape
    if kw > 1:
        dw = (dz[0] @ _day_rows(x, kw)).reshape(weights.shape)
        if not need_dx:
            return dw, None
        drows = dz[0].T @ weights.reshape(c_out, -1).astype(dz.dtype)
        return dw, drows.reshape(-1, c_in, kw).transpose(1, 0, 2).reshape(x.shape)
    hp = dz.shape[0]
    dw = np.matmul(dz, _windows(x, kh).transpose(0, 2, 1)).sum(axis=0)
    dw = dw.reshape(c_out, kh, c_in).transpose(0, 2, 1)[..., None]
    if not need_dx:
        return dw, None
    if hp == 1:
        return dw, (_stacked(weights, dz.dtype).T @ dz[0]).reshape(x.shape)
    padded = np.zeros((hp + 2 * (kh - 1), *dz.shape[1:]), dtype=dz.dtype)
    padded[kh - 1 : kh - 1 + hp] = dz
    flipped = _stacked(weights.transpose(1, 0, 2, 3)[:, :, ::-1], dz.dtype)
    return dw, np.matmul(flipped, _windows(padded, kh))


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


def _leaky_slope(z: np.ndarray, alpha: float) -> np.ndarray:
    """where(z >= 0, 1, alpha) in z's dtype, bit for bit for alpha in [0, 1), in two passes."""
    slope = (z >= 0).astype(z.dtype)
    return np.maximum(slope, alpha, out=slope)


@dataclass
class ForwardTrace:
    """Per-call cache for backward: each layer's input and leaky-ReLU slope
    where(z >= 0, 1, alpha) of its pre-activation z (None for the head)."""

    layers: list[tuple[np.ndarray, np.ndarray | None]]
    logits: np.ndarray
    probs: np.ndarray


def forward_batch(params: ModelParams, x) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """Full forward for an (N, C, H, W) batch, in the batch's floating dtype.

    Returns (probs (N,K), features (N, dense8), trace); the features, the last
    hidden activation, feed softmax averaging and the SVM head.
    """
    cfg = params.config
    x, expected = _float_array(x), (cfg.in_channels, cfg.hours, cfg.days)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ValueError(f"input shape {x.shape} does not match (N, {expected})")
    layers = []
    a = np.ascontiguousarray(x.transpose(2, 1, 0, 3)).reshape(cfg.hours, cfg.in_channels, -1)
    for name in _layer_names(cfg):
        w, b = params.tensors[f"{name}.w"], params.tensors[f"{name}.b"]
        z = conv2d_valid(a, w, b) if w.ndim == 4 else dense_affine(a, w, b)
        if name == f"conv{len(cfg.kernels)}":  # the 1x1 extent flattens to (N, C)
            z = z[0].T
        slope = None if name == "head" else _leaky_slope(z, cfg.alpha)
        layers.append((a, slope))
        a = z if slope is None else np.multiply(z, slope, out=z)  # z is a fresh array
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
    g: dict[str, np.ndarray] = {}
    for k in reversed(range(len(names))):
        (x_in, slope), w = trace.layers[k], params.tensors[f"{names[k]}.w"]
        dz = da if slope is None else np.multiply(da, slope, out=da)  # fresh past the head
        if w.ndim == 4:
            if dz.ndim == 2:  # the last conv, fed to dense7 as (N, C)
                dz = dz.T[None]  # back to the conv layout (1, C, N)
            g[f"{names[k]}.w"], da = _conv_grads(x_in, w, dz, need_dx=k > 0)
            g[f"{names[k]}.b"] = dz.sum(axis=(0, 2))
        else:
            g[f"{names[k]}.w"] = dz.T @ x_in
            g[f"{names[k]}.b"] = dz.sum(axis=0)
            da = dz @ w.astype(dz.dtype, copy=False)
    return g
