"""Fixed temporal ConvNet: parameters, forward pass, reverse-mode backward.

The stack is six valid convolutions over the (hour, day) grid (four 4x1
kernels, one 12x1, one 1x7), each followed by leaky ReLU, then two dense
layers (also leaky ReLU) and an affine class map feeding a softmax. With
the default 24x7 input the hour axis contracts 24-21-18-15-12-1 and the
day axis 7-1, so the flatten after the last conv is loss-free; the config
constructor refuses any kernel/input combination that does not land on a
1x1 spatial extent.

forward_batch walks one layer list (conv1..convL, dense7, dense8, head)
and backward walks it in reverse, reusing each layer's input and
leaky-ReLU slope from the forward trace. A convolution's output, its
weight gradient and its input gradient are each a sum over kernel taps
(i, j) of one matmul on the window x[:, :, i:i+Hp, j:j+Wp]; backward
computes dW and dX in the same tap loop.

Everything runs in float64 numpy with no autodiff framework. Gradients
are hand-derived and cross-checked against central finite differences
(training.grad_check).
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


@dataclass(frozen=True)
class NetworkConfig:
    """Layer stack description; validates the spatial shape chain on construction."""

    classes: int
    in_channels: int = N_CHANNELS
    hours: int = N_HOURS
    days: int = N_DAYS
    kernels: tuple[tuple[int, int], ...] = DEFAULT_KERNELS
    filters: tuple[int, ...] = DEFAULT_FILTERS
    dense: tuple[int, int] = DEFAULT_DENSE
    alpha: float = 0.01

    def __post_init__(self):
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
        chain = self.spatial_chain()
        h, w = chain[-1]
        if (h, w) != (1, 1):
            raise ValueError(
                f"shape chain does not close: spatial extent after the last conv "
                f"is {h}x{w}, expected 1x1 (chain {chain})"
            )

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
    """Small config for finite-difference gradient checking (2x10x7 input).

    The production kernel sizes cannot close a 10-hour input, so the hour
    kernels shrink to 2,2,2,2,6: hours 10-9-8-7-6-1, days 7-1.
    """
    return NetworkConfig(
        classes=classes,
        in_channels=2,
        hours=10,
        days=7,
        kernels=((2, 1), (2, 1), (2, 1), (2, 1), (6, 1), (1, 7)),
        filters=(2, 2, 2, 2, 2, 2),
        dense=(8, 6),
    )


def param_shapes(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Parameter tensor shapes in canonical order (also the file manifest order)."""
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = config.in_channels
    for i, ((kh, kw), f) in enumerate(zip(config.kernels, config.filters), start=1):
        shapes[f"conv{i}.w"] = (f, c_in, kh, kw)
        shapes[f"conv{i}.b"] = (f,)
        c_in = f
    d7, d8 = config.dense
    shapes["dense7.w"] = (d7, config.filters[-1])
    shapes["dense7.b"] = (d7,)
    shapes["dense8.w"] = (d8, d7)
    shapes["dense8.b"] = (d8,)
    shapes["head.w"] = (config.classes, d8)
    shapes["head.b"] = (config.classes,)
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

    Weights are zero-mean Gaussians, biases exactly zero; bit-identical for
    a given seed.
    """
    rng = np.random.default_rng(seed)
    denom = 1.0 + config.alpha**2
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:]))
            std = math.sqrt(2.0 / (denom * fan_in))
            tensors[name] = rng.normal(0.0, std, shape)
    return ModelParams(config, tensors)


def leaky_relu(x, alpha: float) -> np.ndarray:
    """Elementwise x if x >= 0 else alpha*x."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, x, alpha * x)


def _tap_windows(x: np.ndarray, kh: int, kw: int):
    """Yield (i, j, window) for every kernel tap of a valid convolution.

    The window is x[:, :, i:i+Hp, j:j+Wp] laid out as a (C, N*Hp*Wp) matrix,
    so each tap's contribution to an output, dW or dX is one matmul.
    """
    n, c, h, w = x.shape
    hp, wp = h - kh + 1, w - kw + 1
    xt = x.transpose(1, 0, 2, 3)
    for i in range(kh):
        for j in range(kw):
            yield i, j, xt[:, :, i : i + hp, j : j + wp].reshape(c, n * hp * wp)


def conv2d_valid(x, weights, bias) -> np.ndarray:
    """Valid cross-correlation of an (N,C,H,W) batch.

    weights (C_out,C_in,kh,kw); output (N, C_out, H-kh+1, W-kw+1) with
    out[n,o,y,x] = b[o] + sum x[n,c,y+i,x+j]*w[o,c,i,j], summed tap by tap.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"expected (N,C,H,W) input, got shape {x.shape}")
    c_out, c_in, kh, kw = weights.shape
    n, c, h, w = x.shape
    if c != c_in:
        raise ValueError(f"input has {c} channels, kernel expects {c_in}")
    if kh > h or kw > w:
        raise ValueError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    hp, wp = h - kh + 1, w - kw + 1
    out = np.zeros((c_out, n * hp * wp))
    for i, j, win in _tap_windows(x, kh, kw):
        out += weights[:, :, i, j] @ win
    out += bias[:, None]
    return out.reshape(c_out, n, hp, wp).transpose(1, 0, 2, 3)


def _conv_grads(x: np.ndarray, weights: np.ndarray, dz: np.ndarray):
    """(dW, dX) of conv2d_valid(x, weights, .) for the output gradient dz, tap by tap."""
    c_out, c_in, kh, kw = weights.shape
    n, _, hp, wp = dz.shape
    dzt = dz.transpose(1, 0, 2, 3).reshape(c_out, n * hp * wp)
    dw = np.empty(weights.shape)
    dxt = np.zeros((c_in, n) + x.shape[2:])
    for i, j, win in _tap_windows(x, kh, kw):
        dw[:, :, i, j] = dzt @ win.T
        dxt[:, :, i : i + hp, j : j + wp] += (weights[:, :, i, j].T @ dzt).reshape(c_in, n, hp, wp)
    return dw, dxt.transpose(1, 0, 2, 3)


def dense_affine(x, weights, bias) -> np.ndarray:
    """W x + b for a (d,) vector, or row-wise for an (N, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    out_dim, in_dim = weights.shape
    if x.shape[-1] != in_dim:
        raise ValueError(f"input dim {x.shape[-1]} does not match weight dim {in_dim}")
    return x @ weights.T + bias


def softmax(logits) -> np.ndarray:
    """Numerically stable exp-normalize over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_names(config: NetworkConfig) -> list[str]:
    """conv1..convL, dense7, dense8, head: the order forward_batch walks."""
    return [f"conv{i}" for i in range(1, len(config.kernels) + 1)] + ["dense7", "dense8", "head"]


@dataclass
class ForwardTrace:
    """Per-call cache for backward: each layer's (input, leaky-ReLU slope).

    The slope is where(z >= 0, 1, alpha) of the layer's pre-activation z;
    the head has no activation, so its slope is None.
    """

    layers: list[tuple[np.ndarray, np.ndarray | None]]
    logits: np.ndarray
    probs: np.ndarray


def forward_batch(params: ModelParams, x) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """Full forward for an (N, C, H, W) batch.

    Returns (probs (N,K), features (N, dense8), trace); the features are the
    last hidden activation, used for softmax averaging and as the SVM
    feature space.
    """
    cfg = params.config
    x = np.asarray(x, dtype=np.float64)
    expected = (cfg.in_channels, cfg.hours, cfg.days)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ValueError(f"input shape {x.shape} does not match (N, {expected})")
    t = params.tensors
    layers = []
    a = x
    for name in _layer_names(cfg):
        w, b = t[f"{name}.w"], t[f"{name}.b"]
        if w.ndim == 4:
            z = conv2d_valid(a, w, b)
        else:
            a = a.reshape(len(x), -1)  # the last conv's spatial extent is 1x1
            z = dense_affine(a, w, b)
        slope = None if name == "head" else np.where(z >= 0.0, 1.0, cfg.alpha)
        layers.append((a, slope))
        a = z if slope is None else z * slope
    probs = softmax(a)
    return probs, layers[-1][0], ForwardTrace(layers, a, probs)


def backward(params: ModelParams, trace: ForwardTrace, dlogits) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients for every parameter tensor.

    dlogits is the (N,K) loss gradient at the logits of the forward_batch
    call that produced the trace. Neither params nor trace are
    mutated; gradient shapes mirror parameter shapes.
    """
    da = np.asarray(dlogits, dtype=np.float64)
    if da.shape != trace.logits.shape:
        raise ValueError("upstream gradient does not match the forward trace")
    g: dict[str, np.ndarray] = {}
    for name, (x_in, slope) in reversed(list(zip(_layer_names(params.config), trace.layers))):
        dz = da if slope is None else da.reshape(slope.shape) * slope
        w = params.tensors[f"{name}.w"]
        if w.ndim == 4:
            g[f"{name}.w"], da = _conv_grads(x_in, w, dz)
            g[f"{name}.b"] = dz.sum(axis=(0, 2, 3))
        else:
            g[f"{name}.w"] = dz.T @ x_in
            g[f"{name}.b"] = dz.sum(axis=0)
            da = dz @ w
    return g
