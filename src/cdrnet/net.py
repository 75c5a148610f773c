"""Fixed temporal ConvNet: parameters, forward pass, reverse-mode backward.

The stack is six valid convolutions over the (hour, day) grid (four 4x1
kernels, one 12x1, one 1x7), each followed by leaky ReLU, then two dense
layers (also leaky ReLU) and an affine class map feeding a softmax. With
the default 24x7 input the hour axis contracts 24-21-18-15-12-1 and the
day axis 7-1, so the flatten after the last conv is loss-free; the config
constructor refuses any kernel/input combination that does not land on a
1x1 spatial extent.

Everything runs in float64 numpy with no autodiff framework. Convolutions
are im2col + one matmul; gradients are hand-derived and cross-checked
against central finite differences (training.grad_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _leaky_grad(z: np.ndarray, alpha: float) -> np.ndarray:
    return np.where(z >= 0.0, 1.0, alpha)


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N,C,H,W) -> (N*Hp*Wp, C*kh*kw) patch matrix for a valid convolution."""
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))  # (N,C,Hp,Wp,kh,kw)
    n, c, hp, wp = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * hp * wp, c * kh * kw)


def conv2d_valid(x, weights, bias) -> np.ndarray:
    """Valid cross-correlation of an (N,C,H,W) batch.

    weights (C_out,C_in,kh,kw); output (N, C_out, H-kh+1, W-kw+1) with
    out[n,o,y,x] = b[o] + sum x[n,c,y+i,x+j]*w[o,c,i,j].
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
    cols = _im2col(x, kh, kw)
    out = cols @ weights.reshape(c_out, -1).T + bias
    return out.reshape(n, hp, wp, c_out).transpose(0, 3, 1, 2)


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


@dataclass
class ForwardTrace:
    """Per-call cache of layer inputs/pre-activations needed by backward."""

    conv_in: list[np.ndarray] = field(default_factory=list)
    conv_pre: list[np.ndarray] = field(default_factory=list)
    dense_in: list[np.ndarray] = field(default_factory=list)   # flat, a7, a8
    dense_pre: list[np.ndarray] = field(default_factory=list)  # z7, z8
    logits: np.ndarray | None = None
    probs: np.ndarray | None = None


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
    trace = ForwardTrace()

    a = x
    for i in range(1, len(cfg.kernels) + 1):
        trace.conv_in.append(a)
        z = conv2d_valid(a, t[f"conv{i}.w"], t[f"conv{i}.b"])
        trace.conv_pre.append(z)
        a = leaky_relu(z, cfg.alpha)

    flat = a.reshape(len(x), -1)  # spatial is 1x1 by config invariant
    trace.dense_in.append(flat)
    z7 = dense_affine(flat, t["dense7.w"], t["dense7.b"])
    trace.dense_pre.append(z7)
    a7 = leaky_relu(z7, cfg.alpha)
    trace.dense_in.append(a7)
    z8 = dense_affine(a7, t["dense8.w"], t["dense8.b"])
    trace.dense_pre.append(z8)
    feats = leaky_relu(z8, cfg.alpha)
    trace.dense_in.append(feats)

    logits = dense_affine(feats, t["head.w"], t["head.b"])
    probs = softmax(logits)
    trace.logits = logits
    trace.probs = probs
    return probs, feats, trace


def _conv_input_grad(weights: np.ndarray, dout: np.ndarray, in_shape) -> np.ndarray:
    """Gradient w.r.t. the conv input: scatter each kernel tap's contribution."""
    _, _, kh, kw = weights.shape
    hp, wp = dout.shape[2], dout.shape[3]
    dx = np.zeros(in_shape)
    for i in range(kh):
        for j in range(kw):
            # (N,O,Hp,Wp) x (O,C) -> (N,Hp,Wp,C)
            contrib = np.tensordot(dout, weights[:, :, i, j], axes=([1], [0]))
            dx[:, :, i : i + hp, j : j + wp] += contrib.transpose(0, 3, 1, 2)
    return dx


def backward(params: ModelParams, trace: ForwardTrace, dlogits) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients for every parameter tensor.

    dlogits is the (N,K) loss gradient at the logits of the forward_batch
    call that produced the trace. Neither params nor trace are
    mutated; gradient shapes mirror parameter shapes.
    """
    cfg = params.config
    t = params.tensors
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if trace.logits is None or dlogits.shape != trace.logits.shape:
        raise ValueError("upstream gradient does not match the forward trace")

    flat, a7, feats = trace.dense_in
    z7, z8 = trace.dense_pre
    g: dict[str, np.ndarray] = {}

    g["head.w"] = dlogits.T @ feats
    g["head.b"] = dlogits.sum(axis=0)
    da8 = dlogits @ t["head.w"]

    dz8 = da8 * _leaky_grad(z8, cfg.alpha)
    g["dense8.w"] = dz8.T @ a7
    g["dense8.b"] = dz8.sum(axis=0)
    da7 = dz8 @ t["dense8.w"]

    dz7 = da7 * _leaky_grad(z7, cfg.alpha)
    g["dense7.w"] = dz7.T @ flat
    g["dense7.b"] = dz7.sum(axis=0)
    dflat = dz7 @ t["dense7.w"]

    da = dflat.reshape(trace.conv_pre[-1].shape)
    for i in range(len(cfg.kernels), 0, -1):
        z = trace.conv_pre[i - 1]
        x_in = trace.conv_in[i - 1]
        w = t[f"conv{i}.w"]
        dz = da * _leaky_grad(z, cfg.alpha)
        _, _, kh, kw = w.shape
        n, c_out, hp, wp = dz.shape
        cols = _im2col(x_in, kh, kw)
        dz_flat = dz.transpose(0, 2, 3, 1).reshape(n * hp * wp, c_out)
        g[f"conv{i}.w"] = (dz_flat.T @ cols).reshape(w.shape)
        g[f"conv{i}.b"] = dz.sum(axis=(0, 2, 3))
        if i > 1:
            da = _conv_input_grad(w, dz, x_in.shape)
    return g
