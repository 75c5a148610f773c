"""Training loop, loss, SGD with momentum, and finite-difference grad checks.

Training operates on week tensors: every (user week, user label) pair is one
sample. Users are split into train/validation partitions before any weeks
are seen, so no user contributes to both sides, and the channel normalizer
is fitted on the training partition only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classify import CHUNK_ROWS
from .featurize import N_CHANNELS, N_DAYS, N_HOURS, LabelSpace, TensorDataset
from .featurize import apply_normalizer, fit_normalizer
from .ingest import LabelRecord
from .net import COMPUTE_DTYPE, ModelParams, NetworkConfig, backward, forward_batch, init_params

GRAD_TOL = 1e-4
GRAD_STEPS = (1e-3, 1e-4, 1e-5, 1e-6)  # grad_check's central-difference steps, tried in turn


class NumericError(ArithmeticError):
    """Loss, gradients or parameters stopped being finite during optimization."""


def cross_entropy(probs, labels) -> np.floating:
    """Mean negative log-likelihood of an (N, K) batch against (N,) labels.

    Probabilities are clipped at 1e-12. The loss is a float64 or wider numpy scalar.
    """
    p = np.asarray(probs)
    p = p.astype(np.result_type(p, np.float64), copy=False)
    idx = np.asarray(labels, dtype=np.intp)
    picked = p[np.arange(len(p)), idx]
    return -np.log(np.maximum(picked, 1e-12)).mean()


def loss_gradient(probs, labels) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (probs - onehot) / N, in the dtype of probs."""
    grad = np.array(probs)
    if grad.dtype.kind != "f":
        grad = grad.astype(np.float64)
    grad[np.arange(len(grad)), np.asarray(labels, dtype=np.intp)] -= 1.0
    grad /= len(grad)
    return grad


def sgd_step(
    tensors: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    learning_rate: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> None:
    """In-place momentum update: v = mu*v - lr*(g + wd*w); w += v."""
    for name, w in tensors.items():
        g = grads[name]
        if weight_decay != 0.0 and name.endswith(".w"):
            g = g + weight_decay * w
        v = velocity[name]
        v *= momentum
        v -= learning_rate * g
        w += v


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    weight_decay: float = 0.0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be non-negative and finite")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float | None

    def to_json(self) -> dict:
        return asdict(self)


def split_users(user_ids: list[str], val_fraction: float, seed: int) -> tuple[list[str], list[str]]:
    """Deterministic user-level split; validation gets round(frac * n) users."""
    order = list(user_ids)
    rng = np.random.default_rng(seed)
    rng.shuffle(order)
    n_val = int(round(val_fraction * len(order)))
    n_val = min(n_val, len(order) - 1)
    val = sorted(order[:n_val])
    train = sorted(order[n_val:])
    return train, val


# overflow in the net is caught by the finiteness checks and raised as
# NumericError, not printed as warnings
@np.errstate(over="ignore", invalid="ignore")
def train(
    dataset: TensorDataset,
    labels: dict[str, LabelRecord],
    label_space: LabelSpace,
    config: TrainConfig,
    net_config: NetworkConfig | None = None,
) -> tuple[ModelParams, list[EpochStats]]:
    """Fit the network on the week tensors of the labeled users.

    Users map to classes through label_space, which the model then carries.
    Unlabeled users are skipped. The normalizer is refitted on the training
    partition (any stats shipped with the dataset are ignored). Each batch,
    and each CHUNK_ROWS chunk of the validation rows, is filled from the
    dataset's sparse rows into one reused buffer; the validation forward
    runs untraced. The net runs in COMPUTE_DTYPE on float64 master
    parameters, which the SGD updates in place; the returned model holds
    them cast once to COMPUTE_DTYPE, the net that train-svm and predict run
    and the model file stores. Raises
    NumericError when the loss, a gradient or a parameter stops being
    finite, a master that overflows that cast included.
    """
    users = [u for u in dataset.users if u in labels]
    if not users:
        raise ValueError("no labeled users in the dataset")
    assign = {u: label_space.index(labels[u]) for u in users}
    if net_config is None:
        net_config = NetworkConfig(classes=label_space.n_classes)
    elif net_config.classes != label_space.n_classes:
        raise ValueError(
            f"network emits {net_config.classes} classes "
            f"but labels define {label_space.n_classes}"
        )

    train_users, val_users = split_users(users, config.val_fraction, config.seed)

    def rows(users: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Dataset rows and class labels of the sorted users' weeks, rows in file order."""
        index, sizes = dataset.rows_of(users)
        return index, np.repeat(np.array([assign[u] for u in users], dtype=np.intp), sizes)

    train_rows, y_train = rows(train_users)
    val_rows, y_val = rows(val_users)
    stats = fit_normalizer(dataset, train_rows)

    params = init_params(net_config, config.seed)
    params.norm_stats = stats
    params.label_space = label_space

    velocity = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    rng = np.random.default_rng(config.seed + 1)
    n = len(train_rows)
    # one buffer of normalized weeks for every training batch and validation chunk
    buffer = np.empty(
        (max(min(config.batch_size, n), CHUNK_ROWS), N_CHANNELS, N_HOURS, N_DAYS), COMPUTE_DTYPE
    )
    history: list[EpochStats] = []

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        total, seen = 0.0, 0
        grads: dict[str, np.ndarray] = {}
        for step, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = perm[start : start + config.batch_size]
            x = apply_normalizer(dataset, train_rows[idx], stats, buffer[: len(idx)])
            probs, _, trace = forward_batch(params, x)
            loss = cross_entropy(probs, y_train[idx])
            if not np.isfinite(loss):
                # a non-finite update makes the next loss non-finite; name it
                bad = _first_non_finite(grads, params.tensors)
                where = f"step {step - 1}" if bad else f"step {step}"
                raise NumericError(f"non-finite {bad or 'loss'} at epoch {epoch}, {where}")
            grads = backward(params, trace, loss_gradient(probs, y_train[idx]))
            sgd_step(
                params.tensors,
                velocity,
                grads,
                config.learning_rate,
                config.momentum,
                config.weight_decay,
            )
            total += loss * len(idx)
            seen += len(idx)
        bad = _first_non_finite(grads, params.tensors)
        if bad:
            raise NumericError(f"non-finite {bad} at epoch {epoch}, step {step}")

        val_acc = None
        if len(val_rows):
            hits = 0
            for start in range(0, len(val_rows), CHUNK_ROWS):
                part = val_rows[start : start + CHUNK_ROWS]
                x = apply_normalizer(dataset, part, stats, buffer[: len(part)])
                probs, _, _ = forward_batch(params, x, trace=False)
                hits += int((probs.argmax(axis=1) == y_val[start : start + CHUNK_ROWS]).sum())
            val_acc = hits / len(val_rows)
        history.append(EpochStats(epoch=epoch, train_loss=total / seen, val_accuracy=val_acc))

    params.tensors = {name: t.astype(COMPUTE_DTYPE) for name, t in params.tensors.items()}
    bad = _first_non_finite({}, params.tensors)
    if bad:
        raise NumericError(f"non-finite {bad} in {np.dtype(COMPUTE_DTYPE)} after epoch {epoch}")
    return params, history


def _first_non_finite(grads: dict[str, np.ndarray], tensors: dict[str, np.ndarray]) -> str | None:
    """'<name> gradient' or '<name> parameter' of the first non-finite tensor, else None."""
    for kind, arrays in (("gradient", grads), ("parameter", tensors)):
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                return f"{name} {kind}"
    return None


def max_relative_error(a: float, b: float) -> float:
    """|a - b| / max(1e-8, |a| + |b|)."""
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def grad_check(params: ModelParams, x, label: int) -> dict[str, float]:
    """Central-difference check of every parameter gradient on one (C,H,W) sample, in float64.

    Returns the worst relative error per parameter tensor; all values should
    sit below GRAD_TOL when the analytic backward pass is correct. Each entry
    is differenced at the first step of GRAD_STEPS at which neither perturbed
    forward changes a leaky-ReLU slope of the unperturbed trace: the largest
    step that stays off every kink, so the roundoff of the order-one loss
    does not swamp small entries. An entry that crosses a kink at every step,
    and a gradient misshapen for its tensor, count as an infinite error.
    Keep the network small: cost is two forward passes per scalar parameter
    and step tried.
    """
    x = np.asarray(x, dtype=np.float64)[None]
    labels = [label]
    probs, _, trace = forward_batch(params, x)
    analytic = backward(params, trace, loss_gradient(probs, labels))

    def loss(flat: np.ndarray, i: int, value) -> tuple[np.floating, bool]:
        """The loss with flat[i] set to value, and whether every slope of the trace held."""
        flat[i] = value
        probs, _, moved = forward_batch(params, x)
        held = all(np.array_equal(a[1], b[1]) for a, b in zip(moved.layers, trace.layers))
        return cross_entropy(probs, labels), held

    worst: dict[str, float] = {}
    for name, tensor in params.tensors.items():
        if analytic[name].shape != tensor.shape:
            worst[name] = math.inf
            continue
        flat, grad_flat = tensor.reshape(-1), analytic[name].reshape(-1)
        err = 0.0
        for i in range(flat.size):
            orig, entry_err = flat[i], math.inf
            for step in GRAD_STEPS:
                plus, plus_held = loss(flat, i, orig + step)
                minus, minus_held = loss(flat, i, orig - step)
                if plus_held and minus_held:
                    numeric = float((plus - minus) / (2.0 * step))
                    entry_err = max_relative_error(numeric, grad_flat[i])
                    break
            flat[i] = orig
            err = max(err, entry_err)
        worst[name] = err
    return worst
