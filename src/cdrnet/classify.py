"""User-level prediction heads and a linear one-vs-rest SVM.

Two strategies turn per-week network outputs into one answer per user:

* averaging: the per-week softmax vectors are averaged arithmetically and
  the argmax of the average is the prediction;
* feature extractor + SVM: the last hidden activation (dense8) is averaged
  across the user's weeks and fed to a linear SVM trained with projected
  stochastic subgradient descent on the regularized hinge objective
  (Pegasos-style step sizes).

Ties always break toward the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .featurize import N_CHANNELS, N_DAYS, N_HOURS, STD_FLOOR, TensorDataset, apply_normalizer
from .labels import LabelRecord
from .net import COMPUTE_DTYPE, ModelParams, forward_batch
from .scoring import UserPrediction

# Rows per forward call at inference, equal to the default training batch.
# A fixed value keeps every user's scores independent of the other users in
# the file: BLAS results for a row can change with the batch size.
CHUNK_ROWS = 32

# Below this, train_linear_svm folds its weight scale into the vector, so that
# dividing by the scale cannot overflow.
_MIN_SCALE = 1e-100


def _user_means(model: ModelParams, dataset: TensorDataset, users=None):
    """(users, mean softmax (U, K), mean dense8 (U, d)), users sorted by id.

    The users' row ranges, in file order, run through forward_batch in
    chunks of exactly CHUNK_ROWS rows, padded with all-zero weeks. Every row
    then meets the same GEMM shapes whatever other rows share its chunk, so
    a user's means do not depend on the other users in the file. Each chunk
    is filled from the dataset's sparse rows by apply_normalizer with the
    model's norm stats, which it must carry. The net runs untraced in
    COMPUTE_DTYPE; its outputs are widened to float64, summed over each
    user's row range by np.add.reduceat and divided by the week counts, the
    same bits as a mean over that range. users, when given, is a sorted list
    of the dataset's users to run.
    """
    users = dataset.users if users is None else users
    rows, sizes = dataset.rows_of(users)
    if not len(rows):
        raise ValueError("need at least one week tensor")
    probs = np.empty((len(rows), model.config.classes))
    feats = np.empty((len(rows), model.config.feature_dim))
    chunk = np.empty((CHUNK_ROWS, N_CHANNELS, N_HOURS, N_DAYS), COMPUTE_DTYPE)
    for start in range(0, len(rows), CHUNK_ROWS):
        part = rows[start : start + CHUNK_ROWS]
        x = apply_normalizer(dataset, part, model.norm_stats, chunk)
        p, f, _ = forward_batch(model, x, trace=False)
        probs[start : start + len(part)] = p[: len(part)]
        feats[start : start + len(part)] = f[: len(part)]
    starts, weeks = np.cumsum(sizes) - sizes, sizes[:, None]
    return users, np.add.reduceat(probs, starts) / weeks, np.add.reduceat(feats, starts) / weeks


@dataclass
class SvmModel:
    """One-vs-rest linear classifiers over the dense8 feature space.

    Weights are (K, d), biases (K,). Features are standardized with the
    stored training-set mean/std before scoring. objective_history holds
    the per-class epoch-end objective curves from training and is not
    serialized.
    """

    weights: np.ndarray
    bias: np.ndarray
    lam: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    objective_history: list[list[float]] = field(default_factory=list, repr=False)


def _hinge_objective(w, b, x, y, lam) -> float:
    margins = y * (x @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return float(0.5 * lam * (w @ w) + hinge.mean())


def svm_settings(lam: float = 1e-4, epochs: int = 50) -> None:
    """Refuse, with a ValueError, a lam that is not positive and finite or epochs below 1."""
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    if epochs < 1:
        raise ValueError("epochs must be at least 1")


def train_linear_svm(
    features,
    labels,
    lam: float = 1e-4,
    epochs: int = 50,
    seed: int = 0,
    n_classes: int | None = None,
) -> SvmModel:
    """Train K one-vs-rest hinge classifiers with Pegasos step sizes.

    Per step t (1-based): eta = 1/(lam*t); w shrinks by (1 - 1/t); on a
    margin violation (y*(w.x+b) < 1) w gains eta*y*x and b gains eta*y; w is
    then projected onto the ball of radius 1/sqrt(lam). The bias is not
    regularized. Each class trains on its own rng stream spawned from the
    seed, so results are independent of class training order. n_classes
    defaults to one more than the largest label.

    w is held as a float scale s times a vector v (Shalev-Shwartz et al.,
    2007), so the shrink and the projection rescale s alone and a step
    without a violation costs one dot product. ||w||^2 = s^2 ||v||^2 is
    carried from that dot product and is recomputed when each epoch folds s
    back into v. Results match the step-by-step update of w to rounding.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (N, d) feature matrix, got shape {np.shape(features)}")
    y_all = np.asarray(labels, dtype=np.intp)
    if len(y_all) != len(x):
        raise ValueError("features and labels have different lengths")
    if n_classes is None:
        n_classes = int(y_all.max()) + 1
    if not len(y_all) or (y_all == y_all[0]).all():  # np.unique would import numpy.ma
        raise ValueError("need at least two classes present in the training labels")
    svm_settings(lam, epochs)

    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), STD_FLOOR)
    z = (x - mean) / std

    n, d = z.shape
    weights = np.zeros((n_classes, d))
    bias = np.zeros(n_classes)
    history: list[list[float]] = []
    radius = 1.0 / math.sqrt(lam)
    rows = list(z)
    row_sq = np.einsum("ij,ij->i", z, z).tolist()

    streams = np.random.SeedSequence(seed).spawn(n_classes)
    for k in range(n_classes):
        rng = np.random.default_rng(streams[k])
        y = np.where(y_all == k, 1.0, -1.0)
        signs = y.tolist()
        v = np.zeros(d)
        s = 1.0
        v_sq = 0.0
        b = 0.0
        t = 0
        curve: list[float] = []
        for _ in range(epochs):
            for i in rng.permutation(n).tolist():
                t += 1
                s *= 1.0 - 1.0 / t
                vz = float(v.dot(rows[i]))
                if signs[i] * (s * vz + b) < 1.0:
                    # s is 0 after step 1 and shrinks further with every
                    # projection; fold it into v before dividing by it
                    if s < _MIN_SCALE:
                        v *= s
                        v_sq *= s * s
                        vz *= s
                        s = 1.0
                    g = signs[i] / (lam * t)
                    c = g / s
                    v += c * rows[i]
                    # clamped: cancellation can leave a tiny negative sum
                    v_sq = max(v_sq + c * (2.0 * vz + c * row_sq[i]), 0.0)
                    b += g
                    # only a violation can grow ||w||, so only it can project
                    norm = s * math.sqrt(v_sq)
                    if norm > radius:
                        s *= radius / norm
            v *= s
            s = 1.0
            v_sq = float(v.dot(v))
            curve.append(_hinge_objective(v, b, z, y, lam))
        weights[k] = v
        bias[k] = b
        history.append(curve)

    return SvmModel(
        weights=weights,
        bias=bias,
        lam=lam,
        feature_mean=mean,
        feature_std=std,
        objective_history=history,
    )


def svm_margins(svm: SvmModel, features) -> np.ndarray:
    """Per-class decision values w_c.z + b_c for one vector or an (..., d) batch.

    A (U, 1, d) stack of vectors is one (1, d) by (d, K) product per vector,
    the same bits as scoring each vector alone; an (N, d) batch is one GEMM,
    whose rows can differ from those in the last bits.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape[-1] != svm.weights.shape[1]:
        raise ValueError(
            f"feature dim {x.shape[-1]} does not match SVM dim {svm.weights.shape[1]}"
        )
    z = (x - svm.feature_mean) / svm.feature_std
    return z @ svm.weights.T + svm.bias


def predict_dataset(
    model: ModelParams, dataset: TensorDataset, head: str = "avg"
) -> list[UserPrediction]:
    """Predict every user in the dataset with the chosen head, sorted by user id.

    The avg head scores a user by the mean of their weekly softmax vectors;
    the svm head by the SVM margins of their mean dense8 vector. The class is
    the argmax of the scores, ties going to the lowest index.
    """
    if head not in ("avg", "svm"):
        raise ValueError(f"unknown head {head!r}, expected 'avg' or 'svm'")
    if head == "svm" and model.svm is None:
        raise ValueError("model carries no SVM head; train one first")
    users, probs, feats = _user_means(model, dataset)
    # margins as one stacked (1, d) product per user: a (U, d) GEMM would tie
    # a user's margins to the user count
    scores = probs if head == "avg" else svm_margins(model.svm, feats[:, None, :])[:, 0]
    classes = scores.argmax(axis=1).tolist()
    return [UserPrediction(u, tuple(s), c) for u, s, c in zip(users, scores.tolist(), classes)]


def train_svm_head(
    model: ModelParams,
    dataset: TensorDataset,
    labels: dict[str, LabelRecord],
    lam: float = 1e-4,
    epochs: int = 50,
    seed: int = 0,
    val_fraction: float = 0.0,
) -> SvmModel:
    """Fit the SVM head on per-user features from the model's feature layer.

    Users are mapped to classes through the model's label space, and the
    same deterministic user split as network training keeps any validation
    users out of the SVM's training set.
    """
    from .training import split_users

    space = model.label_space
    users = [u for u in dataset.users if u in labels]
    if not users:
        raise ValueError("no labeled users in the dataset")
    train_users, _ = split_users(users, val_fraction, seed)

    _, _, feats = _user_means(model, dataset, train_users)
    y = [space.index(labels[u]) for u in train_users]
    return train_linear_svm(feats, y, lam=lam, epochs=epochs, seed=seed, n_classes=space.n_classes)
