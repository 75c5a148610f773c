"""User-level prediction heads, a linear one-vs-rest SVM, and evaluation.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from .featurize import N_CHANNELS, N_DAYS, N_HOURS, STD_FLOOR, TensorDataset, apply_normalizer
from .ingest import LabelRecord, read_lines
from .net import COMPUTE_DTYPE, ModelParams, forward_batch

# Rows per forward call at inference, equal to the default training batch.
# A fixed value keeps every user's scores independent of the other users in
# the file: BLAS results for a row can change with the batch size.
CHUNK_ROWS = 32

# Below this, train_linear_svm folds its weight scale into the vector, so that
# dividing by the scale cannot overflow.
_MIN_SCALE = 1e-100


@dataclass(frozen=True)
class UserPrediction:
    """One user's aggregated prediction.

    scores holds averaged class probabilities for the averaging head and
    per-class decision margins for the SVM head; class_index is its argmax.
    """

    user_id: str
    scores: np.ndarray
    class_index: int
    weeks_used: int


def _user_means(model: ModelParams, dataset: TensorDataset, users=None):
    """(users, mean softmax (U, K), mean dense8 (U, d), weeks (U,)), users sorted by id.

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
    return (
        users, np.add.reduceat(probs, starts) / weeks, np.add.reduceat(feats, starts) / weeks, sizes
    )


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
    users, probs, feats, weeks = _user_means(model, dataset)
    # margins as one stacked (1, d) product per user: a (U, d) GEMM would tie
    # a user's margins to the user count
    scores = probs if head == "avg" else svm_margins(model.svm, feats[:, None, :])[:, 0]
    classes = scores.argmax(axis=1).tolist()
    return [UserPrediction(*row) for row in zip(users, scores, classes, weeks.tolist())]


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

    _, _, feats, _ = _user_means(model, dataset, train_users)
    y = [space.index(labels[u]) for u in train_users]
    return train_linear_svm(feats, y, lam=lam, epochs=epochs, seed=seed, n_classes=space.n_classes)


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary; confusion rows are true classes, columns predicted.

    n_users counts the scored users; unlabeled counts the predicted users
    left out because they have no truth label.
    """

    n_users: int
    accuracy: float
    majority_accuracy: float
    uniform_accuracy: float
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    class_labels: tuple[str, ...]
    unlabeled: int

    def to_json(self) -> dict:
        out = asdict(self)
        for name in ("confusion", "precision", "recall"):
            out[name] = out[name].tolist()
        return out


def evaluate(
    predictions: list[UserPrediction], truth: dict[str, int], class_labels: tuple[str, ...]
) -> Metrics:
    """Score predictions against true class indices over K = len(class_labels) classes.

    Predicted users without a truth entry are left out and counted as
    unlabeled; a ValueError is raised when none has one. The majority
    baseline is the frequency of the most common true class; the uniform
    baseline is 1/K.
    """
    if not predictions:
        raise ValueError("no predictions to evaluate")
    scored = [p for p in predictions if p.user_id in truth]
    if not scored:
        missing = [p.user_id for p in predictions[:5]]
        raise ValueError(f"no truth label for any predicted user, e.g. {missing}")

    true = np.array([truth[p.user_id] for p in scored], dtype=np.intp)
    pred = np.array([p.class_index for p in scored], dtype=np.intp)
    n_classes = len(class_labels)

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true, pred), 1)
    diag = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros(n_classes), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(n_classes), where=row > 0)

    n = len(scored)
    return Metrics(
        n_users=n,
        accuracy=float((true == pred).mean()),
        majority_accuracy=float(row.max() / n),
        uniform_accuracy=1.0 / n_classes,
        confusion=confusion,
        precision=precision,
        recall=recall,
        class_labels=class_labels,
        unlabeled=len(predictions) - n,
    )


def write_predictions(path, predictions: list[UserPrediction]) -> None:
    """CSV "user_id,predicted_class,p_0,...,p_{K-1}"; scores use repr floats.

    The schema is the same for both heads; with the SVM head the p_ columns
    carry decision margins instead of probabilities.
    """
    if not predictions:
        raise ValueError("no predictions to write")
    k = len(predictions[0].scores)
    header = "user_id,predicted_class," + ",".join(f"p_{i}" for i in range(k))
    lines = [header]
    for p in predictions:
        scores = ",".join(map(repr, p.scores.tolist()))
        lines.append(f"{p.user_id},{p.class_index},{scores}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_predictions(path) -> list[UserPrediction]:
    """Parse a predictions CSV back into UserPrediction rows (weeks_used 0).

    The header fixes K; every row must carry K scores and a predicted class
    in [0, K), and no user may appear on two rows, or a ValueError names
    the file and line; so does a byte that is not UTF-8.
    """
    lines = [ln.rstrip("\n") for ln in read_lines(path)]
    header = lines[0].split(",") if lines else []
    k = len(header) - 2
    if k < 1 or header != ["user_id", "predicted_class", *(f"p_{i}" for i in range(k))]:
        raise ValueError(f"{path}: not a predictions file")
    out = []
    first_line: dict[str, int] = {}
    for line_no, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        parts = ln.split(",")
        try:
            if parts[0] in first_line:
                raise ValueError(f"user {parts[0]!r} already on line {first_line[parts[0]]}")
            first_line[parts[0]] = line_no
            if len(parts) != k + 2:
                raise ValueError(f"{len(parts) - 2} scores for {k} classes")
            class_index = int(parts[1])
            if not 0 <= class_index < k:
                raise ValueError(f"predicted_class {class_index} outside [0, {k})")
            scores = np.array([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        out.append(UserPrediction(parts[0], scores, class_index, weeks_used=0))
    return out


def format_table(rows: list[tuple[str, float]]) -> str:
    """Small aligned accuracy table, one classifier (or baseline) per row."""
    width = max(len("classifier"), max(len(name) for name, _ in rows))
    lines = [f"{'classifier'.ljust(width)}  accuracy"]
    for name, acc in rows:
        lines.append(f"{name.ljust(width)}  {100.0 * acc:6.2f}%")
    return "\n".join(lines)
