"""Predictions files and their scoring against labels; loads neither the net nor the heads.

The first line of a predictions file, "user_id,predicted_<attribute>,<c_0>,...,<c_{K-1}>",
names the model's label space: the gender classes in sorted order, or each age bucket's
lower edge in years ("0,28,38,48"), as the "[lo,hi)" labels hold a comma.
"""

from dataclasses import asdict, dataclass

from .labels import LabelSpace, read_lines


@dataclass(frozen=True)
class UserPrediction:
    """One user's aggregated prediction.

    scores holds averaged class probabilities for the averaging head and
    per-class decision margins for the SVM head; class_index is its argmax.
    """

    user_id: str
    scores: tuple[float, ...]
    class_index: int


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
    confusion: list[list[int]]
    precision: list[float]
    recall: list[float]
    class_labels: tuple[str, ...]
    unlabeled: int

    def to_json(self) -> dict:
        return asdict(self)


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

    n_classes = len(class_labels)
    confusion = [[0] * n_classes for _ in range(n_classes)]
    for p in scored:
        confusion[truth[p.user_id]][p.class_index] += 1
    diag = [confusion[c][c] for c in range(n_classes)]
    col = [sum(column) for column in zip(*confusion)]
    row = [sum(r) for r in confusion]
    precision = [d / t if t else 0.0 for d, t in zip(diag, col)]
    recall = [d / t if t else 0.0 for d, t in zip(diag, row)]

    n = len(scored)
    return Metrics(
        n_users=n,
        accuracy=sum(diag) / n,
        majority_accuracy=max(row) / n,
        uniform_accuracy=1.0 / n_classes,
        confusion=confusion,
        precision=precision,
        recall=recall,
        class_labels=class_labels,
        unlabeled=len(predictions) - n,
    )


def _header(space: LabelSpace) -> list[str]:
    """The fields of the first line of a predictions file in space."""
    classes = space.class_labels if space.attribute == "gender" else (0, *space.age_edges)
    return ["user_id", f"predicted_{space.attribute}", *map(str, classes)]


def write_predictions(path, predictions: list[UserPrediction], space: LabelSpace) -> None:
    """Write the predictions file of space (module docstring); scores use repr floats.

    The schema is the same for both heads; with the SVM head the scores are
    decision margins instead of probabilities.
    """
    if not predictions:
        raise ValueError("no predictions to write")
    lines = [",".join(_header(space))]
    for p in predictions:
        scores = ",".join(map(repr, map(float, p.scores)))
        lines.append(f"{p.user_id},{p.class_index},{scores}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_predictions(path) -> tuple[LabelSpace, list[UserPrediction]]:
    """The label space the first line names, and the UserPrediction rows of a predictions file.

    The space is rebuilt through LabelSpace, and the first line must be the
    one write_predictions writes for it; any other is a ValueError that says
    to re-run predict. Every row must carry K scores and a class in
    [0, K), and no user may appear on two rows, or a ValueError names the
    file and line; so does a byte that is not UTF-8.
    """
    lines = [ln.rstrip("\n") for ln in read_lines(path)]
    header = lines[0].split(",") if lines else []
    try:
        attribute = header[1].removeprefix("predicted_")
        if attribute == "age":
            space = LabelSpace.fit("age", (), [int(c) for c in header[3:]])
        else:
            space = LabelSpace(attribute, tuple(header[2:]))
        if _header(space) != header:
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"{path}: not a predictions file; re-run predict to write one") from None
    k = space.n_classes
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
            scores = tuple(map(float, parts[2:]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        out.append(UserPrediction(parts[0], scores, class_index))
    return space, out


def format_table(rows: list[tuple[str, float]]) -> str:
    """Small aligned accuracy table, one classifier (or baseline) per row."""
    width = max(len("classifier"), max(len(name) for name, _ in rows))
    lines = [f"{'classifier'.ljust(width)}  accuracy"]
    for name, acc in rows:
        lines.append(f"{name.ljust(width)}  {100.0 * acc:6.2f}%")
    return "\n".join(lines)
