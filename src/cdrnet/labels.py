"""Labels: their file grammar, the ingest report and the one rule mapping a label to a class.

This module imports no numpy, so that evaluate loads neither numpy nor the CDR path.

Labels file (UTF-8 CSV, plain comma-separated tokens, one header row):

    user_id,gender,age_years     age_years 0 to MAX_AGE in ASCII digits

Parsing is total: every data line is either accepted or rejected with a
line-numbered reason in the IngestReport; a dirty line never aborts the
run. The only fatal data condition is a duplicate user_id.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

LABELS_HEADER = "user_id,gender,age_years"
MAX_AGE = 130
DEFAULT_AGE_EDGES = (28, 38, 48)


class ParseError(ValueError):
    """A single malformed input line."""


class IngestError(ValueError):
    """Dataset-level violation that aborts the run (e.g. duplicate label)."""


@dataclass(frozen=True, slots=True)
class LabelRecord:
    user_id: str
    gender: str
    age_years: int


@dataclass(frozen=True, slots=True)
class Rejection:
    stream: str  # "cdr" or "labels"
    line: int    # 1-based physical line number within that file
    reason: str


@dataclass
class IngestReport:
    """Accounting for one ingest run; accepted + rejected covers every data line."""

    records_accepted: int = 0
    records_rejected: int = 0
    labels_accepted: int = 0
    labels_rejected: int = 0
    rejections: list[Rejection] = field(default_factory=list)

    def reject(self, stream: str, line: int, reason: str) -> None:
        if stream == "cdr":
            self.records_rejected += 1
        else:
            self.labels_rejected += 1
        self.rejections.append(Rejection(stream, line, reason))

    def to_json(self) -> dict:
        rejections = [dict(stream=r.stream, line=r.line, reason=r.reason) for r in self.rejections]
        return {**vars(self), "rejections": rejections}


def parse_labels_line(line: str) -> LabelRecord:
    """Parse one label row "user_id,gender,age_years"; raises ParseError."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 3:
        raise ParseError(f"expected 3 fields, got {len(fields)}")
    user_id, gender, age_s = fields
    if not user_id:
        raise ParseError("empty user_id")
    if not gender:
        raise ParseError("empty gender")
    # str.isdigit alone also takes digits such as "²" and "٣"
    if not (age_s.isascii() and age_s.isdigit()):
        raise ParseError(f"negative or non-integer age {age_s!r}")
    age = int(age_s)
    if age > MAX_AGE:
        raise ParseError(f"age {age} out of [0, {MAX_AGE}]")
    return LabelRecord(user_id, gender, age)


def load_labels(
    label_lines: Iterable[str], report: IngestReport | None = None
) -> tuple[dict[str, LabelRecord], IngestReport]:
    """The label map of a labels stream, and the report its rejections and count go to.

    A first line equal to LABELS_HEADER is skipped; a duplicate user_id is
    an IngestError.
    """
    if report is None:
        report = IngestReport()
    labels: dict[str, LabelRecord] = {}
    for line_no, raw in enumerate(label_lines, start=1):
        text = raw.rstrip("\r\n")
        if line_no == 1 and text == LABELS_HEADER:
            continue
        try:
            rec = parse_labels_line(text)
        except ParseError as exc:
            report.reject("labels", line_no, str(exc))
            continue
        if rec.user_id in labels:
            raise IngestError(f"duplicate label for user {rec.user_id!r} at labels line {line_no}")
        report.labels_accepted += 1
        labels[rec.user_id] = rec
    return labels, report


def _check_utf8(path, data: bytes) -> None:
    """Raise a ValueError naming the line and value of data's first byte that is not UTF-8.

    Lines end as in a file opened in text mode. Valid data passes.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, line ends kept.

    A byte that is not UTF-8 is a ValueError that names the file and the
    line it sits on.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        # the error's position counts from the start of one read chunk:
        # decode the whole file again to place the first bad byte on its line
        with open(path, "rb") as fh:
            _check_utf8(path, fh.read())
        raise


def _age_labels(edges: tuple[int, ...]) -> tuple[str, ...]:
    """Class labels "[lo,hi)" of the age buckets cut at strictly increasing positive years.

    The first bucket starts at 0 and the last, "[last edge,inf)", is open.
    An edge that is not an int is a ValueError.
    """
    if not edges:
        raise ValueError("at least one bucket edge required")
    if not all(type(e) is int for e in edges):
        raise ValueError(f"age_edges must be whole years, got {edges!r}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bucket edges must be strictly increasing: {edges}")
    if edges[0] <= 0:
        raise ValueError("bucket edges must be positive years")
    return tuple(f"[{lo},{hi})" for lo, hi in zip((0,) + edges, edges)) + (f"[{edges[-1]},inf)",)


@dataclass(frozen=True)
class LabelSpace:
    """The classes of one label attribute and the one rule mapping a label row to a class.

    Gender classes are the sorted distinct genders of the records the space
    is fitted on; age classes are the buckets of age_edges. A space is fitted
    once and then carried by the model, so training, the SVM head and
    evaluation index labels the same way.
    """

    attribute: str
    class_labels: tuple[str, ...]
    age_edges: tuple[int, ...] | None = None  # age only

    def __post_init__(self):
        labels = tuple(self.class_labels)
        object.__setattr__(self, "class_labels", labels)
        if self.attribute == "age":
            edges = tuple(self.age_edges or ())
            object.__setattr__(self, "age_edges", edges)
            if labels != _age_labels(edges):
                raise ValueError(f"class_labels {labels} disagree with age_edges {edges}")
        elif self.attribute == "gender":
            if self.age_edges is not None:
                raise ValueError("a gender label space holds no age_edges")
            strings = all(isinstance(label, str) for label in labels)
            if not strings or len(labels) < 2 or labels != tuple(sorted(set(labels))):
                raise ValueError(
                    f"gender class_labels must be two or more distinct strings in sorted order, "
                    f"got {labels}"
                )
        else:
            raise ValueError(f"unknown attribute {self.attribute!r}, expected 'gender' or 'age'")

    @classmethod
    def fit(
        cls, attribute: str, records, age_edges: tuple[int, ...] = DEFAULT_AGE_EDGES
    ) -> LabelSpace:
        """The space of attribute over the given label records."""
        if attribute == "age":
            edges = tuple(age_edges)
            return cls(attribute, _age_labels(edges), edges)
        return cls(attribute, tuple(sorted({r.gender for r in records})))

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def index(self, record: LabelRecord) -> int:
        """Class index of a label row; a gender outside the space is a ValueError."""
        if self.attribute == "age":
            # age in [edge_{i-1}, edge_i) is class i
            return bisect_right(self.age_edges, record.age_years)
        try:
            return self.class_labels.index(record.gender)
        except ValueError:
            raise ValueError(
                f"user {record.user_id!r}: gender {record.gender!r} not in {self.class_labels}"
            ) from None
