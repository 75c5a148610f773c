"""Weekly 8-channel activity tensors counted from CDR columns.

Each active (user, week) becomes an (8, 24, 7) array of raw counts over
hour-of-day x weekday cells, Monday first. Channel order:

    0 out_unique_contacts   4 in_unique_contacts
    1 out_calls             5 in_calls
    2 out_texts             6 in_texts
    3 out_call_duration_s   7 in_call_duration_s

Unique contacts are counted per (direction, hour, day) cell over calls
and texts together. An event is binned entirely at its start timestamp.
Weeks are Monday-anchored local time. Normalization is log1p followed by
per-channel z-scoring with training-set statistics: counts and durations
are heavy-tailed, raw values would be poorly scaled for convolution.

Datasets round-trip through a "CDRTENSOR/1" container (see container.py)
holding the raw tensors plus an optional NormStats sidecar.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import date

import numpy as np

from .container import ContainerError, read_container, write_container
from .ingest import EPOCH_ORDINAL, CdrColumns, CdrRecord, LabelRecord

N_CHANNELS, N_HOURS, N_DAYS = 8, 24, 7
N_CELLS = N_HOURS * N_DAYS

CHANNELS = (
    "out_unique_contacts",
    "out_calls",
    "out_texts",
    "out_call_duration_s",
    "in_unique_contacts",
    "in_calls",
    "in_texts",
    "in_call_duration_s",
)

_CH_UNIQUE, _CH_CALLS, _CH_TEXTS, _CH_DURATION = 0, 1, 2, 3
_IN_BASE = 4  # incoming channels follow the four outgoing ones

TENSOR_MAGIC = "CDRTENSOR/1"
STD_FLOOR = 1e-6


@dataclass(frozen=True, slots=True, order=True)
class WeekId:
    """A Monday-anchored calendar week."""

    start_date: date

    def __post_init__(self):
        if self.start_date.weekday() != 0:
            raise ValueError(f"week start {self.start_date} is not a Monday")


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a non-negative int array.

    Same as np.unique(values); np.unique takes a hash-based path here that
    measured 10-40x slower than sorting on 121k keys (numpy 2.4).
    """
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) != 0]


def _count_tensors(row, n_rows: int, columns: CdrColumns, weekday) -> np.ndarray:
    """Raw (n_rows, 8, 24, 7) counts; record i lands in tensor row[i] at weekday[i].

    calls/texts count events, duration sums call seconds, unique contacts
    is the number of distinct correspondents with any event in the cell.
    Every count is one weighted bincount over flat (row, channel, hour, day)
    indices.
    """
    # flat index of the record's cell in its direction's unique-contacts channel
    cell = (row * N_CHANNELS + _IN_BASE * columns.incoming) * N_CELLS
    cell += columns.hour * N_DAYS + weekday
    events = cell + np.where(columns.is_call, _CH_CALLS, _CH_TEXTS) * N_CELLS
    calls = cell[columns.is_call] + _CH_DURATION * N_CELLS
    # distinct (cell, contact) pairs; the key stays far below 2**63
    n_contacts = max(len(columns.contact_ids), 1)
    unique = _distinct(cell * n_contacts + columns.contact) // n_contacts + _CH_UNIQUE * N_CELLS
    index = np.concatenate([events, calls, unique])
    weights = np.concatenate(
        [np.ones(len(events)), columns.duration[columns.is_call], np.ones(len(unique))]
    )
    counts = np.bincount(index, weights, minlength=n_rows * N_CHANNELS * N_CELLS)
    return counts.reshape(n_rows, N_CHANNELS, N_HOURS, N_DAYS)


def build_week_tensor(records: list[CdrRecord], week: WeekId) -> np.ndarray:
    """Raw (8, 24, 7) counts for one user-week; raises ValueError for a record outside it."""
    columns = CdrColumns.from_records(records)
    weekday = columns.day - (week.start_date.toordinal() - EPOCH_ORDINAL)
    outside = (weekday < 0) | (weekday >= N_DAYS)
    if outside.any():
        rec = records[int(np.argmax(outside))]
        raise ValueError(f"record at {rec.timestamp} outside week of {week.start_date}")
    return _count_tensors(np.zeros(len(columns), dtype=np.int64), 1, columns, weekday)[0]


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std of log1p cell values over a training set."""

    mean: np.ndarray  # (8,)
    std: np.ndarray   # (8,), floored at STD_FLOOR


def fit_normalizer(tensors) -> NormStats:
    """Fit per-channel log1p statistics over an (N,8,24,7) array."""
    arr = np.asarray(tensors, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[0] == 0:
        raise ValueError("fit_normalizer needs a non-empty list of week tensors")
    logs = np.log1p(arr)
    mean = logs.mean(axis=(0, 2, 3))
    std = np.maximum(logs.std(axis=(0, 2, 3)), STD_FLOOR)
    return NormStats(mean, std)


def apply_normalizer(tensor, stats: NormStats) -> np.ndarray:
    """(log1p(cell) - mean_c) / std_c; works on (8,24,7) or batched (N,8,24,7)."""
    t = np.log1p(np.asarray(tensor, dtype=np.float64))
    return (t - stats.mean[:, None, None]) / stats.std[:, None, None]


@dataclass(frozen=True)
class AgeBuckets:
    """Right-open age intervals from strictly increasing year edges."""

    edges: tuple[int, ...]

    def __post_init__(self):
        edges = tuple(int(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if not edges:
            raise ValueError("at least one bucket edge required")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must be strictly increasing: {edges}")
        if edges[0] <= 0:
            raise ValueError("bucket edges must be positive years")

    @property
    def num_classes(self) -> int:
        return len(self.edges) + 1

    def class_labels(self) -> tuple[str, ...]:
        bounds = (0,) + self.edges
        labels = [f"[{lo},{hi})" for lo, hi in zip(bounds, self.edges)]
        labels.append(f"[{self.edges[-1]},inf)")
        return tuple(labels)


DEFAULT_AGE_EDGES = (28, 38, 48)


def bucketize_age(age_years: int, buckets: AgeBuckets) -> int:
    """Index i with age in [edge_{i-1}, edge_i); first bucket starts at 0, last is open."""
    return bisect_right(buckets.edges, age_years)


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
            edges = AgeBuckets(tuple(self.age_edges or ())).edges
            object.__setattr__(self, "age_edges", edges)
            if labels != AgeBuckets(edges).class_labels():
                raise ValueError(f"class_labels {labels} disagree with age_edges {edges}")
        elif self.attribute == "gender":
            if self.age_edges is not None:
                raise ValueError("a gender label space holds no age_edges")
            if len(labels) < 2 or labels != tuple(sorted(set(labels))):
                raise ValueError(
                    f"gender class_labels must be two or more distinct values in sorted order, "
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
            return cls(attribute, AgeBuckets(tuple(age_edges)).class_labels(), tuple(age_edges))
        return cls(attribute, tuple(sorted({r.gender for r in records})))

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def index(self, record: LabelRecord) -> int:
        """Class index of a label row; a gender outside the space is a ValueError."""
        if self.attribute == "age":
            return bucketize_age(record.age_years, AgeBuckets(self.age_edges))
        try:
            return self.class_labels.index(record.gender)
        except ValueError:
            raise ValueError(
                f"gender {record.gender!r} not among the classes {self.class_labels}"
            ) from None


@dataclass
class TensorDataset:
    """Parallel (user_id, week, raw tensor) rows plus an optional NormStats sidecar."""

    user_ids: list[str]
    weeks: list[WeekId]
    tensors: np.ndarray  # (N, 8, 24, 7) raw values
    norm_stats: NormStats | None = None

    def __len__(self) -> int:
        return len(self.user_ids)

    def rows_of(self, users) -> list[int]:
        """Row indices of the given users' weeks, stably sorted by user id."""
        chosen = set(users)
        ids = self.user_ids
        return sorted((i for i, u in enumerate(ids) if u in chosen), key=ids.__getitem__)

    def by_user(self) -> dict[str, np.ndarray]:
        """Stacked week tensors per user, users in sorted order."""
        index: dict[str, list[int]] = {}
        for i, uid in enumerate(self.user_ids):
            index.setdefault(uid, []).append(i)
        return {uid: self.tensors[rows] for uid, rows in sorted(index.items())}


def featurize_users(columns: CdrColumns, include_empty_weeks: bool = False) -> TensorDataset:
    """One raw tensor per active (user, week), users and weeks in sorted order.

    By default a week with zero activity produces no tensor. With
    include_empty_weeks, zero tensors fill the gaps inside each user's
    [first, last] active-week span.
    """
    if not len(columns):
        return TensorDataset([], [], np.zeros((0, N_CHANNELS, N_HOURS, N_DAYS)))
    # day 0 (1970-01-01) is a Thursday: shift by 3 to anchor weeks on Monday
    week, weekday = np.divmod(columns.day + 3, N_DAYS)
    first = int(week.min())
    n_weeks = int(week.max()) - first + 1
    key = columns.user * n_weeks + (week - first)
    if include_empty_weeks:
        n_users = len(columns.user_ids)
        lo = np.full(n_users, n_weeks)
        hi = np.full(n_users, -1)
        np.minimum.at(lo, columns.user, week - first)
        np.maximum.at(hi, columns.user, week - first)
        span = np.maximum(hi - lo + 1, 0)
        starts = np.repeat(np.arange(n_users) * n_weeks + lo - (np.cumsum(span) - span), span)
        row_keys = starts + np.arange(span.sum())
    else:
        row_keys = _distinct(key)
    row = np.searchsorted(row_keys, key)
    tensors = _count_tensors(row, len(row_keys), columns, weekday)
    user_of, week_of = np.divmod(row_keys, n_weeks)
    mondays = {
        w: WeekId(date.fromordinal(EPOCH_ORDINAL + (w + first) * N_DAYS - 3))
        for w in set(week_of.tolist())
    }
    user_ids = [columns.user_ids[u] for u in user_of.tolist()]
    return TensorDataset(user_ids, [mondays[w] for w in week_of.tolist()], tensors)


def save_tensor_dataset(path, ds: TensorDataset) -> None:
    header = {
        "count": len(ds),
        "users": ds.user_ids,
        "weeks": [wk.start_date.isoformat() for wk in ds.weeks],
        "has_norm": ds.norm_stats is not None,
    }
    arrays = {"tensors": ds.tensors}
    if ds.norm_stats is not None:
        arrays["norm.mean"] = ds.norm_stats.mean
        arrays["norm.std"] = ds.norm_stats.std
    write_container(path, TENSOR_MAGIC, header, arrays)


def load_tensor_dataset(path) -> TensorDataset:
    """Read a tensor file; a header that does not describe its tensors is a ContainerError."""
    header, arrays = read_container(path, TENSOR_MAGIC)
    tensors = arrays.get("tensors")
    if tensors is None or tensors.shape[1:] != (N_CHANNELS, N_HOURS, N_DAYS):
        shape = None if tensors is None else tensors.shape
        raise ContainerError(f"{path}: tensors of shape {shape}, expected (N, 8, 24, 7)")
    for name in ("users", "weeks"):
        value = header.get(name)
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ContainerError(f"{path}: {name} is not a list of strings")
        if len(value) != len(tensors):
            raise ContainerError(f"{path}: {len(value)} {name} for {len(tensors)} tensors")
    weeks = [WeekId(date.fromisoformat(s)) for s in header["weeks"]]
    stats = None
    if header.get("has_norm"):
        stats = NormStats(arrays["norm.mean"], arrays["norm.std"])
    return TensorDataset(header["users"], weeks, tensors, stats)
