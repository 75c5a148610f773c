"""Weekly 8-channel activity tensors counted from CDR columns.

Each active (user, week) becomes an (8, 24, 7) array of raw counts over
hour-of-day x weekday cells, Monday first, held as its non-zero cells
(the CSR layout below). Channel order:

    0 out_unique_contacts   4 in_unique_contacts
    1 out_calls             5 in_calls
    2 out_texts             6 in_texts
    3 out_call_duration_s   7 in_call_duration_s

Unique contacts are counted per (direction, hour, day) cell over calls
and texts together. An event is binned entirely at its start timestamp.
Weeks are Monday-anchored local time. Normalization is log1p followed by
per-channel z-scoring with training-set statistics: counts and durations
are heavy-tailed, raw values would be poorly scaled for convolution.

Datasets round-trip through a "CDRTENSOR/2" container (see container.py)
holding the raw tensors in compressed sparse row form plus an optional
NormStats sidecar. Row i's non-zero cells are cells[offsets[i]:offsets[i+1]],
each a flat (channel, hour, day) index below 1344 in increasing order, with
their values in counts at the same positions:

    offsets   <i8   N+1 entries, offsets[0] == 0, offsets[N] == len(cells)
    cells     <u2   flat cell index of each non-zero count
    counts    <f8   the non-zero counts

The tensors are mostly zeros (9.4% of cells are non-zero on a reference
synthetic set), so the file is an eighth of the dense float64 size or less.
featurize counts the CSR arrays straight from sorted cell keys and fits
the normalizer over the non-zeros alone, so it never holds the dense
tensors. Loading checks the arrays and keeps them; TensorDataset.tensors
builds the dense (N, 8, 24, 7) float64 view on first use, for the readers
that still want it. Dense "CDRTENSOR/1" files are refused; featurize
rebuilds them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from itertools import groupby

import numpy as np

from .container import ContainerError, FormatVersionError, read_container, write_container
from .ingest import EPOCH_ORDINAL, CdrColumns, LabelRecord

N_CHANNELS, N_HOURS, N_DAYS = 8, 24, 7
N_CELLS = N_HOURS * N_DAYS
TENSOR_CELLS = N_CHANNELS * N_CELLS  # flat cells of one week tensor

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

TENSOR_MAGIC = "CDRTENSOR/2"
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


def _count_tensors(row, n_rows: int, columns: CdrColumns, weekday):
    """CSR (offsets, cells, counts) of the raw tensors; record i lands in row[i] at weekday[i].

    calls/texts count events, duration sums call seconds, unique contacts
    is the number of distinct correspondents with any event in the cell.
    Every count is a weighted sum over flat (row, channel, hour, day) keys:
    the keys are sorted, the weights of each distinct key are summed, and
    zero sums (a zero-second call's duration) are dropped, so the dense
    tensors are never built.
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
    del cell, events, calls, unique
    order = np.argsort(index, kind="stable")
    index = index[order]
    weights = weights[order]
    del order
    first = np.flatnonzero(np.diff(index, prepend=-1))
    keys, counts = index[first], np.add.reduceat(weights, first)
    nonzero = counts != 0
    keys, counts = keys[nonzero], counts[nonzero]
    offsets = np.searchsorted(keys, np.arange(n_rows + 1) * TENSOR_CELLS)
    return offsets, (keys % TENSOR_CELLS).astype(np.uint16), counts


def _sparse(tensors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (offsets, cells, counts) of dense (N, 8, 24, 7) tensors."""
    arr = np.asarray(tensors, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[1:] != (N_CHANNELS, N_HOURS, N_DAYS):
        raise ValueError(f"expected (N, 8, 24, 7) week tensors, got shape {arr.shape}")
    flat = arr.reshape(-1)
    nonzero = np.flatnonzero(flat)
    offsets = np.searchsorted(nonzero, np.arange(len(arr) + 1) * TENSOR_CELLS)
    return offsets, (nonzero % TENSOR_CELLS).astype(np.uint16), flat[nonzero]


def _flat_index(offsets: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Index of each CSR cell into the flattened dense (N, 8, 24, 7) tensors."""
    index = np.repeat(np.arange(len(offsets) - 1) * TENSOR_CELLS, np.diff(offsets))
    index += cells
    return index


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std of log1p cell values over a training set."""

    mean: np.ndarray  # (8,)
    std: np.ndarray   # (8,), floored at STD_FLOOR


def fit_normalizer(tensors) -> NormStats:
    """Fit per-channel log1p statistics over a TensorDataset or an (N,8,24,7) array.

    Only the non-zero cells are visited. Each channel has N·168 cells, and
    a zero cell adds log1p(0) = 0 to its channel's sum and mean² to its
    squared deviations.
    """
    if isinstance(tensors, TensorDataset):
        rows, cells, counts = len(tensors), tensors.cells, tensors.counts
    else:
        offsets, cells, counts = _sparse(tensors)
        rows = len(offsets) - 1
    if rows == 0:
        raise ValueError("fit_normalizer needs a non-empty list of week tensors")
    channel = cells // N_CELLS
    logs = np.log1p(counts)
    size = rows * N_CELLS
    mean, squares = np.zeros(N_CHANNELS), np.zeros(N_CHANNELS)
    for c in range(N_CHANNELS):
        values = logs[channel == c]
        mean[c] = values.sum() / size
        squares[c] = np.square(values - mean[c]).sum() + (size - len(values)) * mean[c] ** 2
    return NormStats(mean, np.maximum(np.sqrt(squares / size), STD_FLOOR))


def apply_normalizer(tensor, stats: NormStats) -> np.ndarray:
    """(log1p(cell) - mean_c) / std_c; works on (8,24,7) or batched (N,8,24,7)."""
    t = np.log1p(np.asarray(tensor, dtype=np.float64))
    # in place, so that a caller's cast to float32 adds no third full-size array
    t -= stats.mean[:, None, None]
    t /= stats.std[:, None, None]
    return t


DEFAULT_AGE_EDGES = (28, 38, 48)


def _age_labels(edges: tuple[int, ...]) -> tuple[str, ...]:
    """Class labels "[lo,hi)" of the age buckets cut at strictly increasing positive years.

    The first bucket starts at 0 and the last, "[last edge,inf)", is open.
    """
    if not edges:
        raise ValueError("at least one bucket edge required")
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
            edges = tuple(int(e) for e in self.age_edges or ())
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
            edges = tuple(int(e) for e in age_edges)
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
                f"gender {record.gender!r} not among the classes {self.class_labels}"
            ) from None


class TensorDataset:
    """Parallel (user_id, week, raw tensor) rows plus an optional NormStats sidecar.

    The tensors are held as the CSR arrays of a tensor file (module
    docstring). tensors is their dense float64 (N, 8, 24, 7) view, built
    read-only on first use. Dense tensors given in place of the arrays are
    reduced to them.
    """

    def __init__(
        self,
        user_ids: list[str],
        weeks: list[WeekId],
        tensors=None,
        norm_stats: NormStats | None = None,
        *,
        offsets: np.ndarray | None = None,
        cells: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ):
        if tensors is not None:
            offsets, cells, counts = _sparse(tensors)
        self.user_ids = user_ids
        self.weeks = weeks
        self.offsets = offsets  # (N+1,) int64
        self.cells = cells      # uint16
        self.counts = counts    # float64
        self.norm_stats = norm_stats
        self._dense = None

    @property
    def tensors(self) -> np.ndarray:
        """The dense float64 (N, 8, 24, 7) raw tensors."""
        if self._dense is None:
            dense = np.zeros((len(self.offsets) - 1, N_CHANNELS, N_HOURS, N_DAYS))
            dense.reshape(-1)[_flat_index(self.offsets, self.cells)] = self.counts
            dense.flags.writeable = False
            self._dense = dense
        return self._dense

    def __len__(self) -> int:
        return len(self.user_ids)

    def rows_of(self, users) -> list[int]:
        """Row indices of the given users' weeks, stably sorted by user id."""
        chosen = set(users)
        ids = self.user_ids
        return sorted((i for i, u in enumerate(ids) if u in chosen), key=ids.__getitem__)

    def by_user(self) -> dict[str, np.ndarray]:
        """Stacked week tensors per user, users in sorted order.

        Each user's stack is a slice of one array: of tensors itself when the
        rows are already sorted by user, as featurize writes them, so that no
        row is copied; otherwise of one sorted copy.
        """
        rows = self.rows_of(self.user_ids)
        stacked = self.tensors if rows == list(range(len(rows))) else self.tensors[rows]
        out, start = {}, 0
        for uid, group in groupby(self.user_ids[i] for i in rows):
            stop = start + sum(1 for _ in group)
            out[uid] = stacked[start:stop]
            start = stop
        return out


def featurize_users(columns: CdrColumns) -> TensorDataset:
    """One raw tensor per active (user, week), users and weeks in sorted order.

    A week with zero activity produces no tensor.
    """
    if not len(columns):
        return TensorDataset([], [], np.zeros((0, N_CHANNELS, N_HOURS, N_DAYS)))
    # day 0 (1970-01-01) is a Thursday: shift by 3 to anchor weeks on Monday
    week, weekday = np.divmod(columns.day + 3, N_DAYS)
    first = int(week.min())
    n_weeks = int(week.max()) - first + 1
    key = columns.user * n_weeks + (week - first)
    row_keys = _distinct(key)
    row = np.searchsorted(row_keys, key)
    offsets, cells, counts = _count_tensors(row, len(row_keys), columns, weekday)
    user_of, week_of = np.divmod(row_keys, n_weeks)
    mondays = {
        w: WeekId(date.fromordinal(EPOCH_ORDINAL + (w + first) * N_DAYS - 3))
        for w in set(week_of.tolist())
    }
    user_ids = [columns.user_ids[u] for u in user_of.tolist()]
    weeks = [mondays[w] for w in week_of.tolist()]
    return TensorDataset(user_ids, weeks, offsets=offsets, cells=cells, counts=counts)


def save_tensor_dataset(path, ds: TensorDataset) -> None:
    """Write a tensor file from the dataset's CSR arrays."""
    header = {
        "count": len(ds),
        "users": ds.user_ids,
        "weeks": [wk.start_date.isoformat() for wk in ds.weeks],
        "has_norm": ds.norm_stats is not None,
    }
    arrays = {"offsets": ds.offsets, "cells": ds.cells, "counts": ds.counts}
    if ds.norm_stats is not None:
        arrays["norm.mean"] = ds.norm_stats.mean
        arrays["norm.std"] = ds.norm_stats.std
    write_container(path, TENSOR_MAGIC, header, arrays)


_SPARSE_DTYPES = {"offsets": np.int64, "cells": np.uint16, "counts": np.float64}


def _check_sparse(path, arrays: dict[str, np.ndarray]) -> int:
    """The number of tensors in a file's sparse arrays.

    Arrays that do not form the layout in the module docstring are a
    ContainerError naming the array.
    """
    for name, dtype in _SPARSE_DTYPES.items():
        arr = arrays.get(name)
        if arr is None or arr.ndim != 1 or arr.dtype != dtype:
            got = "missing" if arr is None else f"of shape {arr.shape} and dtype {arr.dtype}"
            raise ContainerError(f"{path}: array {name} {got}, expected 1-D {np.dtype(dtype)}")
    offsets, cells, counts = arrays["offsets"], arrays["cells"], arrays["counts"]
    if not len(offsets) or offsets[0] != 0:
        raise ContainerError(f"{path}: offsets do not start at 0")
    sizes = np.diff(offsets)
    if (sizes < 0).any():
        raise ContainerError(f"{path}: offsets decrease")
    if offsets[-1] != len(cells):
        raise ContainerError(f"{path}: offsets end at {offsets[-1]}, not at the {len(cells)} cells")
    if len(counts) != len(cells):
        raise ContainerError(f"{path}: {len(counts)} counts for {len(cells)} cells")
    if len(cells) and cells.max() >= TENSOR_CELLS:
        raise ContainerError(
            f"{path}: cells hold index {cells.max()}, expected below {TENSOR_CELLS}"
        )
    # counts are finite and non-negative; a NaN minimum fails the test too
    if len(counts) and not (0.0 <= counts.min() and counts.max() < np.inf):
        raise ContainerError(f"{path}: counts hold a NaN, infinite or negative count")
    index = _flat_index(offsets, cells)
    if (index[1:] <= index[:-1]).any():
        raise ContainerError(f"{path}: cells of a tensor are not in increasing order")
    return len(sizes)


def load_tensor_dataset(path) -> TensorDataset:
    """Read a tensor file; a header that does not describe its tensors is a ContainerError."""
    try:
        header, arrays = read_container(path, TENSOR_MAGIC)
    except FormatVersionError:
        raise FormatVersionError(
            f"{path}: not a {TENSOR_MAGIC} tensor file; re-run featurize to rebuild it"
        ) from None
    rows = _check_sparse(path, arrays)
    for name in ("users", "weeks"):
        value = header.get(name)
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ContainerError(f"{path}: {name} is not a list of strings")
        if len(value) != rows:
            raise ContainerError(f"{path}: {len(value)} {name} for {rows} tensors in offsets")
    try:
        weeks = [WeekId(date.fromisoformat(s)) for s in header["weeks"]]
    except ValueError as exc:
        raise ContainerError(f"{path}: weeks hold a bad week start: {exc}") from None
    stats = None
    if header.get("has_norm"):
        for name in ("norm.mean", "norm.std"):
            shape = getattr(arrays.get(name), "shape", None)
            if shape != (N_CHANNELS,):
                raise ContainerError(f"{path}: {name} of shape {shape}, expected ({N_CHANNELS},)")
        stats = NormStats(arrays["norm.mean"], arrays["norm.std"])
    sparse = {name: arrays[name] for name in _SPARSE_DTYPES}
    return TensorDataset(header["users"], weeks, norm_stats=stats, **sparse)
