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
holding the raw tensors, one row per user week with the rows sorted by user
id, in compressed sparse row form plus an optional NormStats sidecar. Row
i's non-zero cells are cells[offsets[i]:offsets[i+1]], each a flat
(channel, hour, day) index below 1344 in increasing order, with their
values in counts at the same positions:

    offsets   <i8   N+1 entries, offsets[0] == 0, offsets[N] == len(cells)
    cells     <u2   flat cell index of each non-zero count
    counts    <uK   the non-zero counts: |u1, <u2, <u4 or <u8, else <f8

The counts are integers, so they are written in the narrowest unsigned
dtype that holds every one exactly; a count that is not an integer below
2**64 keeps them all <f8. Loading widens them to float64. The tensors are
mostly zeros, so the file is 1/20 of the dense float64 size on the ref-250
benchmark workload (1,073,719 of 21,504,000 bytes).
featurize counts the CSR arrays straight from sorted cell keys and fits
the normalizer over the non-zeros alone, so it never holds the dense
tensors. Loading checks the arrays and the user order, and keeps them.
train, train-svm and predict read them through apply_normalizer, which
fills one batch of normalized tensors at a time, so no stage builds the
dense tensors. Dense "CDRTENSOR/1" files are refused; featurize rebuilds
them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from functools import cached_property

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
    Every count is a sum over flat (row, channel, hour, day) keys, so the
    dense tensors are never built. An event or a contact adds 1 to its key,
    so those keys are sorted and counted. A call adds its seconds to its
    duration key in record order, so only those keys are sorted stably and
    summed; zero sums (zero-second calls) are dropped. The two key sets lie
    in different channels, so the two sorted runs merge without a collision.
    """
    # flat index of the record's cell in its direction's unique-contacts channel
    cell = (row * N_CHANNELS + _IN_BASE * columns.incoming) * N_CELLS
    cell += columns.hour * N_DAYS + weekday
    events = cell + np.where(columns.is_call, _CH_CALLS, _CH_TEXTS) * N_CELLS
    calls = cell[columns.is_call] + _CH_DURATION * N_CELLS
    # distinct (cell, contact) pairs; the key stays far below 2**63
    n_contacts = max(len(columns.contact_ids), 1)
    unique = _distinct(cell * n_contacts + columns.contact) // n_contacts + _CH_UNIQUE * N_CELLS
    del cell
    unit = np.sort(np.concatenate([events, unique]))
    del events, unique
    first = np.flatnonzero(np.diff(unit, prepend=-1))
    keys, counts = unit[first], np.diff(first, append=len(unit)).astype(np.float64)
    del unit
    order = np.argsort(calls, kind="stable")
    calls, seconds = calls[order], columns.duration[columns.is_call][order]
    first = np.flatnonzero(np.diff(calls, prepend=-1))
    sums = np.add.reduceat(seconds, first) if len(first) else seconds
    nonzero = sums != 0
    calls, sums = calls[first][nonzero], sums[nonzero]
    at = np.searchsorted(keys, calls)
    keys, counts = np.insert(keys, at, calls), np.insert(counts, at, sums)
    offsets = np.searchsorted(keys, np.arange(n_rows + 1) * TENSOR_CELLS)
    return offsets, (keys % TENSOR_CELLS).astype(np.uint16), counts


def _flat_index(sizes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Index of CSR cells into flattened dense (len(sizes), 8, 24, 7) tensors; row i has sizes[i]."""
    index = np.repeat(np.arange(len(sizes)) * TENSOR_CELLS, sizes)
    index += cells
    return index


def _row_positions(offsets: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Positions in cells and counts of the rows' non-zeros, row after row, and each row's count."""
    rows = np.asarray(rows, dtype=np.intp)
    starts, sizes = offsets[rows], offsets[rows + 1] - offsets[rows]
    # output position k of row i is its start plus k less the row's first output position
    at = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    at += np.arange(len(at))
    return at, sizes


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std of log1p cell values over a training set."""

    mean: np.ndarray  # (8,)
    std: np.ndarray   # (8,), floored at STD_FLOOR


def fit_normalizer(dataset: TensorDataset, rows=None) -> NormStats:
    """Fit per-channel log1p statistics over a TensorDataset's tensors.

    rows, when given, selects the tensors to fit over, in that order and
    repeats counted. Only the non-zero cells are visited, row after row. Each
    channel has N·168 cells, and a zero cell adds log1p(0) = 0 to its
    channel's sum and mean² to its squared deviations.
    """
    offsets, cells, counts = dataset.offsets, dataset.cells, dataset.counts
    n_rows = len(offsets) - 1
    if rows is not None:
        at, _ = _row_positions(offsets, rows)
        n_rows, cells, counts = len(rows), cells[at], counts[at]
    if n_rows == 0:
        raise ValueError("fit_normalizer needs a non-empty list of week tensors")
    channel = cells // N_CELLS
    logs = np.log1p(counts)
    size = n_rows * N_CELLS
    mean, squares = np.zeros(N_CHANNELS), np.zeros(N_CHANNELS)
    for c in range(N_CHANNELS):
        values = logs[channel == c]
        mean[c] = values.sum() / size
        squares[c] = np.square(values - mean[c]).sum() + (size - len(values)) * mean[c] ** 2
    return NormStats(mean, np.maximum(np.sqrt(squares / size), STD_FLOOR))


def apply_normalizer(dataset, rows, stats: NormStats, out: np.ndarray) -> np.ndarray:
    """Fill out with the normalized tensors of the dataset's rows, in order; returns out.

    out is a C-contiguous (M, 8, 24, 7) float array with M >= len(rows). Each
    cell first gets its channel's normalized zero, (0 - mean_c) / std_c, which
    the M - len(rows) rows past the end keep; then each row's non-zero cells
    get (log1p(count) - mean_c) / std_c. Both are computed in float64 and cast
    to out's dtype on store, so out holds the dense (log1p(x) - mean) / std
    cast to its dtype.
    """
    if not out.flags.c_contiguous or out.shape[1:] != (N_CHANNELS, N_HOURS, N_DAYS):
        raise ValueError(f"expected a C-contiguous (M, 8, 24, 7) output, got shape {out.shape}")
    if len(out) < len(rows):
        raise ValueError(f"{len(rows)} rows do not fit an output of {len(out)}")
    at, sizes = _row_positions(dataset.offsets, rows)
    cells = dataset.cells[at]
    out[...] = ((0.0 - stats.mean) / stats.std)[:, None, None]
    channel = cells // N_CELLS
    values = dataset.logs[at]
    values -= stats.mean[channel]
    values /= stats.std[channel]
    out.reshape(-1)[_flat_index(sizes, cells)] = values
    return out


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
    docstring); apply_normalizer fills batches from them. Rows must come
    sorted by user id (else ValueError): users holds the distinct ids and
    user i's rows are user_offsets[i]:user_offsets[i+1]. tensors, their
    dense float64 (N, 8, 24, 7) view, and by_user, which slices it, remain
    for the benchmark alone; no CLI stage reads them.
    """

    def __init__(
        self,
        user_ids: list[str],
        weeks: list[WeekId],
        offsets: np.ndarray,
        cells: np.ndarray,
        counts: np.ndarray,
        norm_stats: NormStats | None = None,
    ):
        starts = [i for i, u in enumerate(user_ids) if i == 0 or u != user_ids[i - 1]]
        self.users = [user_ids[i] for i in starts]
        for a, b in zip(self.users, self.users[1:]):
            if b < a:
                raise ValueError(f"users not sorted by id: {b!r} follows {a!r}")
        self.user_offsets = np.array(starts + [len(user_ids)], dtype=np.intp)  # (U+1,)
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
            dense.reshape(-1)[_flat_index(np.diff(self.offsets), self.cells)] = self.counts
            dense.flags.writeable = False
            self._dense = dense
        return self._dense

    @cached_property
    def logs(self) -> np.ndarray:
        """log1p of counts, computed on first use."""
        return np.log1p(self.counts)

    def __len__(self) -> int:
        return len(self.user_ids)

    def rows_of(self, users) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of the given users' weeks, in file order, and the week count
        of each of those users the dataset holds, in sorted order."""
        chosen = set(users)
        keep = np.array([u in chosen for u in self.users], dtype=bool)
        sizes = np.diff(self.user_offsets)
        return np.flatnonzero(np.repeat(keep, sizes)), sizes[keep]

    def by_user(self) -> dict[str, np.ndarray]:
        """Each user's stacked week tensors, a slice of tensors, users in sorted order."""
        tensors, bounds = self.tensors, self.user_offsets.tolist()
        return {u: tensors[a:b] for u, a, b in zip(self.users, bounds, bounds[1:])}


def featurize_users(columns: CdrColumns) -> TensorDataset:
    """One raw tensor per active (user, week), users and weeks in sorted order.

    A week with zero activity produces no tensor.
    """
    if not len(columns):
        return TensorDataset([], [], np.zeros(1, np.int64), np.zeros(0, np.uint16), np.zeros(0))
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
    return TensorDataset(user_ids, weeks, offsets, cells, counts)


def _narrowest(counts: np.ndarray) -> np.ndarray:
    """counts in the narrowest unsigned dtype that holds each one exactly, else as they are."""
    top = counts.max(initial=0.0)
    if not (0.0 <= counts.min(initial=0.0) and top < 2.0**64):  # a NaN fails here too
        return counts
    narrow = counts.astype(np.min_scalar_type(int(top)).newbyteorder("<"))
    return narrow if np.array_equal(narrow, counts) else counts


def save_tensor_dataset(path, ds: TensorDataset) -> None:
    """Write a tensor file from the dataset's CSR arrays."""
    header = {
        "count": len(ds),
        "users": ds.user_ids,
        "weeks": [wk.start_date.isoformat() for wk in ds.weeks],
        "has_norm": ds.norm_stats is not None,
    }
    arrays = {"offsets": ds.offsets, "cells": ds.cells, "counts": _narrowest(ds.counts)}
    if ds.norm_stats is not None:
        arrays["norm.mean"] = ds.norm_stats.mean
        arrays["norm.std"] = ds.norm_stats.std
    write_container(path, TENSOR_MAGIC, header, arrays)


_COUNTS = (np.uint8, np.uint16, np.uint32, np.uint64, np.float64)
_SPARSE_DTYPES = {"offsets": (np.int64,), "cells": (np.uint16,), "counts": _COUNTS}


def _check_sparse(path, arrays: dict[str, np.ndarray]) -> int:
    """The number of tensors in a file's sparse arrays.

    Arrays that do not form the layout in the module docstring are a
    ContainerError naming the array.
    """
    for name, dtypes in _SPARSE_DTYPES.items():
        arr = arrays.get(name)
        if arr is None or arr.ndim != 1 or arr.dtype not in dtypes:
            got = "missing" if arr is None else f"of shape {arr.shape} and dtype {arr.dtype}"
            expected = " or ".join(np.dtype(d).name for d in dtypes)
            raise ContainerError(f"{path}: array {name} {got}, expected 1-D {expected}")
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
    index = _flat_index(sizes, cells)
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
    arrays["counts"] = arrays["counts"].astype(np.float64, copy=False)
    sparse = (arrays[name] for name in _SPARSE_DTYPES)
    try:
        return TensorDataset(header["users"], weeks, *sparse, norm_stats=stats)
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from None
