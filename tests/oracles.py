"""Independent brute-force recomputations used to cross-check the library.

Everything here is written the slow, obvious way with plain Python loops
and set/filter logic, sharing no code with the package internals beyond
its ParseError, except brute_generate: it is the event-by-event synth loop
that cdrnet.synth.generate replaced, and it takes the archetypes, label
space and headers from the package so that it redoes only the per-user
draws and the line formatting. The oracles own the CDR record types (Direction, Kind,
CdrRecord) and the reference grammar that parses a line into a record;
the package itself reads CDR files into columns only. Channel order is
restated from the documented contract rather than imported.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from cdrnet.featurize import N_DAYS, N_HOURS, STD_FLOOR, LabelSpace
from cdrnet.ingest import CDR_HEADER, LABELS_HEADER, ParseError
from cdrnet.synth import (
    GENDERS,
    NEUTRAL_CALL_RATIO,
    NEUTRAL_DURATION_S,
    NEUTRAL_OUT_RATIO,
    NEUTRAL_REUSE,
    SynthConfig,
    _blend,
    make_archetypes,
)

OUT_UNIQUE, OUT_CALLS, OUT_TEXTS, OUT_DURATION = 0, 1, 2, 3
IN_UNIQUE, IN_CALLS, IN_TEXTS, IN_DURATION = 4, 5, 6, 7


class Direction(enum.Enum):
    INCOMING = "in"
    OUTGOING = "out"


class Kind(enum.Enum):
    CALL = "call"
    TEXT = "text"


@dataclass(frozen=True, slots=True)
class CdrRecord:
    user_id: str
    direction: Direction
    kind: Kind
    timestamp: datetime
    duration_s: int
    correspondent_id: str


_TIMESTAMP = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)", re.ASCII)


def _parse_timestamp(text: str) -> datetime:
    # Exactly "YYYY-MM-DDThh:mm:ss" in ASCII digits. fromisoformat would also
    # take offsets, fractions and ISO week dates of the same length.
    match = _TIMESTAMP.fullmatch(text)
    if match is None:
        raise ParseError(f"unparseable timestamp {text!r}")
    try:
        return datetime(*map(int, match.groups()))
    except ValueError:
        raise ParseError(f"unparseable timestamp {text!r}") from None


def _is_ascii_number(text: str) -> bool:
    # str.isdigit alone also takes digits such as "²" and "٣"
    return text.isascii() and text.isdigit()


def parse_cdr_record(line: str) -> CdrRecord:
    """The reference CDR grammar: one data row as a record, or ParseError with its defect."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 6:
        raise ParseError(f"expected 6 fields, got {len(fields)}")
    user_id, direction_s, kind_s, ts_s, dur_s, correspondent = fields
    if not user_id:
        raise ParseError("empty user_id")
    if not correspondent:
        raise ParseError("empty correspondent_id")
    try:
        direction = Direction(direction_s)
    except ValueError:
        raise ParseError(f"unknown direction {direction_s!r}") from None
    try:
        kind = Kind(kind_s)
    except ValueError:
        raise ParseError(f"unknown kind {kind_s!r}") from None
    timestamp = _parse_timestamp(ts_s)
    if not _is_ascii_number(dur_s):
        raise ParseError(f"negative or non-integer duration {dur_s!r}")
    if len(dur_s) > 15:  # past 2**53 a float64 no longer holds every value
        raise ParseError(f"duration of {len(dur_s)} digits, at most 15 allowed")
    duration = int(dur_s)
    if kind is Kind.TEXT and duration != 0:
        raise ParseError(f"text with nonzero duration {duration}")
    return CdrRecord(user_id, direction, kind, timestamp, duration, correspondent)


def format_cdr_line(record: CdrRecord) -> str:
    """Canonical line form; parse_cdr_record(format_cdr_line(r)) == r."""
    return ",".join(
        (
            record.user_id,
            record.direction.value,
            record.kind.value,
            record.timestamp.isoformat(timespec="seconds"),
            str(record.duration_s),
            record.correspondent_id,
        )
    )


def brute_week_tensor(records, week_start) -> np.ndarray:
    """Recompute the (8, 24, 7) week tensor by filtering per cell."""
    t = np.zeros((8, 24, 7))
    for hour in range(24):
        for day in range(7):
            for base, direction in ((0, "out"), (4, "in")):
                cell = [
                    r
                    for r in records
                    if r.direction.value == direction
                    and r.timestamp.hour == hour
                    and (r.timestamp.date() - week_start).days == day
                ]
                calls = [r for r in cell if r.kind.value == "call"]
                texts = [r for r in cell if r.kind.value == "text"]
                t[base + OUT_UNIQUE, hour, day] = len({r.correspondent_id for r in cell})
                t[base + OUT_CALLS, hour, day] = len(calls)
                t[base + OUT_TEXTS, hour, day] = len(texts)
                t[base + OUT_DURATION, hour, day] = sum(r.duration_s for r in calls)
    return t


def brute_normalizer(tensors) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and floored std of log1p over every cell of (N, 8, 24, 7) tensors.

    Both sums run over every cell, zeros included, and are exactly rounded
    (math.fsum).
    """
    logs = np.log1p(np.asarray(tensors, dtype=np.float64))
    mean, std = [], []
    for c in range(logs.shape[1]):
        values = logs[:, c].ravel().tolist()
        m = math.fsum(values) / len(values)
        variance = math.fsum((v - m) ** 2 for v in values) / len(values)
        mean.append(m)
        std.append(max(math.sqrt(variance), STD_FLOOR))
    return np.array(mean), np.array(std)


def record_rows(records) -> list[tuple]:
    """What a CDR column set should hold for these records, one sorted tuple each:
    (user, incoming, is_call, days since 1970-01-01, hour, duration, contact)."""
    return sorted(
        (
            r.user_id,
            r.direction.value == "in",
            r.kind.value == "call",
            (r.timestamp.date() - date(1970, 1, 1)).days,
            r.timestamp.hour,
            float(r.duration_s),
            r.correspondent_id,
        )
        for r in records
    )


def column_rows(columns) -> list[tuple]:
    """The records of a CdrColumns decoded into record_rows' tuples."""
    return sorted(
        zip(
            [columns.user_ids[u] for u in columns.user.tolist()],
            columns.incoming.tolist(),
            columns.is_call.tolist(),
            columns.day.tolist(),
            columns.hour.tolist(),
            columns.duration.tolist(),
            [columns.contact_ids[c] for c in columns.contact.tolist()],
        )
    )


def hour_major(x: np.ndarray) -> np.ndarray:
    """An (N, C, H, W) batch in the net's conv layout (H, C, N*W)."""
    n, c, h, w = x.shape
    return x.transpose(2, 1, 0, 3).reshape(h, c, n * w)


def batch_first(y: np.ndarray, n: int) -> np.ndarray:
    """An (H, C, N*W) conv activation of n samples as an (N, C, H, W) batch."""
    h, c, m = y.shape
    return y.reshape(h, c, n, m // n).transpose(2, 1, 0, 3)


def brute_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid cross-correlation by direct six-deep summation; x is (N,C,H,W)."""
    n, c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    hp, wp = h - kh + 1, width - kw + 1
    out = np.zeros((n, c_out, hp, wp))
    for s in range(n):
        for o in range(c_out):
            for y in range(hp):
                for xx in range(wp):
                    acc = b[o]
                    for c in range(c_in):
                        for i in range(kh):
                            for j in range(kw):
                                acc += x[s, c, y + i, xx + j] * w[o, c, i, j]
                    out[s, o, y, xx] = acc
    return out


def brute_conv_grads(x: np.ndarray, w: np.ndarray, dz: np.ndarray):
    """(dW, dX) of the valid cross-correlation for the output gradient dz, by direct summation."""
    n, c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    _, _, hp, wp = dz.shape
    dw = np.zeros(w.shape)
    dx = np.zeros(x.shape)
    for s in range(n):
        for o in range(c_out):
            for y in range(hp):
                for xx in range(wp):
                    for c in range(c_in):
                        for i in range(kh):
                            for j in range(kw):
                                dw[o, c, i, j] += dz[s, o, y, xx] * x[s, c, y + i, xx + j]
                                dx[s, c, y + i, xx + j] += dz[s, o, y, xx] * w[o, c, i, j]
    return dw, dx


def brute_dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map by explicit summation; x is (N, d_in)."""
    n = x.shape[0]
    d_out, d_in = w.shape
    out = np.zeros((n, d_out))
    for s in range(n):
        for o in range(d_out):
            acc = b[o]
            for c in range(d_in):
                acc += w[o, c] * x[s, c]
            out[s, o] = acc
    return out


def brute_pegasos(features, labels, lam: float, epochs: int, seed: int, n_classes: int):
    """(weights, bias, objective_history) of one-vs-rest Pegasos, updating w at every step.

    Features are standardized by their mean and by their std floored at 1e-6.
    Class k walks permutations from the k-th child of SeedSequence(seed);
    per step t: eta = 1/(lam*t), w *= 1 - 1/t, a margin violation adds
    eta*y*z to w and eta*y to b, and w is projected onto the ball of radius
    1/sqrt(lam). Each epoch ends with the objective
    0.5*lam*|w|^2 + mean hinge.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    z = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-6)
    n, d = z.shape
    weights = np.zeros((n_classes, d))
    bias = np.zeros(n_classes)
    history = []
    radius = 1.0 / np.sqrt(lam)
    streams = np.random.SeedSequence(seed).spawn(n_classes)
    for k in range(n_classes):
        rng = np.random.default_rng(streams[k])
        y = np.where(labels == k, 1.0, -1.0)
        w = np.zeros(d)
        b = 0.0
        t = 0
        curve = []
        for _ in range(epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                w *= 1.0 - 1.0 / t
                if y[i] * (w @ z[i] + b) < 1.0:
                    w += eta * y[i] * z[i]
                    b += eta * y[i]
                norm = np.sqrt(w @ w)
                if norm > radius:
                    w *= radius / norm
            hinge = np.maximum(0.0, 1.0 - y * (z @ w + b))
            curve.append(float(0.5 * lam * (w @ w) + hinge.mean()))
        weights[k] = w
        bias[k] = b
        history.append(curve)
    return weights, bias, history


def random_records(rng: np.random.Generator, count: int, week_start):
    """Uniformly random records inside one calendar week (for oracle tests)."""
    records = []
    for _ in range(count):
        kind = Kind.CALL if rng.random() < 0.5 else Kind.TEXT
        ts = datetime(week_start.year, week_start.month, week_start.day) + timedelta(
            days=int(rng.integers(7)),
            hours=int(rng.integers(24)),
            minutes=int(rng.integers(60)),
            seconds=int(rng.integers(60)),
        )
        records.append(
            CdrRecord(
                user_id="u0",
                direction=Direction.OUTGOING if rng.random() < 0.5 else Direction.INCOMING,
                kind=kind,
                timestamp=ts,
                duration_s=int(rng.integers(1, 600)) if kind is Kind.CALL else 0,
                correspondent_id=f"c{int(rng.integers(40)):02d}",
            )
        )
    return records


def brute_generate(config: SynthConfig) -> tuple[list[str], list[str]]:
    """Reference for synth.generate: one datetime, rng call and f-string per event."""
    edges = LabelSpace.fit("age", (), config.age_edges).age_edges
    archetypes = make_archetypes(len(edges) + 1, config.seed)
    n_cells = N_HOURS * N_DAYS
    uniform = np.full(n_cells, 1.0 / n_cells)
    s = config.signal

    cdr_lines = [CDR_HEADER]
    label_lines = [LABELS_HEADER]
    streams = np.random.SeedSequence(config.seed).spawn(config.users)

    for u in range(config.users):
        rng = np.random.default_rng(streams[u])
        uid = f"u{u:06d}"
        gender = GENDERS[0] if rng.random() < config.gender_ratio else GENDERS[1]
        bucket = int(rng.integers(len(edges) + 1))
        lo = 0 if bucket == 0 else edges[bucket - 1]
        hi = edges[bucket] if bucket < len(edges) else edges[-1] + 30
        age = int(rng.integers(lo, hi))
        label_lines.append(f"{uid},{gender},{age}")

        arch = archetypes[(gender, bucket)]
        cells_p = s * arch.intensity.reshape(-1) + (1.0 - s) * uniform
        cells_p = cells_p / cells_p.sum()
        call_ratio = _blend(s, arch.call_ratio, NEUTRAL_CALL_RATIO)
        out_ratio = _blend(s, arch.out_ratio, NEUTRAL_OUT_RATIO)
        mean_dur = _blend(s, arch.mean_duration_s, NEUTRAL_DURATION_S)
        reuse = _blend(s, arch.contact_reuse, NEUTRAL_REUSE)

        counts = rng.poisson(config.event_rate, size=config.weeks_per_user)
        total = int(counts.sum())
        if total == 0:
            continue
        cells = rng.choice(n_cells, size=total, p=cells_p)
        minutes = rng.integers(0, 60, size=total)
        seconds = rng.integers(0, 60, size=total)
        is_call = rng.random(total) < call_ratio
        is_out = rng.random(total) < out_ratio
        durations = np.rint(rng.exponential(mean_dur, size=total)).astype(np.int64)
        reuse_draw = rng.random(total)

        seen: list[str] = []
        seen_set: set[str] = set()
        i = 0
        for w in range(config.weeks_per_user):
            monday = config.start_monday + timedelta(weeks=w)
            for _ in range(int(counts[w])):
                hour, day = divmod(int(cells[i]), N_DAYS)
                ts = datetime(
                    monday.year, monday.month, monday.day, hour, int(minutes[i]), int(seconds[i])
                ) + timedelta(days=day)
                if reuse_draw[i] < reuse and seen:
                    contact = seen[int(rng.integers(len(seen)))]
                else:
                    contact = f"c{u:06d}n{int(rng.integers(config.contact_pool)):03d}"
                    if contact not in seen_set:
                        seen_set.add(contact)
                        seen.append(contact)
                kind = "call" if is_call[i] else "text"
                duration = int(durations[i]) if is_call[i] else 0
                direction = "out" if is_out[i] else "in"
                stamp = ts.isoformat(timespec="seconds")
                cdr_lines.append(f"{uid},{direction},{kind},{stamp},{duration},{contact}")
                i += 1
    return cdr_lines, label_lines
