"""Independent brute-force recomputations used to cross-check the library.

Everything here is written the slow, obvious way with plain Python loops
and set/filter logic, sharing no code with the package internals beyond
the public record types. Channel order is restated from the documented
contract rather than imported.
"""

from __future__ import annotations

from datetime import date

import numpy as np

OUT_UNIQUE, OUT_CALLS, OUT_TEXTS, OUT_DURATION = 0, 1, 2, 3
IN_UNIQUE, IN_CALLS, IN_TEXTS, IN_DURATION = 4, 5, 6, 7


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


def random_records(rng: np.random.Generator, count: int, week_start):
    """Uniformly random records inside one calendar week (for oracle tests)."""
    from datetime import datetime, timedelta

    from cdrnet.ingest import CdrRecord, Direction, Kind

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
