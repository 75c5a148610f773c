"""Parsing and validation of raw CDR and demographic label files.

Input formats (UTF-8 CSV, plain comma-separated tokens, one header row):

    CDR:    user_id,direction,kind,timestamp,duration_s,correspondent_id
            direction in {in,out}; kind in {call,text};
            timestamp "YYYY-MM-DDThh:mm:ss" in ASCII digits (local
            wall-clock: no offset, no fraction); duration 1 to 15
            ASCII digits
    labels: user_id,gender,age_years

Parsing is total: every data line is either accepted or rejected with a
line-numbered reason in the IngestReport; a dirty line never aborts the
run. The only fatal data condition is a duplicate user_id in the labels
file. Texts must carry duration 0; coercing instead of rejecting would
hide upstream schema errors.

parse_cdr_line is the reference grammar. ingest() reads a whole CDR file
into CdrColumns with vectorized checks and re-parses only the lines those
refuse with parse_cdr_line, so both accept exactly the same lines.
"""

from __future__ import annotations

import enum
import re
from dataclasses import asdict, dataclass, field
from datetime import date, datetime
from typing import Iterable

import numpy as np

CDR_HEADER = "user_id,direction,kind,timestamp,duration_s,correspondent_id"
LABELS_HEADER = "user_id,gender,age_years"

MAX_AGE = 130
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # day 0 of CdrColumns.day


class ParseError(ValueError):
    """A single malformed input line."""


class IngestError(ValueError):
    """Dataset-level violation that aborts the run (e.g. duplicate label)."""


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


@dataclass(frozen=True, eq=False)
class CdrColumns:
    """Accepted CDR records as parallel columns, one entry per record.

    Ids are coded as integers into sorted id lists: ``user`` indexes
    ``user_ids`` and ``contact`` indexes ``contact_ids``. A timestamp keeps
    only what the week tensors read: its day and hour. Record order carries
    no meaning.
    """

    user_ids: list[str]
    contact_ids: list[str]
    user: np.ndarray      # int64
    contact: np.ndarray   # int64
    incoming: np.ndarray  # bool
    is_call: np.ndarray   # bool
    day: np.ndarray       # int64, days since 1970-01-01
    hour: np.ndarray      # int64
    duration: np.ndarray  # float64 seconds, 0 for texts

    def __len__(self) -> int:
        return len(self.user)

    @classmethod
    def from_records(cls, records: list[CdrRecord]) -> CdrColumns:
        user_ids = sorted({r.user_id for r in records})
        contact_ids = sorted({r.correspondent_id for r in records})
        users = {u: i for i, u in enumerate(user_ids)}
        contacts = {c: i for i, c in enumerate(contact_ids)}
        return cls(
            user_ids,
            contact_ids,
            np.array([users[r.user_id] for r in records], dtype=np.int64),
            np.array([contacts[r.correspondent_id] for r in records], dtype=np.int64),
            np.array([r.direction is Direction.INCOMING for r in records], dtype=bool),
            np.array([r.kind is Kind.CALL for r in records], dtype=bool),
            np.array([r.timestamp.toordinal() - EPOCH_ORDINAL for r in records], dtype=np.int64),
            np.array([r.timestamp.hour for r in records], dtype=np.int64),
            np.array([r.duration_s for r in records], dtype=np.float64),
        )


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
        return asdict(self)


_MAX_DURATION_DIGITS = 15  # below 2**53, so float64 holds every value exactly

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


def parse_cdr_line(line: str) -> CdrRecord:
    """Parse one CDR data row; raises ParseError with the specific defect."""
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
    if len(dur_s) > _MAX_DURATION_DIGITS:
        raise ParseError(
            f"duration of {len(dur_s)} digits, at most {_MAX_DURATION_DIGITS} allowed"
        )
    duration = int(dur_s)
    if kind is Kind.TEXT and duration != 0:
        raise ParseError(f"text with nonzero duration {duration}")
    return CdrRecord(user_id, direction, kind, timestamp, duration, correspondent)


def format_cdr_line(record: CdrRecord) -> str:
    """Canonical line form; parse_cdr_line(format_cdr_line(r)) == r."""
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
    if not _is_ascii_number(age_s):
        raise ParseError(f"negative or non-integer age {age_s!r}")
    age = int(age_s)
    if age > MAX_AGE:
        raise ParseError(f"age {age} out of [0, {MAX_AGE}]")
    return LabelRecord(user_id, gender, age)


_NL, _CR, _COMMA = ord("\n"), ord("\r"), ord(",")
_MAX_ID_BYTES = 64  # longer ids take the per-line path
_PAD = _MAX_ID_BYTES  # zero bytes after the text: fixed-offset reads stay in the buffer
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _days_from_civil(year, month, day):
    """Days since 1970-01-01 of a proleptic Gregorian date (H. Hinnant's algorithm)."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _scan(lines: list[str]) -> tuple[CdrColumns, np.ndarray]:
    """Vectorized parse of CDR data lines into columns of the lines it accepts.

    The whole text is one uint8 buffer; each check runs over a whole field
    column at once. Returns the columns and the per-line accept mask. A
    refused line may still be valid (an id over _MAX_ID_BYTES); the caller
    hands every refused line to parse_cdr_line.
    """
    n = len(lines)
    text = "".join(lines + ["\0" * _PAD])
    if text.isascii():
        size = np.fromiter(map(len, lines), dtype=np.int64, count=n)
    else:
        size = np.fromiter((len(ln.encode("utf-8", "surrogatepass")) for ln in lines), np.int64, n)
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    del text
    # line i is buf[starts[i]:ends[i]] once its trailing "\r" and "\n" are cut
    line_end = np.cumsum(size)
    starts = line_end - size
    ends = line_end.copy()
    tail = np.arange(n)
    while len(tail):
        end = ends[tail]
        tail = tail[(end > starts[tail]) & ((buf[end - 1] == _NL) | (buf[end - 1] == _CR))]
        ends[tail] -= 1
    commas = np.flatnonzero(buf == _COMMA)
    per_line = np.bincount(np.searchsorted(line_end, commas, side="right"), minlength=n)
    ok = per_line == 5
    # NUL bytes would vanish from the fixed-width id keys below
    ok[np.searchsorted(line_end, np.flatnonzero(buf[: line_end[-1]] == 0), side="right")] = False

    rows = np.flatnonzero(ok)
    first = (np.cumsum(per_line) - per_line)[rows]
    c0, c1, c2, c3, c4 = (commas[first + k] for k in range(5))
    user_lo, user_hi = starts[rows], c0
    contact_lo, contact_hi = c4 + 1, ends[rows]
    dur_lo, dur_len = c3 + 1, c4 - c3 - 1
    ts = c2 + 1

    def equals(lo, hi, word: bytes):
        match = (hi - lo) == len(word)
        for k, ch in enumerate(word):
            match &= buf[lo + k] == ch
        return match

    def number(lo, width):
        value = np.zeros(len(lo), dtype=np.int64)
        valid = np.ones(len(lo), dtype=bool)
        for k in range(width):
            digit = buf[lo + k] - np.uint8(48)  # wraps, so only b"0".."9" land below 10
            valid &= digit < 10
            value = value * 10 + digit
        return value, valid

    incoming = equals(c0 + 1, c1, b"in")
    is_call = equals(c1 + 1, c2, b"call")
    good = (incoming | equals(c0 + 1, c1, b"out")) & (is_call | equals(c1 + 1, c2, b"text"))
    good &= (user_hi > user_lo) & (contact_hi > contact_lo)
    good &= (user_hi - user_lo <= _MAX_ID_BYTES) & (contact_hi - contact_lo <= _MAX_ID_BYTES)

    good &= (c3 - ts) == 19
    for k, sep in ((4, b"-"), (7, b"-"), (10, b"T"), (13, b":"), (16, b":")):
        good &= buf[ts + k] == sep[0]
    parts = []
    for offset, width in ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2)):
        value, valid = number(ts + offset, width)
        good &= valid
        parts.append(value)
    year, month, day, hour, minute, second = parts
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 0, 12)] + (leap & (month == 2))
    good &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    good &= (hour < 24) & (minute < 60) & (second < 60)

    good &= (dur_len >= 1) & (dur_len <= _MAX_DURATION_DIGITS)
    width = int(dur_len[good].max()) if good.any() else 0
    duration = np.zeros(len(rows), dtype=np.int64)
    for k in range(width):
        inside = dur_len > k
        digit = buf[dur_lo + k] - np.uint8(48)
        good &= ~inside | (digit < 10)
        duration = np.where(inside, duration * 10 + digit, duration)
    good &= is_call | (duration == 0)

    ok[rows[~good]] = False
    keep = np.flatnonzero(good)
    user_ids, user = _codes(buf, user_lo[keep], user_hi[keep])
    contact_ids, contact = _codes(buf, contact_lo[keep], contact_hi[keep])
    columns = CdrColumns(
        user_ids,
        contact_ids,
        user,
        contact,
        incoming[keep],
        is_call[keep],
        _days_from_civil(year[keep], month[keep], day[keep]),
        hour[keep],
        duration[keep].astype(np.float64),
    )
    return columns, ok


def _codes(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Sorted distinct byte strings buf[lo:hi] and each one's index into them."""
    size = hi - lo
    width = int(size.max()) if len(lo) else 1
    keys = np.zeros((len(lo), width), dtype=np.uint8)
    for k in range(width):
        keys[:, k] = buf[lo + k] * (size > k)
    # zero padding sorts like the shorter string; ids never hold NUL bytes here
    distinct, codes = np.unique(keys.view(f"S{width}").ravel(), return_inverse=True)
    ids = [b.decode("utf-8", "surrogatepass") for b in distinct.tolist()]
    return ids, codes.astype(np.int64)


def _concat(a: CdrColumns, b: CdrColumns) -> CdrColumns:
    """The records of both, with ids re-coded into the union of their id lists."""

    def union(a_ids, a_codes, b_ids, b_codes):
        ids = sorted(set(a_ids).union(b_ids))
        index = {s: i for i, s in enumerate(ids)}
        a_map = np.array([index[s] for s in a_ids], dtype=np.int64)
        b_map = np.array([index[s] for s in b_ids], dtype=np.int64)
        return ids, np.concatenate([a_map[a_codes], b_map[b_codes]])

    user_ids, user = union(a.user_ids, a.user, b.user_ids, b.user)
    contact_ids, contact = union(a.contact_ids, a.contact, b.contact_ids, b.contact)
    rest = (
        np.concatenate([getattr(a, name), getattr(b, name)])
        for name in ("incoming", "is_call", "day", "hour", "duration")
    )
    return CdrColumns(user_ids, contact_ids, user, contact, *rest)


def ingest(
    cdr_lines: Iterable[str],
    label_lines: Iterable[str] | None = None,
) -> tuple[CdrColumns, dict[str, LabelRecord], IngestReport]:
    """Parse both streams into CDR columns and a label map.

    CDR lines go through vectorized checks (_scan); each line those refuse
    is parsed again by parse_cdr_line, which either rejects it with its
    line number and reason or accepts it. Users without a label are
    retained: usable for prediction, excluded from training.
    """
    report = IngestReport()
    lines = list(cdr_lines)
    skip = 1 if lines and lines[0].rstrip("\r\n") == CDR_HEADER else 0
    if len(lines) > skip:
        columns, ok = _scan(lines[skip:])
    else:
        columns, ok = CdrColumns.from_records([]), np.zeros(0, dtype=bool)
    extra: list[CdrRecord] = []
    for i in np.flatnonzero(~ok).tolist():
        try:
            extra.append(parse_cdr_line(lines[skip + i]))
        except ParseError as exc:
            report.reject("cdr", skip + i + 1, str(exc))
    if extra:
        columns = _concat(columns, CdrColumns.from_records(extra))
    report.records_accepted = len(columns)

    labels: dict[str, LabelRecord] = {}
    for line_no, raw in enumerate(label_lines or (), start=1):
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
    return columns, labels, report


def load_labels(label_lines: Iterable[str]) -> tuple[dict[str, LabelRecord], IngestReport]:
    """Parse a labels stream alone (train/evaluate paths need no CDR data)."""
    _, labels, report = ingest([], label_lines)
    return labels, report
