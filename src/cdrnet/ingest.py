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

featurize reads a CDR file as bytes (read_utf8), which are checked for
UTF-8 without keeping a decoded copy. ingest() splits them into lines as a
file opened in text mode would, then accepts lines by vectorized checks
(_scan) run over fixed-size blocks of lines, so that the scan's per-line
temporaries do not grow with the file; ids are coded once over the whole
text, and the result is CdrColumns. parse_cdr_line runs only on the lines
the scan refuses, to name each one's defect; it accepts none of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


_MAX_DURATION_DIGITS = 15  # below 2**53, so float64 holds every value exactly

_TIMESTAMP = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)", re.ASCII)


def _check_timestamp(text: str) -> None:
    # Exactly "YYYY-MM-DDThh:mm:ss" in ASCII digits. fromisoformat would also
    # take offsets, fractions and ISO week dates of the same length.
    match = _TIMESTAMP.fullmatch(text)
    if match is None:
        raise ParseError(f"unparseable timestamp {text!r}")
    try:
        datetime(*map(int, match.groups()))
    except ValueError:
        raise ParseError(f"unparseable timestamp {text!r}") from None


def _is_ascii_number(text: str) -> bool:
    # str.isdigit alone also takes digits such as "²" and "٣"
    return text.isascii() and text.isdigit()


def parse_cdr_line(line: str) -> None:
    """Raise ParseError naming the first defect of one CDR data row; a valid row passes."""
    fields = line.rstrip("\r\n").split(",")
    if len(fields) != 6:
        raise ParseError(f"expected 6 fields, got {len(fields)}")
    user_id, direction_s, kind_s, ts_s, dur_s, correspondent = fields
    if not user_id:
        raise ParseError("empty user_id")
    if not correspondent:
        raise ParseError("empty correspondent_id")
    if direction_s not in ("in", "out"):
        raise ParseError(f"unknown direction {direction_s!r}")
    if kind_s not in ("call", "text"):
        raise ParseError(f"unknown kind {kind_s!r}")
    _check_timestamp(ts_s)
    if not _is_ascii_number(dur_s):
        raise ParseError(f"negative or non-integer duration {dur_s!r}")
    if len(dur_s) > _MAX_DURATION_DIGITS:
        raise ParseError(
            f"duration of {len(dur_s)} digits, at most {_MAX_DURATION_DIGITS} allowed"
        )
    if kind_s == "text" and int(dur_s) != 0:
        raise ParseError(f"text with nonzero duration {int(dur_s)}")


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
_KEY_BYTES = 64  # id bytes in a sort key; a second pass orders longer ids
_PAD = _KEY_BYTES  # zero bytes after a scan block: fixed-offset reads stay in the buffer
_BLOCK_LINES = 16384  # lines per scan block
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _days_from_civil(year, month, day):
    """Days since 1970-01-01 of a proleptic Gregorian date (H. Hinnant's algorithm)."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _line_bounds(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the lines of a text, split where universal newlines split them.

    A line ends at "\\n", "\\r\\n" or a lone "\\r", as in a file opened in text
    mode. Line i is data[starts[i]:ends[i]] without its line end and runs up
    to starts[i + 1] with it, so starts holds one entry more than there are
    lines.
    """
    buf = np.frombuffer(data, np.uint8)
    is_end = buf == _NL
    is_end |= buf == _CR
    term = np.flatnonzero(is_end)
    del is_end
    is_cr = buf[term] == _CR
    pair = np.flatnonzero(is_cr[:-1] & ~is_cr[1:] & (np.diff(term) == 1))  # "\r\n"
    ends = np.delete(term, pair + 1)  # a line's text stops at its first line-end byte
    starts = np.concatenate(([0], np.delete(term, pair) + 1))
    if starts[-1] < len(buf):  # a last line without a line end
        starts = np.append(starts, len(buf))
        ends = np.append(ends, len(buf))
    return starts, ends


def _scan(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[CdrColumns, np.ndarray]:
    """Vectorized parse of CDR data lines into columns of the lines it accepts.

    Line i is data[starts[i]:ends[i]] and runs up to starts[i + 1] with its
    line end. The checks run over blocks of _BLOCK_LINES lines, so that their
    per-line temporaries do not grow with the file; the ids are then coded
    once, over their spans in the whole text. Returns the columns and the
    per-line accept mask, which holds every line that parse_cdr_line passes
    and no other.
    """
    n = len(ends)
    ok = np.zeros(n, dtype=bool)
    blocks = []
    # one block even for no lines, so that every column gets its dtype
    for first in range(0, max(n, 1), _BLOCK_LINES):
        last = min(first + _BLOCK_LINES, n)
        lo, hi = int(starts[first]), int(starts[last])
        buf = np.zeros(hi - lo + _PAD, dtype=np.uint8)
        buf[: hi - lo] = np.frombuffer(data, np.uint8, hi - lo, lo)
        rows, *columns = _scan_block(buf, starts[first : last + 1] - lo, ends[first:last] - lo)
        ok[first + rows] = True
        for span in columns[:4]:
            span += lo
        blocks.append(columns)
    user_lo, user_hi, contact_lo, contact_hi, *rest = map(np.concatenate, zip(*blocks))
    del blocks
    user_ids, user = _codes(data, user_lo, user_hi)
    contact_ids, contact = _codes(data, contact_lo, contact_hi)
    return CdrColumns(user_ids, contact_ids, user, contact, *rest), ok


def _scan_block(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(accepted rows, user span, contact span, incoming, is_call, day, hour, duration).

    buf holds the block's lines and then _PAD zero bytes, so that reads at
    fixed offsets stay inside it. Each check runs over a whole field column
    of the block at once.
    """
    n = len(ends)
    commas = np.flatnonzero(buf == _COMMA)
    per_line = np.bincount(np.searchsorted(starts[1:], commas, side="right"), minlength=n)

    rows = np.flatnonzero(per_line == 5)
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

    keep = np.flatnonzero(good)
    return (
        rows[keep],
        user_lo[keep],
        user_hi[keep],
        contact_lo[keep],
        contact_hi[keep],
        incoming[keep],
        is_call[keep],
        _days_from_civil(year[keep], month[keep], day[keep]),
        hour[keep],
        duration[keep].astype(np.float64),
    )


def _codes(data: bytes, lo: np.ndarray, hi: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Sorted distinct strings data[lo:hi] and each one's index into them.

    An id's key is its first _KEY_BYTES bytes, zero padded, then one byte
    holding its length capped at _KEY_BYTES + 1. Keys order ids as Python
    does, NUL bytes included ("a" < "a\\0" < "a\\0b"), except longer ids
    that share their first _KEY_BYTES bytes: a second pass over just those
    rows sorts them by all their bytes.
    """
    buf = np.frombuffer(data, np.uint8)
    size = hi - lo
    width = min(int(size.max()), _KEY_BYTES) if len(lo) else 0
    keys = np.zeros((len(lo), width + 1), dtype=np.uint8)
    for k in range(width):
        # an id may end the text: past its end, read its last byte and zero it
        keys[:, k] = buf[np.minimum(lo + k, hi - 1)] * (size > k)
    keys[:, width] = np.minimum(size, _KEY_BYTES + 1)
    _, first, codes = np.unique(
        keys.view(f"S{width + 1}").ravel(), return_index=True, return_inverse=True
    )

    def text(rows):
        spans = zip(lo[rows].tolist(), hi[rows].tolist())
        return [data[a:b].decode("utf-8", "surrogatepass") for a, b in spans]

    ids = text(first)
    long = np.flatnonzero(size > _KEY_BYTES)
    if len(long):
        full = text(long)
        ordered = sorted(set(ids).union(full))
        index = {s: i for i, s in enumerate(ordered)}
        codes = np.array([index[s] for s in ids], dtype=np.int64)[codes]
        codes[long] = [index[s] for s in full]
        ids = ordered
    return ids, codes.astype(np.int64)


def ingest(
    data: bytes,
    label_lines: Iterable[str] | None = None,
) -> tuple[CdrColumns, dict[str, LabelRecord], IngestReport]:
    """Parse both streams into CDR columns and a label map.

    data is the UTF-8 text of a CDR file as bytes (see read_utf8), whose
    lines end as in a file opened in text mode: at "\\n", "\\r\\n" or a lone
    "\\r". CDR lines are accepted by vectorized checks (_scan);
    parse_cdr_line names the defect of each line those refuse, for the
    report with its line number. Users without a label are retained: usable
    for prediction, excluded from training.
    """
    report = IngestReport()
    starts, ends = _line_bounds(data)
    skip = 1 if len(ends) and data[starts[0] : ends[0]] == CDR_HEADER.encode() else 0
    columns, ok = _scan(data, starts[skip:], ends[skip:])
    for i in (skip + np.flatnonzero(~ok)).tolist():
        try:
            parse_cdr_line(data[starts[i] : ends[i]].decode("utf-8", "surrogatepass"))
        except ParseError as exc:
            report.reject("cdr", i + 1, str(exc))
        else:
            raise AssertionError(f"CDR line {i + 1} is valid, but _scan refused it")
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
    _, labels, report = ingest(b"", label_lines)
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


def read_utf8(path) -> bytes:
    """The bytes of a UTF-8 text file, checked but not kept decoded.

    A byte that is not UTF-8 is a ValueError that names the file and the
    line it sits on.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        _check_utf8(path, data)
    return data
