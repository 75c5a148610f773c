"""Parsing and validation of raw CDR files.

Input format (UTF-8 CSV, plain comma-separated tokens, one header row):

    CDR:    user_id,direction,kind,timestamp,duration_s,correspondent_id
            direction in {in,out}; kind in {call,text};
            timestamp "YYYY-MM-DDThh:mm:ss" in ASCII digits (local
            wall-clock: no offset, no fraction); duration 1 to 15
            ASCII digits

Parsing is total: every data line is either accepted or rejected with a
line-numbered reason in the IngestReport; a dirty line never aborts the
run. Texts must carry duration 0; coercing instead of rejecting would
hide upstream schema errors. Label lines are parsed by labels.load_labels.

featurize reads a CDR file as bytes (read_utf8), which are checked for
UTF-8 without keeping a decoded copy. ingest() splits them into lines as a
file opened in text mode would, then runs vectorized checks (_scan) over
fixed-size blocks of lines, so that the scan's per-line temporaries do not
grow with the file; ids are coded once over the whole text, and the result
is CdrColumns. The scan gives each line the code of the first check it
fails, and a refused line's reason is formatted from that code and the
line's fields (_REASONS).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .labels import IngestReport, LabelRecord, _check_utf8, load_labels

CDR_HEADER = "user_id,direction,kind,timestamp,duration_s,correspondent_id"
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # day 0 of CdrColumns.day


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


_MAX_DURATION_DIGITS = 15  # below 2**53, so float64 holds every value exactly

# The CDR grammar's reasons, indexed by the code _scan_block gives a line:
# 0 for an accepted line, else the first of these checks the line fails, in
# this order. f holds the line's comma-split fields.
_REASONS = (
    None,
    lambda f: f"expected 6 fields, got {len(f)}",
    lambda f: "empty user_id",
    lambda f: "empty correspondent_id",
    lambda f: f"unknown direction {f[1]!r}",
    lambda f: f"unknown kind {f[2]!r}",
    lambda f: f"unparseable timestamp {f[3]!r}",
    lambda f: f"negative or non-integer duration {f[4]!r}",
    lambda f: f"duration of {len(f[4])} digits, at most {_MAX_DURATION_DIGITS} allowed",
    lambda f: f"text with nonzero duration {int(f[4])}",
)


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
    once, over their spans in the whole text. Returns the columns and each
    line's code into _REASONS, 0 for the lines the columns hold.
    """
    n = len(ends)
    code = np.zeros(n, dtype=np.uint8)
    blocks = []
    # one block even for no lines, so that every column gets its dtype
    for first in range(0, max(n, 1), _BLOCK_LINES):
        last = min(first + _BLOCK_LINES, n)
        lo, hi = int(starts[first]), int(starts[last])
        buf = np.zeros(hi - lo + _PAD, dtype=np.uint8)
        buf[: hi - lo] = np.frombuffer(data, np.uint8, hi - lo, lo)
        block = _scan_block(buf, starts[first : last + 1] - lo, ends[first:last] - lo)
        code[first:last], *columns = block
        for span in columns[:4]:
            span += lo
        blocks.append(columns)
    user_lo, user_hi, contact_lo, contact_hi, *rest = map(np.concatenate, zip(*blocks))
    del blocks
    user_ids, user = _codes(data, user_lo, user_hi)
    contact_ids, contact = _codes(data, contact_lo, contact_hi)
    return CdrColumns(user_ids, contact_ids, user, contact, *rest), code


def _scan_block(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(line codes, user span, contact span, incoming, is_call, day, hour, duration).

    buf holds the block's lines and then _PAD zero bytes, so that reads at
    fixed offsets stay inside it. Each check runs over a whole field column
    of the block at once. A line's code indexes _REASONS, and the columns
    hold the lines whose code is 0.
    """
    commas = np.flatnonzero(buf == _COMMA)
    before = np.searchsorted(commas, starts)  # commas ahead of each line's start
    rows = np.flatnonzero(np.diff(before) == 5)
    first = before[rows]
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

    stamp = (c3 - ts) == 19
    for k, sep in ((4, b"-"), (7, b"-"), (10, b"T"), (13, b":"), (16, b":")):
        stamp &= buf[ts + k] == sep[0]
    parts = []
    for offset, width in ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2)):
        value, valid = number(ts + offset, width)
        stamp &= valid
        parts.append(value)
    year, month, day, hour, minute, second = parts
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 0, 12)] + (leap & (month == 2))
    stamp &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    stamp &= (hour < 24) & (minute < 60) & (second < 60)

    # every byte of the duration must be a digit: the byte loop covers fields
    # up to _MAX_DURATION_DIGITS long, bytes.isdigit (ASCII only) the rare longer ones
    short = dur_len <= _MAX_DURATION_DIGITS
    digits = dur_len > 0
    duration = np.zeros(len(rows), dtype=np.int64)
    for k in range(int(dur_len[short].max(initial=0))):
        inside = dur_len > k
        digit = buf[dur_lo + k] - np.uint8(48)
        digits &= ~inside | (digit < 10)
        duration = np.where(inside, duration * 10 + digit, duration)
    for i in np.flatnonzero(~short).tolist():
        digits[i] = buf[dur_lo[i] : dur_lo[i] + dur_len[i]].tobytes().isdigit()

    row_code = np.select(  # the code of the first check that fails, or 0
        [
            user_hi == user_lo,
            contact_hi == contact_lo,
            ~(incoming | equals(c0 + 1, c1, b"out")),
            ~(is_call | equals(c1 + 1, c2, b"text")),
            ~stamp,
            ~digits,
            ~short,
            ~is_call & (duration != 0),
        ],
        list(range(2, len(_REASONS))),
    )
    code = np.ones(len(ends), dtype=np.uint8)  # _REASONS[1]: not six fields
    code[rows] = row_code
    keep = np.flatnonzero(row_code == 0)
    return (
        code,
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
    holding its length capped at _KEY_BYTES + 1, packed into big-endian
    uint64 words. Keys order ids as Python does, NUL bytes included ("a" <
    "a\\0" < "a\\0b"), except longer ids that share their first _KEY_BYTES
    bytes: a second pass over just those rows sorts them by all their bytes.
    """
    buf = np.frombuffer(data, np.uint8)
    n = len(lo)
    size = hi - lo
    width = min(int(size.max()), _KEY_BYTES) if n else 0
    whole = min(int(size.min()), width) if n else 0  # key bytes that every id fills
    keys = np.zeros((n, width // 8 * 8 + 8), dtype=np.uint8)  # whole words, length byte included
    keys[:, :whole] = sliding_window_view(buf, whole)[lo]
    for k in range(whole, width):
        # an id may end the text: past its end, read its last byte and zero it
        keys[:, k] = buf[np.minimum(lo + k, hi - 1)] * (size > k)
    keys[:, width] = np.minimum(size, _KEY_BYTES + 1)
    words = keys.view(">u8").astype(np.uint64)
    del keys
    order = np.lexsort(words.T[::-1])  # stable; the first word is the primary key
    new = np.zeros(n, dtype=bool)  # where a distinct key starts in sorted order
    new[:1] = True
    for word in words.T:
        word = word[order]
        new[1:] |= word[1:] != word[:-1]
    first = order[new]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1

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
    return ids, codes


def ingest(
    data: bytes,
    label_lines: Iterable[str] | None = None,
) -> tuple[CdrColumns, dict[str, LabelRecord], IngestReport]:
    """Parse both streams into CDR columns and a label map.

    data is the UTF-8 text of a CDR file as bytes (see read_utf8), whose
    lines end as in a file opened in text mode: at "\\n", "\\r\\n" or a lone
    "\\r". Vectorized checks (_scan) decide which CDR lines are accepted,
    and each line they refuse is reported with its line number and the
    reason its code names. Users without a label are retained: usable for
    prediction, excluded from training. label_lines, when given, go to
    labels.load_labels, which reports into the same IngestReport.
    """
    report = IngestReport()
    starts, ends = _line_bounds(data)
    skip = 1 if len(ends) and data[starts[0] : ends[0]] == CDR_HEADER.encode() else 0
    columns, code = _scan(data, starts[skip:], ends[skip:])
    refused = np.flatnonzero(code)
    for i, c in zip((skip + refused).tolist(), code[refused].tolist()):
        fields = data[starts[i] : ends[i]].decode("utf-8", "surrogatepass").split(",")
        report.reject("cdr", i + 1, _REASONS[c](fields))
    report.records_accepted = len(columns)

    labels, _ = load_labels(label_lines or (), report)
    return columns, labels, report


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
