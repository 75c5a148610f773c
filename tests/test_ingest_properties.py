"""Properties of the columnar CDR path against the reference grammar.

ingest() accepts CDR lines by vectorized column checks alone and asks
parse_cdr_line only why each refused line fails. These properties draw
synth-like files with single-field defects, and ids past 64 UTF-8 bytes,
at the edges of the 8-byte words their sort keys are packed into, or
holding NUL bytes. They check that the accepted records, the sorted id
lists and the (line, reason) list equal a line-by-line pass of the
oracles' reference grammar, that every user-week tensor equals the
brute-force recount, and that CRLF endings change nothing. The bytes of a
file, with any mix of line ends and any scan block size, must ingest as
the reference grammar parses the lines of the file opened in text mode.
"""

import contextlib
import io
import sys
import tempfile
from datetime import date, datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.cli import run
from cdrnet.featurize import featurize_users
from cdrnet.ingest import (
    CDR_HEADER,
    LabelRecord,
    ParseError,
    ingest,
    parse_labels_line,
    read_lines,
    read_utf8,
)

from oracles import (
    CdrRecord,
    Direction,
    Kind,
    brute_week_tensor,
    column_rows,
    format_cdr_line,
    parse_cdr_record,
    record_rows,
    text_bytes,
)

FIRST_DAY = datetime(2023, 12, 18)  # a Monday; the span crosses a year end

# ids never hold the separators of the format; a short one may hold NUL
# bytes, one of 9-64 bytes spans several of the 8-byte words an id's sort
# key is packed into, and a long one passes 64 UTF-8 bytes even in ASCII
ID_CHARS = st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",))
ID_TEXT = st.one_of(
    st.text(ID_CHARS, min_size=1, max_size=8),
    # cut to 64 bytes, dropping a character the cut splits
    st.text(ID_CHARS, min_size=9, max_size=64).map(
        lambda s: s.encode()[:64].decode("utf-8", "ignore")
    ),
    st.text(ID_CHARS, min_size=65, max_size=80),
)

# Ids keyed by their first 64 bytes: LONG + "azz" must sort before LONG +
# "b", NUL-bearing ids sort as Python does, and "x" + "é" * 40 cuts a
# character at byte 64.
LONG = "é" * 32
# Ids at the edges of the key's 8-byte words: ends just before, at and past
# a word boundary, NUL tails, and a character cut at byte 8.
WORD_EDGES = ["a" * n for n in (7, 8, 9, 15, 16, 17, 63, 64)] + [
    "a" * 7 + "\x00", "a" * 8 + "\x00", "a" * 7 + "\x00b", "a" * 15 + "\x00", "a" * 63 + "\x00",
    "a" * 7 + "é", "a" * 6 + "é",
]
USERS = ["u1", "u2", "u10", "ü3", "u\x00", "u\x00\x00", "u\x00b",
         LONG + "azz", LONG + "b", "x" + "é" * 40, *WORD_EDGES]
CONTACTS = ["c1", "c2", "c3", "c10", "ç4", "c\x00", LONG, LONG + "b", LONG + "azz", *WORD_EDGES]
# a clean line for each of them, so that every drawn file sorts them all
ID_LINES = [
    f"{USERS[i % len(USERS)]},in,text,2024-01-01T00:00:00,0,{CONTACTS[i % len(CONTACTS)]}"
    for i in range(max(len(USERS), len(CONTACTS)))
]

RECORD = st.builds(
    lambda user, incoming, call, offset_s, duration, contact: CdrRecord(
        user,
        Direction.INCOMING if incoming else Direction.OUTGOING,
        Kind.CALL if call else Kind.TEXT,
        FIRST_DAY + timedelta(seconds=offset_s),
        duration if call else 0,
        contact,
    ),
    st.sampled_from(USERS),
    st.booleans(),
    st.booleans(),
    st.integers(0, 5 * 7 * 86400 - 1),
    st.integers(0, 10**6),
    st.sampled_from(CONTACTS),
)

# A replacement for one field, drawn around each of the eight reasons
# the CDR grammar gives (field count, empty user, empty correspondent,
# direction, kind, timestamp, duration, text with duration).
FIELD_DEFECT = st.one_of(
    st.tuples(st.just("extra"), st.sampled_from(["", "x", "1"])),
    st.tuples(st.just("drop"), st.integers(0, 5)),
    st.tuples(st.just(0), st.sampled_from(["", "u1", "ü"])),
    st.tuples(st.just(5), st.sampled_from(["", "c1", "c\x00"])),
    st.tuples(st.just(1), st.sampled_from(["", "in", "out", "IN", "inn", "ou", "sideways"])),
    st.tuples(st.just(2), st.sampled_from(["", "call", "text", "Call", "fax", "texts"])),
    st.tuples(st.just(4), st.sampled_from(["", "-5", "4.5", "²", "٣", "007", "0", "5", " 1",
                                           "1234567890123456789"])),
    st.tuples(st.just("text"), st.sampled_from(["0", "5", "00"])),
    # any position, so a valid year may be anything from 0001 to 9999
    st.tuples(st.just("stamp"), st.integers(0, 18), st.sampled_from("0123456789-T:+Z. ٣")),
    st.tuples(st.just("stamp_tail"), st.sampled_from(["", "Z", "+01:00", ".5", "0"])),
    # digits in the fixed layout, often out of range
    st.tuples(
        st.just(3),
        st.builds(
            "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format,
            st.sampled_from([2023, 2024]),
            st.sampled_from([0, 1, 2, 4, 12, 13]),
            st.sampled_from([0, 1, 28, 29, 30, 31, 32]),
            st.integers(20, 25),
            st.integers(55, 61),
            st.integers(55, 61),
        ),
    ),
)


def _apply(line: str, defect) -> str:
    f = line.split(",")
    kind = defect[0]
    if kind == "extra":
        f.append(defect[1])
    elif kind == "drop":
        del f[defect[1]]
    elif kind == "text":
        f[2], f[4] = "text", defect[1]
    elif kind == "stamp":
        pos, char = defect[1], defect[2]
        f[3] = f[3][:pos] + char + f[3][pos + 1:]
    elif kind == "stamp_tail":
        f[3] = f[3][:16] + defect[1] if defect[1] in ("", "0") else f[3] + defect[1]
    else:
        f[kind] = defect[1]
    return ",".join(f)


FILE = st.lists(st.tuples(RECORD, st.one_of(st.none(), FIELD_DEFECT)), min_size=1, max_size=60)


def _reference(lines, skip=1):
    """Accepted records and (line, reason) rejections past the first skip lines, one parse each."""
    records, rejections = [], []
    for line_no, line in enumerate(lines[skip:], start=skip + 1):
        try:
            records.append(parse_cdr_record(line))
        except ParseError as exc:
            rejections.append((line_no, str(exc)))
    return records, rejections


def _check_tensors(columns, records):
    ds = featurize_users(columns)
    by_user_week = {}
    for r in records:
        monday = r.timestamp.date() - timedelta(days=r.timestamp.weekday())
        by_user_week.setdefault((r.user_id, monday), []).append(r)
    expected_rows = sorted(by_user_week)
    assert list(zip(ds.user_ids, [w.start_date for w in ds.weeks])) == expected_rows
    for i, key in enumerate(expected_rows):
        np.testing.assert_array_equal(ds.tensors[i], brute_week_tensor(by_user_week[key], key[1]))


@settings(max_examples=60, deadline=None)
@given(FILE)
def test_columnar_ingest_matches_the_reference_parser(drawn):
    lines = [CDR_HEADER, *ID_LINES] + [
        format_cdr_line(rec) if defect is None else _apply(format_cdr_line(rec), defect)
        for rec, defect in drawn
    ]
    records, rejections = _reference(lines)
    columns, _, report = ingest(text_bytes(lines))
    assert report.records_accepted == len(records) == len(columns)
    assert [(r.line, r.reason) for r in report.rejections] == rejections
    assert all(r.stream == "cdr" for r in report.rejections)
    assert column_rows(columns) == record_rows(records)
    assert columns.user_ids == sorted({r.user_id for r in records})
    assert columns.contact_ids == sorted({r.correspondent_id for r in records})
    if records:
        _check_tensors(columns, records)


@settings(max_examples=25, deadline=None)
@given(FILE)
def test_crlf_line_endings_change_nothing(drawn):
    lines = [CDR_HEADER] + [
        format_cdr_line(rec) if defect is None else _apply(format_cdr_line(rec), defect)
        for rec, defect in drawn
    ]
    lf_columns, _, lf_report = ingest(text_bytes(ln + "\n" for ln in lines))
    crlf_columns, _, crlf_report = ingest(text_bytes(ln + "\r\n" for ln in lines))
    assert crlf_report.to_json() == lf_report.to_json()
    if len(lf_columns):
        lf, crlf = featurize_users(lf_columns), featurize_users(crlf_columns)
        assert (crlf.user_ids, crlf.weeks) == (lf.user_ids, lf.weeks)
        np.testing.assert_array_equal(crlf.tensors, lf.tensors)


LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
# a data line: empty, clean, or with one field defect
DATA_LINE = st.one_of(
    st.just(""),
    st.tuples(RECORD, st.one_of(st.none(), FIELD_DEFECT)).map(
        lambda d: format_cdr_line(d[0]) if d[1] is None else _apply(format_cdr_line(d[0]), d[1])
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    drawn=st.lists(st.tuples(DATA_LINE, LINE_END), max_size=40),
    header=st.booleans(),
    last_end=st.sampled_from(["", "\n", "\r\n", "\r"]),
    block=st.integers(1, 7),
)
def test_file_bytes_ingest_as_their_lines_do(drawn, header, last_end, block):
    # a line ending in "\r" and then an empty line ending in "\n" make one "\r\n"
    lines = [(CDR_HEADER, "\r\n")] * header + [(ln, "\n") for ln in ID_LINES] + drawn
    text = "".join(ln + end for ln, end in lines[:-1]) + lines[-1][0] + last_end
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "cdr.csv"
        path.write_bytes(text.encode("utf-8"))
        records, rejections = _reference(read_lines(path), skip=int(header))
        # the package's name "ingest" is the function; patch the module
        with mock.patch.object(sys.modules["cdrnet.ingest"], "_BLOCK_LINES", block):
            columns, _, report = ingest(read_utf8(path))
    assert [(r.line, r.reason) for r in report.rejections] == rejections
    assert report.records_accepted == len(records)
    assert column_rows(columns) == record_rows(records)
    assert columns.user_ids == sorted({r.user_id for r in records})
    assert columns.contact_ids == sorted({r.correspondent_id for r in records})


def test_the_bench_rejections_are_reported_from_file_bytes(tmp_path):
    # perfbench/checks.py holds featurize's report to the lines it injected
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import checks
    import workloads

    inputs = workloads.setup(workloads.WORKLOADS["ref-250"], 7, tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["featurize", "--cdr", str(inputs.cdr), "--out", str(tmp_path / "t.bin")]) == 0
    assert len(inputs.expected_rejections) > 1
    assert checks.rejections(out.getvalue(), inputs.expected_rejections) == []


@settings(max_examples=100, deadline=None)
@given(
    ID_TEXT,
    st.sampled_from(list(Direction)),
    st.sampled_from(list(Kind)),
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
    st.integers(0, 10**12),
    ID_TEXT,
)
def test_cdr_line_round_trip(user, direction, kind, timestamp, duration, contact):
    rec = CdrRecord(
        user, direction, kind, timestamp.replace(microsecond=0),
        duration if kind is Kind.CALL else 0, contact,
    )
    assert parse_cdr_record(format_cdr_line(rec)) == rec
    columns, _, report = ingest(text_bytes([format_cdr_line(rec)]))
    assert report.records_rejected == 0
    assert column_rows(columns) == record_rows([rec])
    assert (columns.user_ids, columns.contact_ids) == ([user], [contact])


@settings(max_examples=100, deadline=None)
@given(ID_TEXT, ID_TEXT, st.integers(0, 130))
def test_labels_line_round_trip(user, gender, age):
    rec = LabelRecord(user, gender, age)
    assert parse_labels_line(f"{rec.user_id},{rec.gender},{rec.age_years}") == rec


@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17, 63, 64])
def test_ids_as_long_as_each_key_width_sort_as_python_does(width):
    # the longest id sets how many bytes every key holds before its length
    # byte, so each width puts that byte at another place in its word
    ids = [i for i in dict.fromkeys(USERS + CONTACTS) if len(i.encode()) <= width]
    assert max(len(i.encode()) for i in ids) == width
    lines = [f"{u},in,text,2024-01-01T00:00:00,0,{c}" for u, c in zip(ids, reversed(ids))]
    records, rejections = _reference(lines, skip=0)
    columns, _, report = ingest(text_bytes(lines))
    assert rejections == [] and report.records_rejected == 0
    assert column_rows(columns) == record_rows(records)
    assert columns.user_ids == columns.contact_ids == sorted(ids)


def test_day_numbers_follow_the_calendar():
    days = [date(1, 1, 1), date(1969, 12, 31), date(1970, 1, 1), date(2000, 2, 29),
            date(2100, 3, 1), date(9999, 12, 31)]
    lines = [f"u,in,text,{d.isoformat()}T00:00:00,0,c" for d in days]
    columns, _, report = ingest(text_bytes(lines))
    assert report.records_rejected == 0
    assert sorted(columns.day.tolist()) == [(d - date(1970, 1, 1)).days for d in days]
