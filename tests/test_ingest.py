from datetime import datetime

import pytest

from cdrnet.ingest import (
    CDR_HEADER,
    LABELS_HEADER,
    IngestError,
    LabelRecord,
    ParseError,
    Rejection,
    ingest,
    load_labels,
    parse_cdr_line,
    parse_labels_line,
)

from oracles import (
    CdrRecord,
    Direction,
    Kind,
    column_rows,
    format_cdr_line,
    parse_cdr_record,
    record_rows,
    text_bytes,
)

GOOD_LINE = "u1,out,call,2024-01-02T09:30:00,42,c7"
LONG = "é" * 32  # 64 UTF-8 bytes


def test_parse_good_line():
    assert parse_cdr_line(GOOD_LINE) is None
    rec = parse_cdr_record(GOOD_LINE)
    assert rec == CdrRecord(
        user_id="u1",
        direction=Direction.OUTGOING,
        kind=Kind.CALL,
        timestamp=datetime(2024, 1, 2, 9, 30, 0),
        duration_s=42,
        correspondent_id="c7",
    )


def test_format_parse_round_trip():
    rec = parse_cdr_record(GOOD_LINE)
    assert format_cdr_line(rec) == GOOD_LINE
    assert parse_cdr_record(format_cdr_line(rec)) == rec


@pytest.mark.parametrize(
    "line",
    [
        "u1,out,call,2024-01-02T09:30:00,42",               # five fields
        "u1,out,call,2024-01-02T09:30:00,42,c7,extra",      # seven fields
        ",out,call,2024-01-02T09:30:00,42,c7",              # empty user
        "u1,out,call,2024-01-02T09:30:00,42,",              # empty correspondent
        "u1,sideways,call,2024-01-02T09:30:00,42,c7",       # bad direction
        "u1,out,fax,2024-01-02T09:30:00,42,c7",             # bad kind
        "u1,out,call,2024-01-02 09:30:00,42,c7",            # space separator
        "u1,out,call,2024-01-02T09:30,42,c7",               # missing seconds
        "u1,out,call,2024-02-30T09:30:00,42,c7",            # impossible date
        "u1,out,call,2024-01-02T09:30:00.5,42,c7",          # fractional seconds
        "u1,out,call,2024-01-02T09:30:00,-5,c7",            # negative duration
        "u1,out,call,2024-01-02T09:30:00,4.5,c7",           # fractional duration
        "u1,out,text,2024-01-02T09:30:00,3,c7",             # text with duration
    ],
)
def test_bad_cdr_lines_raise(line):
    with pytest.raises(ParseError):
        parse_cdr_line(line)


def test_text_duration_zero_accepted():
    columns, _, report = ingest(text_bytes(["u1,in,text,2024-01-02T09:30:00,0,c7"]))
    assert report.records_accepted == 1
    assert not columns.is_call[0] and columns.duration[0] == 0


def test_parse_labels_line():
    assert parse_labels_line("u1,f,34") == LabelRecord("u1", "f", 34)


@pytest.mark.parametrize(
    "line",
    ["u1,f", "u1,f,34,x", ",f,34", "u1,,34", "u1,f,-3", "u1,f,abc", "u1,f,131"],
)
def test_bad_label_lines_raise(line):
    with pytest.raises(ParseError):
        parse_labels_line(line)


def test_ingest_codes_users_in_sorted_order():
    lines = [
        CDR_HEADER,
        "u2,in,text,2024-01-03T08:00:00,0,c1",
        "u1,out,call,2024-01-02T23:00:00,10,c1",
        "u1,out,call,2024-01-02T01:00:00,20,c2",
    ]
    columns, labels, report = ingest(text_bytes(lines))
    assert columns.user_ids == ["u1", "u2"]
    assert columns.contact_ids == ["c1", "c2"]
    assert sorted(zip(columns.user.tolist(), columns.hour.tolist())) == [(0, 1), (0, 23), (1, 8)]
    assert column_rows(columns) == record_rows([parse_cdr_record(ln) for ln in lines[1:]])
    assert report.records_accepted == 3
    assert report.records_rejected == 0
    assert labels == {}


def test_ingest_without_header_treats_first_line_as_data():
    columns, _, report = ingest(text_bytes([GOOD_LINE]))
    assert report.records_accepted == 1
    assert "u1" in columns.user_ids


def test_rejections_carry_stream_and_line_numbers():
    lines = [CDR_HEADER, GOOD_LINE, "garbage", "u1,out,call,bad,1,c1"]
    _, _, report = ingest(text_bytes(lines))
    assert report.records_accepted == 1
    assert report.records_rejected == 2
    assert [(r.stream, r.line) for r in report.rejections] == [("cdr", 3), ("cdr", 4)]
    assert all(r.reason for r in report.rejections)


def test_accounting_covers_every_data_line():
    lines = [CDR_HEADER] + [GOOD_LINE] * 4 + ["oops"] * 3
    _, _, report = ingest(text_bytes(lines))
    assert report.records_accepted + report.records_rejected == len(lines) - 1


def test_labels_ingested_alongside_records():
    _, labels, report = ingest(
        text_bytes([CDR_HEADER, GOOD_LINE]),
        [LABELS_HEADER, "u1,f,30", "u9,m,55", "broken"],
    )
    assert set(labels) == {"u1", "u9"}
    assert labels["u1"].gender == "f"
    assert report.labels_accepted == 2
    assert report.labels_rejected == 1
    assert report.rejections[0].stream == "labels"


def test_duplicate_label_aborts():
    with pytest.raises(IngestError):
        ingest(b"", [LABELS_HEADER, "u1,f,30", "u1,m,40"])


def test_users_without_labels_are_retained():
    columns, labels, _ = ingest(text_bytes([CDR_HEADER, GOOD_LINE]), [LABELS_HEADER, "u9,m,50"])
    assert "u1" in columns.user_ids and "u1" not in labels


def test_load_labels_alone():
    labels, report = load_labels([LABELS_HEADER, "u3,m,61"])
    assert labels["u3"].age_years == 61
    assert report.labels_accepted == 1
    assert report.records_accepted == 0


def test_report_json_shape():
    _, _, report = ingest(text_bytes([CDR_HEADER, "junk"]))
    js = report.to_json()
    assert js["records_rejected"] == 1
    assert js["rejections"][0]["line"] == 2


@pytest.mark.parametrize(
    "line, reason",
    [
        # an offset: fromisoformat made it tz-aware, and featurize then failed
        # comparing it with naive timestamps
        ("u1,out,call,2024-01-01T12+01:00,42,c7", "unparseable timestamp '2024-01-01T12+01:00'"),
        # "²".isdigit() holds but int() raised, aborting the run
        ("u1,out,call,2024-01-02T09:30:00,²,c7", "negative or non-integer duration '²'"),
        # an ISO week date of the same length
        ("u1,out,call,2024-W01-1T12:30:00,42,c7", "unparseable timestamp '2024-W01-1T12:30:00'"),
        # a non-ASCII digit that int() accepts
        ("u1,out,call,2024-01-02T09:30:00,٣,c7", "negative or non-integer duration '٣'"),
        # past 15 digits a duration no longer fits a float64 exactly
        ("u1,out,call,2024-01-02T09:30:00,12345678901234567890,c7",
         "duration of 20 digits, at most 15 allowed"),
    ],
)
def test_strict_grammar_rejects_with_line_number(line, reason):
    with pytest.raises(ParseError):
        parse_cdr_line(line)
    columns, _, report = ingest(text_bytes([CDR_HEADER, GOOD_LINE, line, GOOD_LINE]))
    assert report.rejections == [Rejection("cdr", 3, reason)]
    assert report.records_accepted == len(columns) == 2


def test_non_ascii_age_rejected():
    _, report = load_labels([LABELS_HEADER, "u1,f,²", "u2,m,٣", "u3,f,30"])
    assert [(r.line, r.reason) for r in report.rejections] == [
        (2, "negative or non-integer age '²'"),
        (3, "negative or non-integer age '٣'"),
    ]
    assert report.labels_accepted == 1


@pytest.mark.parametrize(
    "line",
    [
        "u1,out,call,2024-01-02T09:30:00,42,c7\r\n",                # CRLF ending
        "ü1,in,text,2024-01-02T09:30:00,0,ç7",                      # non-ASCII ids
        "u" * 100 + ",out,call,2024-01-02T09:30:00,42,c7",          # id past the 64 key bytes
        "u\x001,out,call,2024-01-02T09:30:00,42,c\x007",            # NUL bytes in ids
        "u1,out,call,2000-02-29T23:59:59,0,c7",                     # leap day
        "u1,out,call,0001-01-01T00:00:00,0,c7",                     # first representable day
        # long ids that share their first 64 bytes but differ in tail and length
        pytest.param(
            (LONG + "azz,out,call,2024-01-02T09:30:00,42," + LONG + "b",
             LONG + "b,in,text,2024-01-02T09:30:00,0," + LONG + "azz"),
            id="long-ids-sharing-64-bytes",
        ),
    ],
)
def test_columns_agree_with_the_reference_parser(line):
    lines = [CDR_HEADER, GOOD_LINE, *((line,) if isinstance(line, str) else line)]
    columns, _, report = ingest(text_bytes(lines))
    assert report.records_rejected == 0
    records = [parse_cdr_record(ln) for ln in lines[1:]]
    assert column_rows(columns) == record_rows(records)
    assert columns.user_ids == sorted({r.user_id for r in records})
    assert columns.contact_ids == sorted({r.correspondent_id for r in records})


@pytest.mark.parametrize(
    "timestamp",
    ["2023-02-29T10:00:00", "1900-02-29T10:00:00", "2100-02-29T10:00:00", "2024-04-31T10:00:00",
     "2024-13-01T10:00:00", "2024-00-10T10:00:00", "0000-01-01T10:00:00", "2024-01-01T24:00:00", "2024-01-01T10:60:00", "2024-01-01T10:00:60",
     "2024-01-01t10:00:00", "2024/01/01T10:00:00", "2024-01-01T10-00:00", "+2024-01-01T10:00:0"],
)
def test_out_of_range_timestamps_rejected(timestamp):
    line = f"u1,out,call,{timestamp},42,c7"
    _, _, report = ingest(text_bytes([CDR_HEADER, line]))
    assert report.rejections == [Rejection("cdr", 2, f"unparseable timestamp {timestamp!r}")]
