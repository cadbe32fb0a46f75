import csv
import io
import json
import math
import random
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import assemble_cases_slow, case_columns, case_table, cases_jsonl_slow
from periop.artifacts import _case_to_row, read_cases, write_cases
from periop.casetable import CaseTable
from periop.eventlog import (
    ANCHOR_EVENTS,
    CASE_FIELDS,
    CASES_HEADER,
    EVENTS_HEADER,
    NUMBER_FIELDS,
    Case,
    CaseAttributes,
    Event,
    ParseError,
    PhaseDurations,
    assemble_cases,
    parse_case_attributes,
    parse_events,
    parse_timestamp,
)
from periop.synthgen import SynthConfig
from synth_files import synth_texts

EVENTS_CSV = (
    "case_id,event_type,timestamp\n"
    "W1,anesthesia_start,2024-03-01T08:00:00Z\n"
    "W1,anesthesia_complete,2024-03-01T08:25:00Z\n"
    "W1,incision,2024-03-01T08:40:00Z\n"
    "W1,suture,2024-03-01T10:10:00Z\n"
    "W2,incision,2024-03-01T09:00:00+01:00\n"
)


def ev(case_id, event_type, iso):
    return Event(case_id, event_type, parse_timestamp(iso))


def test_parse_events_csv_direct_mapping():
    events, errors = parse_events(b"case_id,event_type,timestamp\nW1,incision,2024-03-01T08:40:00Z\n")
    assert errors == []
    assert events == [ev("W1", "incision", "2024-03-01T08:40:00Z")]


def test_unknown_event_type_passes_through():
    events, _ = parse_events(b"case_id,event_type,timestamp\nW1,bad-type,2024-03-01T08:40:00Z\n")
    assert events[0].event_type == "bad-type"
    assert events[0].event_type not in ANCHOR_EVENTS


def test_malformed_timestamp_strict_reports_line():
    with pytest.raises(ParseError) as excinfo:
        parse_events(b"case_id,event_type,timestamp\nW1,incision,yesterday\n")
    assert excinfo.value.line == 2
    assert "timestamp" in excinfo.value.message


def test_missing_case_id_is_record_error():
    data = b"case_id,event_type,timestamp\n,incision,2024-03-01T08:40:00Z\n"
    with pytest.raises(ParseError):
        parse_events(data)
    events, errors = parse_events(data, strict=False)
    assert events == []
    assert len(errors) == 1 and errors[0].line == 2


def test_lenient_mode_skips_and_collects():
    data = (
        b"case_id,event_type,timestamp\n"
        b"W1,incision,not-a-time\n"
        b"W2,suture,2024-03-01T10:10:00Z\n"
    )
    events, errors = parse_events(data, strict=False)
    assert [e.case_id for e in events] == ["W2"]
    assert [e.line for e in errors] == [2]


def test_header_required():
    with pytest.raises(ParseError):
        parse_events(b"id,kind,when\nW1,incision,2024-03-01T08:40:00Z\n")


def test_parse_events_jsonl():
    data = b'{"case_id": "W1", "event_type": "Incision", "timestamp": "2024-03-01T08:40:00+01:00"}\n'
    events, _ = parse_events(data, fmt="jsonl")
    assert events[0].event_type == "incision"
    assert events[0].timestamp == datetime(2024, 3, 1, 7, 40, tzinfo=timezone.utc)


def test_timestamps_normalized_to_utc():
    assert parse_timestamp("2024-03-01T08:40:00+01:00") == parse_timestamp("2024-03-01T07:40:00Z")
    naive = parse_timestamp("2024-03-01T07:40:00")
    assert naive.tzinfo == timezone.utc


def test_assemble_groups_and_sorts():
    events, _ = parse_events(EVENTS_CSV.encode())
    cases = assemble_cases(events, [CaseAttributes(case_id="W1", department="urology")])
    assert [c.case_id for c in cases] == ["W1", "W2"]
    w1 = cases[0]
    assert [c.n_events for c in cases] == [4, 1]
    assert w1.attributes.department == "urology"
    # attributes missing for W2 -> defaults
    assert cases[1].attributes.department == "unknown"
    assert cases[1].attributes.sex == "other"


def test_duplicate_anchor_flags_case_invalid():
    rows = (
        "case_id,event_type,timestamp\n"
        "W1,incision,2024-03-01T08:40:00Z\n"
        "W1,incision,2024-03-01T08:41:00Z\n"
        "W1,suture,2024-03-01T09:40:00Z\n"
    )
    events, _ = parse_events(rows.encode())
    (case,) = assemble_cases(events, [])
    assert case.duplicate_anchors == ("incision",)
    assert not case.is_valid
    assert case.durations.procedure_min is None


def test_assemble_empty_is_empty():
    assert assemble_cases([], []) == []


def test_phase_durations_from_anchors():
    events, _ = parse_events(EVENTS_CSV.encode())
    cases = assemble_cases(events, [])
    w1 = cases[0]
    assert w1.durations.induction_min == pytest.approx(25.0)
    assert w1.durations.preparation_min == pytest.approx(15.0)
    assert w1.durations.procedure_min == pytest.approx(90.0)
    # W2 has only an incision: nothing is derivable
    w2 = cases[1]
    assert w2.durations.induction_min is None
    assert w2.durations.procedure_min is None


def test_negative_durations_pass_through():
    rows = (
        "case_id,event_type,timestamp\n"
        "W1,suture,2024-03-01T08:00:00Z\n"
        "W1,incision,2024-03-01T09:00:00Z\n"
    )
    events, _ = parse_events(rows.encode())
    (case,) = assemble_cases(events, [])
    assert case.durations.procedure_min == pytest.approx(-60.0)


def test_phase_sum_identity_and_permutation_invariance():
    rng = random.Random(7)
    base = datetime(2024, 5, 1, 7, 0, tzinfo=timezone.utc)
    for _ in range(25):
        t0 = base + timedelta(minutes=rng.randrange(600))
        ind = rng.randrange(5, 60)
        prep = rng.randrange(5, 45)
        proc = rng.randrange(10, 300)
        events = [
            Event("X", "anesthesia_start", t0),
            Event("X", "anesthesia_complete", t0 + timedelta(minutes=ind)),
            Event("X", "incision", t0 + timedelta(minutes=ind + prep)),
            Event("X", "suture", t0 + timedelta(minutes=ind + prep + proc)),
        ]
        rng.shuffle(events)
        (case,) = assemble_cases(events, [])
        d = case.durations
        assert d.induction_min == pytest.approx(ind)
        assert d.preparation_min == pytest.approx(prep)
        assert d.procedure_min == pytest.approx(proc)
        total = d.induction_min + d.preparation_min + d.procedure_min
        assert total == pytest.approx(proc + prep + ind)


def test_assembly_preserves_event_multiset():
    events, _ = parse_events(EVENTS_CSV.encode())
    cases = assemble_cases(events, [])
    assert {c.case_id: c.n_events for c in cases} == {
        case_id: sum(1 for e in events if e.case_id == case_id) for case_id in {e.case_id for e in events}
    }
    assert sum(c.n_events for c in cases) == len(events)


BASE_TIME = datetime(2024, 3, 1, 7, 0, tzinfo=timezone.utc)
STAMP = st.builds(
    # whole and fractional seconds on either side of BASE_TIME, so intervals can be negative
    lambda seconds, offset: (BASE_TIME + timedelta(seconds=seconds)).astimezone(
        timezone(timedelta(minutes=offset))
    ),
    st.integers(-7200, 7200) | st.floats(-7200, 7200),
    st.sampled_from([0, 60, -300, 330]),  # the UTC offset the stamp is written in
)


@st.composite
def event_logs(draw):
    """Shuffled events of a few cases; each anchor or other event type is missing, once or repeated."""
    events = []
    for case_id in draw(st.lists(st.sampled_from(["W1", "W2", "W3", "W10", "X"]), unique=True, max_size=5)):
        for event_type in [*ANCHOR_EVENTS, "other", "induction_bolus"]:
            copies = draw(st.sampled_from([0, 1, 1, 1, 1, 2]))
            events += [Event(case_id, event_type, draw(STAMP)) for _ in range(copies)]
    return draw(st.permutations(events))


# Every field is given: builds() infers the ones left out of a NamedTuple, NaN
# plans included, which parse_case_attributes never yields (NaN != NaN).
ATTRIBUTES = st.lists(
    st.builds(
        CaseAttributes,
        case_id=st.sampled_from(["W1", "W2", "W10", "unused"]),
        department=st.sampled_from(["urology", "surgery"]),
        age=st.none() | st.integers(0, 130),
        sex=st.sampled_from(["f", "m", "other"]),
        procedure_text=st.text(max_size=6),
        anesthesia_text=st.text(max_size=6),
        positioning_text=st.text(max_size=6),
        planned_induction_min=st.none() | st.floats(0, 600),
        planned_procedure_min=st.none() | st.floats(0, 600),
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(events=event_logs(), attrs=ATTRIBUTES)
def test_assemble_cases_equals_the_sorted_event_oracle(events, attrs):
    """One pass over the events gives the cases that sorting each case's events gave."""
    got = [
        (c.case_id, c.attributes, c.n_events, (c.durations.induction_min, c.durations.preparation_min,
         c.durations.procedure_min), c.duplicate_anchors)
        for c in assemble_cases(events, attrs)
    ]
    assert got == assemble_cases_slow(events, attrs)


def table_records(table):
    """The Case records of ``table``, rebuilt from its columns."""
    n_attributes = len(CASES_HEADER)
    return [
        Case(CaseAttributes(*row[:n_attributes]), row[-1], PhaseDurations(*row[n_attributes:-2]), row[-2])
        for row in zip(*(table[field] for field in CASE_FIELDS))
    ]


@settings(max_examples=200, deadline=None)
@given(events=event_logs(), attrs=ATTRIBUTES)
def test_assembled_cases_round_trip_through_cases_jsonl_rows(events, attrs):
    cases = assemble_cases(events, attrs)
    rows = [json.loads(json.dumps(_case_to_row(case))) for case in cases]
    table = CaseTable()
    table.extend({field: [row[j] for row in rows] for j, field in enumerate(CASE_FIELDS)})
    assert table_records(table) == cases


# any text, with the characters JSON escapes and a line reader could split on
TEXT = st.text(st.characters() | st.sampled_from('\r\n"\\\x00\u2028\u00e9\u6f22'), max_size=8)
MINUTES = st.none() | st.floats(-1e4, 1e4)  # negative and fractional durations pass through
CASE_RECORDS = st.lists(
    st.builds(
        Case,
        attributes=st.builds(
            CaseAttributes,
            case_id=TEXT,
            department=TEXT,
            age=st.none() | st.integers(0, 130),
            sex=st.sampled_from(["f", "m", "other"]),
            procedure_text=TEXT,
            anesthesia_text=TEXT,
            positioning_text=TEXT,
            planned_induction_min=st.none() | st.floats(0, 1e4),
            planned_procedure_min=st.none() | st.floats(0, 1e4),
        ),
        n_events=st.integers(0, 50),
        durations=st.builds(PhaseDurations, MINUTES, MINUTES, MINUTES),
        duplicate_anchors=st.lists(st.sampled_from(ANCHOR_EVENTS), unique=True).map(tuple),
    ),
    unique_by=lambda c: c.case_id,  # cases.jsonl lists each case once
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(cases=CASE_RECORDS)
@example(cases=[])  # a header-only file
@example(cases=[Case(CaseAttributes("W1", age=0), durations=PhaseDurations(-0.0, 0.0, None))])
def test_cases_jsonl_bytes_equal_the_per_field_writer_and_read_back(cases):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.jsonl"
        write_cases(path, cases)
        assert path.read_bytes() == cases_jsonl_slow(cases).encode("utf-8")
        loaded = read_cases(path)
    assert type(loaded) is CaseTable
    assert loaded.ids == [c.case_id for c in cases]
    assert loaded.index == {c.case_id: row for row, c in enumerate(cases)}
    assert table_records(loaded) == cases
    # every field back, column by column: a number as the float it equals,
    # -0.0 with its sign and null as None; == alone takes 50 for 50.0 and
    # -0.0 for 0.0
    for j, field in enumerate(CASE_FIELDS):
        column, original = loaded[field], [_case_to_row(c)[j] for c in cases]
        if field in NUMBER_FIELDS:
            assert [None if v is None else (type(v), repr(v)) for v in column] == [
                None if v is None else (float, repr(float(v))) for v in original
            ]
        else:
            assert [(type(v), v) for v in column] == [(type(v), v) for v in original]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), cases=CASE_RECORDS)
def test_a_selected_table_holds_the_columns_of_its_ids(data, cases):
    table = case_table(cases)
    order = data.draw(st.permutations(table.ids))
    ids = order[: data.draw(st.integers(0, len(order)))]
    selected = table.select(ids)
    assert selected.ids == list(ids)
    assert selected.index == {case_id: row for row, case_id in enumerate(ids)}
    for field in CASE_FIELDS:
        column = table[field]
        assert repr(selected[field]) == repr([column[table.index[i]] for i in ids])


@pytest.mark.parametrize(
    "changes, problem",
    [
        ({"case_id": "W0"}, "a case id is listed a second time"),
        ({"procedure_min": math.nan}, "'procedure_min' holds a number that is not finite"),
        ({"age": -math.inf}, "'age' holds a number that is not finite"),
    ],
    ids=["repeated-id", "nan", "minus-infinity"],
)
def test_a_table_refuses_a_bad_case_and_appends_nothing(changes, problem):
    good = [Case(CaseAttributes(f"W{i}", age=40 + i), durations=PhaseDurations(1.0, 2.0, 3.0)) for i in range(3)]
    table = case_table(good[:1])
    columns = case_columns(good[1:])
    for field, value in changes.items():
        columns[field][-1] = value
    with pytest.raises(ValueError, match=re.escape(problem)):
        table.extend(columns)
    assert table_records(table) == good[:1] and table.index == {"W0": 0}


CASES_CSV_HEADER = (
    "case_id,department,age,sex,procedure_text,anesthesia_text,positioning_text,"
    "planned_induction_min,planned_procedure_min\n"
)


def test_cases_header_is_the_cases_csv_header_synth_writes():
    _, cases_csv, _ = synth_texts(SynthConfig(n_cases=100, seed=3))
    assert cases_csv.startswith(CASES_CSV_HEADER)
    assert ",".join(CASES_HEADER) + "\n" == CASES_CSV_HEADER


def test_parse_case_attributes_roundtrip():
    row = 'W1,urology,63,f,"Prostatektomie, lap.",ITN,rueckenlage,30,120\n'
    attrs, errors = parse_case_attributes((CASES_CSV_HEADER + row).encode())
    assert errors == []
    a = attrs[0]
    assert a.department == "urology"
    assert a.age == 63
    assert a.sex == "f"
    assert a.procedure_text == "Prostatektomie, lap."
    assert a.planned_induction_min == 30.0
    assert a.planned_procedure_min == 120.0


def test_case_attribute_missing_fields_default():
    attrs, _ = parse_case_attributes((CASES_CSV_HEADER + "W1,,,,,,,,\n").encode())
    a = attrs[0]
    assert a.department == "unknown"
    assert a.age is None
    assert a.sex == "other"
    assert a.planned_procedure_min is None


@pytest.mark.parametrize("bad", ["W1,x,270,f,,,,,", "W1,x,-3,f,,,,,", "W1,x,63,f,,,,-5,"])
def test_case_attribute_validation(bad):
    with pytest.raises(ParseError):
        parse_case_attributes((CASES_CSV_HEADER + bad + "\n").encode())


# ---------------------------------------------------------------------------
# One bad record costs one RecordError, never the file
# ---------------------------------------------------------------------------

PARSERS = (parse_events, parse_case_attributes)
FORMATS = ("csv", "jsonl")
GOOD = {
    parse_events: {"case_id": "W1", "event_type": "incision", "timestamp": "2024-03-01T08:40:00Z"},
    parse_case_attributes: {
        "case_id": "W1",
        "department": "urology",
        "age": "63",
        "sex": "f",
        "procedure_text": "bypass",
        "anesthesia_text": "ITN",
        "positioning_text": "rueckenlage",
        "planned_induction_min": "30",
        "planned_procedure_min": "120",
    },
}


def with_field(parse, fmt, name, value: bytes) -> bytes:
    """A good record of ``parse`` rendered in ``fmt`` with field ``name`` set to raw ``value``."""
    record = dict(GOOD[parse], **{name: "@@"})
    text = ",".join(record.values()) if fmt == "csv" else json.dumps(record)
    return text.encode().replace(b"@@", value)


def around(parse, fmt, bad: bytes) -> tuple[bytes, int]:
    """Two good records with ``bad`` between them, and the line ``bad`` is on."""
    good = with_field(parse, fmt, "case_id", b"W1")
    if fmt == "csv":
        return b"\n".join([",".join(GOOD[parse]).encode(), good, bad, good]) + b"\n", 3
    return b"\n".join([good, bad, good]) + b"\n", 2


BAD_RECORDS = [
    *[
        pytest.param(parse, "jsonl", bad, id=f"{parse.__name__}-jsonl-{name}")
        for parse in PARSERS
        for name, bad in (("list", b"[1,2]"), ("number", b"5"), ("string", b'"x"'), ("deep", b"[" * 100_000))
    ],
    *[
        pytest.param(parse, fmt, with_field(parse, fmt, "case_id", b"W" + byte), id=f"{parse.__name__}-{fmt}-{byte!r}")
        for parse in PARSERS
        for fmt in FORMATS
        for byte in (b"\xff", b"\xe4")
    ],
    *[
        pytest.param(parse, "csv", with_field(parse, "csv", "case_id", b"W\rX"), id=f"{parse.__name__}-csv-bare-cr")
        for parse in PARSERS
    ],
    *[
        pytest.param(parse_events, fmt, with_field(parse_events, fmt, "timestamp", stamp), id=f"{fmt}-{stamp.decode()}")
        for fmt in FORMATS
        for stamp in (b"9999-12-31T23:59:59-01:00", b"0001-01-01T00:00:00+01:00")
    ],
]


@pytest.mark.parametrize("parse, fmt, bad", BAD_RECORDS)
def test_bad_record_is_one_record_error(parse, fmt, bad):
    data, line = around(parse, fmt, bad)
    items, errors = parse(data, fmt=fmt, strict=False)
    assert len(items) == 2
    assert [e.line for e in errors] == [line]
    with pytest.raises(ParseError) as excinfo:
        parse(data, fmt=fmt)
    assert excinfo.value.line == line


def test_jsonl_values_are_read_as_their_text():
    record = dict(GOOD[parse_case_attributes], age=0, planned_induction_min=0, planned_procedure_min=None)
    (attrs,), _ = parse_case_attributes(json.dumps(record).encode(), fmt="jsonl")
    assert attrs.age == 0
    assert attrs.planned_induction_min == 0.0
    assert attrs.planned_procedure_min is None


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
def test_jsonl_null_case_id_is_missing(parse):
    record = dict(GOOD[parse], case_id=None)
    items, errors = parse(json.dumps(record).encode(), fmt="jsonl", strict=False)
    assert items == []
    assert [(e.line, e.message) for e in errors] == [(1, "missing case_id")]


# ---------------------------------------------------------------------------
# Properties over arbitrary input
# ---------------------------------------------------------------------------

FIELD_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["", "0", "63", "-3", "nan", "1e400", "2024-03-01T08:40:00Z", "9999-12-31T23:59:59-01:00"]
    ),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | FIELD_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
LINE = st.one_of(
    st.binary(max_size=40),
    JSON_VALUE.map(json.dumps).map(str.encode),
    st.dictionaries(st.sampled_from(CASES_HEADER + EVENTS_HEADER), JSON_VALUE)
    .map(json.dumps)
    .map(str.encode),
    st.lists(FIELD_TEXT, max_size=10).map(",".join).map(lambda s: s.encode("utf-8", "surrogatepass")),
)
BODY = st.lists(LINE, max_size=8).map(b"\n".join)


def header_line(parse) -> bytes:
    return (",".join(EVENTS_HEADER if parse is parse_events else CASES_HEADER) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(parse=st.sampled_from(PARSERS), fmt=st.sampled_from(FORMATS), with_header=st.booleans(), body=BODY)
def test_lenient_parsing_raises_only_for_a_csv_header(parse, fmt, with_header, body):
    data = header_line(parse) + body if with_header else body
    try:
        parse(data, fmt=fmt, strict=False)
    except ParseError as exc:
        assert fmt == "csv" and not with_header
        assert exc.line == 1 and exc.message.startswith("expected header")


@settings(max_examples=200, deadline=None)
@given(parse=st.sampled_from(PARSERS), fmt=st.sampled_from(FORMATS), with_header=st.booleans(), body=BODY)
def test_strict_parsing_raises_only_parse_error(parse, fmt, with_header, body):
    data = header_line(parse) + body if with_header else body
    try:
        parse(data, fmt=fmt, strict=True)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(parse=st.sampled_from(PARSERS), body=BODY)
def test_jsonl_every_nonblank_line_is_a_record_or_an_error(parse, body):
    items, errors = parse(body, fmt="jsonl", strict=False)
    lines = body.decode("utf-8", "surrogateescape").split("\n")
    assert len(items) + len(errors) == sum(1 for line in lines if line.strip())


NUMBER = st.none() | st.integers(-5, 600) | st.floats()
ATTRIBUTE_ROW = st.fixed_dictionaries(
    {
        "case_id": st.text(max_size=6),
        "department": st.text(max_size=6),
        "age": st.none() | st.integers(-5, 140),
        "sex": st.sampled_from(["f", "m", " M ", ""]) | st.text(max_size=2),
        "procedure_text": st.text(max_size=12),
        "anesthesia_text": st.text(max_size=12),
        "positioning_text": st.text(max_size=12),
        "planned_induction_min": NUMBER,
        "planned_procedure_min": NUMBER,
    }
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(ATTRIBUTE_ROW, max_size=6))
def test_csv_and_jsonl_renderings_parse_equal(rows):
    buf = io.StringIO()
    # quote every field: with a "\n" line terminator csv leaves a bare "\r" unquoted
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CASES_HEADER)
    for row in rows:
        writer.writerow(["" if row[k] is None else row[k] for k in CASES_HEADER])
    jsonl = "".join(json.dumps(row) + "\n" for row in rows)
    from_csv, csv_errors = parse_case_attributes(buf.getvalue().encode(), strict=False)
    from_jsonl, jsonl_errors = parse_case_attributes(jsonl.encode(), fmt="jsonl", strict=False)
    assert from_csv == from_jsonl
    assert [e.message for e in csv_errors] == [e.message for e in jsonl_errors]
