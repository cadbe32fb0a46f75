import csv
import io
import json
import math
import random
import re
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    Event,
    assemble_cases_slow,
    case_columns,
    case_table,
    cases_jsonl_slow,
    read_cases_slow,
    records_slow,
)
from periop import cli, eventlog
from periop.artifacts import read_cases, write_cases
from periop.casetable import CaseError, CaseTable
from periop.config import UsageError
from periop.eventlog import (
    ANCHOR_EVENTS,
    CASE_FIELDS,
    CASES_HEADER,
    EVENTS_HEADER,
    NUMBER_FIELDS,
    Case,
    EventLog,
    ParseError,
    RecordError,
    _parse_timestamp,
    assemble_cases,
    parse_case_attributes,
    parse_events,
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


def event_log(events):
    """The EventLog that takes ``events``, (case_id, event_type, timestamp) triples, in order."""
    log = EventLog()
    for event in events:
        log.add(*event)
    return log


def test_parse_events_csv_direct_mapping():
    log, errors = parse_events(b"case_id,event_type,timestamp\nW1,incision,2024-03-01T08:40:00Z\n")
    assert errors == []
    assert len(log) == 1
    assert log.slots == {"W1": [1, None, None, _parse_timestamp("2024-03-01T08:40:00Z"), None]}


def test_unknown_event_type_passes_through():
    log, _ = parse_events(b"case_id,event_type,timestamp\nW1,bad-type,2024-03-01T08:40:00Z\n")
    assert len(log) == 1
    assert log.slots == {"W1": [1, None, None, None, None]}


def test_malformed_timestamp_is_a_record_error_at_its_line():
    log, errors = parse_events(b"case_id,event_type,timestamp\nW1,incision,yesterday\n")
    assert len(log) == 0
    assert errors == [RecordError(2, "malformed timestamp 'yesterday'")]


def test_missing_case_id_is_record_error():
    data = b"case_id,event_type,timestamp\n,incision,2024-03-01T08:40:00Z\n"
    log, errors = parse_events(data)
    assert len(log) == 0 and log.slots == {}
    assert errors == [RecordError(2, "missing case_id")]


def test_lenient_mode_skips_and_collects():
    data = (
        b"case_id,event_type,timestamp\n"
        b"W1,incision,not-a-time\n"
        b"W2,suture,2024-03-01T10:10:00Z\n"
    )
    log, errors = parse_events(data)
    assert list(log.slots) == ["W2"]
    assert [e.line for e in errors] == [2]


def test_header_required():
    with pytest.raises(ParseError):
        parse_events(b"id,kind,when\nW1,incision,2024-03-01T08:40:00Z\n")


def test_parse_events_jsonl():
    data = b'{"case_id": "W1", "event_type": "Incision", "timestamp": "2024-03-01T08:40:00+01:00"}\n'
    log, _ = parse_events(data, fmt="jsonl")
    # the type is read in lower case, so the stamp fills the incision slot
    assert log.slots == {"W1": [1, None, None, datetime(2024, 3, 1, 7, 40, tzinfo=timezone.utc), None]}


def test_timestamps_normalized_to_utc():
    assert _parse_timestamp("2024-03-01T08:40:00+01:00") == _parse_timestamp("2024-03-01T07:40:00Z")
    naive = _parse_timestamp("2024-03-01T07:40:00")
    assert naive.tzinfo == timezone.utc


def test_assemble_groups_and_sorts():
    events, _ = parse_events(EVENTS_CSV.encode())
    cases = assemble_cases(events, [Case(case_id="W1", department="urology")[: len(CASES_HEADER)]])
    assert [c.case_id for c in cases] == ["W1", "W2"]
    w1 = cases[0]
    assert [c.n_events for c in cases] == [4, 1]
    assert w1.department == "urology"
    # attributes missing for W2 -> defaults
    assert cases[1].department == "unknown"
    assert cases[1].sex == "other"


def test_a_case_without_an_attribute_row_gets_the_default_attributes():
    events, _ = parse_events(EVENTS_CSV.encode())
    (w1, w2) = assemble_cases(events, [])
    # the defaults a case without an attribute row always had
    defaults = ("unknown", None, "other", "", "", "", None, None)
    assert w1[: len(CASES_HEADER)] == ("W1", *defaults)
    assert w2[: len(CASES_HEADER)] == ("W2", *defaults)


def test_case_fields_are_the_case_record_fields_in_file_order():
    assert Case._fields == CASE_FIELDS
    assert CASE_FIELDS == (
        *CASES_HEADER, "induction_min", "preparation_min", "procedure_min", "duplicate_anchors", "n_events"
    )
    assert CASE_FIELDS[: len(CASES_HEADER)] == CASES_HEADER


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
    assert case.procedure_min is None


def test_assemble_empty_is_empty():
    assert assemble_cases(EventLog(), []) == []


def test_phase_durations_from_anchors():
    events, _ = parse_events(EVENTS_CSV.encode())
    cases = assemble_cases(events, [])
    w1 = cases[0]
    assert w1.induction_min == pytest.approx(25.0)
    assert w1.preparation_min == pytest.approx(15.0)
    assert w1.procedure_min == pytest.approx(90.0)
    # W2 has only an incision: nothing is derivable
    w2 = cases[1]
    assert w2.induction_min is None
    assert w2.procedure_min is None


def test_negative_durations_pass_through():
    rows = (
        "case_id,event_type,timestamp\n"
        "W1,suture,2024-03-01T08:00:00Z\n"
        "W1,incision,2024-03-01T09:00:00Z\n"
    )
    events, _ = parse_events(rows.encode())
    (case,) = assemble_cases(events, [])
    assert case.procedure_min == pytest.approx(-60.0)


def test_phase_sum_identity_and_permutation_invariance():
    rng = random.Random(7)
    base = datetime(2024, 5, 1, 7, 0, tzinfo=timezone.utc)
    for _ in range(25):
        t0 = base + timedelta(minutes=rng.randrange(600))
        ind = rng.randrange(5, 60)
        prep = rng.randrange(5, 45)
        proc = rng.randrange(10, 300)
        events = [
            ("X", "anesthesia_start", t0),
            ("X", "anesthesia_complete", t0 + timedelta(minutes=ind)),
            ("X", "incision", t0 + timedelta(minutes=ind + prep)),
            ("X", "suture", t0 + timedelta(minutes=ind + prep + proc)),
        ]
        rng.shuffle(events)
        (d,) = assemble_cases(event_log(events), [])
        assert d.induction_min == pytest.approx(ind)
        assert d.preparation_min == pytest.approx(prep)
        assert d.procedure_min == pytest.approx(proc)
        total = d.induction_min + d.preparation_min + d.procedure_min
        assert total == pytest.approx(proc + prep + ind)


def test_assembly_preserves_event_multiset():
    log, _ = parse_events(EVENTS_CSV.encode())
    cases = assemble_cases(log, [])
    ids = [row[0] for row in csv.reader(io.StringIO(EVENTS_CSV))][1:]
    assert {c.case_id: c.n_events for c in cases} == {case_id: ids.count(case_id) for case_id in ids}
    assert sum(c.n_events for c in cases) == len(log) == len(ids)


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


# Attribute rows as parse_case_attributes gives them, one strategy per field
# in CASES_HEADER order: no NaN plans, which it never yields (NaN != NaN).
ATTRIBUTES = st.lists(
    st.tuples(
        st.sampled_from(["W1", "W2", "W10", "unused"]),  # case_id
        st.sampled_from(["urology", "surgery"]),  # department
        st.none() | st.integers(0, 130),  # age
        st.sampled_from(["f", "m", "other"]),  # sex
        st.text(max_size=6),  # procedure_text
        st.text(max_size=6),  # anesthesia_text
        st.text(max_size=6),  # positioning_text
        st.none() | st.floats(0, 600),  # planned_induction_min
        st.none() | st.floats(0, 600),  # planned_procedure_min
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(events=event_logs(), attrs=ATTRIBUTES)
def test_assemble_cases_equals_the_sorted_event_oracle(events, attrs):
    """One pass over the events gives the cases that sorting each case's events gave."""
    got = [
        (c.case_id, c[: len(CASES_HEADER)], c.n_events, (c.induction_min, c.preparation_min, c.procedure_min),
         c.duplicate_anchors)
        for c in assemble_cases(event_log(events), attrs)
    ]
    assert got == assemble_cases_slow(events, attrs)


def table_records(table):
    """The Case records of ``table``, rebuilt from its columns."""
    return [Case(*row) for row in zip(*(table[field] for field in CASE_FIELDS))]


@settings(max_examples=200, deadline=None)
@given(events=event_logs(), attrs=ATTRIBUTES)
def test_assembled_cases_round_trip_through_cases_jsonl_rows(events, attrs):
    cases = assemble_cases(event_log(events), attrs)
    rows = [json.loads(json.dumps(case)) for case in cases]
    table = CaseTable()
    table.extend({field: [row[j] for row in rows] for j, field in enumerate(CASE_FIELDS)})
    assert table_records(table) == cases


# any text, with the characters JSON escapes and a line reader could split on
TEXT = st.text(st.characters() | st.sampled_from('\r\n"\\\x00\u2028\u00e9\u6f22'), max_size=8)
MINUTES = st.none() | st.floats(-1e4, 1e4)  # negative and fractional durations pass through
CASE_RECORDS = st.lists(
    st.builds(
        Case,
        case_id=TEXT,
        department=TEXT,
        age=st.none() | st.integers(0, 130),
        sex=st.sampled_from(["f", "m", "other"]),
        procedure_text=TEXT,
        anesthesia_text=TEXT,
        positioning_text=TEXT,
        planned_induction_min=st.none() | st.floats(0, 1e4),
        planned_procedure_min=st.none() | st.floats(0, 1e4),
        induction_min=MINUTES,
        preparation_min=MINUTES,
        procedure_min=MINUTES,
        duplicate_anchors=st.lists(st.sampled_from(ANCHOR_EVENTS), unique=True).map(tuple),
        n_events=st.integers(0, 50),
    ),
    unique_by=lambda c: c.case_id,  # cases.jsonl lists each case once
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(cases=CASE_RECORDS)
@example(cases=[])  # a header-only file
@example(cases=[Case("W1", age=0, induction_min=-0.0, preparation_min=0.0, procedure_min=None)])
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
    for field in CASE_FIELDS:
        column, original = loaded[field], [getattr(c, field) for c in cases]
        if field in NUMBER_FIELDS:
            assert [None if v is None else (type(v), repr(v)) for v in column] == [
                None if v is None else (float, repr(float(v))) for v in original
            ]
        else:
            assert [(type(v), v) for v in column] == [(type(v), v) for v in original]


def row_of(case, case_id):
    """The cases.jsonl row of ``case`` under another case id, as json.loads gives it."""
    return json.loads(json.dumps(case._replace(case_id=case_id)))


def with_value(field, value):
    """A line edit: the row with ``field`` set to ``value``."""
    return lambda row: json.dumps([value if f == field else v for f, v in zip(CASE_FIELDS, row)])


# each takes a good row and gives the text of the line that replaces it: a
# line that is not one row, a row the case table refuses, and a good row
LINE_EDITS = {
    "line": [
        lambda row: json.dumps(row)[:30],  # invalid JSON
        lambda row: json.dumps(row) + " []",  # invalid JSON too: a second value
        lambda row: json.dumps(dict(zip(CASE_FIELDS, row))),  # one object per case, as older builds wrote
        lambda row: json.dumps(row[:-1]),
    ],
    "value": [
        with_value("age", "x"),
        with_value("n_events", True),
        with_value("department", None),
        with_value("sex", 3),
        with_value("procedure_min", math.nan),
        with_value("induction_min", -math.inf),
        with_value("planned_procedure_min", math.inf),
        with_value("age", 10**400),
        with_value("duplicate_anchors", [math.nan, {"x": [1]}]),
        with_value("duplicate_anchors", ["suture", "suture"]),
        with_value("duplicate_anchors", "incision"),
        with_value("n_events", -3),
        with_value("n_events", 2.0),
    ],
    "good": [lambda row: " " + json.dumps(row) + "\t"],  # inside JSON whitespace
}


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    templates=CASE_RECORDS.filter(bool),
    n_rows=st.sampled_from([0, 1, 4, 1030, 2100]),  # chunks hold 1,024 lines
    cut_last_newline=st.booleans(),
)
def test_read_cases_names_the_first_line_at_fault_as_the_line_by_line_reader_does(
    data, templates, n_rows, cut_last_newline
):
    """Random edits of a good file: bad lines, repeated case ids, blank
    lines, a bad header, no last newline. ``read_cases`` reads the rows of
    the line-by-line reference, or names its first line at fault with the
    same message."""
    rows = [row_of(templates[i % len(templates)], f"W{i}") for i in range(n_rows)]
    lines = [json.dumps(row) for row in rows]
    index = st.integers(0, max(n_rows - 1, 0))
    for _ in range(data.draw(st.integers(0, 5)) if n_rows else 0):
        i, kind = data.draw(index), data.draw(st.sampled_from(["line", "value", "good", "repeat"]))
        if kind == "repeat":  # another row's case id
            lines[i] = json.dumps(row_of(templates[i % len(templates)], rows[data.draw(index)][0]))
        else:
            lines[i] = data.draw(st.sampled_from(LINE_EDITS[kind]))(rows[i])
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", "  ", "\t\f"])))
    header = data.draw(st.sampled_from([json.dumps(list(CASE_FIELDS))] * 8 + ["", "[]", json.dumps(rows[:1])]))
    text = "\n".join([header, *lines]) + ("" if cut_last_newline else "\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.jsonl"
        path.write_text(text, encoding="utf-8")
        expected, fault = read_cases_slow(path)
        if fault:
            with pytest.raises(UsageError) as refused:
                read_cases(path)
            assert str(refused.value) == f"{path}:{fault[0]}: {fault[1]}; re-run 'ingest' to rebuild it"
            return
        table = read_cases(path)
    assert table.ids == [row[0] for row in expected]
    for j, field in enumerate(CASE_FIELDS):
        column = [row[j] for row in expected]
        if field in NUMBER_FIELDS:
            column = [None if v is None else float(v) for v in column]
        elif field == "duplicate_anchors":
            column = list(map(tuple, column))
        assert table[field] == column, field


@pytest.mark.parametrize(
    "last_line",
    [json.dumps(["W1"]), json.dumps(Case("W1")) + "\n\n" + "[1, 2"],
    ids=["bad-row", "blank-line-then-truncated-row"],
)
def test_read_cases_opens_a_file_with_a_bad_line_once(tmp_path, last_line):
    path = tmp_path / "cases.jsonl"
    write_cases(path, [Case("W0")])
    with path.open("a", encoding="utf-8") as fh:
        fh.write(last_line)
    with mock.patch.object(Path, "open", autospec=True, side_effect=Path.open) as opened:
        with pytest.raises(UsageError):
            read_cases(path)
    assert opened.call_count == 1


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


@settings(max_examples=100, deadline=None)
@given(data=st.data(), cases=CASE_RECORDS)
def test_take_gives_the_values_of_a_column_at_its_rows(data, cases):
    table = case_table(cases)
    rows = data.draw(st.lists(st.integers(0, len(table.ids) - 1)) if table.ids else st.just([]))
    for field in CASE_FIELDS:
        column = table[field]
        assert repr(table.take(field, rows)) == repr([column[r] for r in rows])


@pytest.mark.parametrize(
    "changes, problem",
    [
        ({"case_id": "W0"}, "case 'W0' is listed a second time"),
        ({"procedure_min": math.nan}, "bad value for 'procedure_min': expected a finite number or null, got NaN"),
        ({"age": -math.inf}, "bad value for 'age': expected a finite number or null, got -Infinity"),
    ],
    ids=["repeated-id", "nan", "minus-infinity"],
)
def test_a_table_refuses_a_bad_case_and_appends_nothing(changes, problem):
    good = [
        Case(f"W{i}", age=40 + i, induction_min=1.0, preparation_min=2.0, procedure_min=3.0) for i in range(3)
    ]
    table = case_table(good[:1])
    columns = case_columns(good[1:])
    for field, value in changes.items():
        columns[field][-1] = value
    with pytest.raises(CaseError, match=re.escape(problem)) as refused:
        table.extend(columns)
    assert refused.value.row == 1
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
    a = dict(zip(CASES_HEADER, attrs[0]))
    assert a["department"] == "urology"
    assert a["age"] == 63
    assert a["sex"] == "f"
    assert a["procedure_text"] == "Prostatektomie, lap."
    assert a["planned_induction_min"] == 30.0
    assert a["planned_procedure_min"] == 120.0


def test_case_attribute_missing_fields_default():
    attrs, _ = parse_case_attributes((CASES_CSV_HEADER + "W1,,,,,,,,\n").encode())
    a = dict(zip(CASES_HEADER, attrs[0]))
    assert a["department"] == "unknown"
    assert a["age"] is None
    assert a["sex"] == "other"
    assert a["planned_procedure_min"] is None


VALIDATION_ROWS = [
    ("W1,x,270,f,,,,,", "age out of range [0, 130]: 270"),
    ("W1,x,-3,f,,,,,", "age out of range [0, 130]: -3"),
    ("W1,x,63,f,,,,-5,", "planned_induction_min must be finite and >= 0: '-5'"),
    # int() and float() also read Python's digit separators and the digits of
    # other scripts; a cell takes ASCII notation only
    ("W1,x,6_5,f,,,,,", "age is not an integer: '6_5'"),
    ("W1,x,\uff16\uff15,f,,,,,", "age is not an integer: '\uff16\uff15'"),
    ("W1,x,63,f,,,,1_0,", "planned_induction_min is not a number: '1_0'"),
    ("W1,x,63,f,,,,,\u0661\u0662", "planned_procedure_min is not a number: '\u0661\u0662'"),
]


@pytest.mark.parametrize("bad, problem", VALIDATION_ROWS, ids=[bad for bad, _ in VALIDATION_ROWS])
def test_case_attribute_validation(bad, problem):
    """A bad value is the same record error in a CSV row and in a JSONL one."""
    attrs, errors = parse_case_attributes((CASES_CSV_HEADER + bad + "\n").encode())
    assert attrs == [] and errors == [RecordError(2, problem)]
    record = json.dumps(dict(zip(CASES_HEADER, bad.split(","))))
    attrs, errors = parse_case_attributes(record.encode(), fmt="jsonl")
    assert attrs == [] and errors == [RecordError(1, problem)]


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
    items, errors = parse(data, fmt=fmt)
    assert len(items) == 2
    assert [e.line for e in errors] == [line]


def test_jsonl_values_are_read_as_their_text():
    record = dict(GOOD[parse_case_attributes], age=0, planned_induction_min=0, planned_procedure_min=None)
    (row,), _ = parse_case_attributes(json.dumps(record).encode(), fmt="jsonl")
    attrs = dict(zip(CASES_HEADER, row))
    assert attrs["age"] == 0
    assert attrs["planned_induction_min"] == 0.0
    assert attrs["planned_procedure_min"] is None


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
def test_jsonl_null_case_id_is_missing(parse):
    record = dict(GOOD[parse], case_id=None)
    items, errors = parse(json.dumps(record).encode(), fmt="jsonl")
    assert len(items) == 0
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
        parse(data, fmt=fmt)
    except ParseError as exc:
        assert fmt == "csv" and not with_header
        assert exc.line == 1 and exc.message.startswith("expected header")


@settings(max_examples=200, deadline=None)
@given(parse=st.sampled_from(PARSERS), body=BODY)
def test_jsonl_every_nonblank_line_is_a_record_or_an_error(parse, body):
    items, errors = parse(body, fmt="jsonl")
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


def rendered(rows, fmt) -> bytes:
    """A cases file in ``fmt`` of ``rows``, dicts of the CASES_HEADER fields."""
    if fmt == "jsonl":
        return "".join(json.dumps(row) + "\n" for row in rows).encode()
    buf = io.StringIO()
    # quote every field: with a "\n" line terminator csv leaves a bare "\r" unquoted
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CASES_HEADER)
    for row in rows:
        writer.writerow(["" if row[k] is None else row[k] for k in CASES_HEADER])
    return buf.getvalue().encode()


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(ATTRIBUTE_ROW, max_size=6))
def test_csv_and_jsonl_renderings_parse_equal(rows):
    from_csv, csv_errors = parse_case_attributes(rendered(rows, "csv"))
    from_jsonl, jsonl_errors = parse_case_attributes(rendered(rows, "jsonl"), fmt="jsonl")
    assert from_csv == from_jsonl
    assert [e.message for e in csv_errors] == [e.message for e in jsonl_errors]


SHARED_FIELDS = ("department", "procedure_text", "anesthesia_text", "positioning_text")
# few values, so that rows repeat them; a value of one character is one
# object in CPython anyway, so most are longer
FEW_TEXTS = st.sampled_from(["", "ITN", " ITN", "lap. op", "Rückenlage", "x" * 40]) | st.text(min_size=2, max_size=3)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(ATTRIBUTE_ROW, st.fixed_dictionaries(dict.fromkeys(SHARED_FIELDS, FEW_TEXTS))).map(
            lambda pair: {**pair[0], **pair[1]}
        ),
        max_size=8,
    ),
    fmt=st.sampled_from(FORMATS),
)
def test_equal_texts_within_one_parse_are_one_object(rows, fmt):
    """The rows of one parse hold one object per distinct department and
    text value, and equal the rows of each record parsed on its own, which
    share nothing, as every row did before the values were shared."""
    parsed, _ = parse_case_attributes(rendered(rows, fmt), fmt=fmt)
    alone = [row for record in rows for row in parse_case_attributes(rendered([record], fmt), fmt=fmt)[0]]
    assert parsed == alone
    held: dict[str, str] = {}
    for row in parsed:
        for field in SHARED_FIELDS:
            value = row[CASES_HEADER.index(field)]
            assert held.setdefault(value, value) is value, (field, value)


def test_a_negative_zero_plan_keeps_its_sign_beside_a_zero_plan(tmp_path):
    """Numbers are not shared: -0.0 == 0.0, and each plan keeps its own sign
    in cases.jsonl."""
    (tmp_path / "events.csv").write_text(
        "case_id,event_type,timestamp\nW1,incision,2024-03-01T08:00:00Z\nW2,incision,2024-03-01T09:00:00Z\n"
    )
    (tmp_path / "cases.csv").write_text(CASES_CSV_HEADER + "W1,x,63,f,a,b,c,-0,0\nW2,x,63,f,a,b,c,0,-0\n")
    assert cli.run(["ingest", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "cases.jsonl").read_text().splitlines()
    plans = [line.split(", ")[7:9] for line in lines[1:]]
    assert plans == [["-0.0", "0.0"], ["0.0", "-0.0"]]


# ---------------------------------------------------------------------------
# The streamed records are the records of the whole decoded text
# ---------------------------------------------------------------------------

RAW_FIELD = st.one_of(
    st.binary(max_size=6),
    st.sampled_from(
        [b"", b"W1", b"incision", b"2024-03-01T08:40:00Z", b"\xff", b"x\xe4", b"\xc3", b"\xa9", "\u00e9".encode(),
         b"\n", b"\r", b"\r\n", b'"', b",", b"\x00", b"a\nb\xffc", b"\xed\xb2\x80"]
    ),
)


@st.composite
def raw_csv_row(draw):
    """One CSV row of raw fields, each quoted or not, with its line end: a
    quoted field can span lines and hold bytes that are not UTF-8."""
    fields = []
    # mostly the header's three fields, so most rows are read as records
    for field in draw(st.lists(RAW_FIELD, min_size=3, max_size=3) | st.lists(RAW_FIELD, max_size=4)):
        fields.append(b'"' + field.replace(b'"', b'""') + b'"' if draw(st.booleans()) else field)
    return b",".join(fields) + draw(st.sampled_from([b"\n", b"\r\n", b"\r", b""]))


RAW_LINE = st.one_of(
    raw_csv_row(),
    st.sampled_from([b"\n", b"\r\n", b"\r", b"  \n"]),  # blank lines
    st.dictionaries(st.sampled_from(EVENTS_HEADER), RAW_FIELD.map(lambda b: b.decode("utf-8", "replace")))
    .map(json.dumps)
    .map(lambda text: text.encode() + b"\n"),
    st.binary(max_size=12),
)
EVENTS_HEADER_LINE = b"case_id,event_type,timestamp\n"
HEADERS = st.sampled_from([EVENTS_HEADER_LINE, b"case_id, event_type ,timestamp\r\n"]) | st.sampled_from(
    [b"case_id,event_type\n", b'"case_id\n', b"\xffcase_id,event_type,timestamp\n", b""]  # bad CSV headers
)


def source_of(kind, data, buffer_size):
    """``data`` as a source of ``kind``: the bytes, or a binary stream of them."""
    if kind == "bytes":
        return data
    return io.BufferedReader(io.BytesIO(data), buffer_size=buffer_size)


def drained(records):
    """Each record as ``(line, fields in header order or message)``, then the ParseError if one ends the read."""
    out = []
    try:
        for line, fields in records:
            out.append((line, list(fields.values()) if isinstance(fields, dict) else fields))
    except ParseError as exc:
        out.append(("ParseError", exc.line, exc.message))
    return out


def marked_example(body):
    return example(fmt="csv", kind="bytes", header=EVENTS_HEADER_LINE, body=body, buffer_size=4)


@settings(max_examples=400, deadline=None)
# a byte that is not UTF-8 on the second line of a quoted field marks its
# record, and only that one; so does one on a line that ends in a CSV error
@marked_example(b'W1,"a\nb\xff",2024\nW2,x,2024\n')
@marked_example(b'W1,"a\xff\nb",2024\nW2,x,2024\n')
@marked_example(b"W\xff\rX,x,2024\nW2,x,2024\n")
@given(
    fmt=st.sampled_from(FORMATS),
    kind=st.sampled_from(["bytes", "binary"]),
    header=HEADERS,
    body=st.lists(RAW_LINE, max_size=8).map(b"".join),
    buffer_size=st.integers(1, 16),
)
def test_streamed_records_equal_the_records_of_the_whole_decoded_text(fmt, kind, header, body, buffer_size):
    data = header + body
    expected = drained(records_slow(source_of(kind, data, buffer_size), fmt, EVENTS_HEADER))
    got = drained(eventlog._records(source_of(kind, data, buffer_size), fmt, EVENTS_HEADER))
    assert got == expected


def test_an_event_log_holds_memory_per_case_not_per_event():
    """20,000 more events of the same 200 cases leave the parsed log's size
    where it was: only a case's count and anchor stamps are kept."""
    anchors = [f"W{i},{anchor},2024-03-01T08:{j:02d}:00Z" for i in range(200) for j, anchor in enumerate(ANCHOR_EVENTS)]
    others = [f"W{i % 200},monitoring_on,2024-03-01T09:{i % 60:02d}:00+01:00" for i in range(20_000)]

    def traced_size(rows):
        data = ("case_id,event_type,timestamp\n" + "\n".join(rows) + "\n").encode()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log, errors = parse_events(data)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert errors == [] and len(log) == len(rows) and len(log.slots) == 200
        return size

    assert abs(traced_size(anchors + others) - traced_size(anchors)) < 100_000
