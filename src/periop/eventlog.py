"""Event log ingestion: events, case assembly and phase durations.

A perioperative workflow is reconstructed from four anchor events:
``anesthesia_start``, ``anesthesia_complete``, ``incision`` and ``suture``.
Everything else in the log is carried along as an ``other`` event.

Phase durations (fractional minutes):

* induction   = anesthesia_complete - anesthesia_start
* preparation = incision - anesthesia_complete
* procedure   = suture - incision

Ingest streams the event file: each record is read, checked and folded into
its case's slots in an :class:`EventLog` (the event count and one timestamp
per anchor) before the next line is read. So ingest holds memory for the
cases it keeps, not for the events it reads. :func:`assemble_cases` turns
the slots and the attribute rows into :class:`Case` records, one flat
record per case in ``CASE_FIELDS`` order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Union

ANCHOR_EVENTS = ("anesthesia_start", "anesthesia_complete", "incision", "suture")

PHASES = ("induction", "preparation", "procedure")

# phase -> (start anchor, end anchor)
PHASE_ANCHORS = {
    "induction": ("anesthesia_start", "anesthesia_complete"),
    "preparation": ("anesthesia_complete", "incision"),
    "procedure": ("incision", "suture"),
}


class PhaseFields(NamedTuple):
    """The case fields that belong to one phase."""

    text: str  # free-text description that gets clustered
    plan: str | None  # manually scheduled duration, if the log carries one
    duration: str  # the Case field of the phase's duration


PHASE_FIELDS = {
    "induction": PhaseFields("anesthesia_text", "planned_induction_min", "induction_min"),
    "preparation": PhaseFields("positioning_text", None, "preparation_min"),
    "procedure": PhaseFields("procedure_text", "planned_procedure_min", "procedure_min"),
}

EVENTS_HEADER = ("case_id", "event_type", "timestamp")


class ParseError(ValueError):
    """A CSV input's header line is not the one expected. A record that
    cannot be parsed raises it inside this module too, which reports the
    record as a :class:`RecordError` and reads on."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class RecordError:
    """One skipped record."""

    line: int
    message: str


class Case(NamedTuple):
    """An assembled workflow, its fields in the order a cases.jsonl line holds
    them: the attribute row (a cases.csv row's columns), the phase durations
    in fractional minutes (None when a defining timestamp is absent), the
    anchors that occur more than once, and the event count."""

    case_id: str
    department: str = "unknown"
    age: int | None = None
    sex: str = "other"  # one of {f, m, other}
    procedure_text: str = ""
    anesthesia_text: str = ""
    positioning_text: str = ""
    planned_induction_min: float | None = None
    planned_procedure_min: float | None = None
    induction_min: float | None = None
    preparation_min: float | None = None
    procedure_min: float | None = None
    duplicate_anchors: tuple[str, ...] = ()
    n_events: int = 0

    @property
    def is_valid(self) -> bool:
        return not self.duplicate_anchors


CASE_FIELDS = Case._fields
CASES_HEADER = CASE_FIELDS[:9]  # the attribute fields
# the fields that hold a number or None
NUMBER_FIELDS = (
    "age", "planned_induction_min", "planned_procedure_min", "induction_min", "preparation_min", "procedure_min"
)


def _parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp and normalize it to UTC.

    A trailing ``Z`` is accepted; naive timestamps are taken as UTC.
    """
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


Source = Union[bytes, IO[bytes]]


def _records(source: Source, fmt: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str] | str]]:
    """Read ``source``, bytes or a binary stream, one line at a time into
    ``(line, fields)``, one per non-blank record.

    ``fields`` lists the record's text per ``header`` name, in header order
    ("" = missing), or is the error message of a record that cannot be read.
    A CSV file whose first row is not ``header`` raises :class:`ParseError`.
    The input is split at each ``b"\\n"`` and then decoded line by line, so
    no decoded copy of the file is made; a record with a line that is not
    UTF-8 is the error "invalid UTF-8".
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unsupported format: {fmt!r}")
    undecodable = False  # a line read since the last record is not UTF-8

    def decoded(lines: Iterable[bytes]) -> Iterator[str]:
        nonlocal undecodable
        for line in lines:
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError:
                undecodable = True
                yield line.decode("utf-8", "surrogateescape")

    # a binary stream iterates over its lines, each up to and with b"\n"; a
    # BytesIO shares the bytes, no copy
    lines = decoded(io.BytesIO(source) if isinstance(source, bytes) else source)
    if fmt == "jsonl":
        for line_no, line in enumerate(lines, start=1):
            bad, undecodable = undecodable, False
            if not line.strip():
                continue
            if bad:
                yield line_no, "invalid UTF-8"
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):
                yield line_no, "invalid JSON"
                continue
            if not isinstance(obj, dict):
                yield line_no, "expected a JSON object"
                continue
            yield line_no, ["" if obj.get(k) is None else str(obj[k]) for k in header]
        return
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
    except csv.Error:
        first = None
    if first is None or tuple(h.strip() for h in first) != header:
        raise ParseError(1, f"expected header {','.join(header)!r}")
    n_fields = len(header)
    while True:
        undecodable = False
        try:
            for row in reader:
                bad, undecodable = undecodable, False
                if not row:
                    continue
                if bad:
                    yield reader.line_num, "invalid UTF-8"
                elif len(row) != n_fields:
                    yield reader.line_num, f"expected {n_fields} columns, got {len(row)}"
                else:
                    yield reader.line_num, row
            return
        except csv.Error as exc:  # the reader resumes at the next line
            yield reader.line_num, f"malformed CSV: {exc}"


def _parse(
    source: Source,
    fmt: str,
    header: tuple[str, ...],
    take: Callable[[list[str], int], None],
) -> list[RecordError]:
    """Pass each record's fields and line to ``take``, which raises
    :class:`ParseError` for a bad one; the bad records are skipped and
    returned."""
    errors: list[RecordError] = []
    for line, record in _records(source, fmt, header):
        try:
            if isinstance(record, str):
                raise ParseError(line, record)
            take(record, line)
        except ParseError as exc:
            errors.append(RecordError(exc.line, exc.message))
    return errors


# assembly state of one case: its event count, then one slot per anchor
_ANCHOR_SLOTS = {anchor: i for i, anchor in enumerate(ANCHOR_EVENTS, start=1)}
_REPEATED = object()  # slot marker: the anchor occurs more than once


class EventLog:
    """The events of a log, kept per case as assembly needs them.

    ``slots`` maps each case id to ``[n_events, *anchor timestamps]``, one
    timestamp per ``ANCHOR_EVENTS`` entry: None until the anchor occurs, and
    a marker once it occurs again. ``len()`` is the number of events taken.
    """

    def __init__(self) -> None:
        self.slots: dict[str, list] = {}
        self._n_events = 0

    def __len__(self) -> int:
        return self._n_events

    def add(self, case_id: str, event_type: str, timestamp: datetime) -> None:
        """Take one event. Only an anchor keeps its timestamp, so the order
        of a case's events does not matter."""
        slots = self.slots.get(case_id)
        if slots is None:
            slots = self.slots[case_id] = [0, None, None, None, None]
        slots[0] += 1
        i = _ANCHOR_SLOTS.get(event_type)
        if i is not None:
            slots[i] = timestamp if slots[i] is None else _REPEATED
        self._n_events += 1


def _event_fields(fields: list[str], line: int) -> tuple[str, str, datetime]:
    """The case id, event type and timestamp of an event record."""
    raw_id, raw_type, timestamp = fields
    case_id = raw_id.strip()
    if not case_id:
        raise ParseError(line, "missing case_id")
    event_type = raw_type.strip().lower()
    if not event_type:
        raise ParseError(line, "missing event_type")
    try:
        ts = _parse_timestamp(timestamp)
    except ValueError:
        raise ParseError(line, f"malformed timestamp {timestamp!r}") from None
    except OverflowError:
        raise ParseError(line, f"timestamp out of range in UTC {timestamp!r}") from None
    return case_id, event_type, ts


def parse_events(source: Source, fmt: str = "csv") -> tuple[EventLog, list[RecordError]]:
    """Parse an event stream, bytes or a binary stream, into an
    :class:`EventLog`, one record at a time.

    CSV input requires the header ``case_id,event_type,timestamp``, or
    raises :class:`ParseError`; JSONL input takes one object per line with
    the same field names. Unknown event types pass through as other events.
    Bad records are skipped and returned as :class:`RecordError` entries.
    """
    log = EventLog()
    errors = _parse(source, fmt, EVENTS_HEADER, lambda fields, line: log.add(*_event_fields(fields, line)))
    return log, errors


def _parse_optional_float(raw: str, line: int, name: str) -> float | None:
    raw = raw.strip()
    if not raw:
        return None
    try:
        if "_" in raw or not raw.isascii():  # float() reads 1_0, and the digits of other scripts
            raise ValueError(raw)
        value = float(raw)
    except ValueError:
        raise ParseError(line, f"{name} is not a number: {raw!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ParseError(line, f"{name} must be finite and >= 0: {raw!r}")
    return value


def _attrs_from_fields(fields: list[str], line: int, share: Callable[[str, str], str]) -> tuple:
    """The attribute row of a cases record, in ``CASES_HEADER`` order.

    ``share(value, value)`` gives the one object that the rows of a parse
    hold for a department or text value (``setdefault`` of the parse's
    dict). The numbers are not shared: ``-0.0 == 0.0``.
    """
    (raw_id, department, age_raw, sex, procedure_text, anesthesia_text, positioning_text,
     planned_induction, planned_procedure) = fields
    case_id = raw_id.strip()
    if not case_id:
        raise ParseError(line, "missing case_id")
    age_raw = age_raw.strip()
    age: int | None = None
    if age_raw:
        try:
            if "_" in age_raw or not age_raw.isascii():  # int() reads 6_5, and the digits of other scripts
                raise ValueError(age_raw)
            age = int(age_raw)
        except ValueError:
            raise ParseError(line, f"age is not an integer: {age_raw!r}") from None
        if age < 0 or age > 130:
            raise ParseError(line, f"age out of range [0, 130]: {age}")
    sex = sex.strip().lower()
    if sex not in ("f", "m"):
        sex = "other"
    department = department.strip() or "unknown"
    return (
        case_id,
        share(department, department),
        age,
        sex,
        share(procedure_text, procedure_text),
        share(anesthesia_text, anesthesia_text),
        share(positioning_text, positioning_text),
        _parse_optional_float(planned_induction, line, "planned_induction_min"),
        _parse_optional_float(planned_procedure, line, "planned_procedure_min"),
    )


def parse_case_attributes(
    source: Source,
    fmt: str = "csv",
    unique_ids: bool = False,
) -> tuple[list[tuple], list[RecordError]]:
    """Parse the case attribute table (cases.csv / JSONL), bytes or a binary
    stream, into one tuple per row in ``CASES_HEADER`` order; empty string =
    missing. Like :func:`parse_events`, a bad CSV header raises
    :class:`ParseError`, and bad records are skipped and returned.

    With ``unique_ids`` a row whose case id an earlier row holds is a bad
    record: the first row of each case id is kept. The rows hold one object
    per distinct department and text value: a table of a few hundred
    distinct texts holds a few hundred strings, not one per row.
    """
    rows: list[tuple] = []
    seen: set[str] = set()
    share = {}.setdefault  # the one object of each department and text value

    def take(fields: list[str], line: int) -> None:
        row = _attrs_from_fields(fields, line, share)
        if unique_ids:
            if row[0] in seen:
                raise ParseError(line, f"case {row[0]!r} is listed a second time")
            seen.add(row[0])
        rows.append(row)

    return rows, _parse(source, fmt, CASES_HEADER, take)


def _minutes(start: datetime | None, end: datetime | None) -> float | None:
    return None if start is None or end is None else (end - start).total_seconds() / 60.0


def assemble_cases(log: EventLog, attrs: Iterable[tuple]) -> list[Case]:
    """The Cases of ``log``'s case ids, sorted by case_id; ``attrs`` holds
    attribute rows in ``CASES_HEADER`` order.

    A case with a repeated anchor is flagged invalid (``duplicate_anchors``)
    and gets no durations. A duration needs both of its anchors; negative
    values pass through for the cleaning stage to reject. Cases without an
    attribute row get default attributes.
    """
    row_by_id = {row[0]: row for row in attrs}
    cases: list[Case] = []
    for case_id in sorted(log.slots):
        n_events, *slots = log.slots[case_id]
        duplicates = tuple(a for a, t in zip(ANCHOR_EVENTS, slots) if t is _REPEATED)
        stamps = dict(zip(ANCHOR_EVENTS, [None] * len(slots) if duplicates else slots))
        # the duration fields follow PHASES
        durations = (_minutes(stamps[s], stamps[e]) for s, e in map(PHASE_ANCHORS.get, PHASES))
        row = row_by_id.get(case_id) or Case(case_id)[: len(CASES_HEADER)]
        cases.append(Case(*row, *durations, duplicates, n_events))
    return cases
