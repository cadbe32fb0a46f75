"""Event log ingestion: events, case assembly and phase durations.

A perioperative workflow is reconstructed from four anchor events:
``anesthesia_start``, ``anesthesia_complete``, ``incision`` and ``suture``.
Everything else in the log is carried along as an ``other`` event.

Phase durations (fractional minutes):

* induction   = anesthesia_complete - anesthesia_start
* preparation = incision - anesthesia_complete
* procedure   = suture - incision
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar, Union

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
    duration: str  # the PhaseDurations field of the phase


PHASE_FIELDS = {
    "induction": PhaseFields("anesthesia_text", "planned_induction_min", "induction_min"),
    "preparation": PhaseFields("positioning_text", None, "preparation_min"),
    "procedure": PhaseFields("procedure_text", "planned_procedure_min", "procedure_min"),
}

EVENTS_HEADER = ("case_id", "event_type", "timestamp")


class ParseError(ValueError):
    """A record could not be parsed; raised only in strict mode."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class RecordError:
    """One skipped record in lenient mode."""

    line: int
    message: str


class Event(NamedTuple):
    """One timestamped log record. Unknown event types pass through as-is."""

    case_id: str
    event_type: str
    timestamp: datetime  # timezone-aware, normalized to UTC


class CaseAttributes(NamedTuple):
    case_id: str
    department: str = "unknown"
    age: int | None = None
    sex: str = "other"  # one of {f, m, other}
    procedure_text: str = ""
    anesthesia_text: str = ""
    positioning_text: str = ""
    planned_induction_min: float | None = None
    planned_procedure_min: float | None = None

    def text(self, phase: str) -> str:
        return getattr(self, PHASE_FIELDS[phase].text)

    def planned(self, phase: str) -> float | None:
        """The manual plan for ``phase``; None when missing or never planned."""
        plan = PHASE_FIELDS[phase].plan
        return None if plan is None else getattr(self, plan)


CASES_HEADER = CaseAttributes._fields


class PhaseDurations(NamedTuple):
    """Fractional minutes per phase; None when a defining timestamp is absent."""

    induction_min: float | None = None
    preparation_min: float | None = None
    procedure_min: float | None = None

    def get(self, phase: str) -> float | None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase: {phase!r}")
        return getattr(self, PHASE_FIELDS[phase].duration)


class Case(NamedTuple):
    """An assembled workflow: attributes, event count and phase durations."""

    attributes: CaseAttributes
    n_events: int = 0
    durations: PhaseDurations = PhaseDurations()
    duplicate_anchors: tuple[str, ...] = ()

    @property
    def case_id(self) -> str:
        return self.attributes.case_id

    @property
    def is_valid(self) -> bool:
        return not self.duplicate_anchors


# every field of a Case, in the order its records hold them: the
# CaseAttributes fields, the PhaseDurations fields, then the two others
CASE_FIELDS = (*CASES_HEADER, *PhaseDurations._fields, "duplicate_anchors", "n_events")
# the fields that hold a number or None
NUMBER_FIELDS = ("age", "planned_induction_min", "planned_procedure_min", *PhaseDurations._fields)


def parse_timestamp(raw: str) -> datetime:
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


Source = Union[bytes, IO[bytes], IO[str], str]

# bytes that are not UTF-8 decode to lone surrogates under "surrogateescape"
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _records(
    source: Source, fmt: str, header: tuple[str, ...]
) -> Iterator[tuple[int, dict[str, str] | str]]:
    """Decode ``source`` into ``(line, fields)``, one per non-blank record.

    ``fields`` maps every ``header`` name to its text ("" = missing), or is
    the error message of a record that cannot be read. A CSV file whose first
    row is not ``header`` raises :class:`ParseError`.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unsupported format: {fmt!r}")
    data = source if isinstance(source, (bytes, str)) else source.read()
    undecodable = False
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            data, undecodable = data.decode("utf-8", "surrogateescape"), True
    lines = io.StringIO(data)
    del data  # the StringIO holds its own copy for the whole parse
    if fmt == "jsonl":
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            if undecodable and _UNDECODABLE.search(line):
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
            yield line_no, {k: "" if obj.get(k) is None else str(obj[k]) for k in header}
        return
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
    except csv.Error:
        first = None
    if first is None or tuple(h.strip() for h in first) != header:
        raise ParseError(1, f"expected header {','.join(header)!r}")
    while True:
        try:
            for row in reader:
                if not row:
                    continue
                if undecodable and any(_UNDECODABLE.search(value) for value in row):
                    yield reader.line_num, "invalid UTF-8"
                elif len(row) != len(header):
                    yield reader.line_num, f"expected {len(header)} columns, got {len(row)}"
                else:
                    yield reader.line_num, dict(zip(header, row))
            return
        except csv.Error as exc:  # the reader resumes at the next line
            yield reader.line_num, f"malformed CSV: {exc}"


T = TypeVar("T")


def _parse(
    source: Source,
    fmt: str,
    strict: bool,
    header: tuple[str, ...],
    build: Callable[[dict[str, str], int], T],
) -> tuple[list[T], list[RecordError]]:
    """Build one item per record: strict mode raises the first bad record, lenient mode collects them."""
    items: list[T] = []
    errors: list[RecordError] = []
    for line, record in _records(source, fmt, header):
        try:
            if isinstance(record, str):
                raise ParseError(line, record)
            items.append(build(record, line))
        except ParseError as exc:
            if strict:
                raise
            errors.append(RecordError(exc.line, exc.message))
    return items, errors


def _event_from_fields(row: dict[str, str], line: int) -> Event:
    case_id = row["case_id"].strip()
    if not case_id:
        raise ParseError(line, "missing case_id")
    event_type = row["event_type"].strip().lower()
    if not event_type:
        raise ParseError(line, "missing event_type")
    timestamp = row["timestamp"]
    try:
        ts = parse_timestamp(timestamp)
    except ValueError:
        raise ParseError(line, f"malformed timestamp {timestamp!r}") from None
    except OverflowError:
        raise ParseError(line, f"timestamp out of range in UTC {timestamp!r}") from None
    return Event(case_id=case_id, event_type=event_type, timestamp=ts)


def parse_events(
    source: Source,
    fmt: str = "csv",
    strict: bool = True,
) -> tuple[list[Event], list[RecordError]]:
    """Parse an event stream into Events, preserving record order.

    CSV input requires the header ``case_id,event_type,timestamp``; JSONL
    input takes one object per line with the same field names. In strict
    mode the first bad record raises :class:`ParseError`; in lenient mode
    bad records are skipped and returned as :class:`RecordError` entries.
    """
    return _parse(source, fmt, strict, EVENTS_HEADER, _event_from_fields)


def _parse_optional_float(raw: str, line: int, name: str) -> float | None:
    raw = raw.strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line, f"{name} is not a number: {raw!r}") from None
    if not math.isfinite(value) or value < 0:
        raise ParseError(line, f"{name} must be finite and >= 0: {raw!r}")
    return value


def _attrs_from_mapping(row: dict[str, str], line: int) -> CaseAttributes:
    case_id = row["case_id"].strip()
    if not case_id:
        raise ParseError(line, "missing case_id")
    age_raw = row["age"].strip()
    age: int | None = None
    if age_raw:
        try:
            age = int(age_raw)
        except ValueError:
            raise ParseError(line, f"age is not an integer: {age_raw!r}") from None
        if age < 0 or age > 130:
            raise ParseError(line, f"age out of range [0, 130]: {age}")
    sex = row["sex"].strip().lower()
    if sex not in ("f", "m"):
        sex = "other"
    return CaseAttributes(
        case_id=case_id,
        department=row["department"].strip() or "unknown",
        age=age,
        sex=sex,
        procedure_text=row["procedure_text"],
        anesthesia_text=row["anesthesia_text"],
        positioning_text=row["positioning_text"],
        planned_induction_min=_parse_optional_float(
            row["planned_induction_min"], line, "planned_induction_min"
        ),
        planned_procedure_min=_parse_optional_float(
            row["planned_procedure_min"], line, "planned_procedure_min"
        ),
    )


def parse_case_attributes(
    source: Source,
    fmt: str = "csv",
    strict: bool = True,
) -> tuple[list[CaseAttributes], list[RecordError]]:
    """Parse the case attribute table (cases.csv / JSONL); empty string = missing."""
    return _parse(source, fmt, strict, CASES_HEADER, _attrs_from_mapping)


# assembly state of one case: its event count, then one slot per anchor
_ANCHOR_SLOTS = {anchor: i for i, anchor in enumerate(ANCHOR_EVENTS, start=1)}
_REPEATED = object()  # slot marker: the anchor occurs more than once


def _minutes(start: datetime | None, end: datetime | None) -> float | None:
    return None if start is None or end is None else (end - start).total_seconds() / 60.0


def assemble_cases(events: Iterable[Event], attrs: Iterable[CaseAttributes]) -> list[Case]:
    """Group events by case_id into Cases, sorted by case_id.

    One pass keeps each case's event count and anchor timestamps. A case with
    a repeated anchor is flagged invalid (``duplicate_anchors``) and gets no
    durations; otherwise each anchor occurs at most once, so event order does
    not matter. A duration needs both of its anchors; negative values pass
    through for the cleaning stage to reject. Cases without an attribute row
    get default attributes.
    """
    attr_by_id = {a.case_id: a for a in attrs}
    state: dict[str, list] = {}
    for case_id, event_type, timestamp in events:
        slots = state.get(case_id)
        if slots is None:
            slots = state[case_id] = [0, None, None, None, None]
        slots[0] += 1
        i = _ANCHOR_SLOTS.get(event_type)
        if i is not None:
            slots[i] = timestamp if slots[i] is None else _REPEATED

    cases: list[Case] = []
    for case_id in sorted(state):
        n_events, *slots = state[case_id]
        duplicates = tuple(a for a, t in zip(ANCHOR_EVENTS, slots) if t is _REPEATED)
        stamps = dict(zip(ANCHOR_EVENTS, [None] * len(slots) if duplicates else slots))
        # PhaseDurations' fields follow PHASES
        durations = PhaseDurations(*(_minutes(stamps[s], stamps[e]) for s, e in map(PHASE_ANCHORS.get, PHASES)))
        attributes = attr_by_id.get(case_id) or CaseAttributes(case_id=case_id)
        cases.append(Case(attributes, n_events, durations, duplicates))
    return cases
