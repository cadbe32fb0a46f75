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
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import IO, Iterable, NamedTuple, Union

ANCHOR_EVENTS = ("anesthesia_start", "anesthesia_complete", "incision", "suture")

PHASES = ("induction", "preparation", "procedure")

# phase -> (start anchor, end anchor)
PHASE_ANCHORS = {
    "induction": ("anesthesia_start", "anesthesia_complete"),
    "preparation": ("anesthesia_complete", "incision"),
    "procedure": ("incision", "suture"),
}


class PhaseFields(NamedTuple):
    """The CaseAttributes fields that belong to one phase."""

    text: str  # free-text description that gets clustered
    plan: str | None  # manually scheduled duration, if the log carries one


PHASE_FIELDS = {
    "induction": PhaseFields("anesthesia_text", "planned_induction_min"),
    "preparation": PhaseFields("positioning_text", None),
    "procedure": PhaseFields("procedure_text", "planned_procedure_min"),
}

EVENTS_HEADER = ["case_id", "event_type", "timestamp"]
CASES_HEADER = [
    "case_id",
    "department",
    "age",
    "sex",
    "procedure_text",
    "anesthesia_text",
    "positioning_text",
    "planned_induction_min",
    "planned_procedure_min",
]


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


@dataclass(frozen=True)
class Event:
    """One timestamped log record. Unknown event types pass through as-is."""

    case_id: str
    event_type: str
    timestamp: datetime  # timezone-aware, normalized to UTC

    @property
    def is_anchor(self) -> bool:
        return self.event_type in ANCHOR_EVENTS


@dataclass(frozen=True)
class CaseAttributes:
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


@dataclass(frozen=True)
class PhaseDurations:
    """Fractional minutes per phase; None when a defining timestamp is absent."""

    induction_min: float | None = None
    preparation_min: float | None = None
    procedure_min: float | None = None

    def get(self, phase: str) -> float | None:
        if phase not in PHASES:
            raise ValueError(f"unknown phase: {phase!r}")
        return getattr(self, f"{phase}_min")


@dataclass(frozen=True)
class Case:
    """An assembled workflow: attributes, time-sorted events and durations."""

    attributes: CaseAttributes
    events: tuple[Event, ...]
    durations: PhaseDurations = field(default_factory=PhaseDurations)
    duplicate_anchors: tuple[str, ...] = ()

    @property
    def case_id(self) -> str:
        return self.attributes.case_id

    @property
    def is_valid(self) -> bool:
        return not self.duplicate_anchors


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


def _decode_lines(source: Union[bytes, IO[bytes], IO[str], str]) -> Iterable[str]:
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    return io.StringIO(text)


def _event_from_fields(case_id: str, event_type: str, timestamp: str, line: int) -> Event:
    case_id = case_id.strip()
    if not case_id:
        raise ParseError(line, "missing case_id")
    event_type = event_type.strip().lower()
    if not event_type:
        raise ParseError(line, "missing event_type")
    try:
        ts = parse_timestamp(timestamp)
    except ValueError:
        raise ParseError(line, f"malformed timestamp {timestamp!r}") from None
    return Event(case_id=case_id, event_type=event_type, timestamp=ts)


def parse_events(
    source: Union[bytes, IO[bytes], IO[str], str],
    fmt: str = "csv",
    strict: bool = True,
) -> tuple[list[Event], list[RecordError]]:
    """Parse an event stream into Events, preserving record order.

    CSV input requires the header ``case_id,event_type,timestamp``; JSONL
    input takes one object per line with the same field names. In strict
    mode the first bad record raises :class:`ParseError`; in lenient mode
    bad records are skipped and returned as :class:`RecordError` entries.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unsupported format: {fmt!r}")
    events: list[Event] = []
    errors: list[RecordError] = []

    def fail(line: int, message: str) -> None:
        if strict:
            raise ParseError(line, message)
        errors.append(RecordError(line, message))

    lines = _decode_lines(source)
    if fmt == "csv":
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != EVENTS_HEADER:
            raise ParseError(1, f"expected header {','.join(EVENTS_HEADER)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                fail(line_no, f"expected 3 columns, got {len(row)}")
                continue
            try:
                events.append(_event_from_fields(row[0], row[1], row[2], line_no))
            except ParseError as exc:
                if strict:
                    raise
                errors.append(RecordError(exc.line, exc.message))
    else:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                fail(line_no, "invalid JSON")
                continue
            try:
                events.append(
                    _event_from_fields(
                        str(obj.get("case_id", "")),
                        str(obj.get("event_type", "")),
                        str(obj.get("timestamp", "")),
                        line_no,
                    )
                )
            except ParseError as exc:
                if strict:
                    raise
                errors.append(RecordError(exc.line, exc.message))
    return events, errors


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


def _attrs_from_mapping(obj: dict, line: int) -> CaseAttributes:
    case_id = str(obj.get("case_id", "")).strip()
    if not case_id:
        raise ParseError(line, "missing case_id")
    age_raw = str(obj.get("age", "") or "").strip()
    age: int | None = None
    if age_raw:
        try:
            age = int(age_raw)
        except ValueError:
            raise ParseError(line, f"age is not an integer: {age_raw!r}") from None
        if age < 0 or age > 130:
            raise ParseError(line, f"age out of range [0, 130]: {age}")
    sex = str(obj.get("sex", "") or "").strip().lower()
    if sex not in ("f", "m"):
        sex = "other"
    return CaseAttributes(
        case_id=case_id,
        department=str(obj.get("department", "") or "").strip() or "unknown",
        age=age,
        sex=sex,
        procedure_text=str(obj.get("procedure_text", "") or ""),
        anesthesia_text=str(obj.get("anesthesia_text", "") or ""),
        positioning_text=str(obj.get("positioning_text", "") or ""),
        planned_induction_min=_parse_optional_float(
            str(obj.get("planned_induction_min", "") or ""), line, "planned_induction_min"
        ),
        planned_procedure_min=_parse_optional_float(
            str(obj.get("planned_procedure_min", "") or ""), line, "planned_procedure_min"
        ),
    )


def parse_case_attributes(
    source: Union[bytes, IO[bytes], IO[str], str],
    fmt: str = "csv",
    strict: bool = True,
) -> tuple[list[CaseAttributes], list[RecordError]]:
    """Parse the case attribute table (cases.csv / JSONL); empty string = missing."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unsupported format: {fmt!r}")
    attrs: list[CaseAttributes] = []
    errors: list[RecordError] = []
    lines = _decode_lines(source)
    if fmt == "csv":
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CASES_HEADER:
            raise ParseError(1, f"expected header {','.join(CASES_HEADER)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CASES_HEADER):
                if strict:
                    raise ParseError(line_no, f"expected {len(CASES_HEADER)} columns, got {len(row)}")
                errors.append(RecordError(line_no, f"expected {len(CASES_HEADER)} columns, got {len(row)}"))
                continue
            try:
                attrs.append(_attrs_from_mapping(dict(zip(CASES_HEADER, row)), line_no))
            except ParseError as exc:
                if strict:
                    raise
                errors.append(RecordError(exc.line, exc.message))
    else:
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                if strict:
                    raise ParseError(line_no, "invalid JSON") from None
                errors.append(RecordError(line_no, "invalid JSON"))
                continue
            try:
                attrs.append(_attrs_from_mapping(obj, line_no))
            except ParseError as exc:
                if strict:
                    raise
                errors.append(RecordError(exc.line, exc.message))
    return attrs, errors


def extract_phase_durations(case: Case) -> PhaseDurations:
    """Compute phase durations from the case's anchor events.

    A duration is present only when both defining timestamps are present
    and unique. Negative values pass through; the cleaning stage rejects
    them. Cases with duplicated anchors yield no durations at all.
    """
    if case.duplicate_anchors:
        return PhaseDurations()
    stamps: dict[str, datetime] = {}
    for ev in case.events:
        if ev.event_type in ANCHOR_EVENTS and ev.event_type not in stamps:
            stamps[ev.event_type] = ev.timestamp

    def diff(start: str, end: str) -> float | None:
        if start in stamps and end in stamps:
            return (stamps[end] - stamps[start]).total_seconds() / 60.0
        return None

    return PhaseDurations(
        induction_min=diff(*PHASE_ANCHORS["induction"]),
        preparation_min=diff(*PHASE_ANCHORS["preparation"]),
        procedure_min=diff(*PHASE_ANCHORS["procedure"]),
    )


def assemble_cases(events: Iterable[Event], attrs: Iterable[CaseAttributes]) -> list[Case]:
    """Group events by case_id into Cases, sorted by case_id.

    Events within a case are sorted by timestamp. A case with a duplicated
    anchor event is flagged invalid (``duplicate_anchors``) and gets no
    durations. Cases without an attribute row get default attributes.
    """
    attr_by_id: dict[str, CaseAttributes] = {}
    for a in attrs:
        attr_by_id[a.case_id] = a

    grouped: dict[str, list[Event]] = {}
    for ev in events:
        grouped.setdefault(ev.case_id, []).append(ev)

    cases: list[Case] = []
    for case_id in sorted(grouped):
        evs = sorted(grouped[case_id], key=lambda e: (e.timestamp, e.event_type))
        counts: dict[str, int] = {}
        for ev in evs:
            if ev.event_type in ANCHOR_EVENTS:
                counts[ev.event_type] = counts.get(ev.event_type, 0) + 1
        duplicates = tuple(a for a in ANCHOR_EVENTS if counts.get(a, 0) > 1)
        case = Case(
            attributes=attr_by_id.get(case_id, CaseAttributes(case_id=case_id)),
            events=tuple(evs),
            duplicate_anchors=duplicates,
        )
        cases.append(replace(case, durations=extract_phase_durations(case)))
    return cases
