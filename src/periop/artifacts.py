"""Artifact I/O: every file a stage writes, and every artifact a stage reads.

Each artifact has one writer and one reader here. Every file a stage writes
goes through ``_create``. Three readers serve every artifact that a stage
reads back: ``read_json`` for the JSON artifacts, each through its own
decoder, ``read_csv`` for the assignments and predictions, and
``read_cases`` for ``cases.jsonl``, which gives a CaseTable. A reader
returns checked data or raises UsageError, naming the file, the line or
field where there is one, and the stage that writes it; so a missing,
malformed or stale artifact exits 1. A
reader also checks the file against the data it is read with: a clean file's
ids against the case table, and the assignments and predictions against the
split ids they are read for.

This module imports no numpy, so ``ingest`` and ``clean`` run without it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Mapping, Sequence, TextIO

from . import rules
from .config import UsageError
from .eventlog import ANCHOR_EVENTS, CASE_FIELDS, NUMBER_FIELDS, Case

if TYPE_CHECKING:
    from .casetable import CaseTable

# line 1 of the CSV artifacts that stages read back; the ``...`` of the
# predictions stands for one column per model, one or more
_ASSIGNMENTS_HEADER = ("case_id", "cluster")
_PREDICTIONS_HEADER = ("case_id", "actual_min", "planned_min", ...)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _create(path: Path) -> Iterator[TextIO]:
    """``path`` opened for writing text: every file a stage writes is written
    through here, in UTF-8 with "\\n" line ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        yield fh


def write_json(path: Path, obj, compact: bool = False) -> None:
    # compact goes through json's C encoder; indent=2 is for the reports people read
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    with _create(path) as fh:
        # allow_nan=False: NaN and Infinity are not JSON; producers write null instead
        fh.write(json.dumps(obj, sort_keys=True, allow_nan=False, **layout) + "\n")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV artifact with "\\n" line ends.

    csv quotes only the line terminator's characters, so a field holding a
    bare "\\r" (a case id such as ``'W1\\rX'``) would be written unquoted and
    split on reading; a row holding one is written with every field quoted.
    """
    with _create(path) as fh:
        minimal = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        minimal.writerow(header)
        for row in rows:
            if any(isinstance(v, str) and "\r" in v for v in row):
                quoted.writerow(row)
            else:
                minimal.writerow(row)


def write_assignments(path: Path, ids: Sequence[str], clusters: Sequence[int]) -> None:
    write_csv(path, _ASSIGNMENTS_HEADER, zip(ids, clusters))


def write_predictions(
    path: Path,
    ids: Sequence[str],
    actual: Sequence[float],
    planned: Sequence[float | None],
    predictions: Mapping[str, Sequence[float]],
) -> None:
    """The test cases ``ids``, their actual and planned durations and each
    model's predictions, one column per model in name order."""
    names = sorted(predictions)
    write_csv(
        path,
        [*_PREDICTIONS_HEADER[:-1], *names],
        (
            [case_id, repr(float(actual[i])), "" if planned[i] is None else repr(float(planned[i]))]
            + [repr(float(predictions[n][i])) for n in names]
            for i, case_id in enumerate(ids)
        ),
    )


def write_text(path: Path, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _require(path: Path, stage: str) -> None:
    if not path.exists():
        raise UsageError(f"missing artifact: {path} (run {stage!r} first)")


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


# json reads NaN, Infinity and -Infinity, which JSON does not have and no
# writer here emits; a number too large for a float (1e400) is caught by the
# rules that read each number field
_decode_json = json.JSONDecoder(parse_constant=_reject_constant).decode


def read_json(path: Path, decode: Callable, stage: str):
    """``decode`` the JSON artifact at ``path``; a file that is not JSON, a
    missing field or a bad value exits 1, naming the file and ``stage``, the
    stage that rebuilds it."""
    _require(path, stage)
    try:  # invalid UTF-8 or JSON, or a constant rejected above, is a ValueError
        return decode(_decode_json(path.read_text(encoding="utf-8")))
    except KeyError as exc:
        raise UsageError(f"{path}: missing field {exc}; re-run {stage!r} to rebuild it") from None
    # e.g. trees in an older nested layout, an idf that does not fit the
    # vocabulary, a field of the wrong JSON type or an array of wrong entries;
    # json's decoder raises RecursionError for arrays nested too deeply
    except (ValueError, TypeError, RecursionError) as exc:
        raise UsageError(f"{path}: {exc}; re-run {stage!r} to rebuild it") from None


def read_retained_ids(path: Path, case_ids: Collection[str]) -> list[str]:
    """The ``retained_ids`` of the clean file at ``path``: strings, each once,
    each one of ``case_ids``, the ids of the case table."""

    def decode(obj) -> list[str]:
        ids = rules.field(obj, "retained_ids", list)
        if not {*map(type, ids)} <= {str}:
            bad = next(i for i in ids if type(i) is not str)
            raise ValueError(f"bad entry in 'retained_ids': expected a string, got {rules.shown(bad)}")
        distinct = set(ids)
        if len(distinct) != len(ids):
            seen: set[str] = set()
            twice = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"'retained_ids' holds {twice!r} twice")
        unknown = distinct.difference(case_ids)
        if unknown:
            raise ValueError(f"'retained_ids' holds ids that cases.jsonl lacks, such as {min(unknown)!r}")
        return ids

    return read_json(path, decode, "clean")


def read_csv(path: Path, header: tuple, decode_row: Callable, stage: str) -> tuple[list[str], dict]:
    """Line 1's names and the rows of the CSV artifact at ``path`` by case id,
    their first field, each decoded by ``decode_row(row, names)``.

    Line 1 must be ``header``; a ``header`` that ends in ``...`` takes one or
    more further names there. A missing or empty file, invalid UTF-8, another
    line 1, a row of another number of fields, a case id read before and a
    cell that ``decode_row`` rejects with ValueError exit 1, naming the file,
    the line and ``stage``, the stage that rebuilds it.
    """
    _require(path, stage)
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader, [])
            if not _fits(names, header):
                got = rules.shown(",".join(names)) if names else "an empty file"
                raise ValueError(f"expected the header line {_shown_header(header)}, got {got}")
            rows: dict = {}
            n_fields = len(names)
            for row in reader:
                if len(row) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(row)}")
                if row[0] in rows:
                    raise ValueError(f"case {row[0]!r} is listed a second time")
                rows[row[0]] = decode_row(row, names)
        except UnicodeDecodeError:  # a ValueError, read in blocks: no line to name
            raise UsageError(f"{path}: invalid UTF-8; re-run {stage!r} to rebuild it") from None
        except (ValueError, csv.Error) as exc:
            raise UsageError(f"{path}:{max(reader.line_num, 1)}: {exc}; re-run {stage!r} to rebuild it") from None
    return names, rows


def _fits(names: list[str], header: tuple) -> bool:
    if header[-1] is ...:
        return len(names) >= len(header) and tuple(names[: len(header) - 1]) == header[:-1]
    return tuple(names) == header


def _shown_header(header: tuple) -> str:
    return rules.shown(",".join("<model>..." if name is ... else name for name in header), width=80)


def _bad_cell(names: Sequence[str], col: int, expected: str, cell: str) -> ValueError:
    return ValueError(f"bad value in column {names[col]!r}: expected {expected}, got {rules.shown(cell)}")


def _cluster(row: list[str], names: Sequence[str]) -> int:
    try:
        cluster = int(row[1])
    except ValueError:
        cluster = -1
    if 0 <= cluster < 2**63:  # a cluster id numpy holds as an int64
        return cluster
    raise _bad_cell(names, 1, "an integer from 0 to 2**63 - 1", row[1])


def _number(row: list[str], names: Sequence[str], col: int) -> float:
    try:
        value = float(row[col])
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise _bad_cell(names, col, "a finite number", row[col])


def _predictions(row: list[str], names: Sequence[str]) -> list[float]:
    """The model columns of a predictions row; the actual duration must be a
    number, and the plan too unless it is empty."""
    _number(row, names, 1)
    if row[2]:
        _number(row, names, 2)
    return [_number(row, names, col) for col in range(3, len(row))]


def _covering(path: Path, rows: dict, ids: Sequence[str], stage: str) -> list:
    """``rows``' entry for each of ``ids``, which must all be there: an
    artifact that lacks one was written for other cases."""
    missing = set(ids).difference(rows)
    if missing:
        raise UsageError(
            f"{path}: holds no row for {len(missing)} of the {len(ids)} cases it is read for, "
            f"such as {min(missing)!r}; re-run {stage!r} to rebuild it"
        )
    return [rows[i] for i in ids]


def read_clusters(path: Path, ids: Sequence[str]) -> list[int]:
    """The cluster of each of ``ids`` in the assignments file at ``path``."""
    _, clusters = read_csv(path, _ASSIGNMENTS_HEADER, _cluster, "cluster")
    return _covering(path, clusters, ids, "cluster")


def read_predictions(path: Path, ids: Sequence[str]) -> dict[str, list[float]]:
    """Each model's prediction for each of ``ids`` in the predictions file at
    ``path``, by model name."""
    names, rows = read_csv(path, _PREDICTIONS_HEADER, _predictions, "evaluate")
    per_case = _covering(path, rows, ids, "evaluate")
    first = len(_PREDICTIONS_HEADER) - 1
    return {name: [row[j] for row in per_case] for j, name in enumerate(names[first:])}


# cases.jsonl: line 1 is a JSON array of the field names in CASE_FIELDS, each
# later line one case's values in that order. That is the order the records
# hold them in (the CaseAttributes fields, the PhaseDurations fields, then
# duplicate_anchors and n_events), so the writer reorders no value, and no row
# repeats the names. The header marks the layout: a file whose line 1 is
# anything else (an empty file, another header, or the one-object-per-case
# rows of older builds) is rejected at line 1. Reading gives a CaseTable and
# checks each value's JSON type; a row that is not an array of
# len(CASE_FIELDS) values, holds a value of another JSON type, a number that
# is not finite, duplicate_anchors other than distinct anchor names or a
# negative n_events, or repeats a case id, is rejected at its line, naming
# the field by its header position.
_HEADER = list(CASE_FIELDS)  # line 1 as json decodes it
_ROW_TYPES = {  # field -> the Python types json.loads gives for its JSON type, and that type's name
    **dict.fromkeys(CASE_FIELDS, ({str}, "a string")),
    **dict.fromkeys(NUMBER_FIELDS, ({int, float, type(None)}, "a number or null")),
    "duplicate_anchors": ({list}, "an array"),
    "n_events": ({int}, "an integer"),
}


def _anchor_names(names: list) -> bool:
    """Whether ``names`` holds distinct names from ANCHOR_EVENTS."""
    return all(a in ANCHOR_EVENTS for a in names) and len(set(names)) == len(names)


_ROW_VALUES = {  # field -> a check of a value of its JSON type, and what the check expects
    **dict.fromkeys(NUMBER_FIELDS, (lambda v: v is None or rules.finite(v), "a finite number or null")),
    "duplicate_anchors": (_anchor_names, "an array of distinct anchor names"),
    "n_events": ((0).__le__, "an integer >= 0"),
}
_CHUNK_LINES = 1024  # the rows decoded before they are added to the table
_decode_row = json.JSONDecoder(parse_constant=_reject_constant).raw_decode


def _case_to_row(case: Case) -> tuple:
    return (*case.attributes, *case.durations, case.duplicate_anchors, case.n_events)


def write_cases(path: Path, cases: Iterable[Case]) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(_HEADER) + "\n")
        fh.writelines(json.dumps(_case_to_row(case)) + "\n" for case in cases)


def read_cases(path: Path) -> CaseTable:
    """The cases of the cases.jsonl at ``path``; a file that is not one
    exits 1, naming the line at fault."""
    _require(path, "ingest")
    try:
        return _case_table(path, _decoded_chunks)
    except UnicodeDecodeError:
        raise UsageError(f"{path}: invalid UTF-8; re-run 'ingest'") from None
    except (ValueError, TypeError, OverflowError, RecursionError):
        pass
    # read the file again one line at a time: that names the first line at
    # fault, and reads a file refused only for a blank line, say, or a last
    # line without its newline
    return _case_table(path, functools.partial(_checked_chunks, path))


def _case_table(path: Path, chunks: Callable[[TextIO], Iterator[dict]]) -> CaseTable:
    from .casetable import CaseTable

    table = CaseTable()
    with path.open(encoding="utf-8") as fh:
        for columns in chunks(fh):
            table.extend(columns)
    return table


def _decoded_chunks(fh: TextIO) -> Iterator[dict[str, tuple]]:
    """The columns of the rows after the header line, up to _CHUNK_LINES
    rows at a time. Any line but one row of the accepted JSON types and its
    newline raises ValueError or RecursionError, naming no line."""
    if _decode_json(fh.readline()) != _HEADER:  # an empty file fails to decode
        raise ValueError("not the header line")
    while lines := list(itertools.islice(fh, _CHUNK_LINES)):
        rows = []
        for line in lines:
            row, end = _decode_row(line)
            if line[end:] != "\n":
                raise ValueError("not one JSON value and its newline")
            rows.append(row)
        if {*map(type, rows)} != {list} or {*map(len, rows)} != {len(CASE_FIELDS)}:
            raise ValueError("not an array of the fields")
        columns = _columns(rows)
        for field, column in columns.items():
            if not {*map(type, column)} <= _ROW_TYPES[field][0]:
                raise ValueError(f"bad value for {field!r}")
        # the CaseTable checks the numbers; the usual empty duplicate_anchors costs one truth test
        anchors = columns["duplicate_anchors"]
        if (any(anchors) and not all(map(_anchor_names, anchors))) or min(columns["n_events"]) < 0:
            raise ValueError("bad value for 'duplicate_anchors' or 'n_events'")
        yield columns


def _checked_chunks(path: Path, fh: TextIO) -> Iterator[dict[str, tuple]]:
    """The columns of ``_decoded_chunks``, read one line at a time and blank
    lines skipped; the first line at fault raises UsageError, naming it and
    what is wrong with it."""
    line_no, rows, seen = 1, [], set()
    try:
        reason = _bad_header(fh.readline())
        if reason:
            raise ValueError(reason)
        for line_no, line in enumerate(fh, start=2):
            if line.strip():
                rows.append(_checked_row(line, seen))
            if len(rows) == _CHUNK_LINES:
                yield _columns(rows)
                rows = []
    except UnicodeDecodeError:
        raise UsageError(f"{path}: invalid UTF-8; re-run 'ingest'") from None
    except ValueError as exc:
        raise UsageError(f"{path}:{line_no}: {exc}; re-run 'ingest'") from None
    if rows:
        yield _columns(rows)


def _columns(rows: list[list]) -> dict[str, tuple]:
    """Each field's column of ``rows``, arrays of len(CASE_FIELDS) values."""
    return dict(zip(CASE_FIELDS, zip(*rows)))


def _bad_header(line: str) -> str | None:
    """Why line 1 of a cases.jsonl is not its header line; None if it is."""
    expected = f"expected a header line of the {len(CASE_FIELDS)} field names"
    if not line:
        return f"{expected}, got an empty file"
    try:
        header = json.loads(line)
    except (ValueError, RecursionError):
        return f"{expected}, got invalid JSON"
    return None if header == _HEADER else f"{expected}, got {rules.shown(header)}"


def _checked_row(line: str, seen: set[str]) -> list:
    """The row on a cases.jsonl line whose case id is not one of ``seen``,
    which it joins; ValueError says what is wrong with the line."""
    try:
        row = json.loads(line)  # NaN and Infinity too, which are named below
    except (ValueError, RecursionError):
        raise ValueError("invalid JSON") from None
    expected = f"expected a JSON array of {len(CASE_FIELDS)} fields"
    if type(row) is not list:
        raise ValueError(f"{expected}, got {rules.shown(row)}")
    if len(row) != len(CASE_FIELDS):
        raise ValueError(f"{expected}, got {len(row)}")
    for key, value in zip(CASE_FIELDS, row):
        types, name = _ROW_TYPES[key]
        if type(value) not in types:
            raise ValueError(f"bad value for {key!r}: expected {name}, got {json.dumps(value)}")
        check, expected = _ROW_VALUES.get(key, (None, None))
        if check and not check(value):
            raise ValueError(f"bad value for {key!r}: expected {expected}, got {rules.shown(value)}")
    if row[0] in seen:
        raise ValueError(f"case {row[0]!r} is listed a second time")
    seen.add(row[0])
    return row

