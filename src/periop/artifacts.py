"""Artifact I/O: every file a stage writes, and every artifact a stage reads.

``WRITES`` declares the files each command writes into ``--out``; every
file a stage writes goes through ``_create``. Three readers serve every
artifact that a stage reads back: ``read_json`` for the JSON artifacts, each
through its own decoder, ``read_csv`` for the assignments and predictions,
and ``read_cases`` for ``cases.jsonl``, which reads the file in one pass and
gives a CaseTable: the reader checks each line's shape, and the table the
values of each case. A reader returns checked data or raises UsageError,
naming the file, the line or field where there is one, and the command
that ``WRITES`` names for it; so a missing, malformed or stale artifact
exits 1. A reader also checks the file against the data it is read with: a
clean file's ids against the case table, the assignments against the
retained ids, and the predictions against the test ids they are read for.

The assignments file is the one record of the train/test split: ``cluster``
draws the split and writes the training ids, ascending, then the test ids,
ascending, each with its cluster. ``read_split`` gives the later stages both
sides back, so no stage after ``cluster`` draws the split again.

This module imports no numpy, so ``ingest`` and ``clean`` run without it.
"""

from __future__ import annotations

import contextlib
import csv
import fnmatch
import itertools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Mapping, Sequence, TextIO

from . import rules
from .config import UsageError
from .eventlog import CASE_FIELDS, Case

if TYPE_CHECKING:
    from .casetable import CaseTable

# line 1 of the CSV artifacts that stages read back; the ``...`` of the
# predictions stands for one column per model, one or more
_ASSIGNMENTS_HEADER = ("case_id", "cluster")
_PREDICTIONS_HEADER = ("case_id", "actual_min", "planned_min", ...)

Side = tuple[list[str], list[int]]  # one side of the split: its case ids and their clusters

WRITES = {  # each command, in pipeline order, and the names of the files it writes into --out
    "synth": ("events.csv", "cases.csv", "ground_truth.json"),
    "ingest": ("cases.jsonl", "ingest_report.json"),
    "clean": ("clean_*.json", "cleaning_report.json"),
    "cluster": ("tfidf_*", "cluster_model_*", "assignments_*", "clusters_*"),
    "train": ("model_*_*.json",),
    "evaluate": ("predictions_*.csv", "metrics.json"),
    "report": ("deviation_report.json", "factor_report.json", "histogram_*_*.csv", "histogram_*_*.svg"),
    "predict": ("predictions.csv",),
}


def writer_of(path: Path) -> str | None:
    """The command that ``WRITES`` declares for the name of ``path``, or None."""
    return next((c for c, names in WRITES.items() if any(fnmatch.fnmatchcase(path.name, n) for n in names)), None)


def refuse_overwrite(command: str, out: Path, inputs: Mapping[str, Path], dest: Path | None = None) -> None:
    """Exit 1 if ``command`` would write over one of its ``inputs``, by option name (``dest``
    if given, else its files in ``out``), or ``dest`` over another command's file in ``out``."""
    def writer(path: Path) -> str | None:  # the command that writes path, a file in out
        return writer_of(path.resolve()) if path.resolve().parent == out.resolve() else None
    if dest is not None and writer(dest) not in (None, command):
        raise UsageError(f"--dest {dest} is a file that {writer(dest)} writes; give a path no other command writes")
    for key, path in inputs.items():
        if (path.resolve() == dest.resolve()) if dest is not None else (writer(path) == command):
            raise UsageError(f"{key} input {path} is a file that {command} writes; give an input outside its output")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _create(path: Path) -> Iterator[TextIO]:
    """``path`` opened for writing text: every file a stage writes is written
    through here, in UTF-8 with "\\n" line ends; a path it cannot create exits 1."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = path.open("w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"output {exc.filename}: {exc.strerror}") from None
    with fh:
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


def _require(path: Path) -> None:
    if not path.exists():
        raise UsageError(f"missing artifact: {path} (run {writer_of(path)!r} first)")


def _unreadable(path: Path, detail: str, line: int | None = None) -> UsageError:
    where = path if line is None else f"{path}:{line}"
    return UsageError(f"{where}: {detail}; re-run {writer_of(path)!r} to rebuild it")


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


# json reads NaN, Infinity and -Infinity, which JSON does not have and no
# writer here emits; a number too large for a float (1e400) is caught by the
# rules that read each number field
_decode_json = json.JSONDecoder(parse_constant=_reject_constant).decode


def read_json(path: Path, decode: Callable):
    """``decode`` the JSON artifact at ``path``; a file that is not JSON, a
    missing field or a bad value exits 1, naming the file and the command
    that rebuilds it."""
    _require(path)
    try:  # invalid UTF-8 or JSON, or a constant rejected above, is a ValueError
        return decode(_decode_json(path.read_text(encoding="utf-8")))
    # a missing field; trees in an older nested layout, an idf that does not
    # fit the vocabulary, a field of the wrong JSON type or an array of wrong
    # entries; json's decoder raises RecursionError for arrays nested too deeply
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
        raise _unreadable(path, f"missing field {exc}" if type(exc) is KeyError else str(exc)) from None


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

    return read_json(path, decode)


def read_csv(path: Path, header: tuple, decode_row: Callable) -> tuple[list[str], dict]:
    """Line 1's names and the rows of the CSV artifact at ``path`` by case id,
    their first field, each decoded by ``decode_row(row, names)``.

    Line 1 must be ``header``; a ``header`` that ends in ``...`` takes one or
    more further names there. A missing or empty file, invalid UTF-8, another
    line 1, a row of another number of fields, a case id read before and a
    cell that ``decode_row`` rejects with ValueError exit 1, naming the file,
    the line and the command that rebuilds it.
    """
    _require(path)
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
            raise _unreadable(path, "invalid UTF-8") from None
        except (ValueError, csv.Error) as exc:
            raise _unreadable(path, str(exc), max(reader.line_num, 1)) from None
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


def _covering(path: Path, rows: dict, ids: Sequence[str]) -> list:
    """``rows``' entry for each of ``ids``, which must all be there: an
    artifact that lacks one was written for other cases."""
    missing = set(ids).difference(rows)
    if missing:
        detail = f"holds no row for {len(missing)} of the {len(ids)} cases it is read for, such as {min(missing)!r}"
        raise _unreadable(path, detail)
    return [rows[i] for i in ids]


def read_split(path: Path, retained: Collection[str], test_fraction: float) -> tuple[Side, Side]:
    """The training and the test side of the split in the assignments file
    at ``path``, each its case ids and their clusters in file order.

    The file's ids must be ``retained``, the ids that cleaning retained, no
    more and no fewer. Its last ``rules.held_out(n, test_fraction)`` rows
    are the test side, and each side must ascend strictly, as ``cluster``
    writes it; a ``test_fraction`` changed since ``cluster`` ran moves the
    boundary and breaks that order.
    """
    _, clusters = read_csv(path, _ASSIGNMENTS_HEADER, _cluster)
    _covering(path, clusters, retained)
    if len(clusters) != len(retained):  # no id is missing, so some are extra
        extra = set(clusters).difference(retained)
        detail = f"holds rows for {len(extra)} cases that cleaning did not retain, such as {min(extra)!r}"
        raise _unreadable(path, detail)
    ids = list(clusters)
    n_train = len(ids) - rules.held_out(len(ids), test_fraction)
    for i in range(1, len(ids)):
        if ids[i] <= ids[i - 1] and i != n_train:
            side = "training" if i < n_train else "test"
            detail = (f"case {ids[i]!r} breaks the ascending order of the {side} ids, so "
                      "the file is not the split that 'cluster' draws at this 'test_fraction'")
            raise _unreadable(path, detail, i + 2)
    labels = list(clusters.values())
    return (ids[:n_train], labels[:n_train]), (ids[n_train:], labels[n_train:])


def read_predictions(path: Path, ids: Sequence[str]) -> dict[str, list[float]]:
    """Each model's prediction for each of ``ids`` in the predictions file at
    ``path``, by model name."""
    names, rows = read_csv(path, _PREDICTIONS_HEADER, _predictions)
    per_case = _covering(path, rows, ids)
    first = len(_PREDICTIONS_HEADER) - 1
    return {name: [row[j] for row in per_case] for j, name in enumerate(names[first:])}


# cases.jsonl: line 1 is a JSON array of the field names in CASE_FIELDS, each
# later line one case's values in that order. CASE_FIELDS is the field order
# of the Case record, so a Case is written as the JSON array it is, and no
# row repeats the names. The header marks the layout: a file whose line 1 is
# anything else (an empty file, another header, or the one-object-per-case
# rows of older builds) is rejected at line 1. A later line that is not a
# JSON array of len(CASE_FIELDS) values is rejected at its line, and so is
# a case that the CaseTable refuses, which holds the rules for each value.
_HEADER = list(CASE_FIELDS)  # line 1 as json decodes it
_N_FIELDS = len(CASE_FIELDS)
_CHUNK_LINES = 1024  # the lines read before their rows are added to the table
_JSON_SPACE = " \t\n\r"  # what json.loads skips around a value
# NaN and Infinity too, which the CaseTable names as numbers that are not finite
_decode_value = json.JSONDecoder().raw_decode


def write_cases(path: Path, cases: Iterable[Case]) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(_HEADER) + "\n")
        fh.writelines(json.dumps(case) + "\n" for case in cases)


def read_cases(path: Path) -> CaseTable:
    """The cases of the cases.jsonl at ``path``, read in one pass, a chunk of
    lines at a time: blank lines are skipped, and the last line may lack its
    newline. A file that is not one exits 1, naming its first line at fault
    and what is wrong with that line."""
    from .casetable import CaseError, CaseTable

    _require(path)
    table = CaseTable()
    line_no = 1
    try:
        with path.open(encoding="utf-8") as fh:
            reason = _bad_header(fh.readline())
            if reason:
                raise ValueError(reason)
            while lines := list(itertools.islice(fh, _CHUNK_LINES)):
                start, rows, fault = line_no + 1, [], None
                for line_no, line in enumerate(lines, start):
                    text = line.strip(_JSON_SPACE)
                    try:
                        row, end = _decode_value(text)
                    except (ValueError, RecursionError):
                        end = -1
                    if end != len(text):
                        if not line.strip():  # a blank line
                            continue
                        fault = "invalid JSON"
                        break
                    if type(row) is not list or len(row) != _N_FIELDS:
                        got = len(row) if type(row) is list else rules.shown(row)
                        fault = f"expected a JSON array of {_N_FIELDS} fields, got {got}"
                        break
                    rows.append(row)
                try:  # a case on a line before the fault may be the first at fault
                    if rows:
                        table.extend(_columns(rows))
                except CaseError as exc:  # the rows are the lines before the fault that are not blank
                    line_no = start + [i for i, line in enumerate(lines) if line.strip()][exc.row]
                    raise
                if fault:
                    raise ValueError(fault)
    except UnicodeDecodeError:
        raise _unreadable(path, "invalid UTF-8") from None
    except ValueError as exc:
        raise _unreadable(path, str(exc), line_no) from None
    return table


def _bad_header(line: str) -> str | None:
    """Why line 1 of a cases.jsonl is not its header line; None if it is."""
    expected = f"expected a header line of the {_N_FIELDS} field names"
    if not line:
        return f"{expected}, got an empty file"
    try:
        header = json.loads(line)
    except (ValueError, RecursionError):
        return f"{expected}, got invalid JSON"
    return None if header == _HEADER else f"{expected}, got {rules.shown(header)}"


def _columns(rows: list[list]) -> dict[str, tuple]:
    """Each field's column of ``rows``, arrays of len(CASE_FIELDS) values."""
    return dict(zip(CASE_FIELDS, zip(*rows)))
