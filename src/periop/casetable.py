"""The case table: ``ingest`` writes each case's Case record, one flat
tuple in ``CASE_FIELDS`` order, as a line of ``cases.jsonl``, and every
later stage reads the file back as one CaseTable (``artifacts.read_cases``)
and reads the columns it needs. The table holds the rules for a case's
values, which ``CaseTable.extend`` checks. A stage imports this module when
it reads the cases, so ``ingest`` loads neither it nor ``array``.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence

from . import rules
from .eventlog import ANCHOR_EVENTS, CASE_FIELDS, NUMBER_FIELDS

_CODED_FIELDS = ("department", "sex", "procedure_text", "anesthesia_text", "positioning_text")
# a null number is held as NaN, which no number a CaseTable holds is;
# _NULLS.get(v, v) is the value held for v
_NULLS = {None: math.nan}


def _finite(values) -> bool:
    """Whether each number of ``values`` is finite as a float; None passes."""
    try:
        return all(map(math.isfinite, filter(None, values)))  # None and zeros pass by
    except OverflowError:  # an integer too large for a float
        return False


def _anchor_names(names) -> bool:
    """Whether ``names`` holds distinct names from ANCHOR_EVENTS."""
    return all(a in ANCHOR_EVENTS for a in names) and len(set(names)) == len(names)


def _anchor_lists(values) -> bool:
    return not any(values) or all(map(_anchor_names, values))  # the usual empty lists cost one truth test


# field -> the Python types json.loads gives for its JSON type, and that
# type's name; then a check that a column of that type passes if and only if
# each of its values does, and what the check expects of a value
_RULES = {
    **dict.fromkeys(CASE_FIELDS, ({str}, "a string", None, None)),
    **dict.fromkeys(
        NUMBER_FIELDS, ({int, float, type(None)}, "a number or null", _finite, "a finite number or null")
    ),
    "duplicate_anchors": ({list, tuple}, "an array", _anchor_lists, "an array of distinct anchor names"),
    "n_events": ({int}, "an integer", lambda values: min(values, default=0) >= 0, "an integer >= 0"),
}


def _fits(field: str, values: Sequence) -> bool:
    types, _, check, _ = _RULES[field]
    return {*map(type, values)} <= types and (check is None or check(values))


class CaseError(ValueError):
    """A case that ``CaseTable.extend`` refuses; ``row`` is its position in
    the columns it was given."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


class CaseTable(Mapping):
    """Cases column by column: a mapping of each field of ``CASE_FIELDS`` to
    its column, a new list of one value per case, in row order.

    ``ids`` is the id column and ``index`` the row of each id. The table
    holds each string field but the id as one integer code per case into the
    field's vocabulary, so a column read gives the vocabulary's own string
    objects; it holds each number field as an ``array('d')`` with NaN for
    null, and a column read gives floats and None.
    """

    __slots__ = ("ids", "_index", "_lists", "_codes", "_vocabularies", "_numbers")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self._index: dict[str, int] | None = {}
        self._lists: dict[str, list] = {"case_id": self.ids, "duplicate_anchors": [], "n_events": []}
        self._codes = {field: array("i") for field in _CODED_FIELDS}
        self._vocabularies: dict[str, dict] = {field: {} for field in _CODED_FIELDS}
        self._numbers = {field: array("d") for field in NUMBER_FIELDS}

    @property
    def index(self) -> dict[str, int]:
        """The row of each case id; a table that ``select`` made builds it
        when it is first read."""
        if self._index is None:
            self._index = dict(zip(self.ids, range(len(self.ids))))
        return self._index

    def __getitem__(self, field: str) -> list:
        numbers = self._numbers.get(field)
        if numbers is not None:
            return [None if v != v else v for v in numbers]
        codes = self._codes.get(field)
        if codes is not None:
            return list(map(list(self._vocabularies[field]).__getitem__, codes))
        return list(self._lists[field])

    def take(self, field: str, rows: Iterable[int]) -> list:
        """The values of ``field`` at ``rows``, as its column gives them,
        without reading the rest of the column."""
        numbers = self._numbers.get(field)
        if numbers is not None:
            return [None if v != v else v for v in map(numbers.__getitem__, rows)]
        codes = self._codes.get(field)
        if codes is not None:
            return list(map(list(self._vocabularies[field]).__getitem__, map(codes.__getitem__, rows)))
        return list(map(self._lists[field].__getitem__, rows))

    def __contains__(self, field) -> bool:
        return field in CASE_FIELDS

    def __iter__(self) -> Iterator[str]:
        return iter(CASE_FIELDS)

    def __len__(self) -> int:
        return len(CASE_FIELDS)

    def extend(self, columns: Mapping[str, Sequence]) -> None:
        """Append the cases of ``columns``, a mapping of each field of
        ``CASE_FIELDS`` to its column (another CaseTable, say).

        Each value must be of its field's JSON type, as json.loads gives it:
        a string, a number or null, an array for ``duplicate_anchors`` and
        an integer for ``n_events``. A number must be finite, the anchors
        distinct names from ANCHOR_EVENTS, ``n_events`` >= 0, and the case
        id new to the table and listed once. Otherwise CaseError names the
        first case at fault, and nothing is appended; columns of unequal
        length raise ValueError.
        """
        ids = columns["case_id"]
        if {len(columns[field]) for field in CASE_FIELDS} != {len(ids)}:
            raise ValueError("the columns differ in length")
        if not all(_fits(field, columns[field]) for field in CASE_FIELDS):
            raise self._refusal(columns)
        start = len(self.ids)
        index = dict(zip(ids, range(start, start + len(ids))))
        if len(index) < len(ids) or not self.index.keys().isdisjoint(index):
            raise self._refusal(columns)
        self.index.update(index)
        self.ids.extend(ids)
        for field in NUMBER_FIELDS:
            values = columns[field]
            self._numbers[field].extend(array("d", map(_NULLS.get, values, values)))
        for field, codes in self._codes.items():
            vocabulary, values = self._vocabularies[field], columns[field]
            for value in dict.fromkeys(values):  # each distinct value, first seen first
                vocabulary.setdefault(value, len(vocabulary))
            codes.extend(map(vocabulary.__getitem__, values))
        self._lists["duplicate_anchors"].extend(map(tuple, columns["duplicate_anchors"]))
        self._lists["n_events"].extend(columns["n_events"])

    def _refusal(self, columns: Mapping[str, Sequence]) -> CaseError:
        """The error of the first case of ``columns`` that ``extend``
        refuses: its first field at fault, in CASE_FIELDS order, or else its
        case id, which the table or an earlier case holds."""
        seen = set(self.index)
        for row, values in enumerate(zip(*(columns[field] for field in CASE_FIELDS))):
            for field, value in zip(CASE_FIELDS, values):
                types, name, check, expected = _RULES[field]
                if type(value) not in types:
                    return CaseError(row, f"bad value for {field!r}: expected {name}, got {json.dumps(value)}")
                if check is not None and not check((value,)):
                    return CaseError(row, f"bad value for {field!r}: expected {expected}, got {rules.shown(value)}")
            if values[0] in seen:
                return CaseError(row, f"case {values[0]!r} is listed a second time")
            seen.add(values[0])
        raise AssertionError("extend refused columns that break no rule")

    def select(self, ids: Iterable[str]) -> "CaseTable":
        """A table of the cases ``ids``, in that order, each at most once; it
        shares this table's vocabularies."""
        rows = [self.index[i] for i in ids]
        table = CaseTable()
        for field, values in self._lists.items():
            table._lists[field].extend(map(values.__getitem__, rows))
        for field, codes in self._codes.items():
            table._codes[field].extend(map(codes.__getitem__, rows))
        for field, numbers in self._numbers.items():
            table._numbers[field].extend(map(numbers.__getitem__, rows))
        table._vocabularies = self._vocabularies
        table._index = None
        return table
