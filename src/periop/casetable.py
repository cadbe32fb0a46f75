"""The case table: ``ingest`` writes one Case record per case to
``cases.jsonl``, and every later stage reads the file back as one CaseTable
(``artifacts.read_cases``) and reads the columns it needs. A stage imports
this module when it reads the cases, so ``ingest`` loads neither it nor
``array``.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence

from .eventlog import CASE_FIELDS, NUMBER_FIELDS

_CODED_FIELDS = ("department", "sex", "procedure_text", "anesthesia_text", "positioning_text")
# a null number is held as NaN, which no number a CaseTable holds is;
# _NULLS.get(v, v) is the value held for v
_NULLS = {None: math.nan}


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

    def __contains__(self, field) -> bool:
        return field in CASE_FIELDS

    def __iter__(self) -> Iterator[str]:
        return iter(CASE_FIELDS)

    def __len__(self) -> int:
        return len(CASE_FIELDS)

    def extend(self, columns: Mapping[str, Sequence]) -> None:
        """Append the cases of ``columns``, a mapping of each field of
        ``CASE_FIELDS`` to its column (another CaseTable, say).

        Columns of unequal length, a case id that the table or ``columns``
        holds twice and a number that is not finite raise ValueError (an
        integer too large for a float raises OverflowError), and append
        nothing.
        """
        ids = columns["case_id"]
        if {len(columns[field]) for field in CASE_FIELDS} != {len(ids)}:
            raise ValueError("the columns differ in length")
        start = len(self.ids)
        index = dict(zip(ids, range(start, start + len(ids))))
        if len(index) < len(ids) or not self.index.keys().isdisjoint(index):
            raise ValueError("a case id is listed a second time")
        numbers = {}
        for field in NUMBER_FIELDS:
            values = columns[field]
            if not all(map(math.isfinite, filter(None, values))):  # None and zeros pass by
                raise ValueError(f"{field!r} holds a number that is not finite")
            numbers[field] = array("d", map(_NULLS.get, values, values))
        self.index.update(index)
        self.ids.extend(ids)
        for field, values in numbers.items():
            self._numbers[field].extend(values)
        for field, codes in self._codes.items():
            vocabulary, values = self._vocabularies[field], columns[field]
            for value in dict.fromkeys(values):  # each distinct value, first seen first
                vocabulary.setdefault(value, len(vocabulary))
            codes.extend(map(vocabulary.__getitem__, values))
        self._lists["duplicate_anchors"].extend(map(tuple, columns["duplicate_anchors"]))
        self._lists["n_events"].extend(columns["n_events"])

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
