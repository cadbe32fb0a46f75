"""Duration cleaning: plausibility checks and the 1.5x IQR outlier filter.

Cleaning runs in two passes per phase: first drop records whose duration is
missing, non-positive (anchor ordering violated) or implausibly long, then
exclude everything outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, TypeVar

from .eventlog import PHASE_FIELDS

# Anything above two days is treated as a documentation fluke.
MAX_PLAUSIBLE_MINUTES = 48.0 * 60.0

REMOVAL_REASONS = ("missing", "negative_or_zero", "excessive", "iqr_low", "iqr_high")

T = TypeVar("T")


@dataclass
class CleaningReport:
    """Removal counts by reason plus the retained count; sums to the input size."""

    counts: dict[str, int] = field(default_factory=lambda: {r: 0 for r in REMOVAL_REASONS})
    retained: int = 0
    input: int = 0
    bounds: tuple[float, float] | None = None

    @property
    def removed(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "retained": self.retained,
            "removed": dict(self.counts),
            "iqr_bounds": list(self.bounds) if self.bounds is not None else None,
        }


def quantile(samples: Sequence[float], q: float) -> float:
    """Quantile by linear interpolation between order statistics at (n-1)*q."""
    if len(samples) == 0:
        raise ValueError("quantile of empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    values = sorted(samples)
    for v in values:
        if not math.isfinite(v):
            raise ValueError("samples must be finite")
    h = (len(values) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (h - lo) * (values[hi] - values[lo])


@dataclass(frozen=True)
class IqrResult:
    retained: tuple
    removed_low: tuple
    removed_high: tuple
    bounds: tuple[float, float]

    @property
    def removed(self) -> tuple:
        return self.removed_low + self.removed_high


def iqr_filter(samples: Sequence[tuple[T, float]], multiplier: float = 1.5) -> IqrResult:
    """Keep (id, value) pairs with Q1 - m*IQR <= value <= Q3 + m*IQR."""
    if not multiplier > 0:
        raise ValueError("multiplier must be > 0")
    if len(samples) < 4:
        raise ValueError(f"IQR filter needs at least 4 samples, got {len(samples)}")
    values = [v for _, v in samples]
    q1 = quantile(values, 0.25)
    q3 = quantile(values, 0.75)
    iqr = q3 - q1
    lo = q1 - multiplier * iqr
    hi = q3 + multiplier * iqr
    retained, removed_low, removed_high = [], [], []
    for item in samples:
        v = item[1]
        if v < lo:
            removed_low.append(item)
        elif v > hi:
            removed_high.append(item)
        else:
            retained.append(item)
    return IqrResult(tuple(retained), tuple(removed_low), tuple(removed_high), (lo, hi))


def _plausible(
    values: Sequence[float | None], max_minutes: float
) -> tuple[list[int], CleaningReport]:
    """The indices of the ``values`` that are present, > 0 and at most
    max_minutes, and the report of the others."""
    retained: list[int] = []
    report = CleaningReport(input=len(values))
    for i, value in enumerate(values):
        if value is None:
            report.counts["missing"] += 1
        elif value <= 0:
            report.counts["negative_or_zero"] += 1
        elif value > max_minutes:
            report.counts["excessive"] += 1
        else:
            retained.append(i)
    report.retained = len(retained)
    return retained, report


def clean_phase(
    cases: Mapping[str, Sequence],
    phase: str,
    multiplier: float = 1.5,
    max_minutes: float = MAX_PLAUSIBLE_MINUTES,
    by_department: bool = False,
) -> tuple[list[str], CleaningReport]:
    """Full cleaning pass for one phase: plausibility filter, then IQR filter.

    ``cases`` maps each case field to its column (a CaseTable, say). Returns
    the ids of the cases retained, in row order. The IQR bounds are computed
    per group: one group of every plausible case, or one per department with
    ``by_department``. A group of fewer than 4 cases is kept unfiltered. The
    report's ``bounds`` field is only set for the single group, and stays
    None when that group was too small.
    """
    values = cases[PHASE_FIELDS[phase].duration]
    plausible, report = _plausible(values, max_minutes)
    departments = cases["department"] if by_department else [""] * len(values)
    groups: dict[str, list[int]] = {}
    for i in plausible:
        groups.setdefault(departments[i], []).append(i)
    kept = set()
    for group in groups.values():
        if len(group) < 4:
            kept.update(group)
            continue
        result = iqr_filter([(i, values[i]) for i in group], multiplier)
        report.counts["iqr_low"] += len(result.removed_low)
        report.counts["iqr_high"] += len(result.removed_high)
        kept.update(i for i, _ in result.retained)
        if not by_department:
            report.bounds = result.bounds
    ids = cases["case_id"]
    retained = [ids[i] for i in plausible if i in kept]
    report.retained = len(retained)
    return retained, report
