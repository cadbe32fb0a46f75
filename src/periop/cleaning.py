"""Duration cleaning: plausibility checks and the 1.5x IQR outlier filter.

Cleaning runs in two passes per phase: first drop records whose duration is
missing, non-positive (anchor ordering violated) or implausibly long, then
exclude everything outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TypeVar

from .eventlog import Case

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


def plausibility_filter(
    cases: Iterable[Case],
    phase: str,
    max_minutes: float = MAX_PLAUSIBLE_MINUTES,
) -> tuple[list[Case], CleaningReport]:
    """Drop cases whose phase duration is missing, <= 0 or above max_minutes."""
    retained: list[Case] = []
    report = CleaningReport()
    for case in cases:
        report.input += 1
        value = case.durations.get(phase)
        if value is None:
            report.counts["missing"] += 1
        elif value <= 0:
            report.counts["negative_or_zero"] += 1
        elif value > max_minutes:
            report.counts["excessive"] += 1
        else:
            retained.append(case)
    report.retained = len(retained)
    return retained, report


def clean_phase(
    cases: Iterable[Case],
    phase: str,
    multiplier: float = 1.5,
    max_minutes: float = MAX_PLAUSIBLE_MINUTES,
    by_department: bool = False,
) -> tuple[list[Case], CleaningReport]:
    """Full cleaning pass for one phase: plausibility filter, then IQR filter.

    The IQR bounds are computed per group: one group of every plausible case,
    or one per department with ``by_department``. A group of fewer than 4
    cases is kept unfiltered. The report's ``bounds`` field is only set for
    the single group, and stays None when that group was too small.
    """
    plausible, report = plausibility_filter(cases, phase, max_minutes=max_minutes)
    groups: dict[str, list[Case]] = {}
    for case in plausible:
        groups.setdefault(case.attributes.department if by_department else "", []).append(case)
    kept_ids = set()
    for group in groups.values():
        if len(group) < 4:
            kept_ids.update(map(id, group))
            continue
        result = iqr_filter([(c, c.durations.get(phase)) for c in group], multiplier)
        report.counts["iqr_low"] += len(result.removed_low)
        report.counts["iqr_high"] += len(result.removed_high)
        kept_ids.update(id(c) for c, _ in result.retained)
        if not by_department:
            report.bounds = result.bounds
    retained = [c for c in plausible if id(c) in kept_ids]
    report.retained = len(retained)
    return retained, report
