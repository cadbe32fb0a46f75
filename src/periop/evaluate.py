"""Accuracy metrics, manual-plan comparison and planning heuristics.

Plan deviation is (predicted - actual) / actual; clinically a deviation
within +/-20% of the scheduled duration counts as acceptable, so reports
carry both the mean absolute percentage deviation and the share of cases
beyond that tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .eventlog import PHASE_FIELDS, Case
from .stats import finite_or_none

DEFAULT_TOLERANCE = 0.20

# Recommended minimum plan durations in minutes.
DEFAULT_FLOORS = {"induction": 20.0}


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    rmse: float
    mape_pct: float
    r2: float
    median_abs_dev: float
    mean_pct_dev: float
    within_tol_rate: float
    tolerance: float
    n: int
    n_zero_actual_excluded: int

    def to_dict(self) -> dict:
        return {
            "mae": finite_or_none(self.mae),
            "rmse": finite_or_none(self.rmse),
            "mape_pct": finite_or_none(self.mape_pct),
            "r2": finite_or_none(self.r2),
            "median_abs_dev": finite_or_none(self.median_abs_dev),
            "mean_pct_dev": finite_or_none(self.mean_pct_dev),
            "within_tol_rate": self.within_tol_rate,
            "tolerance": self.tolerance,
            "n": self.n,
            "n_zero_actual_excluded": self.n_zero_actual_excluded,
        }


def compute_metrics(
    actual: Sequence[float],
    predicted: Sequence[float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> MetricsReport:
    """Standard error metrics over paired rows.

    Ratio metrics (MAPE, signed mean %dev, within-tolerance rate) skip rows
    with actual == 0 and report how many were excluded; MAE/RMSE/r2 use all
    rows. r2 is computed against the mean of ``actual``.
    """
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError("actual and predicted must be 1-D and equally long")
    if a.size < 1:
        raise ValueError("need at least one row")
    err = p - a
    mae = float(np.mean(np.abs(err)))
    rmse = float(math.sqrt(np.mean(err * err)))
    median_abs_dev = float(np.median(np.abs(err)))
    ss_res = float(np.sum(err * err))
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    nonzero = a != 0.0
    n_excluded = int((~nonzero).sum())
    if nonzero.any():
        pct = err[nonzero] / a[nonzero]
        mape_pct = float(np.mean(np.abs(pct)) * 100.0)
        mean_pct_dev = float(np.mean(pct) * 100.0)
        within = float(np.mean(np.abs(pct) <= tolerance))
    else:
        mape_pct = 0.0
        mean_pct_dev = 0.0
        within = 0.0
    return MetricsReport(
        mae=mae,
        rmse=rmse,
        mape_pct=mape_pct,
        r2=r2,
        median_abs_dev=median_abs_dev,
        mean_pct_dev=mean_pct_dev,
        within_tol_rate=within,
        tolerance=tolerance,
        n=int(a.size),
        n_zero_actual_excluded=n_excluded,
    )


@dataclass(frozen=True)
class PlanRow:
    source: str  # "manual" or a model name
    mean_abs_pct_dev: float
    median_abs_pct_dev: float
    share_beyond_tol: float
    mae: float
    n: int

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "mean_abs_pct_dev": finite_or_none(self.mean_abs_pct_dev),
            "median_abs_pct_dev": finite_or_none(self.median_abs_pct_dev),
            "share_beyond_tol": self.share_beyond_tol,
            "mae": finite_or_none(self.mae),
            "n": self.n,
        }


@dataclass(frozen=True)
class DeviationReport:
    phase: str
    tolerance: float
    rows: tuple[PlanRow, ...]
    improvement_pp: dict[str, float]  # manual mean |%dev| minus model's, per model

    def row(self, source: str) -> PlanRow:
        for row in self.rows:
            if row.source == source:
                return row
        raise KeyError(source)

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "tolerance": self.tolerance,
            "rows": [r.to_dict() for r in self.rows],
            "improvement_pp": {k: finite_or_none(v) for k, v in sorted(self.improvement_pp.items())},
        }


def _plan_row(source: str, actual: np.ndarray, predicted: np.ndarray, tolerance: float) -> PlanRow:
    pct = np.abs((predicted - actual) / actual)
    return PlanRow(
        source=source,
        mean_abs_pct_dev=float(pct.mean() * 100.0),
        median_abs_pct_dev=float(np.median(pct) * 100.0),
        share_beyond_tol=float(np.mean(pct > tolerance)),
        mae=float(np.mean(np.abs(predicted - actual))),
        n=int(actual.size),
    )


def compare_to_plan(
    cases: Sequence[Case],
    phase: str,
    model_predictions: Mapping[str, Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> DeviationReport:
    """Manual plan vs model predictions on the same cases.

    ``model_predictions`` maps a model name to per-case predictions aligned
    with ``cases``. Only cases with a positive actual duration and a planned
    duration for the phase enter the comparison; there must be at least one.
    """
    if phase not in PHASE_FIELDS or PHASE_FIELDS[phase].plan is None:
        raise ValueError(f"no planned durations exist for phase {phase!r}")
    for name, preds in model_predictions.items():
        if len(preds) != len(cases):
            raise ValueError(f"predictions for {name!r} do not align with cases")

    keep: list[int] = []
    actual: list[float] = []
    planned: list[float] = []
    for i, case in enumerate(cases):
        value = case.durations.get(phase)
        plan = case.attributes.planned(phase)
        if value is not None and value > 0 and plan is not None:
            keep.append(i)
            actual.append(value)
            planned.append(plan)
    if not keep:
        raise ValueError("no cases carry planned durations for this phase")

    actual_arr = np.asarray(actual)
    rows = [_plan_row("manual", actual_arr, np.asarray(planned), tolerance)]
    improvement: dict[str, float] = {}
    for name in sorted(model_predictions):
        preds = np.asarray([float(model_predictions[name][i]) for i in keep])
        row = _plan_row(name, actual_arr, preds, tolerance)
        rows.append(row)
        improvement[name] = rows[0].mean_abs_pct_dev - row.mean_abs_pct_dev
    return DeviationReport(
        phase=phase,
        tolerance=tolerance,
        rows=tuple(rows),
        improvement_pp=improvement,
    )


def histogram(values: Iterable[float], bin_width: float = 3.0) -> list[tuple[float, int]]:
    """Counts over half-open bins [k*w, (k+1)*w), sorted by bin start."""
    if not bin_width > 0:
        raise ValueError("bin_width must be > 0")
    counts: dict[int, int] = {}
    for v in values:
        k = math.floor(float(v) / bin_width)
        counts[k] = counts.get(k, 0) + 1
    return [(k * bin_width, counts[k]) for k in sorted(counts)]


def histogram_svg(
    bins: Sequence[tuple[float, int]],
    bin_width: float,
    title: str = "",
    width: int = 640,
    height: int = 240,
) -> str:
    """Render a histogram as a minimal static SVG bar chart."""
    margin = 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="14" text-anchor="middle" font-size="12">{title}</text>',
    ]
    if bins:
        max_count = max(c for _, c in bins)
        lo = min(b for b, _ in bins)
        hi = max(b for b, _ in bins) + bin_width
        span = hi - lo
        for start, count in bins:
            x = margin + (start - lo) / span * (width - 2 * margin)
            w = max(bin_width / span * (width - 2 * margin) - 1.0, 1.0)
            h = count / max_count * (height - 2 * margin)
            y = height - margin - h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="#4878a8"/>'
            )
        parts.append(
            f'<text x="{margin}" y="{height - 8}" font-size="10">{lo:g} min</text>'
        )
        parts.append(
            f'<text x="{width - margin}" y="{height - 8}" text-anchor="end" font-size="10">{hi:g} min</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def apply_planning_floor(
    prediction: float,
    phase: str,
    floors: Mapping[str, float] | None = None,
) -> float:
    """Raise a prediction to the phase's minimum recommended duration."""
    table = DEFAULT_FLOORS if floors is None else floors
    floor = table.get(phase, 0.0)
    if floor < 0:
        raise ValueError("floors must be non-negative")
    return max(float(prediction), floor)
