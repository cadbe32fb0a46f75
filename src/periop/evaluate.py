"""Accuracy metrics, manual-plan comparison and planning heuristics.

Plan deviation is (predicted - actual) / actual; clinically a deviation
within +/-20% of the scheduled duration counts as acceptable, so reports
carry both the mean absolute percentage deviation and the share of cases
beyond that tolerance.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from .eventlog import PHASE_FIELDS
from .stats import finite_or_none, median

DEFAULT_TOLERANCE = 0.20

# Recommended minimum plan durations in minutes.
DEFAULT_FLOORS = {"induction": 20.0}


def compute_metrics(
    actual: Sequence[float],
    predicted: Sequence[float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Standard error metrics over paired rows, as ``metrics.json`` holds
    them: a metric that is not finite is None, since JSON has no NaN.

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
    ss_res = float(np.sum(err * err))
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    nonzero = a != 0.0
    if nonzero.any():
        pct = err[nonzero] / a[nonzero]
        mape_pct = float(np.mean(np.abs(pct)) * 100.0)
        mean_pct_dev = float(np.mean(pct) * 100.0)
        within = float(np.mean(np.abs(pct) <= tolerance))
    else:
        mape_pct = 0.0
        mean_pct_dev = 0.0
        within = 0.0
    return {
        "mae": finite_or_none(float(np.mean(np.abs(err)))),
        "rmse": finite_or_none(float(math.sqrt(np.mean(err * err)))),
        "mape_pct": finite_or_none(mape_pct),
        "r2": finite_or_none(r2),
        "median_abs_dev": finite_or_none(median(np.abs(err))),
        "mean_pct_dev": finite_or_none(mean_pct_dev),
        "within_tol_rate": within,
        "tolerance": tolerance,
        "n": int(a.size),
        "n_zero_actual_excluded": int((~nonzero).sum()),
    }


def _plan_row(source: str, actual: np.ndarray, predicted: np.ndarray, tolerance: float) -> tuple[dict, float]:
    """The report row of ``source``, "manual" or a model name, and its mean
    |%dev| before the row makes it None where it is not finite."""
    pct = np.abs((predicted - actual) / actual)
    mean_abs_pct_dev = float(pct.mean() * 100.0)
    row = {
        "source": source,
        "mean_abs_pct_dev": finite_or_none(mean_abs_pct_dev),
        "median_abs_pct_dev": finite_or_none(median(pct) * 100.0),
        "share_beyond_tol": float(np.mean(pct > tolerance)),
        "mae": finite_or_none(float(np.mean(np.abs(predicted - actual)))),
        "n": int(actual.size),
    }
    return row, mean_abs_pct_dev


def compare_to_plan(
    cases: Mapping[str, Sequence],
    phase: str,
    model_predictions: Mapping[str, Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Manual plan vs model predictions on the same cases, as
    ``deviation_report.json`` holds it: ``rows``, the manual row first and
    then one per model in name order, and ``improvement_pp``, the manual
    mean |%dev| minus each model's. A value that is not finite is None.

    ``cases`` maps each case field to its column (a CaseTable, say), and
    ``model_predictions`` maps a model name to per-case predictions aligned
    with it. Only cases with a positive actual duration and a planned
    duration for the phase enter the comparison; there must be at least one.
    """
    if phase not in PHASE_FIELDS or PHASE_FIELDS[phase].plan is None:
        raise ValueError(f"no planned durations exist for phase {phase!r}")
    durations = cases[PHASE_FIELDS[phase].duration]
    for name, preds in model_predictions.items():
        if len(preds) != len(durations):
            raise ValueError(f"predictions for {name!r} do not align with cases")

    keep: list[int] = []
    actual: list[float] = []
    planned: list[float] = []
    for i, (value, plan) in enumerate(zip(durations, cases[PHASE_FIELDS[phase].plan])):
        if value is not None and value > 0 and plan is not None:
            keep.append(i)
            actual.append(value)
            planned.append(plan)
    if not keep:
        raise ValueError("no cases carry planned durations for this phase")

    actual_arr = np.asarray(actual)
    manual, manual_mean = _plan_row("manual", actual_arr, np.asarray(planned), tolerance)
    rows = [manual]
    improvement: dict[str, float | None] = {}
    for name in sorted(model_predictions):
        preds = np.asarray([float(model_predictions[name][i]) for i in keep])
        row, mean = _plan_row(name, actual_arr, preds, tolerance)
        rows.append(row)
        improvement[name] = finite_or_none(manual_mean - mean)
    return {"phase": phase, "tolerance": tolerance, "rows": rows, "improvement_pp": improvement}


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
