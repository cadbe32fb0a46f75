import json

import numpy as np
import pytest

from periop.evaluate import (
    apply_planning_floor,
    compare_to_plan,
    compute_metrics,
    histogram,
    histogram_svg,
)
from periop.eventlog import Case, CaseAttributes, PhaseDurations


def make_case(case_id, actual, plan, phase="procedure"):
    kwargs = {"planned_procedure_min": plan} if phase == "procedure" else {"planned_induction_min": plan}
    durations = (
        PhaseDurations(procedure_min=actual)
        if phase == "procedure"
        else PhaseDurations(induction_min=actual)
    )
    return Case(
        attributes=CaseAttributes(case_id=case_id, **kwargs),
        durations=durations,
    )


def test_metrics_hand_example():
    report = compute_metrics([100.0], [90.0])
    assert report.mae == pytest.approx(10.0)
    assert report.rmse == pytest.approx(10.0)
    assert report.mape_pct == pytest.approx(10.0)
    assert report.mean_pct_dev == pytest.approx(-10.0)
    assert report.within_tol_rate == 1.0
    assert report.n == 1


def test_metrics_perfect_prediction():
    actual = [10.0, 20.0, 30.0]
    report = compute_metrics(actual, actual)
    assert report.mae == 0.0 and report.rmse == 0.0
    assert report.r2 == pytest.approx(1.0)
    assert report.median_abs_dev == 0.0


def test_metrics_constant_mean_predictor_r2_zero():
    actual = [10.0, 20.0, 30.0]
    report = compute_metrics(actual, [20.0, 20.0, 20.0])
    assert report.r2 == pytest.approx(0.0)


def test_metrics_zero_actual_rows_excluded_from_ratios():
    report = compute_metrics([0.0, 100.0], [10.0, 110.0])
    assert report.n_zero_actual_excluded == 1
    assert report.mape_pct == pytest.approx(10.0)
    assert report.mae == pytest.approx(10.0)  # MAE still uses both rows


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        compute_metrics([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        compute_metrics([], [])


def test_rmse_at_least_mae_property():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 50))
        actual = rng.uniform(1, 200, size=n)
        predicted = actual + rng.normal(0, 20, size=n)
        report = compute_metrics(actual.tolist(), predicted.tolist())
        assert report.rmse >= report.mae - 1e-12
        assert report.median_abs_dev >= 0.0


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(7)
    actual = rng.uniform(10, 100, size=30)
    predicted = actual * rng.uniform(0.5, 1.5, size=30)
    base = compute_metrics(actual.tolist(), predicted.tolist())
    order = rng.permutation(30)
    shuffled = compute_metrics(actual[order].tolist(), predicted[order].tolist())
    assert shuffled.mae == pytest.approx(base.mae)
    assert shuffled.mape_pct == pytest.approx(base.mape_pct)
    assert shuffled.r2 == pytest.approx(base.r2)
    assert shuffled.within_tol_rate == base.within_tol_rate


def test_within_rate_monotone_in_tolerance():
    rng = np.random.default_rng(8)
    actual = rng.uniform(10, 100, size=40)
    predicted = actual * rng.uniform(0.6, 1.6, size=40)
    rates = [
        compute_metrics(actual.tolist(), predicted.tolist(), tolerance=t).within_tol_rate
        for t in (0.05, 0.2, 0.5, 1.0)
    ]
    assert rates == sorted(rates)


def test_compare_to_plan_model_equal_to_manual():
    cases = [make_case(f"c{i}", 100.0 + i, 90.0) for i in range(5)]
    plans = [90.0] * 5
    report = compare_to_plan(cases, "procedure", {"copycat": plans})
    assert report.improvement_pp["copycat"] == pytest.approx(0.0)
    assert report.row("manual").mean_abs_pct_dev == report.row("copycat").mean_abs_pct_dev


def test_compare_to_plan_improvement():
    cases = [make_case(f"c{i}", 100.0, 150.0) for i in range(4)]
    report = compare_to_plan(cases, "procedure", {"model": [110.0] * 4})
    assert report.row("manual").mean_abs_pct_dev == pytest.approx(50.0)
    assert report.row("model").mean_abs_pct_dev == pytest.approx(10.0)
    assert report.improvement_pp["model"] == pytest.approx(40.0)
    assert report.row("manual").share_beyond_tol == 1.0
    assert report.row("model").share_beyond_tol == 0.0


def test_compare_to_plan_improvement_antisymmetric():
    rng = np.random.default_rng(3)
    actual = rng.uniform(50, 150, size=10)
    p1 = actual * rng.uniform(0.7, 1.4, size=10)
    p2 = actual * rng.uniform(0.7, 1.4, size=10)
    cases1 = [make_case(f"c{i}", actual[i], p1[i]) for i in range(10)]
    cases2 = [make_case(f"c{i}", actual[i], p2[i]) for i in range(10)]
    fwd = compare_to_plan(cases1, "procedure", {"m": p2.tolist()})
    rev = compare_to_plan(cases2, "procedure", {"m": p1.tolist()})
    assert fwd.improvement_pp["m"] == pytest.approx(-rev.improvement_pp["m"])


def test_compare_to_plan_requires_plans():
    cases = [make_case("c0", 90.0, None)]
    with pytest.raises(ValueError):
        compare_to_plan(cases, "procedure", {"m": [80.0]})
    with pytest.raises(ValueError):
        compare_to_plan(cases, "preparation", {"m": [80.0]})


def test_compare_to_plan_alignment_checked():
    cases = [make_case("c0", 90.0, 80.0)]
    with pytest.raises(ValueError):
        compare_to_plan(cases, "procedure", {"m": [80.0, 90.0]})


def test_histogram_hand_example():
    assert histogram([1, 2, 4], bin_width=3) == [(0, 2), (3, 1)]


def test_histogram_counts_sum_to_n():
    rng = np.random.default_rng(10)
    values = rng.uniform(-5, 50, size=200)
    bins = histogram(values.tolist(), bin_width=3.0)
    assert sum(c for _, c in bins) == 200
    starts = [s for s, _ in bins]
    assert starts == sorted(starts)
    for start, _ in bins:
        assert float(start) % 3.0 == pytest.approx(0.0)


def test_histogram_empty_and_validation():
    assert histogram([], bin_width=3.0) == []
    with pytest.raises(ValueError):
        histogram([1.0], bin_width=0.0)


def test_histogram_svg_smoke():
    svg = histogram_svg([(0.0, 2), (3.0, 1)], 3.0, title="t")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == 2
    assert histogram_svg([], 3.0).count("<rect") == 0


def test_planning_floor():
    assert apply_planning_floor(12.0, "induction") == 20.0
    assert apply_planning_floor(35.0, "induction") == 35.0
    assert apply_planning_floor(5.0, "procedure") == 5.0
    assert apply_planning_floor(5.0, "procedure", {"procedure": 30.0}) == 30.0
    with pytest.raises(ValueError):
        apply_planning_floor(5.0, "induction", {"induction": -1.0})


def test_non_finite_metrics_are_written_as_null():
    # an actual duration of 1e-320 min makes the relative errors overflow
    cases = [make_case("a", 1e-320, 5.0), make_case("b", 10.0, 10.0)]
    with np.errstate(over="ignore"):
        metrics = compute_metrics([1e-320, 10.0], [5.0, 10.0]).to_dict()
        report = compare_to_plan(cases, "procedure", {"m": [5.0, 10.0]}).to_dict()
    assert metrics["mape_pct"] is None and metrics["mean_pct_dev"] is None
    assert metrics["mae"] == 2.5
    assert report["rows"][0]["mean_abs_pct_dev"] is None
    assert report["improvement_pp"] == {"m": None}
    json.dumps([metrics, report], allow_nan=False)
