import numpy as np
import pytest

from oracles import quantile_slow
from periop.cleaning import (
    CleaningReport,
    clean_phase,
    iqr_filter,
    plausibility_filter,
    quantile,
)
from periop.eventlog import Case, CaseAttributes, PhaseDurations


def make_case(case_id, procedure=None, induction=None, department="surgery"):
    return Case(
        attributes=CaseAttributes(case_id=case_id, department=department),
        durations=PhaseDurations(procedure_min=procedure, induction_min=induction),
    )


def test_quantile_hand_values():
    assert quantile([1, 2, 3, 4, 5], 0.25) == pytest.approx(2.0)
    assert quantile([1, 2, 3, 4, 5], 0.5) == pytest.approx(3.0)
    assert quantile([7], 0.1) == pytest.approx(7.0)
    assert quantile([7], 0.9) == pytest.approx(7.0)


def test_quantile_validation():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0, float("nan")], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_quantile_matches_interpolation_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        samples = rng.normal(50, 20, size=int(rng.integers(1, 40))).tolist()
        q = float(rng.uniform(0, 1))
        assert quantile(samples, q) == pytest.approx(quantile_slow(samples, q), rel=1e-12, abs=1e-12)
        # numpy's default (linear / type 7) rule is the same estimator
        assert quantile(samples, q) == pytest.approx(float(np.quantile(samples, q)), rel=1e-9)


def test_iqr_filter_hand_example():
    samples = [(i, v) for i, v in enumerate([1, 2, 3, 4, 5, 100])]
    result = iqr_filter(samples)
    assert result.bounds == pytest.approx((-1.5, 8.5))
    assert [v for _, v in result.retained] == [1, 2, 3, 4, 5]
    assert result.removed == ((5, 100),)
    assert result.removed_high == ((5, 100),)


def test_iqr_degenerate_spread_keeps_everything():
    samples = [(i, 4.0) for i in range(6)]
    result = iqr_filter(samples)
    assert result.bounds == (4.0, 4.0)
    assert len(result.retained) == 6
    assert result.removed == ()


def test_iqr_no_outliers_identity():
    samples = [(i, float(v)) for i, v in enumerate([10, 11, 12, 13])]
    result = iqr_filter(samples)
    assert result.removed == ()
    assert result.retained == tuple(samples)


def test_iqr_requires_four_samples():
    with pytest.raises(ValueError):
        iqr_filter([(0, 1.0), (1, 2.0), (2, 3.0)])


def test_iqr_idempotent():
    rng = np.random.default_rng(11)
    samples = [(i, float(v)) for i, v in enumerate(rng.lognormal(3.5, 0.8, size=200))]
    first = iqr_filter(samples)
    second = iqr_filter(first.retained, 1.5)
    assert second.removed == ()


def test_iqr_multiplier_monotonicity():
    rng = np.random.default_rng(5)
    samples = [(i, float(v)) for i, v in enumerate(rng.lognormal(3.0, 1.0, size=150))]
    kept_small = {i for i, _ in iqr_filter(samples, multiplier=1.0).retained}
    kept_large = {i for i, _ in iqr_filter(samples, multiplier=2.5).retained}
    assert kept_small <= kept_large


def test_iqr_partition():
    rng = np.random.default_rng(9)
    samples = [(i, float(v)) for i, v in enumerate(rng.normal(60, 30, size=80))]
    result = iqr_filter(samples)
    assert sorted(result.retained + result.removed) == sorted(samples)


def test_plausibility_reasons():
    cases = [
        make_case("neg", procedure=-5.0),
        make_case("zero", procedure=0.0),
        make_case("days", procedure=3 * 24 * 60.0),
        make_case("ok", procedure=90.0),
        make_case("gone", procedure=None),
    ]
    retained, report = plausibility_filter(cases, "procedure")
    assert [c.case_id for c in retained] == ["ok"]
    assert report.counts["negative_or_zero"] == 2
    assert report.counts["excessive"] == 1
    assert report.counts["missing"] == 1
    assert report.retained + report.removed == report.input == 5


def test_invalid_multiplier():
    with pytest.raises(ValueError):
        iqr_filter([(i, float(i)) for i in range(10)], multiplier=0.0)


def test_clean_phase_combined_report():
    rng = np.random.default_rng(2)
    cases = [make_case(f"c{i}", procedure=float(v)) for i, v in enumerate(rng.lognormal(4.0, 0.5, 300))]
    cases += [make_case("neg", procedure=-1.0), make_case("huge", procedure=10_000.0)]
    retained, report = clean_phase(cases, "procedure")
    assert report.input == 302
    assert report.counts["negative_or_zero"] == 1
    assert report.counts["excessive"] == 1
    assert report.retained == len(retained)
    assert report.removed + report.retained == report.input
    assert report.bounds is not None
    lo, hi = report.bounds
    for c in retained:
        assert lo <= c.durations.procedure_min <= hi


def test_clean_phase_per_department_keeps_small_groups():
    cases = [make_case(f"a{i}", procedure=float(40 + i), department="a") for i in range(10)]
    cases.append(make_case("a-out", procedure=500.0, department="a"))
    cases += [make_case("b1", procedure=30.0, department="b"), make_case("b2", procedure=31.0, department="b")]
    retained, report = clean_phase(cases, "procedure", by_department=True)
    ids = {c.case_id for c in retained}
    assert "a-out" not in ids  # filtered within its department
    assert {"b1", "b2"} <= ids  # too few cases for bounds: kept
    assert report.retained + report.removed == report.input


@pytest.mark.parametrize("by_department", [False, True])
def test_clean_phase_keeps_a_group_below_four_unfiltered(by_department):
    cases = [make_case(f"c{i}", procedure=v) for i, v in enumerate([30.0, 31.0, 500.0])]
    cases.append(make_case("gone", procedure=None))
    retained, report = clean_phase(cases, "procedure", by_department=by_department)
    assert [c.case_id for c in retained] == ["c0", "c1", "c2"]
    assert report.retained == 3 and report.removed == 1
    assert report.to_dict()["iqr_bounds"] is None


def test_report_serialization():
    report = CleaningReport()
    report.input = 3
    report.retained = 2
    report.counts["missing"] = 1
    obj = report.to_dict()
    assert obj["removed"]["missing"] == 1
    assert obj["iqr_bounds"] is None
