import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import anova_f_slow, midranks_slow
from periop.stats import (
    _midranks,
    anova_f_test,
    factor_report,
    kruskal_wallis,
    median,
    reg_inc_beta,
    reg_inc_gamma_P,
    welch_t_test,
)


# --- median -------------------------------------------------------------------

# ties and signed zeros come from the small pool, any finite float from the rest
_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 7.0]),
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(_MEDIAN_VALUES, min_size=1, max_size=9))
@example(values=[-0.0])
@example(values=[-0.0, -0.0])
@example(values=[0.0, -0.0, -0.0])
@example(values=[3.0, 3.0])
@example(values=[1.7976931348623157e308, 1.7976931348623157e308])
def test_median_equals_numpy_median_bit_for_bit(values):
    """The helper the stages use instead of np.median, whose NaN check
    imports numpy.ma: the same float for odd and even lengths, ties and
    signed zeros, from a list or an array."""
    with np.errstate(over="ignore"):  # two middle values near the float maximum
        want = np.float64(np.median(values)).tobytes()
        assert np.float64(median(values)).tobytes() == want
        assert np.float64(median(np.asarray(values, dtype=float))).tobytes() == want


# --- special functions ------------------------------------------------------


def test_gamma_closed_forms():
    assert reg_inc_gamma_P(1.0, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert reg_inc_gamma_P(3.0, 0.0) == 0.0
    # P(1/2, x) = erf(sqrt(x))
    assert reg_inc_gamma_P(0.5, 1.9285) == pytest.approx(math.erf(math.sqrt(1.9285)), abs=1e-10)
    assert reg_inc_gamma_P(0.5, 1.9285) == pytest.approx(0.9505, abs=5e-4)


def test_gamma_against_scipy_grid():
    for a in (0.3, 0.5, 1.0, 2.5, 7.0, 25.0):
        for x in np.linspace(0.01, 60.0, 41):
            assert reg_inc_gamma_P(a, float(x)) == pytest.approx(
                float(scipy.special.gammainc(a, x)), abs=1e-10
            )


def test_gamma_lower_plus_upper_is_one():
    for a in (0.4, 1.0, 3.3, 12.0):
        for x in (0.1, 0.9, 2.0, 11.0, 30.0):
            p = reg_inc_gamma_P(a, x)
            q = float(scipy.special.gammaincc(a, x))
            assert p + q == pytest.approx(1.0, abs=1e-12)


def test_gamma_monotone_in_x():
    xs = np.linspace(0.0, 25.0, 80)
    values = [reg_inc_gamma_P(2.2, float(x)) for x in xs]
    assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_gamma_validation():
    with pytest.raises(ValueError):
        reg_inc_gamma_P(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_inc_gamma_P(1.0, -0.5)
    with pytest.raises(ValueError):
        reg_inc_gamma_P(1.0, float("nan"))


def test_beta_symmetry_and_boundaries():
    for a in (0.5, 1.0, 4.0, 9.5):
        assert reg_inc_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)
        assert reg_inc_beta(a, 2 * a, 1.0) == 1.0
        assert reg_inc_beta(a, 2 * a, 0.0) == 0.0


def test_beta_quadrature_oracle():
    def density(a, b):
        norm = math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
        return lambda t: norm * t ** (a - 1) * (1 - t) ** (b - 1)

    value, _ = scipy.integrate.quad(density(2, 3), 0.0, 0.25)
    assert reg_inc_beta(2, 3, 0.25) == pytest.approx(value, abs=1e-8)
    assert reg_inc_beta(2, 3, 0.25) == pytest.approx(0.26171875, abs=1e-10)
    value, _ = scipy.integrate.quad(density(4.5, 1.2), 0.0, 0.7)
    assert reg_inc_beta(4.5, 1.2, 0.7) == pytest.approx(value, abs=1e-8)


def test_beta_against_scipy_grid():
    for a in (0.4, 1.0, 3.0, 9.0):
        for b in (0.6, 1.0, 2.5, 14.0):
            for x in np.linspace(0.001, 0.999, 29):
                assert reg_inc_beta(a, b, float(x)) == pytest.approx(
                    float(scipy.special.betainc(a, b, x)), abs=1e-10
                )


def test_beta_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 60)
    values = [reg_inc_beta(3.0, 0.8, float(x)) for x in xs]
    assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


def test_beta_validation():
    with pytest.raises(ValueError):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, 1.5)


# --- Welch t ----------------------------------------------------------------


def test_welch_hand_example():
    result = welch_t_test([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    assert result.statistic == pytest.approx(-1.2247, abs=1e-4)
    assert result.df[0] == pytest.approx(4.0, abs=1e-9)
    expected = scipy.stats.ttest_ind([-1, 0, 1], [0, 1, 2], equal_var=False)
    assert result.p_value == pytest.approx(float(expected.pvalue), abs=1e-10)


def test_welch_identical_samples():
    result = welch_t_test([3.0, 4.0, 5.0], [3.0, 4.0, 5.0])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_welch_swap_antisymmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(10, 2, size=12).tolist()
    b = rng.normal(12, 3, size=9).tolist()
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)


def test_welch_shift_invariance():
    rng = np.random.default_rng(4)
    a = rng.normal(0, 1, size=10).tolist()
    b = rng.normal(1, 2, size=14).tolist()
    base = welch_t_test(a, b)
    shifted = welch_t_test([v + 100 for v in a], [v + 100 for v in b])
    assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9)


def test_welch_zero_variance_error():
    with pytest.raises(ValueError):
        welch_t_test([1.0, 1.0], [2.0, 2.0])
    # one degenerate sample is fine
    result = welch_t_test([1.0, 1.0], [2.0, 3.0])
    assert math.isfinite(result.statistic)


def test_welch_needs_two_values():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [2.0, 3.0])


# --- ANOVA ------------------------------------------------------------------


def test_anova_hand_example():
    result = anova_f_test([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert result.statistic == pytest.approx(3.0, abs=1e-12)
    assert result.df == (2.0, 6.0)
    assert result.p_value == pytest.approx(0.125, abs=1e-10)
    expected = scipy.stats.f_oneway([1, 2, 3], [2, 3, 4], [3, 4, 5])
    assert result.p_value == pytest.approx(float(expected.pvalue), abs=1e-10)


def test_anova_identical_groups():
    result = anova_f_test([[1, 2, 3], [1, 2, 3]])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_anova_two_groups_equals_pooled_t_squared():
    rng = np.random.default_rng(8)
    a = rng.normal(50, 5, size=11)
    b = rng.normal(55, 5, size=7)
    f = anova_f_test([a.tolist(), b.tolist()])
    # pooled-variance t statistic, computed from the textbook formula
    na, nb = len(a), len(b)
    sp2 = ((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2)
    t = (a.mean() - b.mean()) / math.sqrt(sp2 * (1 / na + 1 / nb))
    assert f.statistic == pytest.approx(t * t, rel=1e-9)


def test_anova_errors():
    with pytest.raises(ValueError):
        anova_f_test([[1, 2, 3]])
    with pytest.raises(ValueError):
        anova_f_test([[1.0, 1.0], [1.0, 1.0]])  # zero within-group variance
    with pytest.raises(ValueError):
        anova_f_test([[1.0], [2.0]])  # n == number of groups


# small integers force ties; -0.0 and 0.0 tie as well
TIED_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.0, 0.0, 0.1]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
GROUPS = st.lists(st.lists(TIED_VALUES, min_size=1, max_size=30), min_size=2, max_size=5)


@settings(max_examples=300, deadline=None)
@given(groups=GROUPS)
def test_anova_and_midranks_equal_the_per_value_loops(groups):
    pooled = [v for g in groups for v in g]
    assert _midranks(pooled) == midranks_slow(pooled)
    if len(pooled) > len(groups):
        try:
            result = anova_f_test(groups)
        except ValueError:  # zero within-group variance
            return
        assert result.statistic == anova_f_slow(groups)


# --- Kruskal-Wallis ---------------------------------------------------------


def test_kruskal_hand_example():
    result = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    assert result.statistic == pytest.approx(3.857, abs=1e-3)
    assert result.df == (1.0,)
    assert result.p_value == pytest.approx(0.0495, abs=1e-3)
    expected = scipy.stats.kruskal([1, 2, 3], [4, 5, 6])
    assert result.statistic == pytest.approx(float(expected.statistic), rel=1e-12)
    assert result.p_value == pytest.approx(float(expected.pvalue), abs=1e-12)


def test_kruskal_with_ties_matches_scipy():
    a = [1.0, 2.0, 2.0, 3.0]
    b = [2.0, 4.0, 4.0]
    c = [5.0, 5.0, 6.0]
    result = kruskal_wallis([a, b, c])
    expected = scipy.stats.kruskal(a, b, c)
    assert result.statistic == pytest.approx(float(expected.statistic), rel=1e-12)
    assert result.p_value == pytest.approx(float(expected.pvalue), abs=1e-12)


def test_kruskal_permutation_within_groups():
    a = [3.0, 9.0, 1.0, 5.0]
    b = [2.0, 8.0, 7.0]
    base = kruskal_wallis([a, b])
    shuffled = kruskal_wallis([a[::-1], b[::-1]])
    assert shuffled.statistic == pytest.approx(base.statistic, rel=1e-12)


def test_kruskal_monotone_transform_invariance():
    a = [3.0, 9.0, 1.0, 5.0]
    b = [2.0, 8.0, 7.0, 12.0]
    base = kruskal_wallis([a, b])
    transformed = kruskal_wallis([[math.exp(v) for v in a], [math.exp(v) for v in b]])
    assert transformed.statistic == pytest.approx(base.statistic, rel=1e-12)
    assert transformed.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_kruskal_all_identical_error():
    with pytest.raises(ValueError):
        kruskal_wallis([[5.0, 5.0], [5.0, 5.0]])


def test_p_values_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(0, 1, size=int(rng.integers(2, 20))).tolist()
        b = rng.normal(0.5, 2, size=int(rng.integers(2, 20))).tolist()
        for result in (welch_t_test(a, b), anova_f_test([a, b]), kruskal_wallis([a, b])):
            assert 0.0 <= result.p_value <= 1.0
            assert math.isfinite(result.statistic)


# --- factor report ----------------------------------------------------------


def test_factor_report_shape():
    rng = np.random.default_rng(5)
    factors = {
        "sex": {
            "f": rng.normal(60, 5, size=30).tolist(),
            "m": rng.normal(70, 5, size=30).tolist(),
        },
        "department": {
            "a": rng.normal(50, 5, size=20).tolist(),
            "b": rng.normal(80, 5, size=20).tolist(),
            "c": rng.normal(65, 5, size=20).tolist(),
        },
        "degenerate": {"x": [1.0]},
    }
    rows = factor_report(factors)
    by_factor = {}
    for row in rows:
        by_factor.setdefault(row["factor"], set()).add(row["test"])
        assert 0.0 <= row["p_value"] <= 1.0
        assert row["effect_minutes"] >= 0.0
    assert by_factor["sex"] == {"welch_t", "anova_f", "kruskal_wallis"}
    assert by_factor["department"] == {"anova_f", "kruskal_wallis"}
    assert "degenerate" not in by_factor
    sex_effect = next(r for r in rows if r["factor"] == "sex")["effect_minutes"]
    assert sex_effect == pytest.approx(10.0, abs=4.0)


def test_factor_report_skips_tests_whose_sums_of_squares_overflow():
    rows = factor_report({"f": {"a": [1e300, 2e300], "b": [0.0, 1.0]}})
    assert [r["test"] for r in rows] == ["kruskal_wallis"]
    with pytest.raises(ValueError, match="overflow"):
        welch_t_test([1e300, 2e300], [0.0, 1.0])
    with pytest.raises(ValueError, match="overflow"):
        anova_f_test([[1e300, 2e300], [0.0, 1.0]])


def test_non_finite_results_are_written_as_null():
    # within-group spread of 1e-160 squares to a denormal: F overflows
    groups = [[0.0, 1e-160], [1.0, 1.0]]
    assert anova_f_test(groups).statistic == math.inf
    rows = factor_report({"f": {"a": groups[0], "b": groups[1]}})
    # Welch's degrees of freedom underflow to 0/0, so that test is skipped
    assert [r["test"] for r in rows] == ["anova_f", "kruskal_wallis"]
    assert rows[0]["statistic"] is None
    json.dumps(rows, allow_nan=False)
    with pytest.raises(ValueError):
        welch_t_test(*groups)
