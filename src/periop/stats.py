"""Hypothesis tests for the factor analysis: Welch t, one-way ANOVA F and
Kruskal-Wallis, with self-contained regularized incomplete gamma/beta
functions for the p-values (no external dependency for the CDFs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

_MAX_ITER = 500
_EPS = 1e-15
_FPMIN = 1e-300


def finite_or_none(value: float) -> float | None:
    """``value``, or None when it is NaN or infinite: JSON has no such numbers."""
    return value if math.isfinite(value) else None


def median(values: Sequence[float]) -> float:
    """``np.median(values)`` of finite values, bit for bit: the mean of the
    middle one or two of the sorted values. np.median's NaN check imports
    numpy.ma, about 1.9 MB, which no stage needs otherwise."""
    ordered = np.sort(np.asarray(values, dtype=float), axis=None)
    half = ordered.size // 2
    return float(np.mean(ordered[half - 1 + ordered.size % 2 : half + 1]))


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: tuple[float, ...]
    p_value: float
    test_name: str

    def to_dict(self) -> dict:
        return {
            "test": self.test_name,
            "statistic": finite_or_none(self.statistic),
            "df": [finite_or_none(v) for v in self.df],
            "p_value": finite_or_none(self.p_value),
        }


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def _gamma_series(a: float, x: float) -> float:
    # power series for P(a, x), reliable for x < a + 1
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_cf(a: float, x: float) -> float:
    # modified Lentz continued fraction for Q(a, x), reliable for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reg_inc_gamma_P(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    if not (math.isfinite(a) and math.isfinite(x)):
        raise ValueError("a and x must be finite")
    if a <= 0:
        raise ValueError("a must be > 0")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _gamma_series(a, x))
    return max(0.0, 1.0 - _gamma_cf(a, x))


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete beta continued fraction
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via continued fraction."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be > 0")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, front * _beta_cf(a, b, x) / a)
    return max(0.0, 1.0 - front * _beta_cf(b, a, 1.0 - x) / b)


def _t_sf_two_sided(t: float, df: float) -> float:
    # two-sided tail of Student's t
    if t == 0.0:
        return 1.0
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def _f_sf(f: float, df1: float, df2: float) -> float:
    # upper tail of the F distribution
    if f <= 0.0:
        return 1.0
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def _chi2_sf(x: float, df: float) -> float:
    if x <= 0.0:
        return 1.0
    return 1.0 - reg_inc_gamma_P(df / 2.0, x / 2.0)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _check_sample(sample: Sequence[float], name: str, minimum: int) -> list[float]:
    values = [float(v) for v in sample]
    if len(values) < minimum:
        raise ValueError(f"{name} needs at least {minimum} values")
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} contains non-finite values")
    return values


def _mean_var(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, var


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TestResult:
    """Welch's unequal-variance t-test, two-sided."""
    a = _check_sample(sample_a, "sample_a", 2)
    b = _check_sample(sample_b, "sample_b", 2)
    try:
        mean_a, var_a = _mean_var(a)
        mean_b, var_b = _mean_var(b)
        se_a = var_a / len(a)
        se_b = var_b / len(b)
        df_num = (se_a + se_b) ** 2
        df_denom = se_a**2 / (len(a) - 1) + se_b**2 / (len(b) - 1)
    except OverflowError:  # a float ** 2 raises where it would exceed the float range
        raise ValueError("sums of squares overflow") from None
    if var_a == 0.0 and var_b == 0.0:
        raise ValueError("both samples have zero variance")
    t = (mean_a - mean_b) / math.sqrt(se_a + se_b)
    if df_denom == 0.0:  # both squared standard errors underflow
        raise ValueError("variances too small for the Welch degrees of freedom")
    df = df_num / df_denom
    return TestResult(statistic=t, df=(df,), p_value=_t_sf_two_sided(t, df), test_name="welch_t")


def anova_f_test(groups: Sequence[Sequence[float]]) -> TestResult:
    """One-way ANOVA F-test across two or more groups."""
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least 2 groups")
    data = [_check_sample(g, f"group {i}", 1) for i, g in enumerate(groups)]
    n_total = sum(len(g) for g in data)
    k = len(data)
    if n_total <= k:
        raise ValueError("total sample size must exceed the number of groups")
    grand = sum(sum(g) for g in data) / n_total
    means = [sum(g) / len(g) for g in data]
    try:
        ssb = sum(len(g) * (m - grand) ** 2 for g, m in zip(data, means))
        ssw = sum(sum((v - m) ** 2 for v in g) for g, m in zip(data, means))
    except OverflowError:  # a float ** 2 raises where it would exceed the float range
        raise ValueError("sums of squares overflow") from None
    if ssw == 0.0:
        raise ValueError("zero within-group variance")
    df_b = float(k - 1)
    df_w = float(n_total - k)
    f = (ssb / df_b) / (ssw / df_w)
    return TestResult(statistic=f, df=(df_b, df_w), p_value=_f_sf(f, df_b, df_w), test_name="anova_f")


def _midranks(values: Sequence[float]) -> tuple[list[float], float]:
    # average ranks for ties plus the tie-correction sum of (t^3 - t)
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # tie runs: [start, end] positions in sorted order holding equal values
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(x)) - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    tie_sum = 0.0
    for t in (ends - starts + 1)[ends > starts].tolist():
        tie_sum += t**3 - t
    return ranks.tolist(), tie_sum


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Kruskal-Wallis rank test with midrank tie correction."""
    if len(groups) < 2:
        raise ValueError("Kruskal-Wallis needs at least 2 groups")
    data = [_check_sample(g, f"group {i}", 1) for i, g in enumerate(groups)]
    n_total = sum(len(g) for g in data)
    if n_total < 3:
        raise ValueError("Kruskal-Wallis needs at least 3 values in total")
    pooled: list[float] = [v for g in data for v in g]
    ranks, tie_sum = _midranks(pooled)
    correction = 1.0 - tie_sum / (n_total**3 - n_total)
    if correction == 0.0:
        raise ValueError("all values identical; tie correction degenerates")
    h = 0.0
    offset = 0
    for g in data:
        r = sum(ranks[offset : offset + len(g)])
        h += r * r / len(g)
        offset += len(g)
    h = (12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)) / correction
    df = float(len(data) - 1)
    return TestResult(statistic=h, df=(df,), p_value=_chi2_sf(h, df), test_name="kruskal_wallis")


def factor_report(
    factors: Mapping[str, Mapping[str, Sequence[float]]],
) -> list[dict]:
    """Statistical-vs-practical summary per factor.

    For each factor the applicable tests run over its group samples (Welch t
    for exactly two groups, ANOVA and Kruskal-Wallis for two or more); the
    practical-effect column is the spread of group means in minutes. Groups
    with fewer than 2 values are dropped; degenerate tests are skipped.
    """
    rows: list[dict] = []
    for factor in sorted(factors):
        groups = {k: list(v) for k, v in factors[factor].items() if len(v) >= 2}
        if len(groups) < 2:
            continue
        labels = sorted(groups)
        samples = [groups[k] for k in labels]
        group_means = [sum(g) / len(g) for g in samples]
        effect = max(group_means) - min(group_means)
        tests = []
        if len(samples) == 2:
            tests.append(lambda: welch_t_test(samples[0], samples[1]))
        tests.append(lambda: anova_f_test(samples))
        tests.append(lambda: kruskal_wallis(samples))
        for run in tests:
            try:
                result = run()
            except ValueError:
                continue
            rows.append(
                {
                    "factor": factor,
                    "groups": len(samples),
                    "effect_minutes": finite_or_none(effect),
                    **result.to_dict(),
                }
            )
    return rows
