"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The end-to-end criteria run the real CLI pipeline on a 20,000-case synthetic
log in a temporary directory.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from oracles import case_table, quantile_slow, silhouette_slow, target_encode_slow, tfidf_dense
from periop import cli
from periop.cleaning import iqr_filter, plausibility_filter, quantile
from periop.clustering import gmm_fit, kmeans_fit, select_k
from periop.encoding import target_encode_fit
from periop.eventlog import CASES_HEADER, Case, parse_case_attributes
from periop.models import Dataset, make_model
from periop.stats import anova_f_test, kruskal_wallis, reg_inc_beta, reg_inc_gamma_P, welch_t_test
from periop.synthgen import SynthConfig
from periop.textnorm import (
    DEFAULT_STEM_SUFFIXES,
    DEFAULT_SYNONYMS,
    NormalizationRules,
    fit_tfidf,
    normalize_text,
    stack_dense,
    vectorize,
)
from synth_files import synth_texts

SEED = 7
E2E_RUNTIME_BUDGET_S = 120.0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Oracle equivalence (rel. tolerance 1e-9, runtime < 5 s)
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    ok = True
    details = []

    vocab = [f"w{i}" for i in range(60)]
    corpus = [
        [vocab[int(j)] for j in rng.integers(0, 60, size=int(rng.integers(1, 14)))]
        for _ in range(200)
    ]
    model = fit_tfidf(corpus, max_terms=40)
    got = stack_dense([vectorize(doc, model) for doc in corpus])
    expected, terms = tfidf_dense(corpus, max_terms=40)
    tfidf_ok = model.terms() == terms and np.allclose(got, expected, rtol=1e-9, atol=1e-12)
    ok &= tfidf_ok
    details.append(f"tfidf={'ok' if tfidf_ok else 'MISMATCH'}")

    X = rng.normal(size=(200, 4))
    labels = rng.integers(0, 5, size=200)
    labels[:5] = np.arange(5)
    from periop.clustering import silhouette

    sil_ok = math.isclose(
        silhouette(X, labels), silhouette_slow(X, labels), rel_tol=1e-9, abs_tol=1e-12
    )
    ok &= sil_ok
    details.append(f"silhouette={'ok' if sil_ok else 'MISMATCH'}")

    quant_ok = True
    for _ in range(60):
        samples = rng.lognormal(3.5, 0.7, size=int(rng.integers(1, 200))).tolist()
        q = float(rng.uniform(0, 1))
        quant_ok &= math.isclose(
            quantile(samples, q), quantile_slow(samples, q), rel_tol=1e-9, abs_tol=1e-12
        )
    ok &= quant_ok
    details.append(f"quantile={'ok' if quant_ok else 'MISMATCH'}")

    categories = [f"c{int(v)}" for v in rng.integers(0, 12, size=200)]
    targets = rng.lognormal(4.0, 0.5, size=200).tolist()
    encoder = target_encode_fit(categories, targets, m=40.0)
    table, prior = target_encode_slow(categories, targets, 40.0)
    te_ok = math.isclose(encoder.prior, prior, rel_tol=1e-12)
    for cat, expected_value in table.items():
        te_ok &= math.isclose(encoder.encode(cat), expected_value, rel_tol=1e-9)
    te_ok &= encoder.encode("unseen") == encoder.prior
    ok &= te_ok
    details.append(f"target-encoding={'ok' if te_ok else 'MISMATCH'}")

    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    details.append(f"runtime={elapsed:.2f}s<5s")
    report("1 (oracle equivalence)", bool(ok), ", ".join(details))


# ---------------------------------------------------------------------------
# 2. Numerical monotonicity on 20 seeded datasets each
# ---------------------------------------------------------------------------


def test_criterion_2_monotonicity():
    kmeans_ok = gmm_ok = gbm_ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = np.vstack(
            [rng.normal(0, 1.5, size=(30, 3)), rng.normal(4, 1.5, size=(30, 3)), rng.normal((8, 0, 4), 1.5, size=(30, 3))]
        )
        km = kmeans_fit(X, 4, seed=seed)
        kmeans_ok &= all(b <= a + 1e-9 for a, b in zip(km.inertia_trace, km.inertia_trace[1:]))

        gm = gmm_fit(X, 3, seed=seed)
        gmm_ok &= all(b >= a - 1e-8 for a, b in zip(gm.log_likelihood, gm.log_likelihood[1:]))

        ds = Dataset(X=rng.normal(size=(70, 3)), y=rng.uniform(5, 150, size=70))
        lr = float(rng.uniform(0.05, 1.0))
        gbm = make_model(
            "gbm", {"n_trees": 20, "learning_rate": lr, "max_depth": 3, "min_leaf": 2}
        ).fit(ds)
        gbm_ok &= all(b <= a + 1e-9 for a, b in zip(gbm.stage_mse_, gbm.stage_mse_[1:]))
    report(
        "2 (numerical monotonicity)",
        bool(kmeans_ok and gmm_ok and gbm_ok),
        f"kmeans-inertia={'ok' if kmeans_ok else 'FAIL'}, "
        f"gmm-loglik={'ok' if gmm_ok else 'FAIL'}, gbm-mse={'ok' if gbm_ok else 'FAIL'} (20 seeds each)",
    )


# ---------------------------------------------------------------------------
# 3. Statistics: hand-verified values and special functions
# ---------------------------------------------------------------------------


def test_criterion_3_statistics():
    welch = welch_t_test([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    welch_ok = (
        math.isclose(welch.statistic, -1.2247, abs_tol=1e-3)
        and math.isclose(welch.df[0], 4.0, abs_tol=1e-6)
        and math.isclose(welch.p_value, 0.2879, abs_tol=1e-3)
    )
    anova = anova_f_test([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    anova_ok = (
        math.isclose(anova.statistic, 3.0, abs_tol=1e-3)
        and anova.df == (2.0, 6.0)
        and math.isclose(anova.p_value, 0.125, abs_tol=1e-3)
    )
    kw = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    kw_ok = math.isclose(kw.statistic, 3.857, abs_tol=1e-3) and math.isclose(
        kw.p_value, 0.0495, abs_tol=1e-3
    )

    special_ok = math.isclose(reg_inc_gamma_P(1.0, 1.0), 1 - math.exp(-1.0), abs_tol=1e-8)
    for x in (0.2, 0.9, 1.9285, 4.0):
        special_ok &= math.isclose(
            reg_inc_gamma_P(0.5, x), math.erf(math.sqrt(x)), abs_tol=1e-8
        )
    for a, b, x in ((2.0, 3.0, 0.25), (4.5, 1.2, 0.7), (0.8, 0.9, 0.33)):
        norm = math.gamma(a + b) / (math.gamma(a) * math.gamma(b))
        quad, _ = scipy.integrate.quad(lambda t: norm * t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x)
        special_ok &= math.isclose(reg_inc_beta(a, b, x), quad, abs_tol=1e-8)

    report(
        "3 (statistics)",
        bool(welch_ok and anova_ok and kw_ok and special_ok),
        f"welch t={welch.statistic:.4f} df={welch.df[0]:.0f}, anova F={anova.statistic:.1f}, "
        f"KW H={kw.statistic:.3f} p={kw.p_value:.4f}, special-functions<=1e-8",
    )


# ---------------------------------------------------------------------------
# 4. Cleaning removes exactly the planted records
# ---------------------------------------------------------------------------


def _case(case_id: str, minutes: float) -> Case:
    return Case(case_id=case_id, procedure_min=minutes)


def test_criterion_4_cleaning():
    rng = np.random.default_rng(9)
    body = [float(v) for v in rng.uniform(40, 120, size=60)]
    low_outliers = [0.5, 1.0]
    high_outliers = [500.0, 750.0, 1200.0]
    values = body + low_outliers + high_outliers
    samples = [(f"s{i}", v) for i, v in enumerate(values)]
    q1 = quantile_slow(values, 0.25)
    q3 = quantile_slow(values, 0.75)
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    expected_removed = {sid for sid, v in samples if v < lo or v > hi}
    result = iqr_filter(samples)
    got_removed = {sid for sid, _ in result.removed}
    iqr_ok = got_removed == expected_removed and result.bounds == pytest.approx((lo, hi))

    cases = [_case(f"ok{i}", float(v)) for i, v in enumerate(rng.uniform(30, 200, size=40))]
    planted_bad = {"neg1": -12.0, "neg2": -0.5, "zero": 0.0, "multi1": 3.2 * 1440, "multi2": 5.0 * 1440}
    cases += [_case(cid, v) for cid, v in planted_bad.items()]
    cases.append(Case(case_id="missing"))
    retained, rep = plausibility_filter(case_table(cases), "procedure")
    removed_ids = {c.case_id for c in cases} - set(retained)
    plaus_ok = removed_ids == set(planted_bad) | {"missing"}
    plaus_ok &= rep.counts["negative_or_zero"] == 3 and rep.counts["excessive"] == 2

    report(
        "4 (cleaning)",
        bool(iqr_ok and plaus_ok),
        f"IQR removed exactly {sorted(got_removed)} at bounds [{lo:.1f}, {hi:.1f}]; "
        f"plausibility removed exactly the planted records",
    )


# ---------------------------------------------------------------------------
# 5. Synthetic end-to-end (paper-shaped) + 7. determinism
# ---------------------------------------------------------------------------


def _run_pipeline(out: Path) -> float:
    started = time.perf_counter()
    for stage in ("synth", "ingest", "clean", "cluster", "train", "evaluate", "report"):
        code = cli.run([stage, "--out", str(out), "--seed", str(SEED)])
        assert code == 0, f"stage {stage} exited {code}"
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    elapsed = _run_pipeline(out)
    return out, elapsed


def test_criterion_5a_manual_plan_deviation(e2e):
    out, elapsed = e2e
    deviation = json.loads((out / "deviation_report.json").read_text())
    manual = next(r for r in deviation["procedure"]["rows"] if r["source"] == "manual")
    ok = (
        abs(manual["mean_abs_pct_dev"] - 68.0) <= 3.0
        and manual["share_beyond_tol"] >= 0.60
        and elapsed < E2E_RUNTIME_BUDGET_S
    )
    report(
        "5a (manual plan deviation)",
        bool(ok),
        f"mean|%dev|={manual['mean_abs_pct_dev']:.2f}% (68+/-3), "
        f"share>20%={manual['share_beyond_tol']:.3f} (>=0.60), runtime={elapsed:.1f}s<{E2E_RUNTIME_BUDGET_S:.0f}s",
    )


def test_criterion_5b_group_mean_improvement(e2e):
    out, _ = e2e
    deviation = json.loads((out / "deviation_report.json").read_text())
    proc = deviation["procedure"]["improvement_pp"]["group-mean"]
    ind = deviation["induction"]["improvement_pp"]["group-mean"]
    ok = proc >= 15.0 and ind >= 5.0
    report(
        "5b (cluster-mean improvement)",
        bool(ok),
        f"procedure={proc:.2f}pp (>=15), induction={ind:.2f}pp (>=5)",
    )


def test_criterion_5c_gbm_marginal(e2e):
    out, _ = e2e
    metrics = json.loads((out / "metrics.json").read_text())
    ratios = {}
    for phase in ("procedure", "induction"):
        ratios[phase] = metrics[phase]["gbm"]["mae"] / metrics[phase]["group-mean"]["mae"]
    ok = all(r <= 1.15 for r in ratios.values())
    report(
        "5c (GBM within 1.15x of group-mean MAE)",
        bool(ok),
        ", ".join(f"{p}={r:.3f}" for p, r in sorted(ratios.items())),
    )


def test_criterion_7_determinism(e2e, tmp_path_factory):
    out1, _ = e2e
    out2 = tmp_path_factory.mktemp("e2e-again")
    _run_pipeline(out2)
    same_metrics = (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    model_files = sorted(p.name for p in out1.glob("model_*.json"))
    same_models = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in model_files
    )
    report(
        "7 (determinism)",
        bool(same_metrics and same_models),
        f"metrics.json identical={same_metrics}, {len(model_files)} model files identical={same_models}",
    )


# ---------------------------------------------------------------------------
# 6. Normalization effect: synonym unification shrinks the selected k
# ---------------------------------------------------------------------------


def test_criterion_6_normalization_effect():
    cfg = SynthConfig(n_cases=400, seed=5, n_anesthesia_families=4)
    _, cases_csv, _ = synth_texts(cfg)
    attrs, _ = parse_case_attributes(cases_csv.encode())
    texts = [dict(zip(CASES_HEADER, row))["anesthesia_text"] for row in attrs]

    selected = {}
    for name, rules in (
        ("raw", NormalizationRules(stem_suffixes=DEFAULT_STEM_SUFFIXES)),
        ("unified", NormalizationRules(synonym_map=dict(DEFAULT_SYNONYMS), stem_suffixes=DEFAULT_STEM_SUFFIXES)),
    ):
        docs = [normalize_text(t, rules) for t in texts]
        model = fit_tfidf(docs)
        X = stack_dense([vectorize(d, model) for d in docs])
        model, _ = select_k(X, "kmeans", range(2, 13), seed=3)
        selected[name] = model.k
    ok = selected["unified"] < selected["raw"]
    report(
        "6 (normalization effect)",
        bool(ok),
        f"selected k raw={selected['raw']} -> unified={selected['unified']} (strictly smaller)",
    )


# ---------------------------------------------------------------------------
# 8. Model contracts
# ---------------------------------------------------------------------------


def test_criterion_8_model_contracts():
    rng = np.random.default_rng(18)
    X = rng.uniform(0, 10, size=(50, 3))
    y = 4.0 * X[:, 0] + rng.normal(0, 2, size=50) + 30
    ds = Dataset(X=X, y=y)

    tree = make_model("tree", {"max_depth": 5, "min_leaf": 2}).fit(ds)
    forest = make_model(
        "forest", {"n_trees": 1, "max_depth": 5, "min_leaf": 2, "feature_fraction": 1.0, "bootstrap": False, "seed": 0}
    ).fit(ds)
    forest_ok = np.array_equal(tree.predict(X), forest.predict(X))

    gbm = make_model("gbm", {"n_trees": 0}).fit(ds)
    mean = make_model("mean").fit(ds)
    gbm_ok = np.array_equal(gbm.predict(X), mean.predict(X))

    ridge = make_model("ridge", {"lam": 0.0}).fit(
        Dataset(X=np.array([[0.0], [1.0], [2.0]]), y=np.array([1.0, 3.0, 5.0]))
    )
    ridge_ok = math.isclose(ridge.coef_[0], 2.0, abs_tol=1e-9) and math.isclose(
        ridge.intercept_, 1.0, abs_tol=1e-9
    )

    encoder = target_encode_fit(["a", "b", "a"], [10.0, 30.0, 20.0], m=40.0)
    te_ok = encoder.encode("never-seen") == encoder.prior

    report(
        "8 (model contracts)",
        bool(forest_ok and gbm_ok and ridge_ok and te_ok),
        f"forest==tree={forest_ok}, gbm(0)==mean={gbm_ok}, "
        f"ridge=(2x+1 to 1e-9)={ridge_ok}, unseen-encoding==prior={te_ok}",
    )
