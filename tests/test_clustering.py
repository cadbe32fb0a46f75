import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    gmm_fit_rows,
    kmeans_best_two_partition,
    kmeans_fit_rows,
    kmeanspp_init_rows,
    select_k_rows,
    silhouette_slow,
)
from periop.clustering import (
    KMeansModel,
    _kmeanspp_init,
    cluster_assign,
    cluster_catalog,
    gmm_fit,
    gmm_responsibilities,
    kmeans_fit,
    model_from_dict,
    select_k,
    silhouette,
)
from periop import clustering
from periop.encoding import distinct_rows


def blobs(rng, centers, n_per, spread=0.3):
    points = []
    for c in centers:
        points.append(rng.normal(0, spread, size=(n_per, len(c))) + np.asarray(c))
    return np.vstack(points)


def test_kmeans_two_cluster_exhaustive_oracle():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    model = kmeans_fit(X, 2, seed=3)
    best_sse, best_centroids = kmeans_best_two_partition(X.ravel())
    assert sorted(model.centroids.ravel()) == pytest.approx(best_centroids)
    assert model.inertia == pytest.approx(best_sse)
    assert model.inertia == pytest.approx(1.0)


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    model = kmeans_fit(X, 1, seed=0)
    assert np.allclose(model.centroids[0], X.mean(axis=0))


def test_kmeans_k_equals_n_zero_inertia():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    model = kmeans_fit(X, 6, seed=1)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_k_too_large():
    with pytest.raises(ValueError):
        kmeans_fit(np.zeros((3, 1)), 4)


def test_kmeans_inertia_trace_non_increasing_over_seeds():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = blobs(rng, [(0, 0), (4, 4), (8, 0)], 30, spread=1.2)
        model = kmeans_fit(X, 4, seed=seed)
        trace = model.inertia_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 4))
    a = kmeans_fit(X, 5, seed=9)
    b = kmeans_fit(X, 5, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_assign_nearest_and_tie_rule():
    model = KMeansModel(
        centroids=np.array([[0.5], [10.5]]),
        inertia=0.0,
        iterations_run=1,
        seed=0,
        inertia_trace=(),
    )
    labels = cluster_assign(model, np.array([[0.4], [5.5], [10.4]]))
    assert labels.tolist() == [0, 0, 1]  # 5.5 is equidistant -> lowest index


def test_assign_reproduces_training_labels():
    rng = np.random.default_rng(6)
    X = blobs(rng, [(0, 0), (6, 6)], 40)
    model = kmeans_fit(X, 2, seed=4)
    first = cluster_assign(model, X)
    second = cluster_assign(model, X)
    assert np.array_equal(first, second)
    assert model.inertia == pytest.approx(
        sum(np.sum((X[i] - model.centroids[first[i]]) ** 2) for i in range(len(X)))
    )


@pytest.mark.parametrize("fit", [kmeans_fit, gmm_fit])
def test_model_from_dict_round_trip_assigns_alike(fit):
    rng = np.random.default_rng(8)
    X = blobs(rng, [(0, 0), (5, 5), (0, 5)], 20)
    model = fit(X, 3, seed=2)
    clone = model_from_dict(model.to_dict())
    assert type(clone) is type(model)
    assert np.array_equal(cluster_assign(clone, X), cluster_assign(model, X))
    with pytest.raises(ValueError):
        model_from_dict({**model.to_dict(), "algo": "dbscan"})


@pytest.mark.parametrize("fit", [kmeans_fit, gmm_fit])
def test_to_dict_round_trip_keeps_fit_diagnostics(fit):
    rng = np.random.default_rng(9)
    X = blobs(rng, [(0, 0), (5, 5), (0, 5)], 20)
    model = fit(X, 3, seed=4)
    clone = model_from_dict(json.loads(json.dumps(model.to_dict())))
    if fit is kmeans_fit:
        assert len(model.inertia_trace) > 1
        assert clone.inertia_trace == model.inertia_trace
    else:
        assert len(model.log_likelihood) > 1
        assert clone.log_likelihood == model.log_likelihood
        assert clone.reinitialized is model.reinitialized


def test_gmm_round_trip_keeps_reinitialized_flag():
    # 4 components on 3 distinct positions: one loses all mass and restarts
    X = np.array([[1.0], [1.0], [0.0], [0.0], [0.0], [-2.0]])
    model = gmm_fit(X, 4, seed=881)
    assert model.reinitialized
    assert model_from_dict(model.to_dict()).reinitialized


def test_assign_dimension_mismatch():
    model = kmeans_fit(np.zeros((4, 2)), 2, seed=0)
    with pytest.raises(ValueError):
        cluster_assign(model, np.zeros((3, 3)))


def test_gmm_separated_blobs_hard_responsibilities():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    model = gmm_fit(X, 2, seed=1)
    resp = gmm_responsibilities(model, X)
    assert np.all(resp.max(axis=1) > 0.999)
    labels = cluster_assign(model, X)
    assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]


def test_gmm_single_component_mle():
    rng = np.random.default_rng(3)
    X = rng.normal(5.0, 2.0, size=(200, 2))
    model = gmm_fit(X, 1, seed=0)
    assert np.allclose(model.means[0], X.mean(axis=0), atol=1e-8)
    assert np.allclose(model.variances[0], X.var(axis=0), atol=1e-8)
    assert model.weights[0] == pytest.approx(1.0)


def test_gmm_weights_on_simplex():
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        X = blobs(rng, [(0, 0), (3, 1), (6, 5)], 25, spread=0.8)
        model = gmm_fit(X, 3, seed=seed)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.weights >= 0)
        assert np.all(model.variances >= 1e-6 - 1e-15)


def test_gmm_loglik_non_decreasing_over_seeds():
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        X = blobs(rng, [(0, 0), (5, 2)], 40, spread=1.0)
        model = gmm_fit(X, 3, seed=seed)
        trace = model.log_likelihood
        assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))


def test_gmm_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 3))
    a = gmm_fit(X, 2, seed=5)
    b = gmm_fit(X, 2, seed=5)
    assert np.array_equal(a.means, b.means)
    assert a.log_likelihood == b.log_likelihood


def test_silhouette_hand_example():
    X = np.array([[0.0], [0.0], [10.0]])
    assert silhouette(X, [0, 0, 1]) == pytest.approx(2 / 3)


def test_silhouette_symmetric_zero():
    X = np.array([[0.0], [0.0]])
    assert silhouette(X, [0, 1]) == pytest.approx(0.0)


def test_silhouette_tight_separated_approaches_one():
    rng = np.random.default_rng(1)
    X = blobs(rng, [(0, 0), (100, 100)], 20, spread=0.01)
    labels = [0] * 20 + [1] * 20
    assert silhouette(X, labels) > 0.999


def test_silhouette_single_cluster_error():
    with pytest.raises(ValueError):
        silhouette(np.zeros((4, 1)), [0, 0, 0, 0])


def test_silhouette_matches_slow_oracle():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(60, 3))
    labels = rng.integers(0, 4, size=60)
    labels[:4] = [0, 1, 2, 3]  # every cluster non-empty
    assert silhouette(X, labels) == pytest.approx(silhouette_slow(X, labels), rel=1e-9, abs=1e-12)


def test_silhouette_identical_rows_are_zero_apart():
    # unit rows like TF-IDF vectors: the Gram form leaves identical rows ~1e-8 apart
    for seed in range(5):
        rng = np.random.default_rng(seed)
        positions = rng.random((4, 5))
        positions /= np.linalg.norm(positions, axis=1, keepdims=True)
        X = positions[np.repeat(np.arange(4), [6, 5, 4, 3])]
        labels = np.repeat([0, 0, 1, 1], [6, 5, 4, 3])
        assert silhouette(X, labels) == pytest.approx(silhouette_slow(X, labels), rel=0, abs=1e-12)


def test_select_k_recovers_planted_blobs():
    rng = np.random.default_rng(23)
    X = blobs(rng, [(0, 0), (8, 0), (4, 7)], 30, spread=0.5)
    model, scores = select_k(X, "kmeans", range(2, 7), seed=2)
    assert model.k == 3
    assert max(scores, key=lambda k: (scores[k], -k)) == 3


def test_select_k_single_candidate():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    model, scores = select_k(X, "kmeans", [2], seed=0)
    assert model.k == 2 and set(scores) == {2}


def test_select_k_tie_prefers_smallest():
    # identical duplicated points: every k >= 2 scores 1.0, ties -> smallest
    X = np.array([[0.0], [0.0], [5.0], [5.0], [9.0], [9.0]])
    model, scores = select_k(X, "kmeans", range(2, 5), seed=0)
    assert model.k == min(k for k, v in scores.items() if v == max(scores.values()))


def test_select_k_validation():
    X = np.zeros((5, 1))
    with pytest.raises(ValueError):
        select_k(X, "kmeans", [], seed=0)
    with pytest.raises(ValueError):
        select_k(X, "kmeans", [5], seed=0)
    with pytest.raises(ValueError):
        select_k(X, "dbscan", [2], seed=0)
    with pytest.raises(ValueError, match="1 distinct rows"):
        select_k(X, "kmeans", [2, 3], seed=0)


@pytest.mark.parametrize("algo", ["kmeans", "gmm"])
def test_select_k_deduplicates_once(monkeypatch, algo):
    calls = []
    monkeypatch.setattr(clustering, "distinct_rows", lambda X: calls.append(X) or distinct_rows(X))
    rng = np.random.default_rng(4)
    select_k(blobs(rng, [(0, 0), (8, 0), (4, 7)], 10), algo, range(2, 6), seed=1)
    assert len(calls) == 1


def test_select_k_gmm_path():
    rng = np.random.default_rng(31)
    X = blobs(rng, [(0,), (10,)], 25, spread=0.4)
    model, _ = select_k(X, "gmm", range(2, 5), seed=1)
    assert model.k == 2


def test_select_k_skips_k_above_distinct_rows():
    # a GMM with more components than distinct rows has an empty component
    rng = np.random.default_rng(5)
    centers = rng.normal(0, 3, size=(6, 4))
    X = centers[np.repeat(np.arange(6), [30, 25, 20, 15, 10, 8])]
    model, scores = select_k(X, "gmm", range(2, 11), seed=3)
    assert model.k <= 6
    assert all(math.isfinite(scores[k]) for k in range(2, 7))
    assert all(scores[k] == -math.inf for k in range(7, 11))
    _, wide = select_k(X, "gmm", range(2, len(X) + 3), seed=3)  # k up to n + 2
    assert all(wide[k] == scores[k] for k in range(2, 7))
    assert all(wide[k] == -math.inf for k in range(7, len(X) + 3))


# Small matrices whose rows repeat a few positions on an integer grid, so
# squared distances are exact and both silhouettes see the same distances.
@st.composite
def repeated_rows(draw, min_rows=2, max_rows=24):
    d = draw(st.integers(1, 3))
    positions = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(positions) - 1), min_size=min_rows, max_size=max_rows))
    return np.array([positions[i] for i in picks], dtype=float)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_silhouette_matches_slow_oracle_on_repeated_rows(data):
    X = data.draw(repeated_rows())
    labels = data.draw(st.lists(st.integers(0, 4), min_size=len(X), max_size=len(X)))
    assume(len(set(labels)) > 1)  # identical rows may carry different labels; singletons occur
    assert silhouette(X, labels) == pytest.approx(silhouette_slow(X, labels), rel=0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    algo=st.sampled_from(["kmeans", "gmm"]),
    seed=st.integers(0, 2**16),
)
def test_select_k_matches_row_level_reference(data, algo, seed):
    X = data.draw(repeated_rows(min_rows=3))
    n = len(X)
    ks = data.draw(st.lists(st.integers(2, n - 1), min_size=1, max_size=4))
    fit = kmeans_fit if algo == "kmeans" else gmm_fit

    def fit_labels(X, k, seed):
        return cluster_assign(fit(X, k, seed=seed), X)

    try:
        ref_k, ref_scores = select_k_rows(X, fit_labels, ks, seed)
    except ValueError:  # a GMM component collapsed twice: select_k raises too
        with pytest.raises(ValueError):
            select_k(X, algo, ks, seed=seed)
        return
    if ref_k is None:
        with pytest.raises(ValueError, match="distinct rows"):
            select_k(X, algo, ks, seed=seed)
        return
    model, scores = select_k(X, algo, ks, seed=seed)
    assert set(scores) == set(ref_scores)
    for k, ref in ref_scores.items():
        if ref == -math.inf:
            assert scores[k] == -math.inf
        else:
            assert scores[k] == pytest.approx(ref, rel=0, abs=1e-12)
    # the same k, unless two candidates tie to within the scores' rounding
    assert model.k == ref_k or abs(scores[model.k] - ref_scores[ref_k]) <= 1e-12
    # the winning fit is the public fit of X with its k and seed, bit for bit
    fresh = fit(X, model.k, seed=seed + model.k)
    assert type(model) is type(fresh)
    for field in dataclasses.fields(model):
        got, want = getattr(model, field.name), getattr(fresh, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


def _close(a, b):
    return np.allclose(a, b, rtol=1e-9, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_fits_on_distinct_rows_match_row_level_fits(data, seed):
    # every position repeats many times; the package fits the distinct rows
    # weighted by count, the oracles fit every row
    X = data.draw(repeated_rows(min_rows=8, max_rows=60))
    k = data.draw(st.integers(1, min(6, len(X))))
    distinct, inverse = distinct_rows(X)
    centres = _kmeanspp_init(distinct, inverse, k, np.random.default_rng(seed))
    assert np.array_equal(centres, kmeanspp_init_rows(X, k, np.random.default_rng(seed)))

    model, ref = kmeans_fit(X, k, seed=seed), kmeans_fit_rows(X, k, seed=seed)
    assert model.iterations_run == ref.iterations_run
    assert _close(model.centroids, ref.centroids)
    assert _close(model.inertia_trace, ref.inertia_trace) and _close(model.inertia, ref.inertia)
    assert np.array_equal(cluster_assign(model, X), cluster_assign(ref, X))

    try:
        ref = gmm_fit_rows(X, k, seed=seed)
    except ValueError:  # a component collapsed twice
        with pytest.raises(ValueError):
            gmm_fit(X, k, seed=seed)
        return
    model = gmm_fit(X, k, seed=seed)
    assert (model.iterations_run, model.reinitialized) == (ref.iterations_run, ref.reinitialized)
    for field in ("weights", "means", "variances", "log_likelihood"):
        assert _close(getattr(model, field), getattr(ref, field)), field
    assert np.array_equal(cluster_assign(model, X), cluster_assign(ref, X))


def test_gmm_reseed_matches_row_level_fit():
    # 4 components on 3 distinct positions: the dead ones restart at the
    # worst-explained distinct rows, which the random matrices above rarely reach
    X = np.array([[1.0], [1.0], [0.0], [0.0], [0.0], [-2.0]])
    model, ref = gmm_fit(X, 4, seed=881), gmm_fit_rows(X, 4, seed=881)
    assert model.reinitialized and ref.reinitialized
    assert model.iterations_run == ref.iterations_run
    for field in ("weights", "means", "variances", "log_likelihood"):
        assert _close(getattr(model, field), getattr(ref, field)), field


# Arbitrary finite inputs, bounded so that squared norms stay far from overflow.
finite_matrices = st.integers(2, 24).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(rows=finite_matrices, k=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_kmeans_inertia_never_increases(rows, k, seed):
    X = np.array(rows)
    assume(k <= len(X))
    trace = kmeans_fit(X, k, seed=seed).inertia_trace
    slack = 1e-9 * (1.0 + float(np.sum(X * X)))  # rounding of the ||x||^2 - 2x.c + ||c||^2 form
    assert all(b <= a + slack for a, b in zip(trace, trace[1:]))


@settings(max_examples=200, deadline=None)
@given(rows=finite_matrices, k=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_gmm_log_likelihood_never_decreases(rows, k, seed):
    X = np.array(rows)
    assume(k <= len(X))
    try:
        model = gmm_fit(X, k, seed=seed)
    except ValueError:  # a component collapsed twice
        return
    trace = model.log_likelihood
    drops = sum(1 for a, b in zip(trace, trace[1:]) if b < a - 1e-8 * (1.0 + abs(a)))
    # EM never lowers it; a re-initialized component starts a new EM run once
    assert drops <= int(model.reinitialized)


@settings(max_examples=100, deadline=None)
@given(
    algo=st.sampled_from(["kmeans", "gmm"]),
    seed=st.integers(0, 2**16),
    n_distinct=st.integers(2, 60),
    d=st.integers(1, 40),
    n=st.integers(1, 400),
)
@example(algo="kmeans", seed=3040, n_distinct=4, d=28, n=88)  # moved a label with Gram-form distances
def test_cluster_assign_on_distinct_rows_equals_every_row(algo, seed, n_distinct, d, n):
    """cluster and predict label the distinct TF-IDF rows and scatter the
    labels back to the cases; that must give every case the label of
    assigning the full matrix. A row's label depends on that row alone: not
    on the other rows of the matrix, their order, or its memory order."""
    rng = np.random.default_rng(seed)
    # sparse, L2-normalized non-negative rows, as TF-IDF vectors are
    rows = rng.random((n_distinct, d)) * (rng.random((n_distinct, d)) < 0.3)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows / np.where(norms > 0, norms, 1.0)
    inverse = rng.integers(0, n_distinct, size=n)
    fit = kmeans_fit if algo == "kmeans" else gmm_fit
    k = int(rng.integers(1, min(n_distinct, 8) + 1))
    try:
        model = fit(rows[rng.integers(0, n_distinct, size=3 * n_distinct)], k, seed=seed)
    except ValueError:  # a GMM component collapsed twice
        return
    labels = cluster_assign(model, rows)
    expected = labels[inverse].tobytes()
    assert cluster_assign(model, rows[inverse]).tobytes() == expected
    assert cluster_assign(model, np.asfortranarray(rows[inverse])).tobytes() == expected
    order = rng.permutation(n_distinct)
    assert cluster_assign(model, rows[order]).tobytes() == labels[order].tobytes()
    assert cluster_assign(model, np.asfortranarray(rows))[inverse].tobytes() == expected


def test_cluster_catalog():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rows = cluster_catalog([0, 0, 1], X, ["alpha", "beta"], [10.0, 20.0, 99.0], top_n=1)
    assert rows[0] == {"cluster_id": 0, "size": 2, "top_terms": "alpha", "mean_duration_min": 15.0}
    assert rows[1]["top_terms"] == "beta"
    assert rows[1]["mean_duration_min"] == pytest.approx(99.0)


def _same_bytes(a, b):
    """Two fits, or two select_k results, agree in every field, bit for bit."""
    if isinstance(a, tuple):
        return _same_bytes(a[0], b[0]) and repr(sorted(a[1].items())) == repr(sorted(b[1].items()))
    return type(a) is type(b) and all(
        np.asarray(getattr(a, f.name)).tobytes() == np.asarray(getattr(b, f.name)).tobytes()
        for f in dataclasses.fields(a)
    )


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # k above the points, a GMM collapsed twice, no k scored
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_fits_on_indexed_rows_equal_fits_on_the_gathered_rows(data, seed):
    """cluster passes its distinct TF-IDF rows and each training case's row
    index: every fit, select_k and cluster_catalog then give, byte for byte,
    what they give for the gathered matrix X[index]."""
    X = data.draw(repeated_rows(min_rows=1, max_rows=12))  # rows may repeat in X too
    index = np.array(data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1, max_size=40)))
    gathered = X[index]
    k = data.draw(st.integers(1, 5))
    ks = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    for fit in (kmeans_fit, gmm_fit):
        got = _outcome(lambda: fit(X, k, seed=seed, index=index))
        want = _outcome(lambda: fit(gathered, k, seed=seed))
        assert got == want if isinstance(want, str) else _same_bytes(got, want), fit.__name__
        got = _outcome(lambda: select_k(X, fit.__name__[:-4], ks, seed=seed, index=index))
        want = _outcome(lambda: select_k(gathered, fit.__name__[:-4], ks, seed=seed))
        assert got == want if isinstance(want, str) else _same_bytes(got, want), fit.__name__
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(index), max_size=len(index)))
    durations = data.draw(st.lists(st.floats(0, 500), min_size=len(index), max_size=len(index)))
    terms = [f"t{j}" for j in range(X.shape[1])]
    got = cluster_catalog(labels, X, terms, durations, index=index)
    assert repr(got) == repr(cluster_catalog(labels, gathered, terms, durations))
