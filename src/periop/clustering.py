"""Clustering of description vectors: K-Means (Lloyd) and diagonal GMM (EM).

Both fits, and the mean silhouette that selects the number of clusters, run
on the distinct rows of X weighted by their number of copies; inertia and
log-likelihood stay sums over all rows; ``select_k`` deduplicates X once for
all its candidate fits. The fits, ``select_k`` and ``cluster_catalog`` take
an optional ``index`` of row numbers into X and then work on the points
X[index] without building them, so ``cluster`` passes its distinct TF-IDF
rows and each training case's row; no index stands for every row. All fits
are deterministic given a seed; ties break toward the lowest index or the
smallest k so repeated runs agree bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import rules
from .encoding import distinct_keys, distinct_rows

VARIANCE_FLOOR = 1e-6
_KMEANS_MAX_ITER, _KMEANS_TOL = 300, 1e-6
_GMM_MAX_ITER, _GMM_TOL = 200, 1e-7

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    inertia: float
    iterations_run: int
    seed: int
    inertia_trace: tuple[float, ...]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def to_dict(self) -> dict:
        return {
            "algo": "kmeans",
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "inertia": float(self.inertia),
            "iterations_run": self.iterations_run,
            "seed": self.seed,
            "inertia_trace": [float(v) for v in self.inertia_trace],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KMeansModel":
        """Raises ValueError unless every centroid's sum of squares is
        finite, so that its distances to a TF-IDF row are too."""
        get = functools.partial(rules.field, obj)
        centroids = _matrix(obj, "centroids")
        _check_row_norms("centroids", centroids)
        return cls(
            centroids=centroids,
            inertia=get("inertia", float),
            iterations_run=get("iterations_run", int),
            seed=get("seed", int),
            inertia_trace=tuple(map(float, rules.number_array(obj, "inertia_trace", ()))),
        )


@dataclass(frozen=True)
class GmmModel:
    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, d)
    variances: np.ndarray  # (k, d), floored
    log_likelihood: tuple[float, ...]
    iterations_run: int
    seed: int
    reinitialized: bool = False

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_dict(self) -> dict:
        return {
            "algo": "gmm",
            "weights": [float(v) for v in self.weights],
            "means": [[float(v) for v in row] for row in self.means],
            "variances": [[float(v) for v in row] for row in self.variances],
            "iterations_run": self.iterations_run,
            "seed": self.seed,
            "log_likelihood": [float(v) for v in self.log_likelihood],
            "reinitialized": self.reinitialized,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "GmmModel":
        """Raises ValueError unless ``weights``, ``means`` and ``variances``
        hold k rows, the last two of one width, with every weight > 0, every
        variance at least ``VARIANCE_FLOOR``, which the fits never go below,
        and a finite sum of squares over the variances for every mean, so
        that a TF-IDF row's log-density under each component is finite."""
        get = functools.partial(rules.field, obj)
        weights = np.asarray(rules.number_array(obj, "weights"), dtype=float)
        means, variances = _matrix(obj, "means"), _matrix(obj, "variances")
        if weights.shape != means.shape[:1] or variances.shape != means.shape:
            raise ValueError(
                f"'weights', 'means' and 'variances' are {weights.shape}, {means.shape} and "
                f"{variances.shape}: expected k weights and two k-row matrices of one width"
            )
        if not np.all(weights > 0):
            raise ValueError(f"bad entry in 'weights': expected a number > 0, got {weights[weights <= 0][0]:g}")
        if not np.all(variances >= VARIANCE_FLOOR):
            bad = variances[variances < VARIANCE_FLOOR][0]
            raise ValueError(f"bad entry in 'variances': expected a number >= {VARIANCE_FLOOR:g}, got {bad:g}")
        _check_row_norms("means", means, variances)
        return cls(
            weights=weights,
            means=means,
            variances=variances,
            log_likelihood=tuple(map(float, rules.number_array(obj, "log_likelihood", ()))),
            iterations_run=get("iterations_run", int),
            seed=get("seed", int),
            reinitialized=get("reinitialized", bool, False),
        )


def _matrix(obj: dict, key: str) -> np.ndarray:
    """The field ``key`` of a model file: a non-empty array of rows of
    finite numbers, all of one width."""
    rows = rules.number_array(obj, key)
    if not rows or {*map(type, rows)} != {list} or len({*map(len, rows)}) != 1:
        raise ValueError(f"bad value for {key!r}: expected a non-empty array of rows of one width")
    return np.asarray(rows, dtype=float)


def _check_row_norms(key: str, rows: np.ndarray, variances: np.ndarray | None = None) -> None:
    """Raises ValueError naming the first row of ``rows`` whose sum of
    squares, each divided by its entry of ``variances`` if given, overflows
    a float."""
    with np.errstate(over="ignore"):
        norms = (rows * rows if variances is None else rows * rows / variances).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        over = "" if variances is None else " over 'variances'"
        raise ValueError(f"bad row {bad[0]} in {key!r}: its sum of squares{over} is not finite")


def model_from_dict(obj: dict) -> Union[KMeansModel, GmmModel]:
    """Rebuild a fitted K-Means or GMM model from its ``to_dict`` form;
    raises KeyError for a missing field and ValueError for a bad value."""
    algo = rules.field(obj, "algo", str)
    if algo == "kmeans":
        return KMeansModel.from_dict(obj)
    if algo == "gmm":
        return GmmModel.from_dict(obj)
    raise ValueError(f"unknown clustering algorithm: {algo!r}")


def _as_matrix(X: Union[np.ndarray, Sequence[Sequence[float]]]) -> np.ndarray:
    # C order: a row-local reduction rounds a Fortran-ordered row otherwise
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a non-empty (n, d) matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    return X


def _sq_dist_to(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances, clamped against fp negatives
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _distinct_distances(rows: np.ndarray) -> np.ndarray:
    # (m, m) Euclidean distances between distinct rows; each row is exactly 0
    # from itself, where the Gram form leaves a rounding residue
    dist = np.sqrt(_sq_dist_to(rows, rows))
    np.fill_diagonal(dist, 0.0)
    return dist


def _kmeanspp_init(rows: np.ndarray, inverse: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # k-means++ over the points that ``inverse`` maps onto the distinct ``rows``:
    # a point is drawn with probability proportional to its squared distance
    n = inverse.shape[0]
    centers = np.empty((k, rows.shape[1]))
    centers[0] = rows[inverse[int(rng.integers(n))]]
    closest = _sq_dist_to(rows, centers[:1]).ravel()
    for j in range(1, k):
        total = float(closest[inverse].sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest[inverse] / total))
        centers[j] = rows[inverse[idx]]
        closest = np.minimum(closest, _sq_dist_to(rows, centers[j : j + 1]).ravel())
    return centers


def _label_means(rows: np.ndarray, counts: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # (k,) number of points with each label and (k, d) their mean, where
    # ``counts[u]`` points sit at ``rows[u]``; a label no point carries has mean 0
    d = rows.shape[1]
    sizes = np.bincount(labels, weights=counts, minlength=k)
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=(rows * counts[:, None]).ravel(), minlength=k * d).reshape(k, d)
    return sizes, sums / np.maximum(sizes, 1.0)[:, None]


def _indexed(X: Union[np.ndarray, Sequence], index: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray]:
    # the checked matrix X and the row numbers of the points, every row for None
    X = _as_matrix(X)
    if index is None:
        return X, np.arange(X.shape[0])
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1 or index.size == 0:
        raise ValueError("index must be a non-empty 1-D array of row numbers")
    return X, index


def _points(X: Union[np.ndarray, Sequence], index: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray]:
    # distinct_rows(X[index]), built from the distinct rows of X: those of
    # the points in the order the points first reach them, and each point's
    # index into them
    X, index = _indexed(X, index)
    rows, row_of = distinct_rows(X)
    order, inverse = distinct_keys(row_of[index].tolist())
    return rows[order], inverse


def _fit_input(
    X: Union[np.ndarray, Sequence[Sequence[float]]], k: int, index: Sequence[int] | None
) -> tuple[np.ndarray, np.ndarray]:
    # the public fits' checks; the distinct rows of the points and each point's index into them
    rows, inverse = _points(X, index)
    n = inverse.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points n={n}")
    return rows, inverse


def kmeans_fit(
    X: Union[np.ndarray, Sequence[Sequence[float]]], k: int, seed: int = 0, index: Sequence[int] | None = None
) -> KMeansModel:
    """Lloyd's algorithm with k-means++ initialization, on the points
    X[index], every row of X if ``index`` is None.

    Empty clusters are re-seeded to the point farthest from its centroid.
    Stops when the largest centroid shift drops below 1e-6, after at most 300
    iterations. The inertia trace (one entry per assignment step) is
    non-increasing.
    """
    return _kmeans(*_fit_input(X, k, index), k, seed)


def _kmeans(rows: np.ndarray, inverse: np.ndarray, k: int, seed: int) -> KMeansModel:
    # kmeans_fit on the points that ``inverse`` maps onto the distinct ``rows``
    counts = np.bincount(inverse).astype(float)
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(rows, inverse, k, rng)
    trace: list[float] = []
    iterations = 0
    for iterations in range(1, _KMEANS_MAX_ITER + 1):
        d2 = _sq_dist_to(rows, centers)
        labels = np.argmin(d2, axis=1)
        trace.append(float(counts @ d2.min(axis=1)))
        sizes, means = _label_means(rows, counts, labels, k)
        new_centers = np.where(sizes[:, None] > 0, means, centers)
        for j in np.flatnonzero(sizes == 0):
            # re-seed an empty cluster to the worst-served point
            nearest = np.min(_sq_dist_to(rows, new_centers), axis=1)
            new_centers[j] = rows[int(np.argmax(nearest))]
        shift = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        if shift < _KMEANS_TOL:
            break
    inertia = float(counts @ _sq_dist_to(rows, centers).min(axis=1))
    trace.append(inertia)
    return KMeansModel(
        centroids=centers,
        inertia=inertia,
        iterations_run=iterations,
        seed=seed,
        inertia_trace=tuple(trace),
    )


def _gmm_log_prob(X: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    # (n, k) log of weight_j * N(x | mean_j, diag(var_j))
    n, d = X.shape
    out = np.empty((n, weights.shape[0]))
    for j in range(weights.shape[0]):
        diff = X - means[j]
        out[:, j] = (
            math.log(max(weights[j], 1e-300))
            - 0.5 * (d * _LOG_2PI + float(np.log(variances[j]).sum()))
            - 0.5 * np.sum(diff * diff / variances[j], axis=1)
        )
    return out


def _logsumexp_rows(logp: np.ndarray) -> np.ndarray:
    mx = logp.max(axis=1, keepdims=True)
    return (mx + np.log(np.exp(logp - mx).sum(axis=1, keepdims=True))).ravel()


def gmm_fit(
    X: Union[np.ndarray, Sequence[Sequence[float]]], k: int, seed: int = 0, index: Sequence[int] | None = None
) -> GmmModel:
    """EM for a Gaussian mixture with diagonal covariances, on the points
    X[index], every row of X if ``index`` is None.

    Initialized from a k-means++ pass (seed means, hard-assign, component
    stats); variances are floored at ``VARIANCE_FLOOR``. Stops once the
    log-likelihood gain falls below 1e-7, after at most 200 iterations; the
    trace is non-decreasing up to 1e-8 slack. Components that lose all
    responsibility mass are re-initialized once (``reinitialized``) at the
    worst-explained distinct rows, which starts a new EM run, so the trace
    may drop at that one step; a second collapse is an error. Callers should
    cap dimensionality (e.g. TF-IDF max_terms).
    """
    return _gmm(*_fit_input(X, k, index), k, seed)


def _gmm(rows: np.ndarray, inverse: np.ndarray, k: int, seed: int) -> GmmModel:
    # gmm_fit on the points that ``inverse`` maps onto the distinct ``rows``
    n = inverse.shape[0]
    counts = np.bincount(inverse).astype(float)
    rng = np.random.default_rng(seed)

    mean = counts @ rows / n
    global_var = np.maximum(counts @ (rows - mean) ** 2 / n, VARIANCE_FLOOR)
    means = _kmeanspp_init(rows, inverse, k, rng)
    labels = np.argmin(_sq_dist_to(rows, means), axis=1)
    sizes, label_means = _label_means(rows, counts, labels, k)
    filled = sizes > 0
    means[filled] = label_means[filled]
    _, label_vars = _label_means((rows - means[labels]) ** 2, counts, labels, k)
    variances = np.where(filled[:, None], np.maximum(label_vars, VARIANCE_FLOOR), global_var)
    weights = np.where(filled, sizes / n, 1.0 / k)
    weights = weights / weights.sum()

    trace: list[float] = []
    reinitialized = False
    fresh_restart = False
    iterations = 0
    for iterations in range(1, _GMM_MAX_ITER + 1):
        logp = _gmm_log_prob(rows, weights, means, variances)
        lse = _logsumexp_rows(logp)
        ll = float(counts @ lse)
        converged = bool(trace) and not fresh_restart and ll - trace[-1] < _GMM_TOL
        trace.append(ll)
        fresh_restart = False
        if converged:
            break
        resp = np.exp(logp - lse[:, None]) * counts[:, None]  # responsibility mass of each row's copies
        nk = resp.sum(axis=0)
        dead = np.flatnonzero(nk < 1e-10)
        if dead.size:
            if reinitialized:
                raise ValueError("degenerate GMM component after re-initialization")
            reinitialized = True
            fresh_restart = True
            worst = np.argsort(lse, kind="stable")  # poorly explained rows host new components
            for pos, j in enumerate(dead):
                means[j] = rows[int(worst[pos % worst.size])]
                variances[j] = global_var
                weights[j] = 1.0 / n
            weights = weights / weights.sum()
            continue
        weights = nk / n
        means = (resp.T @ rows) / nk[:, None]
        sq = (resp.T @ (rows * rows)) / nk[:, None]
        variances = np.maximum(sq - means * means, VARIANCE_FLOOR)
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        log_likelihood=tuple(trace),
        iterations_run=iterations,
        seed=seed,
        reinitialized=reinitialized,
    )


def gmm_responsibilities(model: GmmModel, X: np.ndarray) -> np.ndarray:
    """Posterior component probabilities, one row per point."""
    logp = _gmm_log_prob(X, model.weights, model.means, model.variances)
    return np.exp(logp - _logsumexp_rows(logp)[:, None])


# each algorithm's kernel: the fit of k clusters to the points an inverse maps
# onto distinct rows; rules.CLUSTER_ALGORITHMS holds the same names for the config
ALGORITHMS = {"kmeans": _kmeans, "gmm": _gmm}


def cluster_assign(model: Union[KMeansModel, GmmModel], X: Union[np.ndarray, Sequence]) -> np.ndarray:
    """Label each point: nearest centroid (K-Means) or argmax posterior (GMM).

    Ties resolve to the lowest cluster index. A point's label depends on that
    point alone, bit for bit, not on the other rows of ``X``.
    """
    X = _as_matrix(X)
    if isinstance(model, KMeansModel):
        if X.shape[1] != model.centroids.shape[1]:
            raise ValueError("dimension mismatch between model and X")
        # row-local distances, one centroid at a time (not _sq_dist_to's BLAS
        # Gram form, which rounds a row by the other rows of the matrix)
        d2 = np.empty((X.shape[0], model.k))
        for j, center in enumerate(model.centroids):
            d2[:, j] = ((X - center) ** 2).sum(axis=1)
        return np.argmin(d2, axis=1)
    if isinstance(model, GmmModel):
        if X.shape[1] != model.means.shape[1]:
            raise ValueError("dimension mismatch between model and X")
        return np.argmax(gmm_responsibilities(model, X), axis=1)
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def _label_counts(rows: np.ndarray, labels: np.ndarray, n_rows: int, k: int) -> np.ndarray:
    # (n_rows, k) number of points at each distinct row with each label
    return np.bincount(rows * k + labels, minlength=n_rows * k).reshape(n_rows, k).astype(float)


def _silhouette_of_counts(dist: np.ndarray, counts: np.ndarray) -> float:
    """Mean silhouette of points that share positions.

    ``counts[u, c]`` points sit at distinct point u with label c, and
    ``dist`` holds the distances between the distinct points. Each (u, c)
    group is scored once and weighted by its size; labels no point carries
    are ignored.
    """
    sizes = counts.sum(axis=0)
    present = sizes > 0
    if np.count_nonzero(present) < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    counts, sizes = counts[:, present], sizes[present]
    sums = dist @ counts  # (u, c): distance sum from point u to cluster c
    rows, own = np.nonzero(counts)
    weights = counts[rows, own]
    own_size = sizes[own]
    a = sums[rows, own] / np.maximum(own_size - 1, 1)
    means = sums[rows] / sizes
    means[np.arange(rows.size), own] = math.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scored = (own_size > 1) & (denom > 0)  # singletons and a = b = 0 score 0
    s = np.zeros(rows.size)
    s[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(weights @ s / weights.sum())


def silhouette(X: Union[np.ndarray, Sequence], labels: Sequence[int]) -> float:
    """Mean silhouette coefficient with Euclidean distances.

    s(i) = (b - a) / max(a, b); points in singleton clusters score 0, as do
    points with a = b = 0. Identical rows with the same label are scored
    once and weighted by their number.
    """
    X = _as_matrix(X)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] != X.shape[0]:
        raise ValueError("labels must match X rows")
    uniq, codes = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    distinct, inverse = distinct_rows(X)
    counts = _label_counts(inverse, codes, distinct.shape[0], uniq.size)
    return _silhouette_of_counts(_distinct_distances(distinct), counts)


def largest_scored_k(n: int) -> int:
    """The largest k whose clusters of ``n`` rows the silhouette can score:
    it needs some cluster of two rows, so not all ``n`` singletons."""
    return n - 1


def select_k(
    X: Union[np.ndarray, Sequence],
    algo: str,
    k_range: Sequence[int],
    seed: int = 0,
    index: Sequence[int] | None = None,
) -> tuple[Union[KMeansModel, GmmModel], dict[int, float]]:
    """Fit each k in k_range to the points X[index], every row of X if
    ``index`` is None, and keep the best mean silhouette (ties: smallest k).

    Returns the winning fit and the score of every k. Per-k fits use the
    derived seed ``seed + k`` so candidates are independent, and each equals
    the public fit of the points with that k and seed. The points are
    deduplicated once per call: every fit runs on their distinct rows, and
    the silhouette, exact over all points, computes the distances of those
    rows once and scores groups of identical points weighted by their
    number. A k whose fit collapses to one effective cluster scores -inf,
    and so, unfitted, does a k above ``largest_scored_k(n)`` or above the
    number of distinct rows. Raises ValueError when no k scores above -inf.
    """
    distinct, inverse = _points(X, index)
    n = inverse.shape[0]
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 2:
        raise ValueError("k_range must be non-empty, every k at least 2")
    rules.check_cluster_algorithm(algo)

    fit = ALGORITHMS[algo]
    n_distinct = distinct.shape[0]
    most = min(n_distinct, largest_scored_k(n))  # above it some cluster is empty or a duplicate
    dist = _distinct_distances(distinct)
    scores: dict[int, float] = {}
    best, best_score = None, -math.inf
    for k in ks:
        if k > most:
            scores[k] = -math.inf
            continue
        model = fit(distinct, inverse, k, seed + k)
        labels = cluster_assign(model, distinct)[inverse]
        try:
            score = _silhouette_of_counts(dist, _label_counts(inverse, labels, n_distinct, k))
        except ValueError:
            score = -math.inf
        scores[k] = score
        if score > best_score:
            best, best_score = model, score
    if best is None:
        raise ValueError(f"no k in k_range clusters the {n_distinct} distinct rows of X")
    return best, scores


def cluster_catalog(
    labels: Sequence[int],
    X: Union[np.ndarray, Sequence],
    terms: Sequence[str],
    durations: Sequence[float],
    top_n: int = 3,
    index: Sequence[int] | None = None,
) -> list[dict]:
    """Summarize clusters of the points X[index], every row of X if
    ``index`` is None: size, strongest terms and mean duration, where
    ``labels`` and ``durations`` hold one entry per point.

    This backs the exported procedure-catalog CSV.
    """
    X, index = _indexed(X, index)
    labels = np.asarray(labels, dtype=np.intp)
    durations = np.asarray(durations, dtype=float)
    rows = []
    for c in sorted(set(int(v) for v in labels)):
        mask = labels == c
        mean_weights = X[index[mask]].mean(axis=0)
        order = np.argsort(-mean_weights, kind="stable")[:top_n]
        top = [terms[i] for i in order if mean_weights[i] > 0]
        rows.append(
            {
                "cluster_id": c,
                "size": int(mask.sum()),
                "top_terms": "|".join(top),
                "mean_duration_min": float(durations[mask].mean()),
            }
        )
    return rows
