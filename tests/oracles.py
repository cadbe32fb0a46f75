"""Brute-force reference implementations, kept independent of the package
internals: they evaluate the documented formulas directly and exist only to
cross-check the real implementations.
"""

import math

import numpy as np


def tfidf_dense(corpus, max_terms=None):
    """Dense TF-IDF matrix computed straight from the formula.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, weights tf * idf, rows
    L2-normalized. Returns (matrix, ordered terms).
    """
    n = len(corpus)
    df = {}
    for doc in corpus:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    terms = sorted(df)
    if max_terms is not None and len(terms) > max_terms:
        terms = sorted(sorted(terms, key=lambda t: (-df[t], t))[:max_terms])
    col = {t: j for j, t in enumerate(terms)}
    out = np.zeros((n, len(terms)))
    for i, doc in enumerate(corpus):
        for term in doc:
            if term in col:
                out[i, col[term]] += 1.0
        for term in set(doc):
            if term in col:
                out[i, col[term]] *= math.log((1 + n) / (1 + df[term])) + 1
        norm = math.sqrt(float(np.sum(out[i] ** 2)))
        if norm > 0:
            out[i] /= norm
    return out, terms


def silhouette_slow(X, labels):
    """Mean silhouette via the O(n^2) definition, plain loops."""
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    n = len(labels)
    clusters = sorted(set(labels))
    total = 0.0
    for i in range(n):
        own = labels[i]
        own_points = [j for j in range(n) if labels[j] == own and j != i]
        if not own_points:
            continue
        a = sum(math.dist(X[i], X[j]) for j in own_points) / len(own_points)
        b = math.inf
        for c in clusters:
            if c == own:
                continue
            members = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(math.dist(X[i], X[j]) for j in members) / len(members))
        denom = max(a, b)
        total += 0.0 if denom == 0 else (b - a) / denom
    return total / n


def select_k_rows(X, fit_labels, k_range, seed, sample_limit=None):
    """k selection scored row by row: every k in k_range is fitted through
    ``fit_labels(X, k, seed + k)`` (labels of all rows) and its mean
    silhouette taken with ``silhouette_slow`` over the rows of one seeded
    subsample. A k above the number of distinct rows, or whose subsample
    holds a single cluster, scores -inf. Returns (best k or None, scores);
    ties go to the smallest k.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if sample_limit is not None and n > sample_limit:
        idx = np.sort(np.random.default_rng(seed).choice(n, size=sample_limit, replace=False))
    else:
        idx = np.arange(n)
    n_distinct = len({tuple(row) for row in X.tolist()})
    scores = {}
    for k in sorted(set(k_range)):
        if k > n_distinct:
            scores[k] = -math.inf
            continue
        labels = [int(v) for v in np.asarray(fit_labels(X, k, seed + k))[idx]]
        scores[k] = silhouette_slow(X[idx], labels) if len(set(labels)) > 1 else -math.inf
    best = max(scores, key=lambda k: (scores[k], -k))
    return (best if scores[best] > -math.inf else None), scores


def quantile_slow(samples, q):
    """Linear interpolation between order statistics at rank (n-1)*q."""
    values = sorted(float(v) for v in samples)
    h = (len(values) - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (h - lo) * (values[hi] - values[lo])


def target_encode_slow(categories, targets, m):
    """Smoothed target encoding by direct per-category summation."""
    prior = sum(targets) / len(targets)
    table = {}
    for cat in set(categories):
        ys = [t for c, t in zip(categories, targets) if c == cat]
        table[cat] = (len(ys) * (sum(ys) / len(ys)) + m * prior) / (len(ys) + m)
    return table, prior


def kmeans_best_two_partition(points):
    """Exhaustive best 2-partition of 1-D points by total squared error."""
    pts = [float(p) for p in points]
    best = None
    for mask in range(1, 2 ** len(pts) - 1):
        a = [p for i, p in enumerate(pts) if mask & (1 << i)]
        b = [p for i, p in enumerate(pts) if not mask & (1 << i)]
        ma = sum(a) / len(a)
        mb = sum(b) / len(b)
        sse = sum((p - ma) ** 2 for p in a) + sum((p - mb) ** 2 for p in b)
        if best is None or sse < best[0]:
            best = (sse, sorted((ma, mb)))
    return best
