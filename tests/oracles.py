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


def build_tree_slow(X, y, max_depth, min_leaf, rng=None, feature_fraction=1.0):
    """Greedy variance-minimizing tree as nested dicts, by a sorted scan of
    every candidate feature at every node.

    Leaves are ``{"value": mean}``, internal nodes ``{"feature",
    "threshold", "left", "right"}``; rows with x < threshold go left. Nodes
    are split depth first, left child first; with ``feature_fraction < 1``
    each split draws ``ceil(feature_fraction * d)`` sorted features from
    ``rng``. The first lowest SSE in (feature, threshold) order wins.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    orders = [np.argsort(X[:, f], kind="stable") for f in range(d)]
    n_sub = d
    if feature_fraction < 1.0:
        n_sub = max(1, int(math.ceil(feature_fraction * d)))
    root = {}
    stack = [(np.ones(n, dtype=bool), 0, root)]
    while stack:
        mask, depth, node = stack.pop()
        n_node = int(mask.sum())
        ys_node = y[mask]
        total1 = float(ys_node.sum())
        total2 = float((ys_node * ys_node).sum())
        node_mean = total1 / n_node
        node_sse = max(total2 - total1 * total1 / n_node, 0.0)
        if depth >= max_depth or n_node < 2 * min_leaf or node_sse <= 1e-12:
            node["value"] = node_mean
            continue
        if n_sub < d:
            features = np.sort(rng.choice(d, size=n_sub, replace=False))
        else:
            features = range(d)
        best = None  # (sse, feature, threshold)
        for f in features:
            idx = orders[f][mask[orders[f]]]
            xs = X[idx, f]
            ys = y[idx]
            c1 = np.cumsum(ys)[:-1]
            c2 = np.cumsum(ys * ys)[:-1]
            nl = np.arange(1, n_node)
            nr = n_node - nl
            thr = (xs[:-1] + xs[1:]) / 2.0
            valid = (xs[:-1] < thr) & (nl >= min_leaf) & (nr >= min_leaf)
            if not valid.any():
                continue
            sse = (c2 - c1 * c1 / nl) + ((total2 - c2) - (total1 - c1) ** 2 / nr)
            sse[~valid] = np.inf
            pos = int(np.argmin(sse))
            if best is None or sse[pos] < best[0]:
                best = (float(sse[pos]), int(f), float(thr[pos]))
        if best is None:
            node["value"] = node_mean
            continue
        _, feature, threshold = best
        node["feature"] = feature
        node["threshold"] = threshold
        node["left"] = {}
        node["right"] = {}
        goes_left = X[:, feature] < threshold
        stack.append((mask & ~goes_left, depth + 1, node["right"]))
        stack.append((mask & goes_left, depth + 1, node["left"]))
    return root


def tree_predict_slow(node, X):
    """Walk a ``build_tree_slow`` tree recursively for every row of X."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])

    def walk(node, idx):
        if idx.size == 0:
            return
        if "value" in node:
            out[idx] = node["value"]
            return
        goes_left = X[idx, node["feature"]] < node["threshold"]
        walk(node["left"], idx[goes_left])
        walk(node["right"], idx[~goes_left])

    walk(node, np.arange(X.shape[0]))
    return out
