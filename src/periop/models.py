"""Duration models behind one fit/predict contract, plus split and grid search.

Families: global mean, per-group mean (cluster or exact name), ridge
regression, CART regression tree, random forest and gradient-boosted trees.
Predictions are durations and therefore clamped at 0 minutes. Every fit is
deterministic given its seed.

Each family declares its hyperparameters once, in its class's ``params``
table: name -> (JSON type, default). That table drives the keyword-only
constructor, the checks of ``rules.check_model_params`` and the model file,
which stores each hyperparameter under its name (the ridge's ``lam`` as
``lambda``) beside the fitted state that the family writes and reads itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import rules
from .encoding import distinct_rows


class NotFittedError(RuntimeError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Row-major numeric design matrix with duration targets in minutes."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-dimensional and match X rows")
        if X.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("X and y must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def split_indices(n: int, test_fraction: float = 0.2, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle; floor(n * test_fraction) rows go to the test side."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = rules.held_out(n, test_fraction)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def mae(actual: np.ndarray, predicted: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(predicted) - np.asarray(actual))))


class Model:
    """fit(dataset) then predict(X) -> minutes >= 0.

    A row's prediction depends on that row alone, bit for bit, so predicting
    the distinct rows and scattering them back equals predicting every row.
    The model file holds each of ``params`` under its name, or the one that
    ``file_keys`` gives, then the fitted state: ``_state`` writes it and
    ``_load`` reads it back.
    """

    family = "base"
    params: dict[str, tuple[type, object]] = {}
    file_keys: dict[str, str] = {}
    exact_columns = False  # True: the design must have exactly ``columns`` columns

    def __init__(self, **params) -> None:
        unknown = [name for name in params if name not in self.params]
        if unknown:
            raise TypeError(f"{type(self).__name__} has no parameter {unknown[0]!r}")
        values = {name: params.get(name, default) for name, (_, default) in self.params.items()}
        rules.check_model_params(self.family, values)
        for name, (kind, _) in self.params.items():
            setattr(self, name, kind(values[name]))
        self._fitted = False

    def fit(self, dataset: Dataset) -> "Model":
        raise NotImplementedError

    def _predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _state(self) -> dict:
        raise NotImplementedError

    def _load(self, obj: dict) -> None:
        raise NotImplementedError

    @property
    def columns(self) -> int:
        """The design columns that the fitted state reads: a design needs at
        least that many, or exactly that many where ``exact_columns``."""
        return 0

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} used before fit()")

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        # C order: a row-local reduction rounds a Fortran-ordered row otherwise
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        return np.maximum(self._predict(X), 0.0)

    @classmethod
    def _param_keys(cls) -> list[tuple[str, type, str]]:
        """(name, JSON type, file key) of each hyperparameter."""
        return [(name, kind, cls.file_keys.get(name, name)) for name, (kind, _) in cls.params.items()]

    def state_dict(self) -> dict:
        self._require_fitted()
        return {key: getattr(self, name) for name, _, key in self._param_keys()} | self._state()

    def to_dict(self) -> dict:
        return {"family": self.family, **self.state_dict()}


class MeanModel(Model):
    """Predicts the global training mean everywhere."""

    family = "mean"

    def fit(self, dataset: Dataset) -> "MeanModel":
        self.mean_ = float(dataset.y.mean())
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.mean_)

    def _state(self) -> dict:
        return {"mean": self.mean_}

    def _load(self, obj: dict) -> None:
        self.mean_ = rules.field(obj, "mean", float)


class GroupMeanModel(Model):
    """Per-group mean read from one code column; unseen groups fall back to
    the global mean. Grouping by cluster id or exact-name code covers both
    the cluster predictor and the traditional per-name average (MTA)."""

    family = "group-mean"
    params = {"group_col": (int, 0)}

    def fit(self, dataset: Dataset) -> "GroupMeanModel":
        if not 0 <= self.group_col < dataset.d:
            raise ValueError(f"group_col {self.group_col} out of range")
        codes = dataset.X[:, self.group_col]
        sums: dict[float, float] = {}
        counts: dict[float, int] = {}
        for code, y in zip(codes, dataset.y):
            code = float(code)
            sums[code] = sums.get(code, 0.0) + float(y)
            counts[code] = counts.get(code, 0) + 1
        self.means_ = {c: sums[c] / counts[c] for c in sums}
        self.global_mean_ = float(dataset.y.mean())
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        codes = X[:, self.group_col]
        return np.array([self.means_.get(float(c), self.global_mean_) for c in codes])

    @property
    def columns(self) -> int:
        return self.group_col + 1

    def _state(self) -> dict:
        return {"global_mean": self.global_mean_, "means": sorted([k, v] for k, v in self.means_.items())}

    def _load(self, obj: dict) -> None:
        self.means_ = {float(k): float(v) for k, v in rules.number_array(obj, "means")}
        self.global_mean_ = rules.field(obj, "global_mean", float)


class RidgeModel(Model):
    """Linear least squares with an L2 penalty on the slopes only."""

    family = "ridge"
    params = {"lam": (float, 0.0)}
    file_keys = {"lam": "lambda"}
    exact_columns = True

    def fit(self, dataset: Dataset) -> "RidgeModel":
        if dataset.d < 1:
            raise ValueError("ridge needs at least one feature")
        n, d = dataset.n, dataset.d
        A = np.hstack([dataset.X, np.ones((n, 1))])
        if self.lam == 0.0:
            if np.linalg.matrix_rank(A) < d + 1:
                raise ValueError("singular system at lambda=0; use lambda > 0")
            beta = np.linalg.lstsq(A, dataset.y, rcond=None)[0]
        else:
            # augmented least squares keeps the intercept unpenalized
            penalty = np.hstack([math.sqrt(self.lam) * np.eye(d), np.zeros((d, 1))])
            A_aug = np.vstack([A, penalty])
            b_aug = np.concatenate([dataset.y, np.zeros(d)])
            beta = np.linalg.lstsq(A_aug, b_aug, rcond=None)[0]
        self.coef_ = beta[:d]
        self.intercept_ = float(beta[d])
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        # not X @ coef: BLAS rounds a row's dot product by where the row sits
        # in the matrix, and a row's prediction must depend on that row alone
        return (X * self.coef_).sum(axis=1) + self.intercept_

    @property
    def columns(self) -> int:
        return len(self.coef_)

    def _state(self) -> dict:
        return {"coef": [float(v) for v in self.coef_], "intercept": self.intercept_}

    def _load(self, obj: dict) -> None:
        self.coef_ = np.asarray(rules.number_array(obj, "coef"), dtype=float)
        self.intercept_ = rules.field(obj, "intercept", float)


# ---------------------------------------------------------------------------
# CART regression trees (squared-error criterion) as flat node arrays
# ---------------------------------------------------------------------------

_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


class Tree:
    """Binary regression tree stored as parallel node arrays; node 0 is the root.

    An internal node sends rows with ``x[feature] < threshold`` to node
    ``left`` and the rest to node ``right``. A leaf has ``feature == -1``
    (and ``left == right == -1``) and predicts its ``value``, the mean
    target of its training rows. Children always follow their parent.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.columns = int(feature.max(initial=-1)) + 1  # the design columns it reads
        # Walk tables: a leaf tests column 0 against +inf and both of its
        # branches lead back to itself, so every row can take `_depth` steps.
        # _child[2 * node + 1] is the branch for x < threshold.
        inner = feature >= 0
        node = np.arange(feature.shape[0])
        self._feature = np.where(inner, feature, 0)
        self._threshold = np.where(inner, threshold, np.inf)
        self._child = np.empty(2 * node.shape[0], dtype=np.intp)
        self._child[0::2] = np.where(inner, right, node)
        self._child[1::2] = np.where(inner, left, node)
        self._depth = 0
        level = node[:1]
        while (level := level[inner[level]]).size:
            level = np.concatenate([left[level], right[level]])
            self._depth += 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Index of the leaf that each row of ``X`` reaches."""
        n, d = X.shape
        if d < self.columns:  # a flat index past the row would read the next row
            raise ValueError(f"tree reads column {self.columns - 1} but X has {d} columns")
        flat = X.ravel()
        row_start = np.arange(n) * d
        node = np.zeros(n, dtype=np.intp)
        for _ in range(self._depth):
            goes_left = flat[row_start + self._feature[node]] < self._threshold[node]
            node = self._child[2 * node + goes_left]
        return node

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _TREE_FIELDS}

    @classmethod
    def from_dict(cls, obj) -> "Tree":
        """Rebuild a tree from ``to_dict`` output; raises ValueError for any
        other layout, such as the nested-dict trees of older model files."""
        if not isinstance(obj, dict) or set(obj) != set(_TREE_FIELDS):
            raise ValueError("tree is not in the flat-array layout (feature, threshold, left, right, value)")
        arrays = {k: rules.number_array(obj, k) for k in _TREE_FIELDS}
        feature, left, right = (_node_indices(arrays[k], k) for k in ("feature", "left", "right"))
        try:  # a ragged array of rows
            threshold, value = (np.asarray(arrays[k], dtype=float) for k in ("threshold", "value"))
        except (TypeError, ValueError):
            raise ValueError("tree arrays must hold numbers") from None
        n = feature.shape
        if len(n) != 1 or n[0] < 1 or any(a.shape != n for a in (threshold, left, right, value)):
            raise ValueError("tree arrays must be non-empty lists of one length")
        inner = feature >= 0
        index = np.arange(n[0])
        for child in (left, right):  # children after their parent: every walk ends
            if np.any(inner & ((child <= index) | (child >= n[0]))):
                raise ValueError("tree child index out of range")
        return cls(feature, threshold, left, right, value)


def _node_indices(values: list, key: str) -> np.ndarray:
    """The integer tree field ``key`` as an index array; an entry that does
    not fit one raises ValueError naming ``key``."""
    try:
        return np.asarray(rules.integers(values, key), dtype=np.intp)
    except OverflowError:
        raise ValueError(f"bad entry in {key!r}: an integer out of the index range") from None


def _bin_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin every column of the distinct rows of ``X`` at its sorted distinct values.

    Returns ``(values, codes, inverse)``; row i of ``X`` is distinct row
    ``inverse[i]``. ``values`` is (d, width), row f holding column f's
    distinct values padded with inf, width the largest distinct count.
    ``codes[u, f] = f * width + position of distinct row u's value in
    column f``: all columns share one bin space, so a single bincount
    histograms every column. Binning at distinct values is exact: every
    split the sorted scan can make falls between two bins.
    """
    distinct, inverse = distinct_rows(X)
    m, d = distinct.shape
    columns = [np.unique(distinct[:, f], return_inverse=True) for f in range(d)]
    width = max((len(column_values) for column_values, _ in columns), default=1)
    values = np.full((d, width), np.inf)
    codes = np.empty((m, d), dtype=np.intp)
    for f, (column_values, position) in enumerate(columns):
        values[f, : len(column_values)] = column_values
        codes[:, f] = f * width + position.ravel()
    return values, codes, inverse


def _row_sums(inverse: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """(3, m): the number of rows, Σy and Σy² of each of ``m`` distinct rows."""
    return np.stack(
        [
            np.bincount(inverse, minlength=m),
            np.bincount(inverse, weights=y, minlength=m),
            np.bincount(inverse, weights=y * y, minlength=m),
        ]
    )


def _histograms(codes: np.ndarray, sums: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """(3, size): the row count, Σy and Σy² of the distinct ``rows`` per bin."""
    flat = np.take(codes, rows, axis=0).ravel()
    weights = np.repeat(np.take(sums, rows, axis=1), codes.shape[1], axis=1)
    return np.stack([np.bincount(flat, weights=w, minlength=size) for w in weights])


def _best_split(
    hist: np.ndarray,
    values: np.ndarray,
    totals: np.ndarray,
    min_leaf: int,
    candidate: np.ndarray | None = None,
) -> tuple[int, float, int] | None:
    """Lowest-SSE split of one node: ``(feature, threshold, code)``.

    ``hist`` holds the node's row count, Σy and Σy² per bin (see
    ``_histograms``) and ``totals`` the same three over the node. A
    candidate threshold lies midway between two consecutive non-empty bins
    of a feature, of a ``candidate`` feature if that mask is given; ``code``
    is the lower bin, so rows with a code at most ``code`` go left. Returns
    None when no candidate leaves ``min_leaf`` rows on each side.
    """
    d, width = values.shape
    n_node, total1, total2 = totals
    occupied = np.flatnonzero(hist[0])
    lo, hi = occupied[:-1], occupied[1:]
    usable = lo // width == hi // width
    if candidate is not None:
        usable &= candidate[lo // width]
    lo, hi = lo[usable], hi[usable]
    if lo.size == 0:
        return None
    # cumulative sums run within each feature's own bins, so no other
    # feature's sums enter the rounding
    nl, c1, c2 = np.cumsum(hist.reshape(3, d, width), axis=2).reshape(3, -1)[:, lo]
    nr = n_node - nl
    flat_values = values.ravel()
    thr = (flat_values[lo] + flat_values[hi]) / 2.0
    valid = (flat_values[lo] < thr) & (nl >= min_leaf) & (nr >= min_leaf)
    if not valid.any():
        return None
    sse = (c2 - c1 * c1 / nl) + ((total2 - c2) - (total1 - c1) ** 2 / nr)
    sse[~valid] = np.inf
    pos = int(np.argmin(sse))
    return int(lo[pos] // width), float(thr[pos]), int(lo[pos])


def _build_tree(
    values: np.ndarray,
    codes: np.ndarray,
    sums: np.ndarray,
    max_depth: int,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    feature_fraction: float = 1.0,
) -> tuple[Tree, np.ndarray]:
    """Greedy variance-minimizing tree on weighted distinct rows.

    ``codes`` are the binned distinct rows (see ``_bin_columns``) and
    ``sums`` their row counts, Σy and Σy² (see ``_row_sums``); ``min_leaf``
    counts rows. Returns the tree and the leaf of every distinct row. Nodes
    are split depth first, left child first; with ``feature_fraction < 1``
    each split draws its candidate features from ``rng``. The split with the
    lowest computed SSE wins; ties go to the lowest feature, then the lowest
    threshold. On data whose sums are exact (such as small integers) that is
    the lowest true SSE; otherwise two splits that make the same partition
    may differ in the last bits and the lower rounding wins.

    Histograms cover all features. Of two children that may still split,
    only the one with fewer distinct rows is histogrammed; the other's
    histogram is the parent's minus that one (Ke et al., LightGBM, 2017).
    """
    m, d = codes.shape
    n_sub = d
    if feature_fraction < 1.0:
        n_sub = max(1, int(math.ceil(feature_fraction * d)))
    nodes: dict[str, list] = {name: [] for name in _TREE_FIELDS}

    def new_node() -> int:
        for name, blank in zip(_TREE_FIELDS, (-1, 0.0, -1, -1, 0.0)):
            nodes[name].append(blank)
        return len(nodes["value"]) - 1

    def may_split(depth: int, totals: np.ndarray) -> bool:
        n_node, total1, total2 = totals
        node_sse = max(total2 - total1 * total1 / n_node, 0.0)
        return depth < max_depth and n_node >= 2 * min_leaf and node_sse > 1e-12

    leaf_of = np.empty(m, dtype=np.intp)
    stack = [(np.arange(m), 0, new_node(), sums.sum(axis=1), None)]
    while stack:
        rows, depth, node, totals, hist = stack.pop()
        nodes["value"][node] = totals[1] / totals[0]
        split = None
        if may_split(depth, totals):
            candidate = None
            if n_sub < d:
                assert rng is not None
                candidate = np.zeros(d, dtype=bool)
                candidate[rng.choice(d, size=n_sub, replace=False)] = True
            if hist is None:
                hist = _histograms(codes, sums, rows, values.size)
            split = _best_split(hist, values, totals, min_leaf, candidate)
        if split is None:
            leaf_of[rows] = node
            continue
        feature, threshold, code = split
        goes_left = codes[rows, feature] <= code
        children = [rows[goes_left], rows[~goes_left]]
        child_totals = [np.take(sums, part, axis=1).sum(axis=1) for part in children]
        child_hists = [None, None]
        needed = [may_split(depth + 1, t) for t in child_totals]
        if any(needed):
            small = int(children[1].size < children[0].size)
            child_hists[small] = _histograms(codes, sums, children[small], values.size)
            if needed[1 - small]:
                child_hists[1 - small] = hist - child_hists[small]
        left, right = new_node(), new_node()
        nodes["feature"][node] = feature
        nodes["threshold"][node] = threshold
        nodes["left"][node] = left
        nodes["right"][node] = right
        stack.append((children[1], depth + 1, right, child_totals[1], child_hists[1]))
        stack.append((children[0], depth + 1, left, child_totals[0], child_hists[0]))
    tree = Tree(
        feature=np.asarray(nodes["feature"], dtype=np.intp),
        threshold=np.asarray(nodes["threshold"], dtype=float),
        left=np.asarray(nodes["left"], dtype=np.intp),
        right=np.asarray(nodes["right"], dtype=np.intp),
        value=np.asarray(nodes["value"], dtype=float),
    )
    return tree, leaf_of


class TreeModel(Model):
    """CART regression tree; leaves predict the mean of their rows."""

    family = "tree"
    params = {"max_depth": (int, 8), "min_leaf": (int, 5)}

    def fit(self, dataset: Dataset) -> "TreeModel":
        values, codes, inverse = _bin_columns(dataset.X)
        sums = _row_sums(inverse, dataset.y, codes.shape[0])
        self.tree_, _ = _build_tree(values, codes, sums, self.max_depth, self.min_leaf)
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self.tree_.value[self.tree_.apply(X)]

    @property
    def columns(self) -> int:
        return self.tree_.columns

    def _state(self) -> dict:
        return {"tree": self.tree_.to_dict()}

    def _load(self, obj: dict) -> None:
        self.tree_ = Tree.from_dict(rules.field(obj, "tree", dict))


class ForestModel(Model):
    """Bootstrap ensemble of trees with per-split feature subsampling."""

    family = "forest"
    params = {"n_trees": (int, 100), "max_depth": (int, 8), "min_leaf": (int, 5),
              "feature_fraction": (float, 1.0), "bootstrap": (bool, True), "seed": (int, 0)}

    def fit(self, dataset: Dataset) -> "ForestModel":
        values, codes, inverse = _bin_columns(dataset.X)
        m = codes.shape[0]
        sums = _row_sums(inverse, dataset.y, m)
        self.trees_ = []
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        for tree_seed in seeds:
            rng = np.random.default_rng(tree_seed)
            codes_b, sums_b = codes, sums
            if self.bootstrap:  # weighted by draws; distinct rows never drawn are dropped
                rows = rng.integers(0, dataset.n, size=dataset.n)
                sums_b = _row_sums(inverse[rows], dataset.y[rows], m)
                drawn = np.flatnonzero(sums_b[0])
                codes_b, sums_b = codes[drawn], sums_b[:, drawn]
            tree, _ = _build_tree(
                values, codes_b, sums_b, self.max_depth, self.min_leaf, rng, self.feature_fraction
            )
            self.trees_.append(tree)
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for tree in self.trees_:  # fixed reduction order keeps results exact
            out += tree.value[tree.apply(X)]
        return out / self.n_trees

    @property
    def columns(self) -> int:
        return max((tree.columns for tree in self.trees_), default=0)

    def _state(self) -> dict:
        return {"trees": [tree.to_dict() for tree in self.trees_]}

    def _load(self, obj: dict) -> None:
        self.trees_ = [Tree.from_dict(tree) for tree in rules.field(obj, "trees", list)]
        if len(self.trees_) != self.n_trees:  # the prediction averages over n_trees
            raise ValueError(f"expected {self.n_trees} trees, as 'n_trees' says, got {len(self.trees_)}")


class GbmModel(Model):
    """Squared-error gradient boosting: residual trees added at learning_rate.

    ``stage_mse_[k]`` is the training MSE after k trees (entry 0: the mean).
    """

    family = "gbm"
    params = {"n_trees": (int, 200), "learning_rate": (float, 0.1), "max_depth": (int, 3), "min_leaf": (int, 5)}

    def fit(self, dataset: Dataset) -> "GbmModel":
        values, codes, inverse = _bin_columns(dataset.X)
        self.base_ = float(dataset.y.mean())
        self.trees_ = []
        current = np.full(dataset.n, self.base_)
        residual = dataset.y - current
        stage_mse = [float(np.mean(residual**2))]
        for _ in range(self.n_trees):
            # the residual's sums come from its rows: a closed form would cancel
            sums = _row_sums(inverse, residual, codes.shape[0])
            tree, leaf_of = _build_tree(values, codes, sums, self.max_depth, self.min_leaf)
            self.trees_.append(tree)
            # each training row's leaf is known from the build: no re-walk
            current = current + self.learning_rate * tree.value[leaf_of[inverse]]
            residual = dataset.y - current
            stage_mse.append(float(np.mean(residual**2)))
        self.stage_mse_ = tuple(stage_mse)
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], self.base_)
        for tree in self.trees_:
            out += self.learning_rate * tree.value[tree.apply(X)]
        return out

    @property
    def columns(self) -> int:
        return max((tree.columns for tree in self.trees_), default=0)

    def _state(self) -> dict:
        trees = [tree.to_dict() for tree in self.trees_]
        return {"base": self.base_, "stage_mse": list(self.stage_mse_), "trees": trees}

    def _load(self, obj: dict) -> None:
        self.base_ = rules.field(obj, "base", float)
        self.stage_mse_ = tuple(map(float, rules.number_array(obj, "stage_mse", ())))
        self.trees_ = [Tree.from_dict(tree) for tree in rules.field(obj, "trees", list)]


_CONSTRUCTORS: dict[str, type[Model]] = {
    "mean": MeanModel,
    "group-mean": GroupMeanModel,
    "ridge": RidgeModel,
    "tree": TreeModel,
    "forest": ForestModel,
    "gbm": GbmModel,
}

# Default hyperparameter grids for grid_search.
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "mean": {},
    "group-mean": {},
    "ridge": {"lam": [0.01, 0.1, 1.0]},
    "tree": {"max_depth": [4, 8], "min_leaf": [5]},
    "forest": {"n_trees": [100], "max_depth": [8, 12], "feature_fraction": [0.6, 1.0]},
    "gbm": {"n_trees": [50, 200], "learning_rate": [0.05, 0.1], "max_depth": [2, 3]},
}


def make_model(family: str, params: Mapping | None = None) -> Model:
    if family not in _CONSTRUCTORS:
        raise ValueError(f"unknown model family: {family!r}")
    return _CONSTRUCTORS[family](**dict(params or {}))


def seeded_params(family: str, params: Mapping, seed: int) -> dict:
    """``params`` with ``seed`` added when the family's params table declares
    a seed (the forest's); a seed that ``params`` holds is kept."""
    return {"seed": seed, **params} if "seed" in _CONSTRUCTORS[family].params else dict(params)


def model_from_dict(obj: dict) -> Model:
    """Rebuild a fitted model from its JSON dict; raises KeyError for a
    missing field and ValueError for a field of the wrong JSON type."""
    family = rules.field(obj, "family", str)
    if family not in _CONSTRUCTORS:
        raise ValueError(f"unknown model family: {family!r}")
    cls = _CONSTRUCTORS[family]
    model = cls(**{name: rules.field(obj, key, kind) for name, kind, key in cls._param_keys()})
    model._load(obj)
    model._fitted = True
    return model


# ---------------------------------------------------------------------------
# Grid search with k-fold cross-validation (MAE scoring)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """A grid over ``family``'s parameters; each candidate is ``base``, the
    configured values, with one combination of the grid's values on top."""

    family: str
    grid: Mapping[str, Sequence] = field(default_factory=dict)
    cv_folds: int = 5
    seed: int = 0
    base: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _CONSTRUCTORS:
            raise ValueError(f"unknown model family: {self.family!r}")
        rules.check_cv_folds(self.cv_folds)
        for name, values in self.grid.items():
            if len(values) == 0:
                raise ValueError(f"empty candidate list for parameter {name!r}")

    def candidates(self) -> list[dict]:
        """The grid's combinations in grid order, without ``base``."""
        if not self.grid:
            return [{}]
        names = list(self.grid)
        combos = itertools.product(*(self.grid[n] for n in names))
        return [dict(zip(names, values)) for values in combos]


def grid_search(
    spec: GridSpec,
    y: Sequence[float],
    fold_design: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[dict, list[dict]]:
    """Exhaustive grid search scored by mean CV MAE: ``(best_params,
    cv_table)``, the grid values of the best candidate and, per candidate in
    grid order, its grid values under ``params`` with its ``mean_mae`` or,
    for a candidate that failed, its ``error``, the other one None.

    Folds come from a seeded shuffle of the rows of ``y``, the targets.
    ``fold_design(fit_idx, val_idx)`` gives a fold's fitting and validation
    matrices, built once before any candidate is scored; a design that fits
    its encoders on the fitting rows alone keeps validation targets out of
    the fold. Each candidate is fitted with ``spec.base`` under its grid
    values. Failing candidates are excluded; ties go to the first candidate
    in deterministic grid order.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < spec.cv_folds:
        raise ValueError("not enough rows for the requested number of folds")
    perm = np.random.default_rng(spec.seed).permutation(y.shape[0])
    folds = []
    for val_idx in np.array_split(perm, spec.cv_folds):
        val_idx = np.sort(val_idx)
        fits = np.ones(y.shape[0], dtype=bool)  # np.setdiff1d would import numpy.ma
        fits[val_idx] = False
        fit_idx = np.flatnonzero(fits)
        X_fit, X_val = fold_design(fit_idx, val_idx)
        folds.append((Dataset(X=X_fit, y=y[fit_idx]), X_val, y[val_idx]))

    cv_table: list[dict] = []
    best: dict | None = None
    for params in spec.candidates():
        row = {"params": params, "mean_mae": None, "error": None}
        cv_table.append(row)
        try:
            model_params = seeded_params(spec.family, {**spec.base, **params}, spec.seed)
            fold_maes = [
                mae(y_val, make_model(spec.family, model_params).fit(fit).predict(X_val))
                for fit, X_val, y_val in folds
            ]
        except Exception as exc:  # candidate-level failure, not a crash
            row["error"] = f"{type(exc).__name__}: {exc}"
            continue
        row["mean_mae"] = float(np.mean(fold_maes))
        if best is None or row["mean_mae"] < best["mean_mae"]:
            best = row
    if best is None:
        raise ValueError("all grid candidates failed")
    return dict(best["params"]), cv_table
