"""Duration models behind one fit/predict contract, plus split and grid search.

Families: global mean, per-group mean (cluster or exact name), ridge
regression, CART regression tree, random forest and gradient-boosted trees.
Predictions are durations and therefore clamped at 0 minutes. Every fit is
deterministic given its seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoding import target_encode_apply, target_encode_fit


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
    n_test = int(math.floor(n * test_fraction))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def mae(actual: np.ndarray, predicted: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(predicted) - np.asarray(actual))))


class Model:
    """fit(dataset) then predict(X) -> minutes >= 0."""

    family = "base"

    def __init__(self) -> None:
        self._fitted = False

    def fit(self, dataset: Dataset) -> "Model":
        raise NotImplementedError

    def _predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} used before fit()")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        return np.maximum(self._predict(X), 0.0)

    def state_dict(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"family": self.family, **self.state_dict()}


class MeanModel(Model):
    """Predicts the global training mean everywhere."""

    family = "mean"

    def __init__(self) -> None:
        super().__init__()
        self.mean_ = 0.0

    def fit(self, dataset: Dataset) -> "MeanModel":
        self.mean_ = float(dataset.y.mean())
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.mean_)

    def state_dict(self) -> dict:
        return {"mean": self.mean_}


class GroupMeanModel(Model):
    """Per-group mean read from one code column; unseen groups fall back to
    the global mean. Grouping by cluster id or exact-name code covers both
    the cluster predictor and the traditional per-name average (MTA)."""

    family = "group-mean"

    def __init__(self, group_col: int = 0) -> None:
        super().__init__()
        self.group_col = int(group_col)
        self.means_: dict[float, float] = {}
        self.global_mean_ = 0.0

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

    def state_dict(self) -> dict:
        return {
            "group_col": self.group_col,
            "global_mean": self.global_mean_,
            "means": sorted([k, v] for k, v in self.means_.items()),
        }


class RidgeModel(Model):
    """Linear least squares with an L2 penalty on the slopes only."""

    family = "ridge"

    def __init__(self, lam: float = 0.0) -> None:
        super().__init__()
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        self.lam = float(lam)
        self.coef_ = np.empty(0)
        self.intercept_ = 0.0

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
        return X @ self.coef_ + self.intercept_

    def state_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "coef": [float(v) for v in self.coef_],
            "intercept": self.intercept_,
        }


# ---------------------------------------------------------------------------
# CART regression trees (squared-error criterion)
# ---------------------------------------------------------------------------


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_leaf: int,
    rng: np.random.Generator | None = None,
    feature_fraction: float = 1.0,
) -> dict:
    """Greedy variance-minimizing binary tree as nested dicts.

    Split ties resolve to the lowest feature index, then the lowest
    threshold. Rows with x < threshold go left.
    """
    n, d = X.shape
    orders = [np.argsort(X[:, f], kind="stable") for f in range(d)]
    n_sub = d
    if feature_fraction < 1.0:
        n_sub = max(1, int(math.ceil(feature_fraction * d)))
    root: dict = {}
    stack: list[tuple[np.ndarray, int, dict]] = [(np.ones(n, dtype=bool), 0, root)]
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
            assert rng is not None
            features = np.sort(rng.choice(d, size=n_sub, replace=False))
        else:
            features = range(d)
        best: tuple[float, int, float] | None = None  # (sse, feature, threshold)
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
        left_mask = mask & (X[:, feature] < threshold)
        right_mask = mask & ~(X[:, feature] < threshold)
        stack.append((right_mask, depth + 1, node["right"]))
        stack.append((left_mask, depth + 1, node["left"]))
    return root


def _tree_predict(node: dict, X: np.ndarray, out: np.ndarray, idx: np.ndarray) -> None:
    if idx.size == 0:
        return
    if "value" in node:
        out[idx] = node["value"]
        return
    goes_left = X[idx, node["feature"]] < node["threshold"]
    _tree_predict(node["left"], X, out, idx[goes_left])
    _tree_predict(node["right"], X, out, idx[~goes_left])


class TreeModel(Model):
    """CART regression tree; leaves predict the mean of their rows."""

    family = "tree"

    def __init__(self, max_depth: int = 8, min_leaf: int = 5) -> None:
        super().__init__()
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.root_: dict = {}

    def fit(self, dataset: Dataset) -> "TreeModel":
        self.root_ = _build_tree(dataset.X, dataset.y, self.max_depth, self.min_leaf)
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        _tree_predict(self.root_, X, out, np.arange(X.shape[0]))
        return out

    def state_dict(self) -> dict:
        return {"max_depth": self.max_depth, "min_leaf": self.min_leaf, "tree": self.root_}


class ForestModel(Model):
    """Bootstrap ensemble of trees with per-split feature subsampling."""

    family = "forest"

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int = 8,
        min_leaf: int = 5,
        feature_fraction: float = 1.0,
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.feature_fraction = float(feature_fraction)
        self.bootstrap = bool(bootstrap)
        self.seed = int(seed)
        self.trees_: list[dict] = []

    def fit(self, dataset: Dataset) -> "ForestModel":
        self.trees_ = []
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        for tree_seed in seeds:
            rng = np.random.default_rng(tree_seed)
            if self.bootstrap:
                rows = rng.integers(0, dataset.n, size=dataset.n)
                Xb, yb = dataset.X[rows], dataset.y[rows]
            else:
                Xb, yb = dataset.X, dataset.y
            self.trees_.append(
                _build_tree(Xb, yb, self.max_depth, self.min_leaf, rng, self.feature_fraction)
            )
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        buf = np.empty(X.shape[0])
        for tree in self.trees_:  # fixed reduction order keeps results exact
            _tree_predict(tree, X, buf, np.arange(X.shape[0]))
            out += buf
        return out / self.n_trees

    def state_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "feature_fraction": self.feature_fraction,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "trees": self.trees_,
        }


class GbmModel(Model):
    """Squared-error gradient boosting: residual trees added at learning_rate."""

    family = "gbm"

    def __init__(
        self,
        n_trees: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_leaf: int = 5,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        self.n_trees = int(n_trees)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.seed = int(seed)
        self.base_ = 0.0
        self.trees_: list[dict] = []
        self.stage_mse_: tuple[float, ...] = ()

    def fit(self, dataset: Dataset) -> "GbmModel":
        self.base_ = float(dataset.y.mean())
        self.trees_ = []
        current = np.full(dataset.n, self.base_)
        residual = dataset.y - current
        stage_mse = [float(np.mean(residual**2))]
        buf = np.empty(dataset.n)
        all_rows = np.arange(dataset.n)
        for _ in range(self.n_trees):
            tree = _build_tree(dataset.X, residual, self.max_depth, self.min_leaf)
            self.trees_.append(tree)
            _tree_predict(tree, dataset.X, buf, all_rows)
            current = current + self.learning_rate * buf
            residual = dataset.y - current
            stage_mse.append(float(np.mean(residual**2)))
        self.stage_mse_ = tuple(stage_mse)
        self._fitted = True
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], self.base_)
        buf = np.empty(X.shape[0])
        rows = np.arange(X.shape[0])
        for tree in self.trees_:
            _tree_predict(tree, X, buf, rows)
            out += self.learning_rate * buf
        return out

    def state_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "seed": self.seed,
            "base": self.base_,
            "trees": self.trees_,
        }


_CONSTRUCTORS: dict[str, Callable[..., Model]] = {
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


def model_from_dict(obj: dict) -> Model:
    """Rebuild a fitted model from its JSON dict."""
    family = obj.get("family")
    if family == "mean":
        model = MeanModel()
        model.mean_ = float(obj["mean"])
    elif family == "group-mean":
        model = GroupMeanModel(group_col=int(obj["group_col"]))
        model.means_ = {float(k): float(v) for k, v in obj["means"]}
        model.global_mean_ = float(obj["global_mean"])
    elif family == "ridge":
        model = RidgeModel(lam=float(obj["lambda"]))
        model.coef_ = np.asarray(obj["coef"], dtype=float)
        model.intercept_ = float(obj["intercept"])
    elif family == "tree":
        model = TreeModel(max_depth=int(obj["max_depth"]), min_leaf=int(obj["min_leaf"]))
        model.root_ = obj["tree"]
    elif family == "forest":
        model = ForestModel(
            n_trees=int(obj["n_trees"]),
            max_depth=int(obj["max_depth"]),
            min_leaf=int(obj["min_leaf"]),
            feature_fraction=float(obj["feature_fraction"]),
            bootstrap=bool(obj["bootstrap"]),
            seed=int(obj["seed"]),
        )
        model.trees_ = obj["trees"]
    elif family == "gbm":
        model = GbmModel(
            n_trees=int(obj["n_trees"]),
            learning_rate=float(obj["learning_rate"]),
            max_depth=int(obj["max_depth"]),
            min_leaf=int(obj["min_leaf"]),
            seed=int(obj["seed"]),
        )
        model.base_ = float(obj["base"])
        model.trees_ = obj["trees"]
    else:
        raise ValueError(f"unknown model family: {family!r}")
    model._fitted = True
    return model


# ---------------------------------------------------------------------------
# Grid search with k-fold cross-validation (MAE scoring)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodeColumn:
    """A design-matrix column holding category codes that must be target
    encoded per CV fold (fit on fold-train only)."""

    col: int
    m: float = 40.0


@dataclass(frozen=True)
class GridSpec:
    family: str
    grid: Mapping[str, Sequence] = field(default_factory=dict)
    cv_folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in _CONSTRUCTORS:
            raise ValueError(f"unknown model family: {self.family!r}")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        for name, values in self.grid.items():
            if len(values) == 0:
                raise ValueError(f"empty candidate list for parameter {name!r}")

    def candidates(self) -> list[dict]:
        if not self.grid:
            return [{}]
        names = list(self.grid)
        combos = itertools.product(*(self.grid[n] for n in names))
        return [dict(zip(names, values)) for values in combos]


@dataclass(frozen=True)
class CvRow:
    params: dict
    fold_maes: tuple[float, ...]
    mean_mae: float
    error: str | None = None


@dataclass(frozen=True)
class GridSearchResult:
    best_params: dict
    cv_table: tuple[CvRow, ...]


def _apply_fold_encoding(
    train: Dataset,
    fit_idx: np.ndarray,
    val_idx: np.ndarray,
    encode_cols: Sequence[EncodeColumn],
) -> tuple[Dataset, np.ndarray]:
    X_fit = train.X[fit_idx].copy()
    X_val = train.X[val_idx].copy()
    y_fit = train.y[fit_idx]
    for spec in encode_cols:
        enc = target_encode_fit(list(train.X[fit_idx, spec.col]), list(y_fit), m=spec.m)
        X_fit[:, spec.col] = target_encode_apply(enc, list(train.X[fit_idx, spec.col]))
        X_val[:, spec.col] = target_encode_apply(enc, list(train.X[val_idx, spec.col]))
    return Dataset(X=X_fit, y=y_fit), X_val


def grid_search(
    spec: GridSpec,
    train: Dataset,
    encode_cols: Sequence[EncodeColumn] = (),
) -> GridSearchResult:
    """Exhaustive grid search scored by mean CV MAE.

    Folds come from a seeded shuffle. Any target-encoded columns are refit
    per fold on the fold-train rows only, so fold validation targets never
    leak into the encoding. Failing candidates are excluded; ties go to the
    first candidate in deterministic grid order.
    """
    if train.n < spec.cv_folds:
        raise ValueError("not enough rows for the requested number of folds")
    perm = np.random.default_rng(spec.seed).permutation(train.n)
    folds = np.array_split(perm, spec.cv_folds)

    rows: list[CvRow] = []
    best: CvRow | None = None
    for params in spec.candidates():
        fold_maes: list[float] = []
        error: str | None = None
        try:
            for i in range(spec.cv_folds):
                val_idx = np.sort(folds[i])
                fit_idx = np.sort(np.concatenate([folds[j] for j in range(spec.cv_folds) if j != i]))
                fit_ds, X_val = _apply_fold_encoding(train, fit_idx, val_idx, encode_cols)
                model_params = dict(params)
                if spec.family in ("forest", "gbm"):
                    model_params.setdefault("seed", spec.seed)
                model = make_model(spec.family, model_params).fit(fit_ds)
                fold_maes.append(mae(train.y[val_idx], model.predict(X_val)))
        except Exception as exc:  # candidate-level failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            rows.append(CvRow(params=dict(params), fold_maes=(), mean_mae=math.inf, error=error))
            continue
        row = CvRow(params=dict(params), fold_maes=tuple(fold_maes), mean_mae=float(np.mean(fold_maes)))
        rows.append(row)
        if best is None or row.mean_mae < best.mean_mae:
            best = row
    if best is None:
        raise ValueError("all grid candidates failed")
    return GridSearchResult(best_params=dict(best.params), cv_table=tuple(rows))
