import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_tree_rows, build_tree_slow, gbm_fit_rows, tree_predict_slow
from periop import rules
from periop.config import MODEL_KEYS
from periop.models import (
    DEFAULT_GRIDS,
    Dataset,
    GridSpec,
    NotFittedError,
    Tree,
    TreeModel,
    _bin_columns,
    _build_tree,
    _row_sums,
    grid_search,
    mae,
    make_model,
    model_from_dict,
    split_indices,
)


def dataset(X, y, **kw):
    return Dataset(X=np.asarray(X, dtype=float), y=np.asarray(y, dtype=float), **kw)


def linear_dataset(n=40, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 2))
    y = 3.0 * X[:, 0] - 1.5 * X[:, 1] + 20.0 + noise * rng.normal(size=n)
    return dataset(X, y)


def row_folds(ds):
    """The fold design of a dataset whose rows need no per-fold fitting."""
    return lambda fit, val: (ds.X[fit], ds.X[val])


def test_dataset_validation():
    with pytest.raises(ValueError):
        dataset([[1.0], [np.inf]], [1.0, 2.0])
    with pytest.raises(ValueError):
        dataset([[1.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        dataset(np.zeros((0, 2)), [])


def test_split_sizes_and_partition():
    train, test = split_indices(10, 0.2, seed=4)
    assert len(train) == 8 and len(test) == 2
    assert sorted(train.tolist() + test.tolist()) == list(range(10))


def test_split_deterministic_and_seed_sensitive():
    a1, b1 = split_indices(100, 0.2, seed=5)
    a2, b2 = split_indices(100, 0.2, seed=5)
    a3, b3 = split_indices(100, 0.2, seed=6)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(b1, b3)
    assert sorted(a1.tolist() + b1.tolist()) == list(range(100))


def test_mean_model():
    model = make_model("mean").fit(dataset(np.zeros((3, 0)), [10.0, 20.0, 30.0]))
    assert model.predict(np.zeros((5, 0))).tolist() == [20.0] * 5


def test_group_mean_with_fallback():
    ds = dataset([[0.0], [0.0], [1.0]], [10.0, 20.0, 40.0])
    model = make_model("group-mean", {"group_col": 0}).fit(ds)
    preds = model.predict(np.array([[0.0], [1.0], [2.0]]))
    assert preds[0] == pytest.approx(15.0)
    assert preds[1] == pytest.approx(40.0)
    assert preds[2] == pytest.approx(70.0 / 3.0)


def test_predict_before_fit_raises():
    with pytest.raises(NotFittedError):
        make_model("mean").predict(np.zeros((1, 0)))
    with pytest.raises(NotFittedError):
        TreeModel().predict(np.zeros((1, 1)))


def test_predictions_clamped_non_negative():
    model = make_model("mean").fit(dataset(np.zeros((2, 0)), [-5.0, -7.0]))
    assert model.predict(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


def test_ridge_exact_linear():
    model = make_model("ridge", {"lam": 0.0}).fit(dataset([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0]))
    assert model.coef_[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept_ == pytest.approx(1.0, abs=1e-9)


def test_ridge_huge_lambda_collapses_to_mean():
    ds = linear_dataset(noise=0.1)
    model = make_model("ridge", {"lam": 1e9}).fit(ds)
    assert np.allclose(model.predict(ds.X), ds.y.mean(), atol=1e-3)
    assert np.allclose(model.coef_, 0.0, atol=1e-6)


def test_ridge_duplicated_column_splits_weight():
    ds = linear_dataset(noise=0.05)
    dup = make_model("ridge", {"lam": 0.5}).fit(dataset(np.hstack([ds.X, ds.X[:, :1]]), ds.y))
    assert np.all(np.isfinite(dup.coef_))
    # the duplicated column carries two equal half-weights; folding their sum
    # back onto a single column reproduces the same predictions
    assert dup.coef_[0] == pytest.approx(dup.coef_[2], abs=1e-8)
    X_new = np.random.default_rng(1).uniform(0, 10, size=(10, 2))
    X_dup = np.hstack([X_new, X_new[:, :1]])
    folded = X_new @ np.array([dup.coef_[0] + dup.coef_[2], dup.coef_[1]]) + dup.intercept_
    assert np.allclose(np.maximum(folded, 0), dup.predict(X_dup), atol=1e-8)


def test_ridge_singular_at_zero_lambda():
    X = np.ones((5, 2))  # duplicated constant columns, collinear with intercept
    with pytest.raises(ValueError, match="lambda"):
        make_model("ridge", {"lam": 0.0}).fit(dataset(X, np.arange(5)))


def single_leaf(value):
    return {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [value]}


def test_tree_depth_zero_is_mean_leaf():
    ds = dataset([[0.0], [1.0]], [4.0, 8.0])
    model = make_model("tree", {"max_depth": 0, "min_leaf": 1}).fit(ds)
    assert model.tree_.to_dict() == single_leaf(6.0)


def test_tree_best_split_matches_enumeration():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    model = make_model("tree", {"max_depth": 1, "min_leaf": 1}).fit(dataset(X, y))
    tree = model.tree_
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(0.5)
    left, right = tree.left[0], tree.right[0]
    assert tree.feature[left] == -1 and tree.value[left] == 0.0
    assert tree.feature[right] == -1 and tree.value[right] == 10.0
    # exhaustive check: weighted SSE of the chosen split is minimal
    def split_sse(col, thr):
        left = y[X[:, col] < thr]
        right = y[X[:, col] >= thr]
        if len(left) == 0 or len(right) == 0:
            return np.inf
        return np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)

    candidates = [split_sse(0, t) for t in (0.5,)]
    assert min(candidates) == pytest.approx(0.0)


def test_tree_constant_target_single_leaf():
    ds = dataset(np.random.default_rng(0).normal(size=(15, 2)), np.full(15, 7.0))
    model = make_model("tree", {"max_depth": 6, "min_leaf": 1}).fit(ds)
    assert model.tree_.to_dict() == single_leaf(7.0)


def test_tree_min_leaf_respected():
    rng = np.random.default_rng(3)
    ds = dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
    model = make_model("tree", {"max_depth": 6, "min_leaf": 5}).fit(ds)
    tree = model.tree_

    def check(node, rows):
        if tree.feature[node] < 0:
            assert len(rows) >= 5
            return
        mask = ds.X[rows, tree.feature[node]] < tree.threshold[node]
        check(tree.left[node], rows[mask])
        check(tree.right[node], rows[~mask])

    check(0, np.arange(30))


def nested(tree, node=0):
    """A flat tree in the nested-dict form of ``build_tree_slow``."""
    if tree.feature[node] < 0:
        return {"value": float(tree.value[node])}
    return {
        "feature": int(tree.feature[node]),
        "threshold": float(tree.threshold[node]),
        "left": nested(tree, tree.left[node]),
        "right": nested(tree, tree.right[node]),
    }


@st.composite
def integer_data(draw, max_rows=40, max_target=20):
    """Small-integer X and y, so every sum the split search forms is exact.
    Columns repeat values; some are constant, some are the 0/1 complement of
    another column (equal partitions, so exact SSE ties)."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 4))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["values", "constant", "complement"]))
        if kind == "constant":
            columns.append([draw(st.integers(-3, 3))] * n)
        elif kind == "complement" and columns:
            source = draw(st.integers(0, len(columns) - 1))
            columns.append([1 - min(max(v, 0), 1) for v in columns[source]])
        else:
            columns.append(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, max_target), min_size=n, max_size=n))
    return np.array(columns, dtype=float).T, np.array(y, dtype=float)


@settings(max_examples=300, deadline=None)
@given(data=integer_data(), max_depth=st.integers(0, 5), min_leaf=st.integers(1, 3))
def test_tree_matches_sorted_scan_oracle(data, max_depth, min_leaf):
    X, y = data
    model = make_model("tree", {"max_depth": max_depth, "min_leaf": min_leaf}).fit(Dataset(X=X, y=y))
    oracle = build_tree_slow(X, y, max_depth, min_leaf)
    assert nested(model.tree_) == oracle
    X_new = np.vstack([X, X + 0.5, -X])
    assert np.array_equal(model._predict(X_new), tree_predict_slow(oracle, X_new))


@settings(max_examples=150, deadline=None)
@given(
    data=integer_data(),
    bootstrap=st.booleans(),
    feature_fraction=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_forest_matches_sorted_scan_oracle(data, bootstrap, feature_fraction, seed):
    X, y = data
    params = {"n_trees": 3, "max_depth": 3, "min_leaf": 1, "feature_fraction": feature_fraction,
              "bootstrap": bootstrap, "seed": seed}
    model = make_model("forest", params).fit(Dataset(X=X, y=y))
    expected = np.zeros(X.shape[0])
    for tree, tree_seed in zip(model.trees_, np.random.SeedSequence(seed).spawn(3)):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, len(y), size=len(y)) if bootstrap else np.arange(len(y))
        oracle = build_tree_slow(X[rows], y[rows], 3, 1, rng, feature_fraction)
        assert nested(tree) == oracle
        expected += tree_predict_slow(oracle, X)
    assert np.array_equal(model._predict(X), expected / 3)


@settings(max_examples=300, deadline=None)
@given(data=integer_data(), max_depth=st.integers(0, 5), min_leaf=st.integers(1, 3))
def test_weighted_tree_equals_per_row_engine(data, max_depth, min_leaf):
    """Distinct rows weighted by count, with subtracted sibling histograms,
    build the per-row engine's tree; each row's leaf is its distinct row's."""
    X, y = data
    values, codes, inverse = _bin_columns(X)
    tree, leaf_of = _build_tree(values, codes, _row_sums(inverse, y, codes.shape[0]), max_depth, min_leaf)
    oracle, oracle_leaf_of = build_tree_rows(X, y, max_depth, min_leaf)
    assert tree.to_dict() == oracle.to_dict()
    assert np.array_equal(leaf_of[inverse], oracle_leaf_of)


@settings(max_examples=150, deadline=None)
@given(
    data=integer_data(),
    bootstrap=st.booleans(),
    feature_fraction=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_weighted_forest_equals_per_row_engine(data, bootstrap, feature_fraction, seed):
    X, y = data
    params = {"n_trees": 3, "max_depth": 3, "min_leaf": 2, "feature_fraction": feature_fraction,
              "bootstrap": bootstrap, "seed": seed}
    model = make_model("forest", params).fit(Dataset(X=X, y=y))
    for tree, tree_seed in zip(model.trees_, np.random.SeedSequence(seed).spawn(3)):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, len(y), size=len(y)) if bootstrap else np.arange(len(y))
        oracle, _ = build_tree_rows(X[rows], y[rows], 3, 2, rng, feature_fraction)
        assert tree.to_dict() == oracle.to_dict()


@settings(max_examples=200, deadline=None)
@given(data=integer_data(max_rows=6, max_target=3), learning_rate=st.sampled_from([0.5, 1.0]))
def test_weighted_gbm_equals_per_row_engine(data, learning_rate):
    """Two boosting stages on at most 6 rows. The targets are multiples of
    60 * 120**2, so the mean, both stages' leaf means (divisions by at most
    6) and the residuals both trees fit (after updates times 0.5 or 1) are
    integers below 2**53: every sum is exact, and the weighted fit must
    match the per-row one bit for bit."""
    X, y = data
    y = y * (60 * 120**2)
    params = {"n_trees": 2, "learning_rate": learning_rate, "max_depth": 2, "min_leaf": 1}
    model = make_model("gbm", params).fit(Dataset(X=X, y=y))
    base, trees, stage_mse = gbm_fit_rows(X, y, 2, learning_rate, 2, 1)
    assert model.base_ == base
    assert [tree.to_dict() for tree in model.trees_] == [tree.to_dict() for tree in trees]
    assert list(model.stage_mse_) == stage_mse


@settings(max_examples=200, deadline=None)
@given(
    data=integer_data(),
    k=st.sampled_from([2, 4, 8]),
    max_depth=st.integers(0, 5),
    min_leaf=st.integers(1, 3),
)
def test_tree_of_repeated_rows_scales_min_leaf(data, k, max_depth, min_leaf):
    """Every row repeated k times is the same distinct rows at k times the
    weight: with min_leaf times k the tree is the same. k is a power of two,
    so every sum and SSE scales exactly and no rounding can move a tie."""
    X, y = data

    def fit(X, y, min_leaf):
        return make_model("tree", {"max_depth": max_depth, "min_leaf": min_leaf}).fit(Dataset(X=X, y=y))

    repeated = fit(np.repeat(X, k, axis=0), np.repeat(y, k), min_leaf * k)
    assert repeated.tree_.to_dict() == fit(X, y, min_leaf).tree_.to_dict()


@settings(max_examples=100, deadline=None)
@given(
    X=st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2), min_size=2, max_size=30),
    y_seed=st.integers(0, 2**16),
    learning_rate=st.sampled_from([0.1, 0.5, 1.0]),
)
def test_gbm_training_update_equals_predict(X, y_seed, learning_rate):
    """The fit updates its training predictions from each row's leaf; at
    every stage that must equal predicting the training rows with the trees
    so far."""
    X = np.asarray(X)
    y = np.random.default_rng(y_seed).uniform(0, 100, size=X.shape[0])
    params = {"n_trees": 6, "learning_rate": learning_rate, "max_depth": 2, "min_leaf": 1}
    model = make_model("gbm", params).fit(Dataset(X=X, y=y))
    trees = model.trees_
    for k in range(len(trees) + 1):
        model.trees_ = trees[:k]
        assert model.stage_mse_[k] == float(np.mean((y - model._predict(X)) ** 2))


FAMILY_PARAMS = {
    "mean": {},
    "group-mean": {"group_col": 0},
    "ridge": {"lam": 0.1},
    "tree": {"max_depth": 3, "min_leaf": 2},
    "forest": {"n_trees": 4, "max_depth": 3, "min_leaf": 2, "feature_fraction": 0.7, "seed": 3},
    "gbm": {"n_trees": 8, "learning_rate": 0.3, "max_depth": 2, "min_leaf": 2},
}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(list(FAMILY_PARAMS)),
    seed=st.integers(0, 2**16),
    n_distinct=st.integers(1, 40),
    d=st.integers(1, 16),
    n=st.integers(1, 300),
)
def test_predicting_distinct_rows_equals_predicting_every_row(family, seed, n_distinct, d, n):
    """The CLI predicts each distinct design row once and scatters the
    result; that must equal predicting the full matrix bit for bit, so every
    family's prediction of a row depends on that row alone: not on the other
    rows of the matrix, nor on its memory order."""
    rng = np.random.default_rng(seed)
    # a few values per column, so trees split and rows repeat
    X = rng.choice([-2.5, 0.0, 0.1, 1.0, 3.7], size=(60, d))
    y = rng.uniform(0, 100, size=60)
    model = make_model(family, FAMILY_PARAMS[family]).fit(Dataset(X=X, y=y))
    rows = rng.normal(size=(n_distinct, d)) * rng.choice([1e-3, 1.0, 1e3])
    rows[: n_distinct // 2] = X[: n_distinct // 2]
    inverse = rng.integers(0, n_distinct, size=n)
    expected = model.predict(rows[inverse]).tobytes()
    assert model.predict(rows)[inverse].tobytes() == expected
    assert model.predict(np.asfortranarray(rows))[inverse].tobytes() == expected
    assert model.predict(np.asfortranarray(rows[inverse])).tobytes() == expected


def test_forest_degenerate_equals_tree():
    ds = linear_dataset(n=60, seed=2, noise=1.0)
    tree = make_model("tree", {"max_depth": 5, "min_leaf": 2}).fit(ds)
    forest = make_model(
        "forest", {"n_trees": 1, "max_depth": 5, "min_leaf": 2, "feature_fraction": 1.0, "bootstrap": False, "seed": 0}
    ).fit(ds)
    assert np.array_equal(tree.predict(ds.X), forest.predict(ds.X))


def test_forest_predictions_within_target_range():
    rng = np.random.default_rng(5)
    ds = dataset(rng.normal(size=(80, 3)), rng.uniform(10, 200, size=80))
    model = make_model(
        "forest", {"n_trees": 20, "max_depth": 6, "min_leaf": 2, "feature_fraction": 0.6, "seed": 3}
    ).fit(ds)
    preds = model.predict(rng.normal(size=(50, 3)))
    assert preds.min() >= ds.y.min() - 1e-9
    assert preds.max() <= ds.y.max() + 1e-9


def test_forest_seeded_determinism():
    ds = linear_dataset(n=50, seed=8, noise=2.0)
    a = make_model(
        "forest", {"n_trees": 10, "max_depth": 4, "min_leaf": 2, "feature_fraction": 0.5, "seed": 21}
    ).fit(ds)
    b = make_model(
        "forest", {"n_trees": 10, "max_depth": 4, "min_leaf": 2, "feature_fraction": 0.5, "seed": 21}
    ).fit(ds)
    X = np.random.default_rng(0).uniform(0, 10, size=(20, 2))
    assert np.array_equal(a.predict(X), b.predict(X))


def test_gbm_zero_trees_is_global_mean():
    ds = linear_dataset(n=30, seed=1, noise=1.0)
    gbm = make_model("gbm", {"n_trees": 0}).fit(ds)
    mean = make_model("mean").fit(ds)
    assert np.array_equal(gbm.predict(ds.X), mean.predict(ds.X))


def test_group_mean_single_group_is_global_mean():
    ds = dataset(np.zeros((6, 1)), [5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    grouped = make_model("group-mean", {"group_col": 0}).fit(ds)
    mean = make_model("mean").fit(ds)
    assert np.array_equal(grouped.predict(ds.X), mean.predict(np.zeros((6, 0))))


def test_gbm_interpolates_distinct_rows():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(8, 2))
    y = rng.uniform(5, 50, size=8)
    model = make_model(
        "gbm", {"n_trees": 80, "learning_rate": 1.0, "max_depth": 4, "min_leaf": 1}
    ).fit(dataset(X, y))
    assert mae(y, model.predict(X)) < 1e-9


def test_gbm_stagewise_loss_non_increasing():
    for seed in range(6):
        rng = np.random.default_rng(200 + seed)
        ds = dataset(rng.normal(size=(60, 3)), rng.uniform(0, 100, size=60))
        model = make_model(
            "gbm", {"n_trees": 25, "learning_rate": 0.3, "max_depth": 3, "min_leaf": 2}
        ).fit(ds)
        trace = model.stage_mse_
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("family", ["tree", "forest", "gbm"])
@pytest.mark.parametrize("params", [{"max_depth": -1}, {"min_leaf": 0}])
def test_tree_families_reject_the_same_shapes(family, params):
    with pytest.raises(ValueError, match=next(iter(params))):
        make_model(family, params)


def test_gbm_learning_rate_validation():
    ds = linear_dataset(n=10)
    with pytest.raises(ValueError):
        make_model("gbm", {"n_trees": 1, "learning_rate": 0.0}).fit(ds)
    with pytest.raises(ValueError):
        make_model("gbm", {"n_trees": 1, "learning_rate": 1.5}).fit(ds)


@pytest.mark.parametrize(
    "factory",
    [
        lambda ds: make_model("mean").fit(ds),
        lambda ds: make_model("group-mean").fit(dataset(np.round(ds.X[:, :1]), ds.y)),
        lambda ds: make_model("ridge", {"lam": 0.3}).fit(ds),
        lambda ds: make_model("tree", {"max_depth": 4, "min_leaf": 2}).fit(ds),
        lambda ds: make_model("forest", {"n_trees": 5, "max_depth": 3, "min_leaf": 2, "seed": 1}).fit(ds),
        lambda ds: make_model(
            "gbm", {"n_trees": 8, "learning_rate": 0.2, "max_depth": 2, "min_leaf": 2}
        ).fit(ds),
    ],
)
def test_model_json_roundtrip(factory):
    ds = linear_dataset(n=40, seed=7, noise=3.0)
    model = factory(ds)
    clone = model_from_dict(model.to_dict())
    X = ds.X if clone.family != "mean" else np.zeros((ds.n, 0))
    if clone.family == "group-mean":
        X = np.round(ds.X[:, :1])
    if clone.family == "mean":
        X = np.zeros((5, 0))
    preds = model.predict(X)
    assert np.allclose(preds, clone.predict(X))
    assert np.all(np.isfinite(preds)) and np.all(preds >= 0)
    assert model_from_dict(model.to_dict()).to_dict() == model.to_dict()


def test_every_named_parameter_is_declared_by_its_family():
    """A rule, a config key or a grid that names a parameter its family does
    not declare would check, set or tune nothing."""
    named = {
        *rules._PARAM_RULES,
        *((family, name) for family, keys in MODEL_KEYS.items() for name in keys),
        *((family, name) for family, grid in DEFAULT_GRIDS.items() for name in grid),
    }
    declared = {(family, name) for family in FAMILY_PARAMS for name in make_model(family).params}
    assert named <= declared, named - declared


@pytest.mark.parametrize("family", list(FAMILY_PARAMS))
def test_constructor_takes_only_declared_keywords(family):
    cls = type(make_model(family))
    with pytest.raises(TypeError):
        cls(no_such_parameter=1)
    with pytest.raises(TypeError):
        cls(1)
    with pytest.raises(TypeError):
        make_model(family, {**FAMILY_PARAMS[family], "no_such_parameter": 1})


@pytest.mark.parametrize("family", list(FAMILY_PARAMS))
def test_unfitted_model_has_no_file(family):
    with pytest.raises(NotFittedError):
        make_model(family, FAMILY_PARAMS[family]).to_dict()


def test_gbm_stage_mse_round_trips():
    ds = linear_dataset(n=40, seed=7, noise=3.0)
    model = make_model("gbm", {"n_trees": 5, "learning_rate": 0.3, "max_depth": 2, "min_leaf": 2}).fit(ds)
    assert len(model.stage_mse_) == 6
    obj = model.to_dict()
    assert model_from_dict(obj).stage_mse_ == model.stage_mse_
    del obj["stage_mse"]  # model files without the trace read as empty
    assert model_from_dict(obj).stage_mse_ == ()


def test_gbm_file_with_seed_key_loads_and_predicts_the_same():
    # older versions stored an unused "seed" in every GBM model
    ds = linear_dataset(n=40, seed=7, noise=3.0)
    model = make_model("gbm", {"n_trees": 8, "learning_rate": 0.2, "max_depth": 2, "min_leaf": 2}).fit(ds)
    obj = model.to_dict()
    assert "seed" not in obj
    clone = model_from_dict({**obj, "seed": 11})
    assert "seed" not in clone.to_dict()
    assert np.array_equal(clone.predict(ds.X), model.predict(ds.X))


@pytest.mark.parametrize(
    "tree",
    [
        {"value": 5.0},  # the nested-dict layout of older model files
        {"feature": 0, "threshold": 1.5, "left": {"value": 1.0}, "right": {"value": 2.0}},
        {**single_leaf(1.0), "value": [1.0, 2.0]},
        {"feature": [0, -1, -1], "threshold": [0.5, 0, 0], "left": [1, -1, -1], "right": [0, -1, -1],
         "value": [0.0, 1.0, 2.0]},  # a child before its parent would loop
        {**single_leaf(1.0), "threshold": ["a"]},
        # int() and numpy would truncate these to feature 0, children 1 and 2
        {"feature": [0.7, -1, -1], "threshold": [0.5, 0, 0], "left": [1, -1, -1], "right": [2, -1, -1],
         "value": [0.0, 1.0, 2.0]},
        {"feature": [0, -1, -1], "threshold": [0.5, 0, 0], "left": [1.2, -1, -1], "right": [2, -1, -1],
         "value": [0.0, 1.0, 2.0]},
        {"feature": [0, -1, -1], "threshold": [0.5, 0, 0], "left": [1, -1, -1], "right": [2.9, -1, -1],
         "value": [0.0, 1.0, 2.0]},
        # numpy raises OverflowError for an integer beyond the index range
        {"feature": [10**30, -1, -1], "threshold": [0.5, 0, 0], "left": [1, -1, -1], "right": [2, -1, -1],
         "value": [0.0, 1.0, 2.0]},
        {"feature": [0, -1, -1], "threshold": [0.5, 0, 0], "left": [1, -1, -1], "right": [-(2**63) - 1, -1, -1],
         "value": [0.0, 1.0, 2.0]},
    ],
)
def test_tree_from_dict_rejects_other_layouts(tree):
    with pytest.raises(ValueError):
        Tree.from_dict(tree)
    with pytest.raises(ValueError):
        model_from_dict({"family": "tree", "max_depth": 2, "min_leaf": 1, "tree": tree})


def test_tree_predict_rejects_too_few_columns():
    ds = dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 5.0]], [1.0, 2.0, 9.0])
    model = make_model("tree", {"max_depth": 2, "min_leaf": 1}).fit(ds)
    with pytest.raises(ValueError, match="column"):
        model.predict(np.zeros((2, 0)))


def test_grid_search_single_candidate():
    ds = linear_dataset(n=30, seed=3, noise=0.5)
    result = grid_search(GridSpec(family="ridge", grid={"lam": [0.5]}, cv_folds=3, seed=0), ds.y, row_folds(ds))
    assert result.best_params == {"lam": 0.5}
    assert len(result.cv_table) == 1


def test_grid_search_prefers_sane_lambda():
    ds = linear_dataset(n=60, seed=4, noise=0.5)
    spec = GridSpec(family="ridge", grid={"lam": [0.1, 1e9]}, cv_folds=5, seed=1)
    result = grid_search(spec, ds.y, row_folds(ds))
    assert result.best_params == {"lam": 0.1}


def test_grid_search_tie_keeps_first():
    ds = linear_dataset(n=30, seed=5, noise=0.5)
    spec = GridSpec(family="ridge", grid={"lam": [0.2, 0.2]}, cv_folds=3, seed=2)
    result = grid_search(spec, ds.y, row_folds(ds))
    assert result.best_params == {"lam": 0.2}
    assert result.cv_table[0].mean_mae == result.cv_table[1].mean_mae


def test_grid_search_invariant_to_candidate_order():
    ds = linear_dataset(n=60, seed=4, noise=0.5)
    fwd = GridSpec(family="ridge", grid={"lam": [0.1, 10.0, 1e6]}, cv_folds=4, seed=1)
    rev = GridSpec(family="ridge", grid={"lam": [1e6, 10.0, 0.1]}, cv_folds=4, seed=1)
    fwd, rev = (grid_search(spec, ds.y, row_folds(ds)) for spec in (fwd, rev))
    assert fwd.best_params == rev.best_params == {"lam": 0.1}


def test_grid_search_excludes_failing_candidates():
    X = np.ones((20, 2))  # singular at lam=0
    ds = dataset(X, np.arange(20))
    spec = GridSpec(family="ridge", grid={"lam": [0.0, 1.0]}, cv_folds=4, seed=0)
    result = grid_search(spec, ds.y, row_folds(ds))
    assert result.best_params == {"lam": 1.0}
    failed = [row for row in result.cv_table if row.error is not None]
    assert len(failed) == 1 and failed[0].params == {"lam": 0.0}
    with pytest.raises(ValueError):
        grid_search(GridSpec(family="ridge", grid={"lam": [0.0]}, cv_folds=4, seed=0), ds.y, row_folds(ds))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(family="nope", grid={})
    with pytest.raises(ValueError):
        GridSpec(family="ridge", grid={"lam": []})
    with pytest.raises(ValueError):
        GridSpec(family="ridge", grid={"lam": [1.0]}, cv_folds=1)
