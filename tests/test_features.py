import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import case_columns, case_table, design_matrix_slow, fit_context_cases, fold_design_raw_codes
from periop.eventlog import Case
from periop.features import design_rows, fit_context, fold_design
from periop.models import GridSpec, grid_search

# Training draws from the first values of each list; the rows built later
# also hold the rest, which training never saw.
SEXES = ["f", "m", "other"]
DEPARTMENTS = ["ortho", "uro", "unknown", "neuro"]
TEXTS = ["Hüft-TEP", " Hüft-TEP ", "Knie TEP", "", "Appendektomie"]


def attributes(n_known):
    """Case records without durations, each field from its own strategy."""
    return st.builds(
        Case,
        case_id=st.sampled_from(["A", "B"]),
        department=st.sampled_from(DEPARTMENTS[: n_known + 1]),
        age=st.none() | st.integers(0, 130),
        sex=st.sampled_from(SEXES[:n_known]),
        procedure_text=st.sampled_from(TEXTS[: n_known + 2]),
        anesthesia_text=st.text(),
        positioning_text=st.text(),
        planned_induction_min=st.none(),
        planned_procedure_min=st.none(),
        induction_min=st.none(),
        preparation_min=st.none(),
        procedure_min=st.none(),
        duplicate_anchors=st.just(()),
        n_events=st.just(0),
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(["mean", "group-mean", "ridge", "tree", "gbm"]),
    group_by=st.sampled_from(["cluster", "exact-name"]),
)
def test_design_rows_scatter_to_the_per_case_matrix(data, family, group_by):
    """rows[inverse] equals the design matrix built one case at a time, bit
    for bit: unknown sex and department, missing age, cluster -1 and names
    not seen in training included."""
    train = data.draw(st.lists(attributes(2), min_size=1, max_size=12))
    train_clusters = data.draw(st.lists(st.integers(0, 3), min_size=len(train), max_size=len(train)))
    targets = data.draw(st.lists(st.floats(1, 300), min_size=len(train), max_size=len(train)))
    cases = [a._replace(procedure_min=y) for a, y in zip(train, targets)]
    ctx = fit_context("procedure", case_columns(cases), train_clusters, group_by, target_smoothing=5.0)

    attrs = data.draw(st.lists(attributes(3), min_size=1, max_size=40))
    clusters = data.draw(st.lists(st.integers(-1, 5), min_size=len(attrs), max_size=len(attrs)))
    rows, inverse = design_rows(ctx, family, case_columns(attrs), clusters)
    expected = design_matrix_slow(ctx, family, attrs, clusters)
    assert rows.shape[0] <= len(attrs)
    assert rows[inverse].shape == expected.shape
    assert rows[inverse].tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    phase=st.sampled_from(["procedure", "induction"]),
    family=st.sampled_from(["mean", "group-mean", "ridge", "tree", "gbm"]),
    group_by=st.sampled_from(["cluster", "exact-name"]),
)
def test_features_from_the_case_table_equal_the_case_record_version(data, phase, family, group_by):
    """On a case table, whose ages read back as floats and whose texts are
    its vocabulary's strings, fit_context gives the context the Case-record
    version fits, and design_rows the bytes that the plain record values
    give, which scatter to the per-case matrix."""
    ids = data.draw(st.lists(st.text(max_size=3), unique=True, min_size=1, max_size=20))
    texts = st.sampled_from(TEXTS)
    minutes = st.floats(1, 300)
    cases = [
        data.draw(attributes(3))._replace(
            case_id=i,
            anesthesia_text=data.draw(texts),
            induction_min=data.draw(minutes),
            preparation_min=data.draw(minutes),
            procedure_min=data.draw(minutes),
        )
        for i in ids
    ]
    clusters = data.draw(st.lists(st.integers(-1, 3), min_size=len(cases), max_size=len(cases)))
    table = case_table(cases)
    ctx = fit_context(phase, table, clusters, group_by, target_smoothing=5.0)
    assert ctx.to_dict() == fit_context_cases(phase, cases, clusters, group_by, 5.0).to_dict()
    rows, inverse = design_rows(ctx, family, table, clusters)
    expected_rows, expected_inverse = design_rows(ctx, family, case_columns(cases), clusters)
    assert (rows.tobytes(), inverse.tobytes()) == (expected_rows.tobytes(), expected_inverse.tobytes())
    assert rows[inverse].tobytes() == design_matrix_slow(ctx, family, cases, clusters).tobytes()


def training_fold(data):
    """Training cases with their clusters and durations, and one CV fold of
    them: the sorted fitting and validation rows, neither empty."""
    attrs = data.draw(st.lists(attributes(2), min_size=2, max_size=20))
    clusters = data.draw(st.lists(st.integers(-1, 3), min_size=len(attrs), max_size=len(attrs)))
    targets = data.draw(st.lists(st.floats(1, 300), min_size=len(attrs), max_size=len(attrs)))
    val = sorted(data.draw(st.sets(st.integers(0, len(attrs) - 1), min_size=1, max_size=len(attrs) - 1)))
    fit = sorted(set(range(len(attrs))) - set(val))
    return attrs, clusters, targets, np.array(fit), np.array(val)


def training_columns(attrs, targets):
    """The case columns of ``attrs``, each with its procedure duration."""
    return case_columns([a._replace(procedure_min=y) for a, y in zip(attrs, targets)])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(["ridge", "tree", "gbm"]),
    group_by=st.sampled_from(["cluster", "exact-name"]),
)
def test_fold_design_equals_the_raw_code_fold_encoding(data, family, group_by):
    """A fold of fold_design equals, byte for byte, the raw-code design whose
    cluster codes are target encoded on the fold's fitting rows."""
    attrs, clusters, targets, fit, val = training_fold(data)
    cases = training_columns(attrs, targets)
    ctx = fit_context("procedure", cases, clusters, group_by, target_smoothing=5.0)
    X_fit, X_val = fold_design(ctx, family, cases, clusters)(fit, val)
    expected_fit, expected_val = fold_design_raw_codes(ctx, family, attrs, clusters, targets, fit, val)
    assert (X_fit.shape, X_val.shape) == (expected_fit.shape, expected_val.shape)
    assert (X_fit.tobytes(), X_val.tobytes()) == (expected_fit.tobytes(), expected_val.tobytes())


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(["mean", "group-mean", "ridge", "tree", "gbm"]),
    group_by=st.sampled_from(["cluster", "exact-name"]),
)
def test_fold_design_ignores_validation_durations(data, family, group_by):
    """Changing the durations of a fold's validation rows, and fitting the
    context again on them, leaves that fold's matrices unchanged."""
    attrs, clusters, targets, fit, val = training_fold(data)
    changed = list(targets)
    for i in val:
        changed[i] = data.draw(st.floats(1, 300))
    folds = []
    for values in (targets, changed):
        cases = training_columns(attrs, values)
        ctx = fit_context("procedure", cases, clusters, group_by, target_smoothing=5.0)
        folds.append([X.tobytes() for X in fold_design(ctx, family, cases, clusters)(fit, val)])
    assert folds[0] == folds[1]


def test_grid_search_refits_encoders_per_fold():
    """Grid search on fold_design's folds: with the cluster's target encoding
    refitted on each fold's fitting rows, a GBM learns durations that follow
    the cluster."""
    rng = np.random.default_rng(9)
    clusters = rng.integers(0, 4, size=60).tolist()
    targets = (np.array(clusters) * 25.0 + rng.normal(0, 1.0, size=60)).tolist()
    cases = training_columns([Case(case_id=str(i)) for i in range(60)], targets)
    ctx = fit_context("procedure", cases, clusters, "cluster", target_smoothing=2.0)
    spec = GridSpec(family="gbm", grid={"n_trees": [20]}, cv_folds=4, seed=3)
    _, cv_table = grid_search(spec, targets, fold_design(ctx, "gbm", cases, clusters))
    assert cv_table[0]["error"] is None
    assert cv_table[0]["mean_mae"] < 10.0
