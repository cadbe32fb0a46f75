from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import case_columns, case_table, design_matrix_slow, fit_context_cases
from periop.eventlog import Case, CaseAttributes, PhaseDurations
from periop.features import design_rows, fit_context

# Training draws from the first values of each list; the rows built later
# also hold the rest, which training never saw.
SEXES = ["f", "m", "other"]
DEPARTMENTS = ["ortho", "uro", "unknown", "neuro"]
TEXTS = ["Hüft-TEP", " Hüft-TEP ", "Knie TEP", "", "Appendektomie"]


def attributes(n_known):
    return st.builds(
        CaseAttributes,
        case_id=st.sampled_from(["A", "B"]),
        department=st.sampled_from(DEPARTMENTS[: n_known + 1]),
        age=st.none() | st.integers(0, 130),
        sex=st.sampled_from(SEXES[:n_known]),
        procedure_text=st.sampled_from(TEXTS[: n_known + 2]),
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from(["mean", "group-mean", "ridge", "tree", "gbm"]),
    group_by=st.sampled_from(["cluster", "exact-name"]),
    encoded=st.booleans(),
)
def test_design_rows_scatter_to_the_per_case_matrix(data, family, group_by, encoded):
    """rows[inverse] equals the design matrix built one case at a time, bit
    for bit: unknown sex and department, missing age, cluster -1 and names
    not seen in training included."""
    train = data.draw(st.lists(attributes(2), min_size=1, max_size=12))
    train_clusters = data.draw(st.lists(st.integers(0, 3), min_size=len(train), max_size=len(train)))
    targets = data.draw(st.lists(st.floats(1, 300), min_size=len(train), max_size=len(train)))
    cases = [Case(attributes=a, durations=PhaseDurations(procedure_min=y)) for a, y in zip(train, targets)]
    ctx = fit_context("procedure", case_columns(cases), train_clusters, group_by, target_smoothing=5.0)

    attrs = data.draw(st.lists(attributes(3), min_size=1, max_size=40))
    clusters = data.draw(st.lists(st.integers(-1, 5), min_size=len(attrs), max_size=len(attrs)))
    rows, inverse = design_rows(ctx, family, case_columns(map(Case, attrs)), clusters, encoded=encoded)
    expected = design_matrix_slow(ctx, family, attrs, clusters, encoded=encoded)
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
    cases = [
        Case(
            attributes=data.draw(attributes(3))._replace(
                case_id=i, anesthesia_text=data.draw(texts), planned_induction_min=None, planned_procedure_min=None
            ),
            durations=PhaseDurations(*data.draw(st.tuples(*[st.floats(1, 300)] * 3))),
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
    attrs = [c.attributes for c in cases]
    assert rows[inverse].tobytes() == design_matrix_slow(ctx, family, attrs, clusters).tobytes()
