from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import design_matrix_slow
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
    ctx = fit_context("procedure", cases, train_clusters, group_by, target_smoothing=5.0)

    attrs = data.draw(st.lists(attributes(3), min_size=1, max_size=40))
    clusters = data.draw(st.lists(st.integers(-1, 5), min_size=len(attrs), max_size=len(attrs)))
    rows, inverse = design_rows(ctx, family, attrs, clusters, encoded=encoded)
    expected = design_matrix_slow(ctx, family, attrs, clusters, encoded=encoded)
    assert rows.shape[0] <= len(attrs)
    assert rows[inverse].shape == expected.shape
    assert rows[inverse].tobytes() == expected.tobytes()
