import csv
import io
import json
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periop.cleaning import plausibility_filter
from periop.eventlog import ANCHOR_EVENTS, assemble_cases, parse_case_attributes, parse_events, _parse_timestamp
from oracles import case_table, generate_log_slow
from periop.cli import derive_seed
from periop.synthgen import SynthConfig, _case_id_rank, _minutes_to_us, anesthesia_variants
from periop.textnorm import DEFAULT_SYNONYMS
from synth_files import synth_texts

CFG = SynthConfig(n_cases=3000, seed=21)


@pytest.fixture(scope="module")
def generated():
    events_csv, cases_csv, truth_json = synth_texts(CFG)
    truth = json.loads(truth_json)
    log, event_errors = parse_events(events_csv.encode())
    attrs, attr_errors = parse_case_attributes(cases_csv.encode())
    assert event_errors == [] and attr_errors == []
    cases = assemble_cases(log, attrs)
    return events_csv, cases_csv, truth, cases


def test_same_seed_byte_identical():
    cfg = SynthConfig(n_cases=300, seed=4)
    first = synth_texts(cfg)
    second = synth_texts(cfg)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert json.loads(first[2]) == json.loads(second[2])


def test_different_seed_differs():
    a = synth_texts(SynthConfig(n_cases=300, seed=1))[0]
    b = synth_texts(SynthConfig(n_cases=300, seed=2))[0]
    assert a != b


def test_anchor_coverage_rates(generated):
    _, _, truth, _ = generated
    anchors = [t["has_anchors"] for t in truth["cases"]]
    n = len(anchors)
    proc = sum(1 for a in anchors if a["incision"] and a["suture"]) / n
    ind = sum(1 for a in anchors if a["anesthesia_start"] and a["anesthesia_complete"]) / n
    prep = (
        sum(
            1
            for t in truth["cases"]
            if t["has_anchors"]["anesthesia_complete"]
            and t["has_anchors"]["incision"]
            and t["has_positioning_info"]
        )
        / n
    )
    assert proc == pytest.approx(0.6998, abs=0.03)
    assert ind == pytest.approx(0.4650, abs=0.03)
    assert prep == pytest.approx(0.0697, abs=0.02)


def test_all_plans_are_15_minute_multiples(generated):
    _, _, _, cases = generated
    for case in cases:
        for plan in (case.planned_procedure_min, case.planned_induction_min):
            if plan is not None:
                assert plan % 15.0 == pytest.approx(0.0)
                assert plan >= 15.0


def test_phase_sum_identity_on_full_cases(generated):
    events_csv, _, _, cases = generated
    anchor_stamps: dict = {}
    for case_id, event_type, timestamp in list(csv.reader(io.StringIO(events_csv)))[1:]:
        if event_type in ANCHOR_EVENTS:
            anchor_stamps.setdefault(case_id, {})[event_type] = _parse_timestamp(timestamp)
    checked = 0
    for d in cases:
        if None in (d.induction_min, d.preparation_min, d.procedure_min):
            continue
        stamps = anchor_stamps[d.case_id]
        total = (stamps["suture"] - stamps["anesthesia_start"]).total_seconds() / 60.0
        assert d.induction_min + d.preparation_min + d.procedure_min == pytest.approx(total, abs=1e-9)
        checked += 1
    assert checked > 200


def test_emitted_durations_match_ground_truth(generated):
    _, _, truth, cases = generated
    truth_by_id = {t["case_id"]: t for t in truth["cases"]}
    compared = 0
    for case in cases:
        t = truth_by_id[case.case_id]
        if case.procedure_min is not None:
            assert case.procedure_min == pytest.approx(t["procedure_min"], abs=1e-9)
            compared += 1
        if case.induction_min is not None:
            assert case.induction_min == pytest.approx(t["induction_min"], abs=1e-9)
    assert compared > 1000


def test_implausible_records_are_planted_and_filtered(generated):
    _, _, truth, cases = generated
    flagged = {
        t["case_id"]: t["implausible"] for t in truth["cases"] if t["implausible"] is not None
    }
    assert flagged, "expected some implausible records at the default rate"
    truth_by_id = {t["case_id"]: t for t in truth["cases"]}
    for case_id, kind in flagged.items():
        value = truth_by_id[case_id]["procedure_min"]
        assert value < 0 if kind == "negative" else value > 48 * 60

    retained, report = plausibility_filter(case_table(cases), "procedure")
    retained_ids = set(retained)
    assert not (set(flagged) & retained_ids)
    assert report.counts["negative_or_zero"] >= sum(1 for k in flagged.values() if k == "negative")


def test_family_means_converge(generated):
    _, _, truth, _ = generated
    samples: dict[str, list[float]] = {}
    for t in truth["cases"]:
        if t["implausible"] is None:
            samples.setdefault(str(t["procedure_family"]), []).append(t["procedure_min"])
    for family, values in samples.items():
        if len(values) < 30:
            continue
        arr = np.asarray(values)
        se = arr.std(ddof=1) / np.sqrt(len(arr))
        assert abs(arr.mean() - truth["procedure_family_means"][family]) < 5 * se + 0.5


def test_texts_carry_family_variants(generated):
    _, _, _, cases = generated
    surface_sets = {c: set(anesthesia_variants(c)) for c in ("intubationsnarkose", "larynxmaske")}
    seen_nontrivial = 0
    for case in cases:
        if not case.anesthesia_text:
            continue
        stripped = case.anesthesia_text.lower().rstrip(".!")
        for canon, surfaces in surface_sets.items():
            if stripped in surfaces and stripped != canon:
                seen_nontrivial += 1
    assert seen_nontrivial > 50  # abbreviations really occur


def test_synonym_table_covers_anesthesia_variants():
    for canonical in ("intubationsnarkose", "larynxmaske", "spinalanaesthesie"):
        variants = anesthesia_variants(canonical)
        assert canonical in variants and len(variants) >= 3
        for v in variants:
            if v != canonical:
                assert DEFAULT_SYNONYMS[v] == canonical


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_cases=10)
    with pytest.raises(ValueError):
        SynthConfig(coverage_procedure=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_anesthesia_families=99)
    with pytest.raises(ValueError):
        SynthConfig(synonyms_per_family=0)


RATES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=20, deadline=None)
@given(
    n_cases=st.integers(100, 3000),
    seed=st.integers(0, 2**32 - 1),
    n_procedure_families=st.integers(1, 40),
    n_anesthesia_families=st.integers(1, 5),
    synonyms_per_family=st.integers(1, 6),
    implausible_rate=RATES,
    attrs_missing_rate=RATES,
    other_event_rate=RATES,
)
def test_files_equal_the_in_memory_generator(**params):
    cfg = SynthConfig(**params)
    assert synth_texts(cfg) == generate_log_slow(cfg)


def test_files_equal_the_in_memory_generator_at_20k_cases():
    """The benchmark's size and the command line's derived seed; the sort
    and the chunked writers see many more rows than in the property above."""
    cfg = SynthConfig(n_cases=20000, seed=derive_seed(7, "synth"))
    assert synth_texts(cfg) == generate_log_slow(cfg)


def _timedelta_us(minutes):
    return timedelta(minutes=minutes) // timedelta(microseconds=1)


# the two ranges the generator converts, the other events' offsets and the
# minute of the day, and values whose fraction rounds to a whole minute, or
# scales to exactly half a microsecond (j / 512 minutes for an odd j)
MINUTES = st.one_of(
    st.floats(5.0, 25.0, exclude_max=True),
    st.floats(360.0, 960.0, exclude_max=True),
    st.integers(6, 960).map(lambda k: float(np.nextafter(k, 0.0))),
    st.tuples(st.integers(5, 959), st.integers(0, 255)).map(lambda kj: kj[0] + (2 * kj[1] + 1) / 512),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(MINUTES, min_size=1, max_size=20))
def test_minutes_to_us_rounds_as_timedelta(minutes):
    expected = [_timedelta_us(m) for m in minutes]
    assert _minutes_to_us(np.array(minutes)).tolist() == expected


def test_minutes_to_us_edge_values():
    """A fraction that rounds up to the next minute, and both ties of half a microsecond."""
    edges = [float(np.nextafter(360.0, 0.0)), 5 + 1 / 512, 5 + 3 / 512, 959 + 511 / 512]
    assert _minutes_to_us(np.array(edges)).tolist() == [_timedelta_us(m) for m in edges]
    assert _timedelta_us(edges[0]) == 360 * 60_000_000


@pytest.mark.parametrize(
    "numbers",
    [
        list(range(1, 301)),
        list(range(999_950, 1_000_050)),
        [*range(99_990, 100_011), *range(999_990, 1_000_011), *range(9_999_990, 10_000_011)],
        [1_000_000, 100_000, 100_001, 10_000_000, 1_000_001, 999_999],
    ],
    ids=["six-digits", "straddling-W999999", "up-to-eight-digits", "shuffled"],
)
def test_case_id_rank_is_string_order(numbers):
    ids = [f"W{n:06d}" for n in numbers]
    rank = _case_id_rank(np.array(numbers))
    assert [ids[i] for i in np.argsort(rank)] == sorted(ids)
