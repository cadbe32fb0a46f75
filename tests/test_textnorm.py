import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tfidf_dense
from periop.textnorm import (
    DEFAULT_SYNONYMS,
    DEFAULT_STEM_SUFFIXES,
    NormalizationRules,
    TfidfModel,
    fit_tfidf,
    load_synonyms,
    normalize_text,
    stack_dense,
    vectorize,
)

PLAIN = NormalizationRules()


def test_normalize_strips_punctuation_within_tokens():
    assert normalize_text("Lap. Chol-ezystektomie!", PLAIN) == ["lap", "cholezystektomie"]


def test_normalize_synonym_lookup():
    rules = NormalizationRules(synonym_map={"itn": "intubationsnarkose"})
    assert normalize_text("ITN", rules) == ["intubationsnarkose"]


def test_normalize_empty():
    assert normalize_text("", PLAIN) == []
    assert normalize_text("!!! --- ???", PLAIN) == []


def test_umlauts_transliterated_not_deleted():
    assert normalize_text("Hüftendoprothese größer", PLAIN) == ["hueftendoprothese", "groesser"]


def test_literal_strip_merges_tokens():
    rules = NormalizationRules(literal_strip=True)
    assert normalize_text("Lap. Chol-ezystektomie!", rules) == ["lapcholezystektomie"]


def test_min_token_len_drops_short_tokens():
    rules = NormalizationRules(min_token_len=3)
    assert normalize_text("OP am Knie", rules) == ["knie"]


def test_stemming_strips_one_inflection_suffix():
    rules = NormalizationRules(stem_suffixes=DEFAULT_STEM_SUFFIXES)
    assert normalize_text("Narkosen", rules) == ["narkos"]
    # guard: stripping must leave at least 4 characters
    assert normalize_text("Hans", rules) == ["hans"]


def test_synonyms_applied_before_stemming():
    rules = NormalizationRules(synonym_map={"itn": "intubationsnarkose"}, stem_suffixes=DEFAULT_STEM_SUFFIXES)
    assert normalize_text("ITN", rules) == [normalize_text("Intubationsnarkose", rules)[0]]


def test_normalize_idempotent_without_stemming():
    rng = np.random.default_rng(4)
    alphabet = list("abcäöüß .,-!123")
    for _ in range(40):
        raw = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 30))))
        once = normalize_text(raw, PLAIN)
        again = normalize_text(" ".join(once), PLAIN)
        assert once == again


@settings(max_examples=300, deadline=None)
@given(
    raw=st.text(),
    synonyms=st.sampled_from([{}, DEFAULT_SYNONYMS]),
    min_token_len=st.integers(1, 6),
    literal_strip=st.booleans(),
)
def test_normalize_idempotent_without_stemming_on_any_text(raw, synonyms, min_token_len, literal_strip):
    rules = NormalizationRules(
        synonym_map=dict(synonyms), min_token_len=min_token_len, literal_strip=literal_strip
    )
    once = normalize_text(raw, rules)
    assert normalize_text(" ".join(once), rules) == once


def test_synonym_keys_must_be_lowercase():
    with pytest.raises(ValueError):
        NormalizationRules(synonym_map={"ITN": "intubationsnarkose"})


def test_load_synonyms_csv():
    mapping = load_synonyms(b"from,to\nITN,Intubationsnarkose\nlma,larynxmaske\n")
    assert mapping == {"itn": "intubationsnarkose", "lma": "larynxmaske"}
    with pytest.raises(ValueError):
        load_synonyms(b"a,b\nx,y\n")


def test_fit_tfidf_hand_idf():
    model = fit_tfidf([["a", "b"], ["a", "c"]])
    idf = dict(zip(model.terms(), model.idf))
    assert idf["a"] == pytest.approx(1.0)
    assert idf["b"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-9)
    assert idf["c"] == pytest.approx(1.405465, abs=1e-6)


def test_fit_tfidf_single_document():
    model = fit_tfidf([["x", "y"]])
    assert np.allclose(model.idf, 1.0)


def test_fit_tfidf_max_terms_by_document_frequency():
    model = fit_tfidf([["a", "b"], ["a", "c"]], max_terms=1)
    assert set(model.vocabulary) == {"a"}
    # tie on df -> lexicographic
    model = fit_tfidf([["b"], ["c"]], max_terms=1)
    assert set(model.vocabulary) == {"b"}


def test_fit_tfidf_errors():
    with pytest.raises(ValueError):
        fit_tfidf([])
    with pytest.raises(ValueError):
        fit_tfidf([[], []])


def test_vectorize_hand_values():
    model = fit_tfidf([["a", "b"], ["a", "c"]])
    dense = stack_dense([vectorize(["a", "b"], model)])[0]
    expected = np.zeros(3)
    expected[model.vocabulary["a"]] = 0.579739
    expected[model.vocabulary["b"]] = 0.814802
    assert np.allclose(dense, expected, atol=1e-6)


def test_vectorize_out_of_vocabulary_is_zero():
    model = fit_tfidf([["a", "b"], ["a", "c"]])
    vec = vectorize(["zz", "qq"], model)
    assert vec.indices.size == 0
    assert np.allclose(stack_dense([vec])[0], 0.0)


def test_vectorize_single_term_unit_vector():
    model = fit_tfidf([["a", "b"], ["a", "c"]])
    dense = stack_dense([vectorize(["a"], model)])[0]
    assert dense[model.vocabulary["a"]] == pytest.approx(1.0)
    assert np.linalg.norm(dense) == pytest.approx(1.0)


def test_unit_norm_property():
    rng = np.random.default_rng(12)
    vocab = [f"t{i}" for i in range(30)]
    corpus = [
        [vocab[int(j)] for j in rng.integers(0, 30, size=int(rng.integers(1, 12)))]
        for _ in range(50)
    ]
    model = fit_tfidf(corpus)
    for doc in corpus:
        norm = np.linalg.norm(stack_dense([vectorize(doc, model)])[0])
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_fit_permutation_invariant():
    corpus = [["a", "b"], ["c"], ["a", "c", "d"], ["b", "b"]]
    m1 = fit_tfidf(corpus)
    m2 = fit_tfidf(list(reversed(corpus)))
    assert m1.vocabulary == m2.vocabulary
    assert np.allclose(m1.idf, m2.idf)


def test_matches_dense_oracle():
    rng = np.random.default_rng(8)
    vocab = [f"w{i}" for i in range(40)]
    corpus = [
        [vocab[int(j)] for j in rng.integers(0, 40, size=int(rng.integers(0, 15)))]
        for _ in range(100)
    ]
    if not any(corpus):
        corpus[0] = ["w0"]
    for max_terms in (None, 10):
        model = fit_tfidf(corpus, max_terms=max_terms)
        expected, terms = tfidf_dense(corpus, max_terms=max_terms)
        assert model.terms() == terms
        got = stack_dense([vectorize(doc, model) for doc in corpus])
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_model_roundtrip():
    model = fit_tfidf([["a", "b"], ["a", "c"]], max_terms=2)
    clone = TfidfModel.from_dict(model.to_dict())
    assert clone.vocabulary == model.vocabulary
    assert np.allclose(clone.idf, model.idf)
    assert clone.n_docs == model.n_docs
