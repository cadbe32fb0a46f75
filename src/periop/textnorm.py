"""Free-text normalization and TF-IDF vectorization for German clinical notes.

Normalization pipeline: lowercase, transliterate umlauts/eszett, delete
non-alphanumeric characters inside whitespace tokens, drop short tokens,
unify synonyms/abbreviations via a lookup table, strip one inflection
suffix. TF-IDF uses the smoothed idf ln((1+N)/(1+df)) + 1 and L2-normalized
document vectors.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from collections import Counter
from importlib import resources
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence, Union

import numpy as np

from . import rules

_UMLAUTS = {"ä": "ae", "ö": "oe", "ü": "ue", "ß": "ss"}
_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def _shipped_synonyms() -> dict[str, str]:
    data = resources.files(__package__).joinpath("data/synonyms.csv").read_bytes()
    return load_synonyms(data)

DEFAULT_STEM_SUFFIXES = ("en", "e", "s")

# A stripped stem must keep at least this many characters.
MIN_STEM_LEN = 4


@dataclass(frozen=True)
class NormalizationRules:
    synonym_map: dict[str, str] = field(default_factory=dict)
    stem_suffixes: tuple[str, ...] = ()
    min_token_len: int = 1
    literal_strip: bool = False

    def __post_init__(self) -> None:
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")
        for key in self.synonym_map:
            if key != key.lower():
                raise ValueError(f"synonym keys must be lowercase: {key!r}")


def load_synonyms(source: Union[str, bytes, IO[bytes], IO[str]]) -> dict[str, str]:
    """Read a synonyms.csv mapping (header ``from,to``, one pair per row)."""
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["from", "to"]:
        raise ValueError("expected synonyms header 'from,to'")
    mapping: dict[str, str] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"expected 2 columns in synonyms row, got {len(row)}")
        mapping[row[0].strip().lower()] = row[1].strip().lower()
    return mapping


# Illustrative abbreviation/synonym table (variant -> canonical) shipped as
# package data; real deployments plug in their own synonyms.csv.
DEFAULT_SYNONYMS = _shipped_synonyms()


def transliterate(text: str) -> str:
    for src, dst in _UMLAUTS.items():
        text = text.replace(src, dst)
    return text


def _stem(token: str, suffixes: Sequence[str]) -> str:
    for suffix in suffixes:
        if token.endswith(suffix) and len(token) - len(suffix) >= MIN_STEM_LEN:
            return token[: -len(suffix)]
    return token


def normalize_text(raw: str, rules: NormalizationRules) -> list[str]:
    """Normalize free text into a token list; may be empty."""
    text = transliterate(raw.lower())
    if rules.literal_strip:
        merged = _NON_ALNUM.sub("", text)
        pieces = [merged] if merged else []
    else:
        pieces = [_NON_ALNUM.sub("", part) for part in text.split()]
    tokens: list[str] = []
    for token in pieces:
        if len(token) < rules.min_token_len or not token:
            continue
        token = rules.synonym_map.get(token, token)
        tokens.append(_stem(token, rules.stem_suffixes))
    return tokens


@dataclass(frozen=True)
class TfidfModel:
    """Fitted vocabulary and idf weights; indices are dense 0..V-1."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    n_docs: int
    max_terms: int | None = None

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def terms(self) -> list[str]:
        out = [""] * len(self.vocabulary)
        for term, idx in self.vocabulary.items():
            out[idx] = term
        return out

    def to_dict(self) -> dict:
        return {
            "vocabulary": dict(sorted(self.vocabulary.items())),
            "idf": [float(v) for v in self.idf],
            "n_docs": self.n_docs,
            "max_terms": self.max_terms,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TfidfModel":
        """Rebuild a model from ``to_dict`` output; raises KeyError for a
        missing field and ValueError for a field of the wrong JSON type, when
        the vocabulary's indices are not 0..V-1 or the idf does not hold one
        weight per term."""
        get = functools.partial(rules.field, obj)
        terms = get("vocabulary", dict)
        vocabulary = {term: rules.field(terms, term, int) for term in terms}
        idf = np.asarray(rules.number_array(obj, "idf"), dtype=float)
        if sorted(vocabulary.values()) != list(range(len(vocabulary))):
            raise ValueError("vocabulary indices are not 0..V-1")
        if idf.shape != (len(vocabulary),):
            raise ValueError(f"idf holds {idf.size} weights for {len(vocabulary)} vocabulary terms")
        return cls(
            vocabulary=vocabulary,
            idf=idf,
            n_docs=get("n_docs", int),
            max_terms=get("max_terms", int, None),
        )


@dataclass(frozen=True)
class DocVector:
    """Sparse TF-IDF vector; L2 norm is 1 unless the document is empty."""

    indices: np.ndarray
    weights: np.ndarray
    dim: int


def fit_tfidf(corpus: Sequence[Sequence[str]], max_terms: int | None = None) -> TfidfModel:
    """Fit idf weights; vocabulary keeps the top max_terms terms by document
    frequency (ties broken lexicographically), or all terms when unset."""
    if len(corpus) == 0:
        raise ValueError("corpus must be non-empty")
    df: Counter = Counter()
    for doc in corpus:
        df.update(set(doc))
    if not df:
        raise ValueError("corpus contains only empty documents")
    terms = sorted(df)
    if max_terms is not None and len(terms) > max_terms:
        terms = sorted(terms, key=lambda t: (-df[t], t))[:max_terms]
        terms.sort()
    n = len(corpus)
    vocabulary = {term: i for i, term in enumerate(terms)}
    idf = np.array([math.log((1.0 + n) / (1.0 + df[t])) + 1.0 for t in terms])
    return TfidfModel(vocabulary=vocabulary, idf=idf, n_docs=n, max_terms=max_terms)


def vectorize(doc: Iterable[str], model: TfidfModel) -> DocVector:
    """TF-IDF weights (raw term count times idf), L2-normalized.

    Out-of-vocabulary terms are ignored; a fully out-of-vocabulary or empty
    document yields the zero vector.
    """
    counts: Counter = Counter(t for t in doc if t in model.vocabulary)
    if not counts:
        return DocVector(np.empty(0, dtype=np.intp), np.empty(0), model.dim)
    items = sorted((model.vocabulary[t], c) for t, c in counts.items())
    indices = np.array([i for i, _ in items], dtype=np.intp)
    weights = np.array([c * model.idf[i] for i, c in items])
    weights = weights / math.sqrt(float(np.dot(weights, weights)))
    return DocVector(indices, weights, model.dim)


def stack_dense(vectors: Sequence[DocVector]) -> np.ndarray:
    """Densify a batch of DocVectors into an (n, V) matrix."""
    if not vectors:
        raise ValueError("no vectors to stack")
    dim = vectors[0].dim
    out = np.zeros((len(vectors), dim))
    for i, vec in enumerate(vectors):
        if vec.dim != dim:
            raise ValueError("inconsistent vector dimensions")
        out[i, vec.indices] = vec.weights
    return out
