"""Categorical feature encoding: one-hot and smoothed target encoding.

Target encoding blends the per-category mean with the global training mean
using a pseudo-count m (default 40): (n_i * mean_i + m * prior) / (n_i + m).
Unknown categories map to the all-zeros row (one-hot) or the prior (target
encoding), so nothing from the test set leaks into the encodings.

``distinct_rows`` codes each row of a matrix by its distinct row; clustering
and the tree engine both work on those distinct rows, weighted by count.
``distinct_keys`` does the same for a sequence of hashable keys, in
first-seen order; the design-row builder, the CLI's text vectorizing and
clustering's indexed fits use it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from . import rules

DEFAULT_SMOOTHING = 40.0


@dataclass(frozen=True)
class OneHotSchema:
    """Ordered category list for one variable; unknown values encode to zeros."""

    categories: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("categories must be unique")

    @classmethod
    def fit(cls, values: Sequence[str]) -> "OneHotSchema":
        return cls(categories=tuple(sorted(set(values))))

    @property
    def index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.categories)}

    def to_dict(self) -> dict:
        return {"categories": list(self.categories)}

    @classmethod
    def from_dict(cls, obj: dict) -> "OneHotSchema":
        return cls(categories=tuple(rules.field(obj, "categories", list)))


def one_hot_many(schema: OneHotSchema, values: Sequence[str]) -> np.ndarray:
    out = np.zeros((len(values), len(schema.categories)))
    index = schema.index
    for i, v in enumerate(values):
        j = index.get(v)
        if j is not None:
            out[i, j] = 1.0
    return out


@dataclass(frozen=True)
class TargetEncoder:
    """Per-category (count, mean) statistics plus the global prior."""

    stats: dict[Hashable, tuple[int, float]]
    prior: float
    m: float

    def encode(self, category: Hashable) -> float:
        entry = self.stats.get(category)
        if entry is None:
            return self.prior
        n_i, mean_i = entry
        return (n_i * mean_i + self.m * self.prior) / (n_i + self.m)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "prior": self.prior,
            "stats": {str(k): [n, mean] for k, n, mean in sorted(
                (str(k), n, mean) for k, (n, mean) in self.stats.items()
            )},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TargetEncoder":
        get = functools.partial(rules.field, obj)
        entries, stats = get("stats", dict), {}
        for category in entries:
            n, mean = rules.number_array(entries, category)  # [count, mean]
            rules.integers([n], category)
            # encode divides by n + m: a count below 1 can make that 0
            if not 1 <= n < 2**63:
                raise ValueError(
                    f"bad entry in {category!r}: a count must be from 1 to 2**63 - 1, got {rules.shown(n)}"
                )
            stats[category] = (n, float(mean))
        m = get("m", float)
        if not m >= 0:
            raise ValueError(f"bad value for 'm': expected a number >= 0, got {m}")
        return cls(stats=stats, prior=get("prior", float), m=m)


def target_encode_fit(
    categories: Sequence[Hashable],
    targets: Sequence[float],
    m: float = DEFAULT_SMOOTHING,
) -> TargetEncoder:
    """Fit smoothed target encoding on training rows only."""
    if len(categories) != len(targets):
        raise ValueError("categories and targets must have equal length")
    if len(categories) == 0:
        raise ValueError("cannot fit a target encoder on empty input")
    if m < 0:
        raise ValueError("smoothing m must be >= 0")
    sums: dict[Hashable, float] = {}
    counts: dict[Hashable, int] = {}
    total = 0.0
    for cat, y in zip(categories, targets):
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("targets must be finite")
        sums[cat] = sums.get(cat, 0.0) + y
        counts[cat] = counts.get(cat, 0) + 1
        total += y
    prior = total / len(targets)
    stats = {cat: (counts[cat], sums[cat] / counts[cat]) for cat in counts}
    return TargetEncoder(stats=stats, prior=prior, m=m)


def target_encode_apply(encoder: TargetEncoder, categories: Sequence[Hashable]) -> np.ndarray:
    """Elementwise lookup; unseen categories fall back to the prior."""
    return np.array([encoder.encode(c) for c in categories])


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of X in first-seen order, and each row's index into them."""
    index: dict[bytes, int] = {}  # ~20x faster than np.unique(axis=0)
    inverse = np.fromiter(
        (index.setdefault(row.tobytes(), len(index)) for row in X), dtype=np.intp, count=X.shape[0]
    )
    distinct = np.empty((len(index), X.shape[1]))
    distinct[inverse] = X
    return distinct, inverse


def distinct_keys(keys: Sequence[Hashable]) -> tuple[list, np.ndarray]:
    """Distinct values of ``keys`` in first-seen order, and each key's index into them."""
    index: dict[Hashable, int] = {}
    inverse = np.fromiter((index.setdefault(k, len(index)) for k in keys), dtype=np.intp, count=len(keys))
    return list(index), inverse
