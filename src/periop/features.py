"""Design matrices for the duration models. One builder serves train, evaluate
and predict, so the three cannot drift apart; the :class:`FeatureContext` it
reads is fitted on one phase's training cases and persisted with every model.

The builder keys each case by the fields its model family reads and encodes
each distinct key once: it returns the distinct design rows and each case's
index into them, so ``rows[inverse]`` is the design matrix of the cases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from . import encoding, rules
from .eventlog import Case, CaseAttributes


@dataclass
class FeatureContext:
    """Everything needed to turn cases into design matrices for one phase."""

    phase: str
    group_by: str
    target_smoothing: float
    name_codes: dict[str, int]
    target_encoder: encoding.TargetEncoder
    age_fill: float
    sex_schema: encoding.OneHotSchema
    department_schema: encoding.OneHotSchema

    def to_dict(self) -> dict:
        return {
            "phase": self.phase,
            "group_by": self.group_by,
            "target_smoothing": self.target_smoothing,
            "name_codes": sorted([k, v] for k, v in self.name_codes.items()),
            "target_encoder": self.target_encoder.to_dict(),
            "age_fill": self.age_fill,
            "sex_schema": self.sex_schema.to_dict(),
            "department_schema": self.department_schema.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FeatureContext":
        """Rebuild a context from ``to_dict`` output; raises KeyError for a
        missing field and ValueError for a field of the wrong JSON type."""
        get = functools.partial(rules.field, obj)
        name_codes = dict(get("name_codes", list))  # [name, code] pairs
        rules.integers(list(name_codes.values()), "name_codes")
        return cls(
            phase=get("phase", str),
            group_by=get("group_by", str),
            target_smoothing=get("target_smoothing", float),
            name_codes=name_codes,
            target_encoder=encoding.TargetEncoder.from_dict(get("target_encoder", dict)),
            age_fill=get("age_fill", float),
            sex_schema=encoding.OneHotSchema.from_dict(get("sex_schema", dict)),
            department_schema=encoding.OneHotSchema.from_dict(get("department_schema", dict)),
        )


def fit_context(
    phase: str,
    train_cases: Sequence[Case],
    clusters: Sequence[int],
    group_by: str,
    target_smoothing: float,
) -> FeatureContext:
    """Fit encoders, schemas and the age fill on the training cases only;
    ``clusters[i]`` is the cluster of ``train_cases[i]`` (-1 for none)."""
    targets = [c.durations.get(phase) for c in train_cases]
    encoder = encoding.target_encode_fit([str(c) for c in clusters], targets, m=target_smoothing)
    name_codes: dict[str, int] = {}
    if group_by == "exact-name":
        names = sorted({c.attributes.text(phase).strip() for c in train_cases})
        name_codes = {name: i for i, name in enumerate(names)}
    ages = [c.attributes.age for c in train_cases if c.attributes.age is not None]
    return FeatureContext(
        phase=phase,
        group_by=group_by,
        target_smoothing=target_smoothing,
        name_codes=name_codes,
        target_encoder=encoder,
        age_fill=float(np.median(ages)) if ages else 50.0,
        sex_schema=encoding.OneHotSchema.fit([c.attributes.sex for c in train_cases]),
        department_schema=encoding.OneHotSchema.fit([c.attributes.department for c in train_cases]),
    )


def design_rows(
    ctx: FeatureContext,
    family: str,
    attrs: Sequence[CaseAttributes],
    clusters: Sequence[int],
    encoded: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the design matrix a model family reads, and each
    case's index into them.

    ``clusters[i]`` is the cluster of ``attrs[i]`` (-1 for none). The global
    mean reads no columns, group means read the group code (the cluster, or
    the exact-name code), and every other family reads the regression row:
    the cluster (target encoded, or the raw code unless ``encoded``), age,
    sex and department. Each case is keyed by the fields its row reads, and
    each distinct key is encoded once.
    """
    keys: Sequence[Hashable]
    if family == "mean":
        keys = [()] * len(attrs)
    elif family == "group-mean" and ctx.group_by == "exact-name":
        keys = [a.text(ctx.phase) for a in attrs]
    elif family == "group-mean":
        keys = clusters
    else:
        keys = [(c, a.age, a.sex, a.department) for c, a in zip(clusters, attrs)]
    distinct, inverse = encoding._distinct_keys(keys)
    return _encode(ctx, family, distinct, encoded), inverse


def _encode(ctx: FeatureContext, family: str, keys: list, encoded: bool) -> np.ndarray:
    # the design rows of the distinct keys that design_rows made for the family
    if family == "mean":
        return np.zeros((len(keys), 0))
    if family == "group-mean":
        if ctx.group_by == "exact-name":
            keys = [ctx.name_codes.get(text.strip(), -1) for text in keys]
        return np.array(keys, dtype=float).reshape(-1, 1)
    clusters, ages, sexes, departments = zip(*keys) if keys else ((), (), (), ())
    if encoded:
        col0 = encoding.target_encode_apply(ctx.target_encoder, [str(c) for c in clusters])
    else:
        col0 = np.array(clusters, dtype=float)
    age = np.array([ctx.age_fill if a is None else a for a in ages], dtype=float)
    sex = encoding.one_hot_many(ctx.sex_schema, sexes)
    dept = encoding.one_hot_many(ctx.department_schema, departments)
    return np.column_stack([col0, age, sex, dept])
