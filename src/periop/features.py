"""Design matrices for the duration models. One builder serves train, evaluate,
predict and grid search's CV folds, so they cannot drift apart; the context it
reads is fitted on one phase's training cases and persisted with every model.

The builder keys each case by the fields its model family reads and encodes
each distinct key once: it returns the distinct design rows and each case's
index into them, so ``rows[inverse]`` is the design matrix of the cases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from . import encoding, rules
from .eventlog import PHASE_FIELDS


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
    train_cases: Mapping[str, Sequence],
    clusters: Sequence[int],
    group_by: str,
    target_smoothing: float,
) -> FeatureContext:
    """Fit encoders, schemas and the age fill on the training cases only:
    ``train_cases`` maps each case field to its column (a CaseTable, say),
    and ``clusters[i]`` is the cluster of case i (-1 for none)."""
    fields = PHASE_FIELDS[phase]
    targets = train_cases[fields.duration]
    encoder = encoding.target_encode_fit([str(c) for c in clusters], targets, m=target_smoothing)
    name_codes: dict[str, int] = {}
    if group_by == "exact-name":
        names = sorted({text.strip() for text in train_cases[fields.text]})
        name_codes = {name: i for i, name in enumerate(names)}
    ages = [age for age in train_cases["age"] if age is not None]
    return FeatureContext(
        phase=phase,
        group_by=group_by,
        target_smoothing=target_smoothing,
        name_codes=name_codes,
        target_encoder=encoder,
        age_fill=float(np.median(ages)) if ages else 50.0,
        sex_schema=encoding.OneHotSchema.fit(train_cases["sex"]),
        department_schema=encoding.OneHotSchema.fit(train_cases["department"]),
    )


def design_rows(
    ctx: FeatureContext,
    family: str,
    cases: Mapping[str, Sequence],
    clusters: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the design matrix a model family reads, and each
    case's index into them.

    ``cases`` maps each case field to its column, one value per case (a
    CaseTable, say), and ``clusters[i]`` is the cluster of case i (-1 for
    none). The global mean reads no columns, group means read the group
    code (the cluster, or the exact-name code), and every other family reads
    the regression row: the target-encoded cluster, age, sex and department.
    Each case is keyed by the fields its row reads, and each distinct key is
    encoded once.
    """
    keys: Sequence[Hashable]
    if family == "mean":
        keys = [()] * len(clusters)
    elif family == "group-mean" and ctx.group_by == "exact-name":
        keys = cases[PHASE_FIELDS[ctx.phase].text]
    elif family == "group-mean":
        keys = clusters
    else:
        keys = list(zip(clusters, cases["age"], cases["sex"], cases["department"]))
    distinct, inverse = encoding._distinct_keys(keys)
    return _encode(ctx, family, distinct), inverse


def fold_design(ctx: FeatureContext, family: str, cases: Mapping[str, Sequence], clusters: Sequence[int]) -> Callable:
    """Grid search's folds of ``cases``, the cases ``ctx`` was fitted on:
    ``fold_design(fit_idx, val_idx)`` gives a fold's fitting and validation
    matrices from design_rows, with the target encoder, the one part of the
    context fitted on the durations, refitted on the fitting rows alone."""
    targets = cases[PHASE_FIELDS[ctx.phase].duration]

    def design(fit_idx: np.ndarray, val_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        codes, y = [str(clusters[i]) for i in fit_idx], [targets[i] for i in fit_idx]
        encoder = encoding.target_encode_fit(codes, y, m=ctx.target_smoothing)
        rows, inverse = design_rows(replace(ctx, target_encoder=encoder), family, cases, clusters)
        return rows[inverse[fit_idx]], rows[inverse[val_idx]]

    return design


def _encode(ctx: FeatureContext, family: str, keys: list) -> np.ndarray:
    # the design rows of the distinct keys that design_rows made for the family
    if family == "mean":
        return np.zeros((len(keys), 0))
    if family == "group-mean":
        if ctx.group_by == "exact-name":
            keys = [ctx.name_codes.get(text.strip(), -1) for text in keys]
        return np.array(keys, dtype=float).reshape(-1, 1)
    clusters, ages, sexes, departments = zip(*keys) if keys else ((), (), (), ())
    col0 = encoding.target_encode_apply(ctx.target_encoder, [str(c) for c in clusters])
    age = np.array([ctx.age_fill if a is None else a for a in ages], dtype=float)
    sex = encoding.one_hot_many(ctx.sex_schema, sexes)
    dept = encoding.one_hot_many(ctx.department_schema, departments)
    return np.column_stack([col0, age, sex, dept])
