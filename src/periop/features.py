"""Design matrices for the duration models. One builder serves train, evaluate
and predict, so the three cannot drift apart; the :class:`FeatureContext` it
reads is fitted on one phase's training cases and persisted with every model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import encoding
from .eventlog import Case


@dataclass
class FeatureContext:
    """Everything needed to turn cases into design matrices for one phase."""

    phase: str
    group_by: str
    target_smoothing: float
    assignments: Mapping[str, int]
    name_codes: dict[str, int]
    target_encoder: encoding.TargetEncoder
    age_fill: float
    sex_schema: encoding.OneHotSchema
    department_schema: encoding.OneHotSchema

    def group_code(self, case: Case) -> float:
        if self.group_by == "cluster":
            return float(self.assignments.get(case.case_id, -1))
        return float(self.name_codes.get(case.attributes.text(self.phase).strip(), -1))

    def regression_matrix(self, cases: Sequence[Case], encoded: bool = True) -> np.ndarray:
        """Columns: cluster (target encoded, or the raw code), age, sex, department."""
        if encoded:
            clusters = [str(self.assignments.get(c.case_id, -1)) for c in cases]
            col0 = encoding.target_encode_apply(self.target_encoder, clusters)
        else:
            col0 = np.array([float(self.assignments.get(c.case_id, -1)) for c in cases])
        ages = np.array([c.attributes.age if c.attributes.age is not None else self.age_fill for c in cases], dtype=float)
        sex = encoding.one_hot_many(self.sex_schema, [c.attributes.sex for c in cases])
        dept = encoding.one_hot_many(self.department_schema, [c.attributes.department for c in cases])
        return np.column_stack([col0, ages, sex, dept])

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
    def from_dict(cls, obj: dict, assignments: Mapping[str, int]) -> "FeatureContext":
        return cls(
            phase=obj["phase"],
            group_by=obj["group_by"],
            target_smoothing=obj["target_smoothing"],
            assignments=assignments,
            name_codes={k: int(v) for k, v in obj["name_codes"]},
            target_encoder=encoding.TargetEncoder.from_dict(obj["target_encoder"]),
            age_fill=float(obj["age_fill"]),
            sex_schema=encoding.OneHotSchema.from_dict(obj["sex_schema"]),
            department_schema=encoding.OneHotSchema.from_dict(obj["department_schema"]),
        )


def fit_context(
    phase: str,
    train_cases: Sequence[Case],
    assignments: Mapping[str, int],
    group_by: str,
    target_smoothing: float,
) -> FeatureContext:
    """Fit encoders, schemas and the age fill on the training cases only."""
    targets = [c.durations.get(phase) for c in train_cases]
    clusters = [str(assignments.get(c.case_id, -1)) for c in train_cases]
    encoder = encoding.target_encode_fit(clusters, targets, m=target_smoothing)
    name_codes: dict[str, int] = {}
    if group_by == "exact-name":
        names = sorted({c.attributes.text(phase).strip() for c in train_cases})
        name_codes = {name: i for i, name in enumerate(names)}
    ages = [c.attributes.age for c in train_cases if c.attributes.age is not None]
    return FeatureContext(
        phase=phase,
        group_by=group_by,
        target_smoothing=target_smoothing,
        assignments=assignments,
        name_codes=name_codes,
        target_encoder=encoder,
        age_fill=float(np.median(ages)) if ages else 50.0,
        sex_schema=encoding.OneHotSchema.fit([c.attributes.sex for c in train_cases]),
        department_schema=encoding.OneHotSchema.fit([c.attributes.department for c in train_cases]),
    )


def design_matrix(ctx: FeatureContext, family: str, cases: Sequence[Case]) -> np.ndarray:
    """The design matrix a model family reads: no columns for the global mean,
    the group code for group means, the regression matrix for everything else."""
    if family == "mean":
        return np.zeros((len(cases), 0))
    if family == "group-mean":
        return np.array([[ctx.group_code(c)] for c in cases])
    return ctx.regression_matrix(cases)
