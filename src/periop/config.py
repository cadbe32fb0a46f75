"""Pipeline configuration: typed settings, the ``key = value`` file format and
validation. A raw value is parsed as the declared type of its field, so a value
that does not fit is a usage error instead of a silently different setting."""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from . import rules
from .eventlog import PHASES

MODEL_CHOICES = ("mean", "group-mean", "mta", "ridge", "tree", "forest", "gbm")

# model family -> {constructor parameter: the config key that sets it}
MODEL_KEYS: dict[str, dict[str, str]] = {
    "ridge": {"lam": "ridge_lambda"},
    "tree": {"max_depth": "tree_max_depth", "min_leaf": "tree_min_leaf"},
    "forest": {
        "n_trees": "forest_n_trees",
        "max_depth": "forest_max_depth",
        "min_leaf": "forest_min_leaf",
        "feature_fraction": "forest_feature_fraction",
    },
    "gbm": {
        "n_trees": "gbm_n_trees",
        "learning_rate": "gbm_learning_rate",
        "max_depth": "gbm_max_depth",
        "min_leaf": "gbm_min_leaf",
    },
}


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    out: str = "out"
    events: str = ""  # defaults to <out>/events.csv
    cases: str = ""  # defaults to <out>/cases.csv
    phases: tuple[str, ...] = ("procedure", "induction")
    seed: int = 0
    test_fraction: float = 0.2
    tolerance: float = 0.20
    iqr_multiplier: float = 1.5
    iqr_per_department: bool = False
    max_duration_min: float = 2880.0
    synonyms: str = "default"  # "default", "none" or a synonyms.csv path
    synonyms_phases: tuple[str, ...] = ("induction",)
    min_token_len: int = 1
    literal_strip: bool = False
    stemming: bool = True
    max_terms: int = 200
    cluster_algo: Mapping[str, str] = field(
        default_factory=lambda: {"procedure": "kmeans", "induction": "gmm", "preparation": "kmeans"}
    )
    cluster_k: Mapping[str, tuple[int, ...]] = field(
        default_factory=lambda: {"procedure": (25,), "induction": (5,), "preparation": (4,)}
    )
    target_smoothing: float = 40.0
    models: tuple[str, ...] = ("mean", "group-mean", "gbm")
    group_by: str = "cluster"  # or "exact-name"
    grid_search: bool = False
    cv_folds: int = 5
    gbm_n_trees: int = 150
    gbm_learning_rate: float = 0.1
    gbm_max_depth: int = 3
    gbm_min_leaf: int = 5
    tree_max_depth: int = 8
    tree_min_leaf: int = 5
    forest_n_trees: int = 100
    forest_max_depth: int = 8
    forest_min_leaf: int = 5
    forest_feature_fraction: float = 1.0
    ridge_lambda: float = 1.0
    planning_floor_induction: float = 20.0
    synth_n_cases: int = 20000
    synth_procedure_families: int = 25
    synth_anesthesia_families: int = 5
    synth_synonyms_per_family: int = 4

    def __post_init__(self) -> None:
        for f in fields(self):  # artifacts are JSON, which has no NaN or Infinity
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"config key {f.name!r} must be a finite number, got {value!r}")
        for phase in self.phases:
            if phase not in PHASES:
                raise UsageError(f"unknown phase: {phase!r}")
        for phase in self.synonyms_phases:
            if phase not in PHASES:
                raise UsageError(f"config key 'synonyms_phases': unknown phase {phase!r}")
        if not 0 < self.test_fraction < 1:
            raise UsageError("test_fraction must be in (0, 1)")
        if not 0 < self.tolerance:
            raise UsageError("tolerance must be > 0")
        if not 0 < self.iqr_multiplier:
            raise UsageError("iqr_multiplier must be > 0")
        for key in ("cluster_algo", "cluster_k"):
            for phase in getattr(self, key):
                if phase not in PHASES:
                    raise UsageError(f"config key '{key}.{phase}': unknown phase")
        for phase, algo in self.cluster_algo.items():
            try:
                rules.check_cluster_algorithm(algo)
            except ValueError as exc:
                raise UsageError(f"config key 'cluster_algo.{phase}': {exc}") from None
        for phase, ks in self.cluster_k.items():  # one k, or several to choose from by silhouette
            if not ks or min(ks) < (2 if len(ks) > 1 else 1):
                raise UsageError(f"config key 'cluster_k.{phase}': expected a k >= 1 or several k >= 2, got {list(ks)}")
        if self.group_by not in ("cluster", "exact-name"):
            raise UsageError(f"unknown group_by: {self.group_by!r}")
        for name in self.models:
            if name not in MODEL_CHOICES:
                raise UsageError(f"unknown model: {name!r}")
        for family, keys in MODEL_KEYS.items():  # the model's own rules, one key at a time
            for param, key in keys.items():
                try:
                    rules.check_model_params(family, {param: getattr(self, key)})
                except ValueError as exc:
                    raise UsageError(f"config key {key!r}: {exc}") from None
        for key, check in (("cv_folds", rules.check_cv_folds), ("synth_n_cases", rules.check_synth_n_cases)):
            try:
                check(getattr(self, key))
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None

    def model_params(self, family: str) -> dict:
        """The constructor parameters of ``family`` that this config sets."""
        return {param: getattr(self, key) for param, key in MODEL_KEYS.get(family, {}).items()}

    def events_path(self) -> Path:
        return Path(self.events) if self.events else Path(self.out) / "events.csv"

    def cases_path(self) -> Path:
        return Path(self.cases) if self.cases else Path(self.out) / "cases.csv"


# field name -> declared type, e.g. "seed" -> int, "phases" -> tuple[str, ...]
FIELD_TYPES = typing.get_type_hints(PipelineConfig)


def _coerce(key: str, raw: str, kind) -> object:
    """Parse one raw config value as the declared type of its field."""
    text = raw.strip()
    if kind is bool:
        if text.lower() not in ("true", "false"):
            raise UsageError(f"config key {key!r}: expected true or false, got {raw!r}")
        return text.lower() == "true"
    if kind is str:
        return text
    if typing.get_origin(kind) is tuple:
        return tuple(p.strip() for p in text.split(",") if p.strip())
    try:
        return kind(text)  # int or float
    except ValueError:
        raise UsageError(f"config key {key!r}: expected {kind.__name__}, got {raw!r}") from None


def _parse_k_range(key: str, raw: str) -> tuple[int, ...]:
    """A fixed k ``5``, a list ``3,5,8`` or an inclusive range ``2..30``."""
    text = raw.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"config key {key!r}: expected k, k,k,... or lo..hi, got {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` config; '#' starts a comment, lists use commas."""
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"config line {line_no}: expected 'key = value'")
        key, raw = body.split("=", 1)
        values[key.strip()] = raw.strip()
    return values


def build_config(config_path: str | None, overrides: Mapping[str, object]) -> PipelineConfig:
    """File values, then overrides; string values are coerced by field type,
    other override values (already typed by argparse) are taken as they are."""
    raw: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise UsageError(f"config file not found: {config_path}")
        try:
            raw.update(parse_config_text(path.read_text(encoding="utf-8")))
        except OSError as exc:  # a directory, say
            raise UsageError(f"config file {config_path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise UsageError(f"config file {config_path}: invalid UTF-8") from None
    raw.update({k: v for k, v in overrides.items() if v is not None})

    cluster_algo = dict(PipelineConfig().cluster_algo)
    cluster_k = dict(PipelineConfig().cluster_k)
    kwargs: dict = {}
    for key, value in raw.items():
        prefix, _, phase = key.partition(".")
        if prefix == "cluster_algo" and phase:
            cluster_algo[phase] = str(value).strip()
        elif prefix == "cluster_k" and phase:
            cluster_k[phase] = _parse_k_range(key, str(value))
        elif key in FIELD_TYPES and key not in ("cluster_algo", "cluster_k"):  # per phase only
            kwargs[key] = _coerce(key, value, FIELD_TYPES[key]) if isinstance(value, str) else value
        else:
            raise UsageError(f"unknown config key: {key!r}")
    return PipelineConfig(**kwargs, cluster_algo=cluster_algo, cluster_k=cluster_k)
