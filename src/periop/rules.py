"""Checks on values that come from outside: the settings that the config
checks at load and the model, clustering and synth code checks again, and the
JSON types of artifact fields. Each rule is written once, here, and this module
imports no numpy, so loading a config costs no numpy import.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

CLUSTER_ALGORITHMS = ("kmeans", "gmm")

_TREE_FAMILIES = ("tree", "forest", "gbm")

# (model family, constructor parameter) -> (rejects the value, what the value must be)
_PARAM_RULES = {
    ("ridge", "lam"): (lambda v: v < 0, "lambda must be >= 0"),
    ("forest", "n_trees"): (lambda v: v < 1, "n_trees must be >= 1"),
    ("forest", "feature_fraction"): (lambda v: not 0.0 < v <= 1.0, "feature_fraction must be in (0, 1]"),
    ("gbm", "n_trees"): (lambda v: v < 0, "n_trees must be >= 0"),
    ("gbm", "learning_rate"): (lambda v: not 0.0 < v <= 1.0, "learning_rate must be in (0, 1]"),
    **{(family, "max_depth"): (lambda v: v < 0, "max_depth must be >= 0") for family in _TREE_FAMILIES},
    **{(family, "min_leaf"): (lambda v: v < 1, "min_leaf must be >= 1") for family in _TREE_FAMILIES},
}


def check_cluster_algorithm(algo: str) -> None:
    if algo not in CLUSTER_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")


def check_model_params(family: str, params: Mapping[str, object]) -> None:
    """Raise ValueError for the first of ``params`` that model family
    ``family`` rejects; a parameter without a rule is accepted."""
    for name, value in params.items():
        rule = _PARAM_RULES.get((family, name))
        if rule is not None and rule[0](value):
            raise ValueError(rule[1])


def check_cv_folds(cv_folds: int) -> None:
    if cv_folds < 2:
        raise ValueError("cv_folds must be >= 2")


def check_synth_n_cases(n_cases: int) -> None:
    if n_cases < 100:
        raise ValueError("n_cases must be >= 100")


def held_out(n: int, test_fraction: float) -> int:
    """The number of ``n`` rows that the train/test split gives its test
    side: floor(n * test_fraction). In the assignments file they are the
    last rows."""
    return math.floor(n * test_fraction)


# JSON type -> (the Python types json.loads gives for it, its name); a
# number is an int or a float, and neither admits a boolean
_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: ((int,), "an integer"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    list: ((list,), "an array"),
    dict: ((dict,), "an object"),
}
_REQUIRED = object()


def field(obj: Mapping, key: str, kind: type, default=_REQUIRED):
    """``obj[key]`` of an artifact read with ``json.loads``, checked to be of
    the JSON type ``kind``; ``float`` stands for a number, which is returned
    as a float. ``default`` is returned for an absent optional field, and
    also for ``null`` if it is ``None``. Raises KeyError for a missing
    required field and ValueError for any other value."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object holding {key!r}, got {shown(obj)}")
    if key not in obj:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    value = obj[key]
    types, name = _JSON_TYPES[kind]
    if type(value) in types:
        if kind is not float:
            return value
        if finite(value):
            return float(value)
        raise ValueError(f"bad value for {key!r}: expected a finite number, got {shown(value)}")
    if value is None and default is None:
        return None
    raise ValueError(f"bad value for {key!r}: expected {name}, got {shown(value)}")


def number_array(obj: Mapping, key: str, default=_REQUIRED) -> list:
    """``field(obj, key, list, default)`` checked to hold only finite numbers,
    or only arrays of them (the rows of a matrix), ready for ``np.asarray``.
    Raises ValueError naming ``key`` for any other entry: a boolean, which
    numpy would read as 0 or 1, a string, null, or a number too large for a
    float, such as 1e400, which json reads as inf."""
    values = field(obj, key, list, default)
    entries = values
    if values and all(type(v) is list for v in values):
        entries = [v for row in values for v in row]
    if not {*map(type, entries)} <= {int, float}:
        bad = next(v for v in entries if type(v) not in (int, float))
        raise ValueError(f"bad entry in {key!r}: expected a number, got {shown(bad)}")
    try:  # predict reads every tree array: the check stays in C
        all_finite = all(map(math.isfinite, entries))
    except OverflowError:
        all_finite = False
    if not all_finite:
        bad = next(v for v in entries if not finite(v))
        raise ValueError(f"bad entry in {key!r}: expected a finite number, got {shown(bad)}")
    return values


def finite(number) -> bool:
    """Whether a JSON number is finite as a float; an integer too large for
    a float is not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def integers(values: list, key: str) -> list:
    """``values``, entries of the artifact field ``key``, checked to be JSON
    integers. Raises ValueError naming ``key`` for any other entry: a
    fraction such as 2.5, which ``int`` and numpy would truncate to 2, a
    boolean, which they would read as 0 or 1, a string, an array or null."""
    if not {*map(type, values)} <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"bad entry in {key!r}: expected an integer, got {shown(bad)}")
    return values


def shown(value, width: int = 40) -> str:
    """``value`` as JSON, cut to ``width`` characters for an error message."""
    text = json.dumps(value)
    return text if len(text) <= width else text[: width - 3] + "..."
