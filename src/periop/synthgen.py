"""Synthetic perioperative event-log generator with planted ground truth.

Writes events.csv / cases.csv in the ingestion schema plus a ground-truth
record, so the whole pipeline can be verified end to end without real
hospital data. The generator plants the documented artifacts: per-phase
anchor missingness, manual plans quantized to 15-minute multiples with a
calibrated multiplicative bias, systematic underestimation of short
procedures, free-text synonym/abbreviation variation, and a small rate of
implausible records (negative or multi-day durations). Output is fully
deterministic for a given seed. Each raw column of the cases is drawn from
its own stream, one child of ``SeedSequence(seed)`` per name in ``STREAMS``,
so case i's draws depend neither on the number of cases nor on any other
column: the log of n cases is the first n cases of any longer log at the
same seed.

``generate_log`` works in two passes: the first draws each raw column in
bulk, then numpy derives the durations, plans, texts and timestamps from
them, sorts the events with one ``lexsort``, and ``artifacts.write`` writes
the three files a chunk of rows at a time, each formatted as it is written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from . import artifacts, rules
from .eventlog import ANCHOR_EVENTS, CASES_HEADER, EVENTS_HEADER
from .textnorm import DEFAULT_SYNONYMS

DEPARTMENTS = (
    "otolaryngology",
    "gynecology",
    "cardiac surgery",
    "urology",
    "neurosurgery",
    "orthopedics",
    "plastic surgery",
    "visceral surgery",
    "thoracic surgery",
    "vascular surgery",
)

PROCEDURE_TERMS = (
    "cholezystektomie",
    "appendektomie",
    "herniotomie",
    "mastektomie",
    "hysterektomie",
    "prostatektomie",
    "nephrektomie",
    "lobektomie",
    "thyreoidektomie",
    "arthroskopie",
    "osteosynthese",
    "hueftendoprothese",
    "knieendoprothese",
    "bypass",
    "klappenersatz",
    "kraniotomie",
    "laminektomie",
    "tonsillektomie",
    "septumplastik",
    "varizenstripping",
    "strumaresektion",
    "sigmaresektion",
    "gastrektomie",
    "splenektomie",
    "thorakotomie",
)

# Surface variants per procedure family; every variant keeps the family term
# so clustering does not depend on a synonym table.
PROCEDURE_VARIANT_TEMPLATES = (
    "{t}",
    "{t} rechts",
    "lap. {t}",
    "{t} links",
    "offene {t}",
    "{t} minimalinvasiv",
)

ANESTHESIA_CANONICALS = (
    "intubationsnarkose",
    "larynxmaske",
    "spinalanaesthesie",
    "plexusblockade",
    "analgosedierung",
)

POSITIONINGS = (
    ("rueckenlage", 10.0),
    ("bauchlage", 18.0),
    ("seitenlage", 15.0),
    ("steinschnittlage", 14.0),
    ("beachchair", 20.0),
)

OTHER_EVENT_LABELS = ("pat_einschleusung", "op_freigabe", "naht_dokumentiert")

# every event type in string order: a type's index is its rank in events.csv
EVENT_TYPES = tuple(sorted((*ANCHOR_EVENTS, *OTHER_EVENT_LABELS)))

_MINUTE_US = 60_000_000
_HOUR_US = 60 * _MINUTE_US
_DAY_US = 24 * _HOUR_US
_OFFSET_SUFFIX = ("+02:00", "+01:00")  # indexed by offset == one hour
_SEXES = ("f", "m", "other")
_JSON_BOOL = ("false", "true")
# the two flag bits of a case after its four anchor bits
_POSITIONING, _ATTRS = 1 << 4, 1 << 5
_CHUNK = 1024  # rows formatted and written at a time

# The generator's streams, spawned from SeedSequence(seed) in this order: the
# family parameters, then one per raw column of the cases. A case of the
# implausible or other events draws values of three kinds, and one bulk call
# draws one kind, so each of those events has a stream per kind.
STREAMS = (
    "family_params", "family", "anesthesia", "age", "sex",
    "induction", "preparation", "procedure", "procedure_plan_bias", "induction_plan_bias",
    "induction_anchors", "procedure_anchors", "positioning",
    "implausible", "implausible_negative", "implausible_multiday",
    "day", "minute", "other_event", "other_label", "other_minutes",
    "attrs", "variant", "surface", "procedure_noise", "anesthesia_noise",
)


def anesthesia_variants(canonical: str) -> list[str]:
    """Canonical term plus every shipped abbreviation that maps to it."""
    variants = [canonical]
    variants.extend(sorted(k for k, v in DEFAULT_SYNONYMS.items() if v == canonical))
    return variants


@dataclass(frozen=True)
class SynthConfig:
    n_cases: int = 20000
    seed: int = 0
    n_procedure_families: int = 25
    synonyms_per_family: int = 4
    n_anesthesia_families: int = 5
    procedure_median_range: tuple[float, float] = (20.0, 240.0)
    procedure_sigma_range: tuple[float, float] = (0.25, 0.45)
    induction_median_range: tuple[float, float] = (12.0, 45.0)
    induction_sigma_range: tuple[float, float] = (0.25, 0.40)
    preparation_sigma: float = 0.35
    # share of workflows with both defining timestamps (and, for the
    # preparation phase, the positioning information) present
    coverage_procedure: float = 0.6998
    coverage_induction: float = 0.4650
    coverage_preparation: float = 0.0697
    plan_quantum_min: float = 15.0
    # log-space multiplicative bias of the manual plan, calibrated so the
    # cleaned procedure set shows ~68% mean |%dev| with >60% beyond +/-20%
    proc_plan_bias_mu: float = 0.02
    proc_plan_bias_sigma: float = 0.63
    ind_plan_bias_mu: float = 0.02
    ind_plan_bias_sigma: float = 0.35
    short_family_bias: float = 0.75  # extra underestimation below 30 min medians
    implausible_rate: float = 0.01
    attrs_missing_rate: float = 0.002
    other_event_rate: float = 0.5
    start_date: str = "2024-01-18"
    horizon_days: int = 370

    def __post_init__(self) -> None:
        rules.check_synth_n_cases(self.n_cases)
        for name in ("coverage_procedure", "coverage_induction", "coverage_preparation",
                     "implausible_rate", "attrs_missing_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.n_procedure_families < 1 or self.n_anesthesia_families < 1:
            raise ValueError("need at least one family per text field")
        if self.n_anesthesia_families > len(ANESTHESIA_CANONICALS):
            raise ValueError(f"at most {len(ANESTHESIA_CANONICALS)} anesthesia families supported")
        if not 1 <= self.synonyms_per_family <= len(PROCEDURE_VARIANT_TEMPLATES):
            raise ValueError("synonyms_per_family out of range")
        if self.plan_quantum_min <= 0 or self.preparation_sigma <= 0:
            raise ValueError("plan_quantum_min and preparation_sigma must be > 0")


def _pair_presences(rng: np.random.Generator, n: int, coverage: float) -> tuple[np.ndarray, np.ndarray]:
    """Presence of the (first, second) anchor of each of ``n`` pairs, from two draws per pair.

    With probability ``coverage`` both anchors exist. Otherwise 60% of the
    time both are dropped and 40% of the time exactly one survives.
    """
    both, u = rng.random((n, 2)).T
    both = both < coverage
    return both | ((0.6 <= u) & (u < 0.8)), both | (u >= 0.8)


def _single_presence_rate(coverage: float) -> float:
    # marginal probability that one specific anchor of a pair is present
    return coverage + (1.0 - coverage) * 0.2


def _quantize_plans(raw_minutes: np.ndarray, quantum: float) -> np.ndarray:
    return np.maximum(quantum, np.rint(raw_minutes / quantum) * quantum)


def _fmt_minutes(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _noise_codes(rng: np.random.Generator, n: int) -> np.ndarray:
    """The noise of ``n`` texts, from two draws per text: 3 * letter case
    (as is, capitalized, upper) + end mark (none, '.', '!')."""
    u, v = rng.random((n, 2)).T
    letters = np.where(u < 0.25, 1, np.where(u < 0.35, 2, 0))
    return 3 * letters + np.where(v < 0.15, 1, np.where(v < 0.22, 2, 0))


def _noisy_text(text: str, code: int) -> str:
    return (text, text.capitalize(), text.upper())[code // 3] + ("", ".", "!")[code % 3]


def _text_table(families: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Every noisy form of every family's surface texts, and each family's offset.

    Text ``9 * surface + noise code`` of family f is at ``offset[f]`` plus that code.
    """
    texts = [_noisy_text(text, code) for surfaces in families for text in surfaces for code in range(9)]
    offsets = np.cumsum([0] + [9 * len(surfaces) for surfaces in families[:-1]])
    return np.array(texts, dtype=object), offsets


def _minutes_to_us(minutes: np.ndarray) -> np.ndarray:
    """``timedelta(minutes=x) // timedelta(microseconds=1)`` for each x >= 0, as int64.

    timedelta keeps the whole minutes exactly and scales the fraction to
    microseconds in float arithmetic; the part below one microsecond rounds
    half to even on the total, whose parity is that of the scaled fraction's
    whole part, since a minute is an even number of microseconds.
    """
    whole = np.floor(minutes)
    scaled = (minutes - whole) * _MINUTE_US
    us = np.floor(scaled)
    rest = scaled - us
    up = (rest > 0.5) | ((rest == 0.5) & (us % 2 == 1))
    return whole.astype(np.int64) * _MINUTE_US + us.astype(np.int64) + up


def _utc_offset_us(utc_us: np.ndarray) -> np.ndarray:
    """The local offset of each timestamp: UTC+2 from April to October, else UTC+1."""
    month = utc_us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64) % 12 + 1
    return np.where((month >= 4) & (month <= 10), 2 * _HOUR_US, _HOUR_US)


def _case_id_rank(numbers: np.ndarray) -> np.ndarray:
    """Rank of each case id ``W{number:06d}`` among those of ``numbers``, in string order.

    Ids grow a seventh digit above W999999, so string order is not number
    order: "W1000000" sorts before "W100001". Two ids compare as their
    numerals aligned on the left, the shorter numeral first on a tie.
    """
    width = max(6, len(str(int(numbers.max(initial=0)))))
    digits = np.full(numbers.shape, 6, dtype=np.int64)
    for power in range(6, width):
        digits += numbers >= 10**power
    rank = np.empty(numbers.shape, dtype=np.int64)
    rank[np.lexsort((digits, numbers * 10 ** (width - digits)))] = np.arange(numbers.size)
    return rank


def _case_ids(index: np.ndarray) -> list[str]:
    return [f"W{number:06d}" for number in (index + 1).tolist()]


def _texts(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each value as an object array, formatting each distinct value once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fmt(v) for v in distinct.tolist()], dtype=object)[inverse.ravel()]


def _chunks(index: np.ndarray):
    for start in range(0, index.size, _CHUNK):
        yield index[start : start + _CHUNK]


def generate_log(cfg: SynthConfig, out: Path) -> None:
    """Write events.csv, cases.csv and ground_truth.json into the directory ``out``."""
    artifacts.write(_log_files(cfg, out))


def _log_files(cfg: SynthConfig, out: Path) -> artifacts.Files:
    """ground_truth.json, cases.csv and events.csv under ``out``, as text or
    rows formatted a chunk at a time as ``artifacts.write`` writes them.

    Two passes. The first draws each raw column, for every case at once,
    from the column's own stream (``STREAMS``). The second derives the
    durations, plans, texts and timestamps from those columns with numpy,
    sorts the events (by UTC timestamp, case id, event type) and the case
    rows (by case id), and yields the three files in small chunks.
    """
    rng = dict(zip(STREAMS, map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(len(STREAMS)))))
    params = rng["family_params"]
    n_fam = cfg.n_procedure_families
    fam_terms = [
        PROCEDURE_TERMS[i] if i < len(PROCEDURE_TERMS) else f"eingriff{i:02d}"
        for i in range(n_fam)
    ]
    fam_medians = np.exp(
        params.uniform(
            math.log(cfg.procedure_median_range[0]),
            math.log(cfg.procedure_median_range[1]),
            size=n_fam,
        )
    )
    fam_sigmas = params.uniform(*cfg.procedure_sigma_range, size=n_fam)
    fam_weights = params.dirichlet(np.full(n_fam, 2.0))
    fam_positioning = [POSITIONINGS[i % len(POSITIONINGS)] for i in range(n_fam)]
    variant_templates = PROCEDURE_VARIANT_TEMPLATES[: cfg.synonyms_per_family]

    n_anes = cfg.n_anesthesia_families
    anes_surfaces = [anesthesia_variants(c) for c in ANESTHESIA_CANONICALS[:n_anes]]
    anes_medians = np.exp(
        params.uniform(
            math.log(cfg.induction_median_range[0]),
            math.log(cfg.induction_median_range[1]),
            size=n_anes,
        )
    )
    anes_sigmas = params.uniform(*cfg.induction_sigma_range, size=n_anes)
    anes_weights = params.dirichlet(np.full(n_anes, 2.0))

    # math.log, not np.log, so that each mean is the double a scalar draw would use
    fam_log_medians = np.array([math.log(m) for m in fam_medians.tolist()])
    anes_log_medians = np.array([math.log(m) for m in anes_medians.tolist()])
    prep_log_medians = np.array([math.log(median) for _, median in fam_positioning])

    # positioning info is only usable when both surrounding timestamps exist
    p_complete = _single_presence_rate(cfg.coverage_induction)
    p_incision = _single_presence_rate(cfg.coverage_procedure)
    q_positioning = min(1.0, cfg.coverage_preparation / (p_complete * p_incision))

    # Pass 1: each raw column in bulk from its own stream. A draw that only
    # some cases use is made for every case and masked, so case i's values
    # are the i-th draws of each stream, whatever n_cases and the rates are.
    # Integers are drawn as int64, for only then do they equal scalar draws,
    # and narrowed at once.
    n = cfg.n_cases
    fam = rng["family"].choice(n_fam, size=n, p=fam_weights).astype(np.int32)
    anes = rng["anesthesia"].choice(n_anes, size=n, p=anes_weights).astype(np.uint8)
    variant = rng["variant"].integers(len(variant_templates), size=n)
    proc_text = (9 * variant + _noise_codes(rng["procedure_noise"], n)).astype(np.uint8)
    surface = rng["surface"].integers(np.array([len(surfaces) for surfaces in anes_surfaces])[anes])
    anes_text = (9 * surface + _noise_codes(rng["anesthesia_noise"], n)).astype(np.uint8)
    del variant, surface

    # One byte of flags per case: a bit per anchor in ANCHOR_EVENTS order, then
    # _POSITIONING and _ATTRS.
    has_start, has_complete = _pair_presences(rng["induction_anchors"], n, cfg.coverage_induction)
    has_incision, has_suture = _pair_presences(rng["procedure_anchors"], n, cfg.coverage_procedure)
    has_positioning = rng["positioning"].random(n) < q_positioning
    has_attrs = rng["attrs"].random(n) >= cfg.attrs_missing_rate
    flags = np.zeros(n, dtype=np.uint8)
    for k, bit in enumerate((has_start, has_complete, has_incision, has_suture, has_positioning, has_attrs)):
        flags |= bit.astype(np.uint8) << k
    gate, negative = rng["implausible"].random((n, 2)).T
    at = np.flatnonzero(has_incision & has_suture & (gate < cfg.implausible_rate))
    del has_start, has_complete, has_incision, has_suture, has_positioning, has_attrs, gate
    # < 0: the emitted negative duration, else seconds added to the true one
    sec = np.where(
        negative[at] < 0.5,
        -rng["implausible_negative"].integers(300, 3600, size=n)[at],
        np.rint(rng["implausible_multiday"].uniform(2.5, 5.0, size=n)[at] * 86400).astype(np.int64),
    )
    del negative
    other_at = np.flatnonzero(rng["other_event"].random(n) < cfg.other_event_rate)
    other_label = rng["other_label"].integers(len(OTHER_EVENT_LABELS), size=n)[other_at].astype(np.uint8)
    other_min = rng["other_minutes"].uniform(5.0, 25.0, size=n)[other_at]

    ind_z = rng["induction"].normal(anes_log_medians[anes], anes_sigmas[anes])
    prep_z = rng["preparation"].normal(prep_log_medians[fam], cfg.preparation_sigma)
    proc_z = rng["procedure"].normal(fam_log_medians[fam], fam_sigmas[fam])
    proc_bias_z = rng["procedure_plan_bias"].normal(cfg.proc_plan_bias_mu, cfg.proc_plan_bias_sigma, size=n)
    ind_bias_z = rng["induction_plan_bias"].normal(cfg.ind_plan_bias_mu, cfg.ind_plan_bias_sigma, size=n)
    age_z = rng["age"].normal(55.0, 18.0, size=n)
    sex = rng["sex"].choice(len(_SEXES), size=n, p=[0.48, 0.48, 0.04]).astype(np.uint8)
    day = rng["day"].integers(cfg.horizon_days, size=n).astype(np.int32)
    minute = rng["minute"].uniform(6 * 60, 16 * 60, size=n)

    # Pass 2: everything derived, as numpy columns
    ind_sec, prep_sec, proc_sec = (
        np.maximum(60, np.rint(60.0 * np.exp(z)).astype(np.int64)) for z in (ind_z, prep_z, proc_z)
    )
    emitted_sec = proc_sec.copy()
    emitted_sec[at] = np.where(sec < 0, sec, proc_sec[at] + sec)
    implausible = np.full(cfg.n_cases, "null", dtype=object)
    implausible[at] = np.where(sec < 0, '"negative"', '"multiday"')
    del ind_z, prep_z, proc_z, proc_sec, at, sec

    fam_median = fam_medians[fam]
    proc_bias = np.exp(proc_bias_z)
    proc_bias = np.where(fam_median < 30.0, proc_bias * cfg.short_family_bias, proc_bias)
    proc_plan = _quantize_plans(fam_median * proc_bias, cfg.plan_quantum_min)
    ind_plan = _quantize_plans(anes_medians[anes] * np.exp(ind_bias_z), cfg.plan_quantum_min)
    del fam_median, proc_bias, proc_bias_z, ind_bias_z

    positioning = np.array([name for name, _ in fam_positioning], dtype=object)

    def ground_truth():
        # sort_keys order: "cases" first, then the other members
        yield '{"cases":['
        for at in _chunks(np.arange(cfg.n_cases)):
            bits = [((flags[at] & 1 << k) != 0).tolist() for k in range(6)]
            yield ("," if at[0] else "") + ",".join(
                f'{{"anesthesia_family":{a},"attrs_present":{_JSON_BOOL[attrs]},"case_id":"{case_id}",'
                f'"has_anchors":{{"anesthesia_complete":{_JSON_BOOL[complete]},'
                f'"anesthesia_start":{_JSON_BOOL[start]},"incision":{_JSON_BOOL[incision]},'
                f'"suture":{_JSON_BOOL[suture]}}},"has_positioning_info":{_JSON_BOOL[pos]},'
                f'"implausible":{kind},"induction_min":{ind!r},"planned_induction_min":{ind_p!r},'
                f'"planned_procedure_min":{proc_p!r},"positioning":"{name}","preparation_min":{prep!r},'
                f'"procedure_family":{f},"procedure_min":{proc!r}}}'
                for case_id, f, a, start, complete, incision, suture, pos, attrs, kind, ind, prep, proc,
                ind_p, proc_p, name in zip(
                    _case_ids(at), fam[at].tolist(), anes[at].tolist(), *bits, implausible[at].tolist(),
                    (ind_sec[at] / 60.0).tolist(), (prep_sec[at] / 60.0).tolist(),
                    (emitted_sec[at] / 60.0).tolist(), ind_plan[at].tolist(), proc_plan[at].tolist(),
                    positioning[fam[at]].tolist(),
                )
            )
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        procedure_means = {
            str(f): float(fam_medians[f] * math.exp(fam_sigmas[f] ** 2 / 2.0)) for f in range(n_fam)
        }
        induction_means = {
            str(a): float(anes_medians[a] * math.exp(anes_sigmas[a] ** 2 / 2.0)) for a in range(n_anes)
        }
        yield (
            f'],"induction_family_means":{encode(induction_means)},"n_cases":{cfg.n_cases},'
            f'"procedure_family_means":{encode(procedure_means)},"seed":{cfg.seed}}}\n'
        )
    yield out / "ground_truth.json", ground_truth()
    del implausible

    rank = _case_id_rank(np.arange(1, cfg.n_cases + 1)).astype(np.int32)
    present = np.flatnonzero(flags & _ATTRS)
    proc_texts, proc_offsets = _text_table(
        [[template.format(t=term) for template in variant_templates] for term in fam_terms]
    )
    anes_texts, anes_offsets = _text_table(anes_surfaces)
    columns = (
        np.array([DEPARTMENTS[f % len(DEPARTMENTS)] for f in range(n_fam)], dtype=object)[fam],
        _texts(np.clip(np.rint(age_z), 18, 95).astype(np.int64), str),
        np.array(_SEXES, dtype=object)[sex],
        proc_texts[proc_offsets[fam] + proc_text],
        anes_texts[anes_offsets[anes] + anes_text],
        np.where(flags & _POSITIONING, positioning[fam], ""),
        _texts(ind_plan, _fmt_minutes),
        _texts(proc_plan, _fmt_minutes),
    )
    del age_z, sex, proc_text, anes_text, ind_plan, proc_plan
    yield out / "cases.csv", (CASES_HEADER, (
        row
        for at in _chunks(present[np.argsort(rank[present])])
        for row in zip(_case_ids(at), *(column[at].tolist() for column in columns))
    ))
    del columns, present

    # each event: its UTC timestamp in microseconds, case index and type's sort rank;
    # the case index and the case ranks are int32, which halves the sort's largest keys
    base = np.datetime64(datetime.fromisoformat(cfg.start_date), "us").astype(np.int64)
    day_start = base + _DAY_US * day.astype(np.int64)
    local = day_start + _minutes_to_us(minute)
    # a case's local offset follows the month of its day
    t0 = local - local % _MINUTE_US - _utc_offset_us(day_start)
    del day, minute, day_start, local
    t_complete = t0 + 1_000_000 * ind_sec
    t_incision = t_complete + 1_000_000 * prep_sec
    anchor_times = (t0, t_complete, t_incision, t_incision + 1_000_000 * emitted_sec)
    del ind_sec, prep_sec, emitted_sec
    stamps, cases, types = [], [], []
    for k, (event_type, times) in enumerate(zip(ANCHOR_EVENTS, anchor_times)):
        at = np.flatnonzero(flags & 1 << k).astype(np.int32)
        stamps.append(times[at])
        cases.append(at)
        types.append(np.full(at.size, EVENT_TYPES.index(event_type), dtype=np.uint8))
    stamps.append(t0[other_at] - _minutes_to_us(other_min))
    cases.append(other_at.astype(np.int32))
    types.append(np.array([EVENT_TYPES.index(label) for label in OTHER_EVENT_LABELS], dtype=np.uint8)[other_label])
    del anchor_times, t0, t_complete, t_incision, other_at, other_label, other_min, flags
    stamps, cases, types = (np.concatenate(parts) for parts in (stamps, cases, types))
    order = np.lexsort((types, rank[cases], stamps))
    del rank

    def events():
        yield ",".join(EVENTS_HEADER) + "\n"
        for at in _chunks(order):
            utc = stamps[at]
            offset = _utc_offset_us(utc)
            local = utc + offset
            # isoformat drops the microseconds when they are zero
            when = local.astype("datetime64[us]")
            text = np.where(
                local % 1_000_000 == 0,
                np.datetime_as_string(when, unit="s"),
                np.datetime_as_string(when, unit="us"),
            )
            yield "".join(
                f"{case_id},{EVENT_TYPES[t]},{stamp}{_OFFSET_SUFFIX[o == _HOUR_US]}\n"
                for case_id, t, stamp, o in zip(
                    _case_ids(cases[at]), types[at].tolist(), text.tolist(), offset.tolist()
                )
            )
    yield out / "events.csv", events()
