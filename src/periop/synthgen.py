"""Synthetic perioperative event-log generator with planted ground truth.

Writes events.csv / cases.csv in the ingestion schema plus a ground-truth
record, so the whole pipeline can be verified end to end without real
hospital data. The generator plants the documented artifacts: per-phase
anchor missingness, manual plans quantized to 15-minute multiples with a
calibrated multiplicative bias, systematic underestimation of short
procedures, free-text synonym/abbreviation variation, and a small rate of
implausible records (negative or multi-day durations). Output is fully
deterministic for a given seed; all draws come from one sequential stream.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import rules
from .eventlog import CASES_HEADER, EVENTS_HEADER
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

# local time is UTC+2 from April to October, else UTC+1: (shift from UTC, suffix)
_SUMMER = (timedelta(hours=2), "+02:00")
_WINTER = (timedelta(hours=1), "+01:00")


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


def _pair_presence(rng: np.random.Generator, coverage: float) -> tuple[bool, bool]:
    """Presence of (first, second) anchor of a pair.

    With probability ``coverage`` both anchors exist. Otherwise 60% of the
    time both are dropped and 40% of the time exactly one survives.
    """
    if rng.random() < coverage:
        return True, True
    u = rng.random()
    if u < 0.6:
        return False, False
    if u < 0.8:
        return True, False
    return False, True


def _single_presence_rate(coverage: float) -> float:
    # marginal probability that one specific anchor of a pair is present
    return coverage + (1.0 - coverage) * 0.2


def _quantize_plan(raw_minutes: float, quantum: float) -> float:
    return max(quantum, round(raw_minutes / quantum) * quantum)


def _fmt_minutes(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _local_time(month: int) -> tuple[timedelta, str]:
    return _SUMMER if 4 <= month <= 10 else _WINTER


def _local_isoformat(utc: datetime) -> str:
    # the offset follows the UTC timestamp's month, not the local one
    shift, suffix = _local_time(utc.month)
    return (utc + shift).isoformat() + suffix


def _noisy_text(rng: np.random.Generator, text: str) -> str:
    u = rng.random()
    if u < 0.25:
        text = text.capitalize()
    elif u < 0.35:
        text = text.upper()
    v = rng.random()
    if v < 0.15:
        text = text + "."
    elif v < 0.22:
        text = text + "!"
    return text


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cdf(p) -> list[float]:
    # numpy's Generator.choice builds this CDF; bisect_right on it is its
    # searchsorted(side="right"), so one rng.random() draw picks the same index
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_log(cfg: SynthConfig, out: Path) -> None:
    """Write events.csv, cases.csv and ground_truth.json into the directory ``out``.

    Each case's ground-truth record is written as soon as it is drawn. Events
    (by UTC timestamp, case id, event type) and case rows (by case id) are
    sorted, then written.
    """
    rng = np.random.default_rng(cfg.seed)
    n_fam = cfg.n_procedure_families
    fam_terms = [
        PROCEDURE_TERMS[i] if i < len(PROCEDURE_TERMS) else f"eingriff{i:02d}"
        for i in range(n_fam)
    ]
    fam_medians = np.exp(
        rng.uniform(
            math.log(cfg.procedure_median_range[0]),
            math.log(cfg.procedure_median_range[1]),
            size=n_fam,
        )
    )
    fam_sigmas = rng.uniform(*cfg.procedure_sigma_range, size=n_fam)
    fam_cdf = _cdf(rng.dirichlet(np.full(n_fam, 2.0)))
    fam_dept = [DEPARTMENTS[i % len(DEPARTMENTS)] for i in range(n_fam)]
    fam_positioning = [POSITIONINGS[i % len(POSITIONINGS)] for i in range(n_fam)]
    variant_templates = PROCEDURE_VARIANT_TEMPLATES[: cfg.synonyms_per_family]

    n_anes = cfg.n_anesthesia_families
    anes_canon = ANESTHESIA_CANONICALS[:n_anes]
    anes_surfaces = [anesthesia_variants(c) for c in anes_canon]
    anes_medians = np.exp(
        rng.uniform(
            math.log(cfg.induction_median_range[0]),
            math.log(cfg.induction_median_range[1]),
            size=n_anes,
        )
    )
    anes_sigmas = rng.uniform(*cfg.induction_sigma_range, size=n_anes)
    anes_cdf = _cdf(rng.dirichlet(np.full(n_anes, 2.0)))
    sex_cdf = _cdf([0.48, 0.48, 0.04])
    sexes = ("f", "m", "other")

    # python floats: the same doubles as the arrays, without numpy scalar overhead
    fam_median_list = fam_medians.tolist()
    fam_log_medians = [math.log(m) for m in fam_median_list]
    fam_sigma_list = fam_sigmas.tolist()
    anes_median_list = anes_medians.tolist()
    anes_log_medians = [math.log(m) for m in anes_median_list]
    anes_sigma_list = anes_sigmas.tolist()
    prep_log_medians = [math.log(median) for _, median in fam_positioning]

    # positioning info is only usable when both surrounding timestamps exist
    p_complete = _single_presence_rate(cfg.coverage_induction)
    p_incision = _single_presence_rate(cfg.coverage_procedure)
    q_positioning = min(1.0, cfg.coverage_preparation / (p_complete * p_incision))

    # a case's local offset follows the month of its day
    base_day = datetime.fromisoformat(cfg.start_date)
    day_start = [base_day + timedelta(days=day) for day in range(cfg.horizon_days)]
    utc_shift = [_local_time(d.month)[0] for d in day_start]
    # (naive UTC timestamp, case_id, type); tuple order is the file's order
    events: list[tuple[datetime, str, str]] = []
    case_rows: list[tuple[str, ...]] = []
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

    with (out / "ground_truth.json").open("w", encoding="utf-8") as truth_fh:
        # sort_keys puts "cases" first, so the per-case records stream out
        truth_fh.write('{"cases":[')
        for i in range(cfg.n_cases):
            case_id = f"W{i + 1:06d}"
            fam = bisect_right(fam_cdf, rng.random())
            anes = bisect_right(anes_cdf, rng.random())
            positioning, _ = fam_positioning[fam]
            age = min(95, max(18, round(rng.normal(55.0, 18.0))))
            sex = sexes[bisect_right(sex_cdf, rng.random())]

            ind_sec = max(60, round(60.0 * float(np.exp(rng.normal(anes_log_medians[anes], anes_sigma_list[anes])))))
            prep_sec = max(60, round(60.0 * float(np.exp(rng.normal(prep_log_medians[fam], cfg.preparation_sigma)))))
            proc_sec = max(60, round(60.0 * float(np.exp(rng.normal(fam_log_medians[fam], fam_sigma_list[fam])))))

            proc_bias = float(np.exp(rng.normal(cfg.proc_plan_bias_mu, cfg.proc_plan_bias_sigma)))
            if fam_median_list[fam] < 30.0:
                proc_bias *= cfg.short_family_bias
            proc_plan = _quantize_plan(fam_median_list[fam] * proc_bias, cfg.plan_quantum_min)
            ind_bias = float(np.exp(rng.normal(cfg.ind_plan_bias_mu, cfg.ind_plan_bias_sigma)))
            ind_plan = _quantize_plan(anes_median_list[anes] * ind_bias, cfg.plan_quantum_min)

            has_start, has_complete = _pair_presence(rng, cfg.coverage_induction)
            has_incision, has_suture = _pair_presence(rng, cfg.coverage_procedure)
            has_positioning = rng.random() < q_positioning

            implausible = None
            emitted_proc_sec = proc_sec
            draw = rng.random()
            if has_incision and has_suture and draw < cfg.implausible_rate:
                if rng.random() < 0.5:
                    emitted_proc_sec = -int(rng.integers(300, 3600))
                    implausible = "negative"
                else:
                    emitted_proc_sec = proc_sec + int(round(rng.uniform(2.5, 5.0) * 86400))
                    implausible = "multiday"

            day = int(rng.integers(cfg.horizon_days))
            minute_of_day = rng.uniform(6 * 60, 16 * 60)
            t0_local = (day_start[day] + timedelta(minutes=minute_of_day)).replace(second=0, microsecond=0)
            t0 = t0_local - utc_shift[day]
            t_complete = t0 + timedelta(seconds=ind_sec)
            t_incision = t_complete + timedelta(seconds=prep_sec)
            if has_start:
                events.append((t0, case_id, "anesthesia_start"))
            if has_complete:
                events.append((t_complete, case_id, "anesthesia_complete"))
            if has_incision:
                events.append((t_incision, case_id, "incision"))
            if has_suture:
                events.append((t_incision + timedelta(seconds=emitted_proc_sec), case_id, "suture"))
            if rng.random() < cfg.other_event_rate:
                label = OTHER_EVENT_LABELS[rng.integers(len(OTHER_EVENT_LABELS))]
                events.append((t0 - timedelta(minutes=rng.uniform(5.0, 25.0)), case_id, label))

            attrs_present = rng.random() >= cfg.attrs_missing_rate
            template = variant_templates[int(rng.integers(len(variant_templates)))]
            procedure_text = _noisy_text(rng, template.format(t=fam_terms[fam]))
            surfaces = anes_surfaces[anes]
            anesthesia_text = _noisy_text(rng, surfaces[int(rng.integers(len(surfaces)))])
            if attrs_present:
                case_rows.append(
                    (
                        case_id,
                        fam_dept[fam],
                        str(age),
                        sex,
                        procedure_text,
                        anesthesia_text,
                        positioning if has_positioning else "",
                        _fmt_minutes(ind_plan),
                        _fmt_minutes(proc_plan),
                    )
                )

            if i:
                truth_fh.write(",")
            truth_fh.write(
                encode(
                    {
                        "case_id": case_id,
                        "procedure_family": fam,
                        "anesthesia_family": anes,
                        "positioning": positioning,
                        "induction_min": ind_sec / 60.0,
                        "preparation_min": prep_sec / 60.0,
                        "procedure_min": emitted_proc_sec / 60.0,
                        "planned_induction_min": ind_plan,
                        "planned_procedure_min": proc_plan,
                        "has_anchors": {
                            "anesthesia_start": has_start,
                            "anesthesia_complete": has_complete,
                            "incision": has_incision,
                            "suture": has_suture,
                        },
                        "has_positioning_info": has_positioning,
                        "attrs_present": attrs_present,
                        "implausible": implausible,
                    }
                )
            )
        procedure_means = {
            str(f): float(fam_medians[f] * math.exp(fam_sigmas[f] ** 2 / 2.0)) for f in range(n_fam)
        }
        induction_means = {
            str(a): float(anes_medians[a] * math.exp(anes_sigmas[a] ** 2 / 2.0)) for a in range(n_anes)
        }
        truth_fh.write(
            f'],"induction_family_means":{encode(induction_means)},"n_cases":{cfg.n_cases},'
            f'"procedure_family_means":{encode(procedure_means)},"seed":{cfg.seed}}}\n'
        )

    events.sort()
    _write_csv(out / "events.csv", EVENTS_HEADER, ((c, e, _local_isoformat(ts)) for ts, c, e in events))
    case_rows.sort()
    _write_csv(out / "cases.csv", CASES_HEADER, case_rows)
