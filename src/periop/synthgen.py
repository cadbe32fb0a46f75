"""Synthetic perioperative event-log generator with planted ground truth.

Emits events.csv / cases.csv in the ingestion schema plus a ground-truth
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
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

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
        if self.n_cases < 100:
            raise ValueError("n_cases must be >= 100")
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


@dataclass(frozen=True)
class GroundTruth:
    """Per-case planted values plus per-family analytic means."""

    cases: tuple[dict, ...]
    procedure_family_means: dict[str, float]
    induction_family_means: dict[str, float]
    n_cases: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "seed": self.seed,
            "procedure_family_means": dict(sorted(self.procedure_family_means.items())),
            "induction_family_means": dict(sorted(self.induction_family_means.items())),
            "cases": list(self.cases),
        }


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


def generate_log(cfg: SynthConfig) -> tuple[str, str, GroundTruth]:
    """Generate (events.csv, cases.csv, ground truth) for the configuration."""
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
    fam_weights = rng.dirichlet(np.full(n_fam, 2.0))
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
    anes_weights = rng.dirichlet(np.full(n_anes, 2.0))

    # positioning info is only usable when both surrounding timestamps exist
    p_complete = _single_presence_rate(cfg.coverage_induction)
    p_incision = _single_presence_rate(cfg.coverage_procedure)
    q_positioning = min(1.0, cfg.coverage_preparation / (p_complete * p_incision))

    base_day = datetime.fromisoformat(cfg.start_date)
    events: list[tuple[datetime, str, str]] = []  # (utc timestamp, case_id, type)
    case_rows: list[dict] = []
    truth_cases: list[dict] = []

    for i in range(cfg.n_cases):
        case_id = f"W{i + 1:06d}"
        fam = int(rng.choice(n_fam, p=fam_weights))
        anes = int(rng.choice(n_anes, p=anes_weights))
        positioning, prep_median = fam_positioning[fam]
        department = fam_dept[fam]
        age = int(np.clip(round(rng.normal(55.0, 18.0)), 18, 95))
        sex = str(rng.choice(["f", "m", "other"], p=[0.48, 0.48, 0.04]))

        ind_sec = max(60, round(60.0 * float(np.exp(rng.normal(math.log(anes_medians[anes]), anes_sigmas[anes])))))
        prep_sec = max(60, round(60.0 * float(np.exp(rng.normal(math.log(prep_median), cfg.preparation_sigma)))))
        proc_sec = max(60, round(60.0 * float(np.exp(rng.normal(math.log(fam_medians[fam]), fam_sigmas[fam])))))

        proc_bias = float(np.exp(rng.normal(cfg.proc_plan_bias_mu, cfg.proc_plan_bias_sigma)))
        if fam_medians[fam] < 30.0:
            proc_bias *= cfg.short_family_bias
        proc_plan = _quantize_plan(fam_medians[fam] * proc_bias, cfg.plan_quantum_min)
        ind_bias = float(np.exp(rng.normal(cfg.ind_plan_bias_mu, cfg.ind_plan_bias_sigma)))
        ind_plan = _quantize_plan(anes_medians[anes] * ind_bias, cfg.plan_quantum_min)

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
        minute_of_day = float(rng.uniform(6 * 60, 16 * 60))
        offset_hours = 2 if 4 <= ((base_day + timedelta(days=day)).month) <= 10 else 1
        tz = timezone(timedelta(hours=offset_hours))
        t0 = (base_day + timedelta(days=day, minutes=minute_of_day)).replace(second=0, microsecond=0, tzinfo=tz)
        t_complete = t0 + timedelta(seconds=ind_sec)
        t_incision = t_complete + timedelta(seconds=prep_sec)
        t_suture = t_incision + timedelta(seconds=emitted_proc_sec)

        if has_start:
            events.append((t0.astimezone(timezone.utc), case_id, "anesthesia_start"))
        if has_complete:
            events.append((t_complete.astimezone(timezone.utc), case_id, "anesthesia_complete"))
        if has_incision:
            events.append((t_incision.astimezone(timezone.utc), case_id, "incision"))
        if has_suture:
            events.append((t_suture.astimezone(timezone.utc), case_id, "suture"))
        if rng.random() < cfg.other_event_rate:
            label = str(rng.choice(OTHER_EVENT_LABELS))
            t_other = t0 - timedelta(minutes=float(rng.uniform(5.0, 25.0)))
            events.append((t_other.astimezone(timezone.utc), case_id, label))

        attrs_present = rng.random() >= cfg.attrs_missing_rate
        template = variant_templates[int(rng.integers(len(variant_templates)))]
        procedure_text = _noisy_text(rng, template.format(t=fam_terms[fam]))
        surfaces = anes_surfaces[anes]
        anesthesia_text = _noisy_text(rng, surfaces[int(rng.integers(len(surfaces)))])
        if attrs_present:
            case_rows.append(
                {
                    "case_id": case_id,
                    "department": department,
                    "age": str(age),
                    "sex": sex,
                    "procedure_text": procedure_text,
                    "anesthesia_text": anesthesia_text,
                    "positioning_text": positioning if has_positioning else "",
                    "planned_induction_min": _fmt_minutes(ind_plan),
                    "planned_procedure_min": _fmt_minutes(proc_plan),
                }
            )

        truth_cases.append(
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

    events.sort(key=lambda e: (e[0], e[1], e[2]))
    events_buf = io.StringIO()
    writer = csv.writer(events_buf, lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    for ts, case_id, event_type in events:
        offset_hours = 2 if 4 <= ts.month <= 10 else 1
        local = ts.astimezone(timezone(timedelta(hours=offset_hours)))
        writer.writerow([case_id, event_type, local.isoformat()])

    cases_buf = io.StringIO()
    writer = csv.writer(cases_buf, lineterminator="\n")
    writer.writerow(CASES_HEADER)
    for row in sorted(case_rows, key=lambda r: r["case_id"]):
        writer.writerow([row[k] for k in CASES_HEADER])

    truth = GroundTruth(
        cases=tuple(truth_cases),
        procedure_family_means={
            str(f): float(fam_medians[f] * math.exp(fam_sigmas[f] ** 2 / 2.0)) for f in range(n_fam)
        },
        induction_family_means={
            str(a): float(anes_medians[a] * math.exp(anes_sigmas[a] ** 2 / 2.0)) for a in range(n_anes)
        },
        n_cases=cfg.n_cases,
        seed=cfg.seed,
    )
    return events_buf.getvalue(), cases_buf.getvalue(), truth
