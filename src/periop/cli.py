"""Pipeline CLI: synth, ingest, clean, cluster, train, evaluate, report, predict.

Every stage reads its inputs from files in the output directory and yields
each file it writes as a ``(path, value)`` pair; ``run`` hands them to
``artifacts.write``, which writes each before the stage computes the next, so
each subcommand can be re-run in isolation. A stage that covers both phases
computes each in its own function, which frees the phase's data before the
next phase is read, and yields the files of the whole run last.

All randomness flows from one root seed; stages derive their own streams by
hashing a stage label into the seed, which keeps any two runs with the same
config byte-identical.

Each command imports only the modules it runs: ``ingest`` and ``clean`` load
no numpy, and the numpy-based stages import theirs when they start. A command
is one batch pass over a case table that it holds until it exits, and
reference counting frees its garbage, so ``run`` pauses the cyclic garbage
collector for the length of the command; it would only re-scan that table.

``main``, the ``periop`` script and ``python -m periop.cli``, sets
``OPENBLAS_NUM_THREADS=1`` before any stage imports numpy, unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set
(see ``_BLAS_THREAD_VARS``); the artifacts are byte-identical on any thread
count. ``run`` sets nothing: the process that calls it owns its BLAS.

Artifact I/O is ``periop.artifacts``, whose ``WRITES`` keys are the commands;
a missing, malformed or stale artifact exits 1, naming it and its writer.

Exit codes: 0 success, 1 validation/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Generator, Mapping, Sequence

from . import artifacts, rules
from .config import MODEL_CHOICES, FIELD_TYPES, PipelineConfig, UsageError, build_config
from .eventlog import (
    CASES_HEADER,
    PHASE_FIELDS,
    PHASES,
    ParseError,
    assemble_cases,
    parse_case_attributes,
    parse_events,
)

if TYPE_CHECKING:
    import numpy as np

    from . import features, models, textnorm
    from .casetable import CaseTable


def derive_seed(root: int, label: str) -> int:
    """Stage-specific seed: root seed combined with a hash of the label."""
    return (root * 2654435761 + zlib.crc32(label.encode("utf-8"))) % 2**32


# ---------------------------------------------------------------------------
# Inputs and artifacts
# ---------------------------------------------------------------------------


def _parse_input(path: Path, parse, **options):
    """Parse an events or cases input; ``.jsonl`` files are JSON lines."""
    if not path.exists():
        raise UsageError(f"input not found: {path}")
    try:
        with path.open("rb") as fh:
            return parse(fh, fmt="jsonl" if path.suffix == ".jsonl" else "csv", **options)
    except ParseError as exc:  # raised only for a bad CSV header
        raise UsageError(f"{path}: {exc}") from None
    except OSError as exc:  # a directory, say
        raise UsageError(f"input {path}: {exc.strerror}") from None


def _rules_for_phase(cfg: PipelineConfig, phase: str) -> textnorm.NormalizationRules:
    from . import textnorm

    if cfg.synonyms == "none" or phase not in cfg.synonyms_phases:
        synonym_map: dict[str, str] = {}
    elif cfg.synonyms == "default":
        synonym_map = dict(textnorm.DEFAULT_SYNONYMS)
    else:
        path = Path(cfg.synonyms)
        if not path.exists():
            raise UsageError(f"synonyms file not found: {path}")
        try:
            synonym_map = textnorm.load_synonyms(path.read_bytes())
        except OSError as exc:
            raise UsageError(f"synonyms file {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise UsageError(f"synonyms file {path}: invalid UTF-8") from None
        except ValueError as exc:
            raise UsageError(f"synonyms file {path}: {exc}") from None
    return textnorm.NormalizationRules(
        synonym_map=synonym_map,
        stem_suffixes=textnorm.DEFAULT_STEM_SUFFIXES if cfg.stemming else (),
        min_token_len=cfg.min_token_len,
        literal_strip=cfg.literal_strip,
    )


def _retained_ids(cfg: PipelineConfig, phase: str, cases: CaseTable) -> list[str]:
    """The sorted ids of the cases that cleaning retained, each one of
    ``cases``; a split of them with an empty side exits 1, so no stage fits
    or scores on zero rows."""
    retained = artifacts.read_retained_ids(Path(cfg.out) / f"clean_{phase}.json", cases.index)
    # the table's own id strings, so the clean file's copies are freed
    ordered = sorted(map(cases.ids.__getitem__, map(cases.index.__getitem__, retained)))
    if not ordered:
        raise UsageError(f"phase {phase!r}: cleaning retained no cases; see cleaning_report.json")
    if not rules.held_out(len(ordered), cfg.test_fraction):  # the training side keeps n >= 1
        raise UsageError(
            f"config key 'test_fraction': {cfg.test_fraction} leaves phase {phase!r} "
            f"an empty test split of its {len(ordered)} retained cases"
        )
    return ordered


def _read_split(cfg: PipelineConfig, phase: str, cases: CaseTable) -> tuple[artifacts.Side, artifacts.Side]:
    """The training and the test side of the split that ``cluster`` drew,
    each its ids and their clusters, read back from its assignments file."""
    return artifacts.read_split(
        Path(cfg.out) / f"assignments_{phase}.csv", _retained_ids(cfg, phase, cases), cfg.test_fraction
    )


def _normalized_docs(cfg: PipelineConfig, phase: str, texts: Sequence[str]) -> tuple[list[list[str]], np.ndarray]:
    """Token lists of the distinct ``texts``, one phase text per case, in
    first-seen order, and each case's index into them."""
    from . import encoding, textnorm

    text_rules = _rules_for_phase(cfg, phase)
    texts, inverse = encoding.distinct_keys(texts)
    return [textnorm.normalize_text(text, text_rules) for text in texts], inverse


def _tfidf_matrix(docs: Sequence[Sequence[str]], tfidf: textnorm.TfidfModel) -> tuple[np.ndarray, np.ndarray]:
    """Dense TF-IDF rows of the distinct documents of ``docs``, in first-seen
    order, and each document's index into them; two texts can normalize to
    one document."""
    from . import encoding, textnorm

    distinct, inverse = encoding.distinct_keys([tuple(d) for d in docs])
    return textnorm.stack_dense([textnorm.vectorize(d, tfidf) for d in distinct]), inverse


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_synth(cfg: PipelineConfig) -> artifacts.Files:
    from . import synthgen

    synth_cfg = synthgen.SynthConfig(
        n_cases=cfg.synth_n_cases,
        seed=derive_seed(cfg.seed, "synth"),
        n_procedure_families=cfg.synth_procedure_families,
        n_anesthesia_families=cfg.synth_anesthesia_families,
        synonyms_per_family=cfg.synth_synonyms_per_family,
    )
    out = Path(cfg.out)
    synthgen.generate_log(synth_cfg, out)
    print(f"synth: wrote {synth_cfg.n_cases} cases to {out}")
    return ()  # generate_log wrote the log through artifacts.write


def stage_ingest(cfg: PipelineConfig) -> artifacts.Files:
    out = Path(cfg.out)
    own = out / "cases.jsonl"  # one of this command's files, which names it in the table
    artifacts.refuse_overwrite(artifacts.writer_of(own), out, {"events": cfg.events_path(), "cases": cfg.cases_path()})
    artifacts.make_dir(out)  # before the inputs are read: an --out that cannot be one stops ingest at once
    log, event_errors = _parse_input(cfg.events_path(), parse_events)
    # a case keeps its first attribute row; a later one is a record error
    attrs, attr_errors = _parse_input(cfg.cases_path(), parse_case_attributes, unique_ids=True)
    cases = assemble_cases(log, attrs)

    yield own, artifacts.cases_jsonl(cases)
    labelled = [("events", e) for e in event_errors] + [("cases", e) for e in attr_errors]
    yield out / "ingest_report.json", {
        "n_events": len(log),
        "n_cases": len(cases),
        "n_invalid_cases": sum(1 for c in cases if not c.is_valid),
        "event_parse_errors": len(event_errors),
        "attr_parse_errors": len(attr_errors),
        "first_errors": [
            {"source": source, "line": e.line, "message": e.message} for source, e in labelled[:20]
        ],
    }
    print(f"ingest: {len(log)} events -> {len(cases)} cases")


def stage_clean(cfg: PipelineConfig) -> artifacts.Files:
    from . import cleaning

    out = Path(cfg.out)
    cases = artifacts.read_cases(out / "cases.jsonl")
    full_report = {}
    for phase in cfg.phases:
        retained, report = cleaning.clean_phase(
            cases,
            phase,
            multiplier=cfg.iqr_multiplier,
            max_minutes=cfg.max_duration_min,
            by_department=cfg.iqr_per_department,
        )
        full_report[phase] = report.to_dict()
        yield out / f"clean_{phase}.json", {
            "phase": phase,
            "retained_ids": retained,
            "bounds": list(report.bounds) if report.bounds else None,
        }
        print(f"clean[{phase}]: kept {report.retained}/{report.input}")
    yield out / "cleaning_report.json", full_report


def stage_cluster(cfg: PipelineConfig) -> artifacts.Files:
    cases = artifacts.read_cases(Path(cfg.out) / "cases.jsonl")
    for phase in cfg.phases:
        yield from _cluster_phase(cfg, phase, cases)  # which frees its lists and arrays before the next phase


def _cluster_phase(cfg: PipelineConfig, phase: str, cases: CaseTable) -> artifacts.Files:
    """Split, vectorize and cluster one phase's retained cases, and yield the
    phase's files; the phases share nothing but the case table."""
    from . import clustering, models, textnorm

    out = Path(cfg.out)
    # the one draw of the split; the assignments file records it for the later stages
    ordered = _retained_ids(cfg, phase, cases)
    train_idx, test_idx = models.split_indices(len(ordered), cfg.test_fraction, derive_seed(cfg.seed, f"split:{phase}"))
    train_ids, test_ids = [ordered[i] for i in train_idx], [ordered[i] for i in test_idx]
    all_ids = train_ids + test_ids
    rows = list(map(cases.index.__getitem__, all_ids))  # the split's rows of the table, training rows first
    docs, text_of = _normalized_docs(cfg, phase, cases.take(PHASE_FIELDS[phase].text, rows))
    try:
        model_tfidf = textnorm.fit_tfidf([docs[i] for i in text_of[: len(train_ids)]], max_terms=cfg.max_terms)
    except ValueError:  # every training text normalized to no token
        raise UsageError(
            f"phase {phase!r}: the text rules (config keys 'min_token_len', 'literal_strip', "
            "'synonyms', 'stemming') leave no token in any training text"
        ) from None
    X_docs, doc_of = _tfidf_matrix(docs, model_tfidf)
    doc_of = doc_of[text_of]  # each case's row of X_docs
    train_doc_of = doc_of[: len(train_ids)]

    algo = cfg.cluster_algo.get(phase, "kmeans")
    ks = cfg.cluster_k.get(phase, (2,))
    # distinct training texts: the training cases come first, so their
    # documents are a prefix of X_docs; two documents can share a vector
    # (both all out-of-vocabulary, say), so rows are counted, not documents
    n_texts = len({row.tobytes() for row in X_docs[: train_doc_of.max() + 1]})
    if min(ks) > n_texts:
        problem = f"phase {phase!r} has {n_texts} distinct training texts, fewer than k = {min(ks)}"
        raise UsageError(f"config key 'cluster_k.{phase}': {problem}")
    most = clustering.largest_scored_k(len(train_ids))
    if len(ks) > 1 and min(ks) > most:  # select_k scores no k
        problem = (
            f"phase {phase!r} has {len(train_ids)} training cases: silhouette selection "
            f"scores no k above {most}, and the smallest k is {min(ks)}"
        )
        raise UsageError(f"config key 'cluster_k.{phase}': {problem}")
    seed = derive_seed(cfg.seed, f"cluster:{phase}")
    scores: dict[int, float] = {}
    if len(ks) > 1:
        model, scores = clustering.select_k(X_docs, algo, ks, seed=seed, index=train_doc_of)
    else:  # kmeans_fit, gmm_fit
        model = getattr(clustering, f"{algo}_fit")(X_docs, ks[0], seed=seed + ks[0], index=train_doc_of)
    labels = clustering.cluster_assign(model, X_docs)[doc_of]

    yield out / f"tfidf_{phase}.json", model_tfidf.to_dict()
    yield out / f"cluster_model_{phase}.json", {
        "model": model.to_dict(),
        "selected_k": model.k,
        # ascending k; a k that could not be scored (-inf) is null
        "silhouette_scores": [
            {"k": k, "score": scores[k] if math.isfinite(scores[k]) else None}
            for k in sorted(scores)
        ],
    }
    yield out / f"assignments_{phase}.csv", artifacts.assignments(all_ids, labels.tolist())

    train_durations = cases.take(PHASE_FIELDS[phase].duration, rows[: len(train_ids)])
    catalog = clustering.cluster_catalog(
        labels[: len(train_ids)], X_docs, model_tfidf.terms(), train_durations, index=train_doc_of
    )
    yield out / f"clusters_{phase}.csv", (
        ["cluster_id", "size", "top_terms", "mean_duration_min"],
        ([row["cluster_id"], row["size"], row["top_terms"], repr(row["mean_duration_min"])] for row in catalog),
    )
    print(f"cluster[{phase}]: {algo} k={model.k} over {len(train_ids)} train docs")


def _model_plan(name: str, cfg: PipelineConfig) -> tuple[str, str, dict]:
    """Roster name -> (family, group_by, fixed params)."""
    if name == "mta":  # the traditional per-name average
        return "group-mean", "exact-name", {"group_col": 0}
    params = {"group_col": 0} if name == "group-mean" else cfg.model_params(name)
    return name, cfg.group_by, params


def stage_train(cfg: PipelineConfig) -> artifacts.Files:
    cases = artifacts.read_cases(Path(cfg.out) / "cases.jsonl")
    for phase in cfg.phases:
        yield from _train_phase(cfg, phase, cases)


def _train_phase(cfg: PipelineConfig, phase: str, cases: CaseTable) -> artifacts.Files:
    """Fit each roster model on one phase's training side, and yield its bundle."""
    from . import features, models

    (train_ids, clusters), _ = _read_split(cfg, phase, cases)
    train_cases = cases.select(train_ids)
    y = train_cases[PHASE_FIELDS[phase].duration]
    contexts: dict[str, features.FeatureContext] = {}  # one per group_by
    for name in cfg.models:
        family, group_by, params = _model_plan(name, cfg)
        if group_by not in contexts:
            contexts[group_by] = features.fit_context(phase, train_cases, clusters, group_by, cfg.target_smoothing)
        ctx = contexts[group_by]
        rows, inverse = features.design_rows(ctx, family, train_cases, clusters)
        dataset = models.Dataset(X=rows[inverse], y=y)
        grid_info = None
        if cfg.grid_search and models.DEFAULT_GRIDS.get(family):
            spec = models.GridSpec(
                family=family,
                grid=models.DEFAULT_GRIDS[family],
                cv_folds=cfg.cv_folds,
                seed=derive_seed(cfg.seed, f"grid:{phase}:{name}"),
                base=params,
            )
            best_params, cv_table = models.grid_search(
                spec, y, features.fold_design(ctx, family, train_cases, clusters)
            )
            params = {**params, **best_params}
            grid_info = {"best_params": best_params, "cv_table": cv_table}
        params = models.seeded_params(family, params, derive_seed(cfg.seed, f"model:{phase}:{name}"))
        model = models.make_model(family, params).fit(dataset)
        yield Path(cfg.out) / f"model_{phase}_{name}.json", {
            "name": name,
            "phase": phase,
            "family": family,
            "params": {k: params[k] for k in sorted(params)},
            "model": model.to_dict(),
            "features": ctx.to_dict(),
            "grid": grid_info,
        }
        print(f"train[{phase}]: fitted {name} on {len(train_ids)} cases")


def _read_bundle(cfg: PipelineConfig, phase: str, name: str) -> tuple[features.FeatureContext, models.Model, str]:
    """The trained bundle of the roster's model ``name`` for ``phase``: its
    feature context, model and family. Its phase and name must be those of
    its file, and its family, features and model those of ``_model_plan``,
    which also fixes a group mean's ``group_col``; the model must read the
    design that its features give, and be as wide as the design it was
    fitted on where it records that width (ridge, tree, forest, gbm)."""
    from . import features, models

    family, group_by, params = _model_plan(name, cfg)

    def decode(bundle: dict) -> tuple[features.FeatureContext, models.Model, str]:
        model, ctx = rules.field(bundle, "model", dict), rules.field(bundle, "features", dict)
        fixed = [("model.", model, "group_col", params["group_col"])] if family == "group-mean" else []
        for prefix, obj, key, expected in (
            ("", bundle, "phase", phase),
            ("", bundle, "name", name),
            ("", bundle, "family", family),
            ("model.", model, "family", family),
            ("features.", ctx, "phase", phase),
            ("features.", ctx, "group_by", group_by),
            *fixed,
        ):
            value = rules.field(obj, key, type(expected))
            if value != expected:
                raise ValueError(
                    f"'{prefix}{key}' is {value!r}, but model {name!r} of phase {phase!r} needs {expected!r}"
                )
        context, fitted = features.FeatureContext.from_dict(ctx), models.model_from_dict(model)
        width = context.width(family)
        if fitted.columns > width or fitted.width not in (None, width):
            reads = max(fitted.columns, fitted.width or 0)
            raise ValueError(f"the model reads {reads} design columns, but 'features' gives {width}")
        return context, fitted, family

    return artifacts.read_json(Path(cfg.out) / f"model_{phase}_{name}.json", decode)


def _bundle_predict(
    bundle: tuple[features.FeatureContext, models.Model, str],
    cases: Mapping[str, Sequence],
    clusters: Sequence[int],
) -> np.ndarray:
    """Predict ``cases``, a mapping of each case field to its column, in
    ``clusters``, with a read model bundle; each distinct design row is
    built and predicted once."""
    from . import features

    ctx, model, family = bundle
    rows, inverse = features.design_rows(ctx, family, cases, clusters)
    return model.predict(rows)[inverse]


def stage_evaluate(cfg: PipelineConfig) -> artifacts.Files:
    cases = artifacts.read_cases(Path(cfg.out) / "cases.jsonl")
    metrics: dict = {}
    for phase in cfg.phases:
        metrics[phase] = yield from _evaluate_phase(cfg, phase, cases)
    yield Path(cfg.out) / "metrics.json", metrics


def _evaluate_phase(cfg: PipelineConfig, phase: str, cases: CaseTable) -> Generator[tuple[Path, object], None, dict]:
    """Score each roster model and the manual plan on one phase's test side:
    yield the predictions and return the phase's metrics."""
    from . import evaluate

    _, (test_ids, clusters) = _read_split(cfg, phase, cases)
    test_cases = cases.select(test_ids)
    fields = PHASE_FIELDS[phase]
    actual = test_cases[fields.duration]
    planned = [None] * len(test_ids) if fields.plan is None else test_cases[fields.plan]
    predictions: dict[str, np.ndarray] = {}
    metrics = {}
    for name in cfg.models:
        bundle = _read_bundle(cfg, phase, name)
        predictions[name] = _bundle_predict(bundle, test_cases, clusters)
        metrics[name] = evaluate.compute_metrics(actual, predictions[name], tolerance=cfg.tolerance)
    keep = [i for i, p in enumerate(planned) if p is not None]
    if keep:
        metrics["manual"] = evaluate.compute_metrics(
            [actual[i] for i in keep],
            [planned[i] for i in keep],
            tolerance=cfg.tolerance,
        )
    yield Path(cfg.out) / f"predictions_{phase}.csv", artifacts.predictions(test_ids, actual, planned, predictions)
    print(f"evaluate[{phase}]: scored {len(test_ids)} test cases")
    return metrics


def stage_report(cfg: PipelineConfig) -> artifacts.Files:
    cases = artifacts.read_cases(Path(cfg.out) / "cases.jsonl")
    deviation, factors = {}, {}
    for phase in cfg.phases:
        factors[phase] = yield from _report_phase(cfg, phase, cases, deviation)
    yield Path(cfg.out) / "deviation_report.json", deviation
    yield Path(cfg.out) / "factor_report.json", factors


def _report_phase(
    cfg: PipelineConfig, phase: str, cases: CaseTable, deviation: dict
) -> Generator[tuple[Path, object], None, dict]:
    """Compare one phase's test side with its plan into ``deviation`` (for a
    phase that has a plan), yield its histograms and return its factor report."""
    from . import evaluate, stats

    out = Path(cfg.out)
    # upstream first: stale assignments make the predictions stale too
    _, (test_ids, clusters) = _read_split(cfg, phase, cases)
    test_cases = cases.select(test_ids)
    fields = PHASE_FIELDS[phase]
    has_plan = fields.plan is not None
    predictions = artifacts.read_predictions(out / f"predictions_{phase}.csv", test_ids)
    if has_plan:
        try:
            deviation[phase] = evaluate.compare_to_plan(test_cases, phase, predictions, tolerance=cfg.tolerance)
        except ValueError as exc:
            deviation[phase] = {"error": str(exc)}

    # histograms of actual durations and of the manual plan (3-min bins)
    shown = [("actual", test_cases[fields.duration], "actual duration")]
    if has_plan:
        shown.append(("plan", [p for p in test_cases[fields.plan] if p is not None], "manual plan"))
    for kind, values, title in shown:
        bins = evaluate.histogram(values, 3.0)
        base = out / f"histogram_{phase}_{kind}"
        yield base.with_suffix(".csv"), (["bin_start_min", "count"], ([repr(float(s)), n] for s, n in bins))
        yield base.with_suffix(".svg"), [evaluate.histogram_svg(bins, 3.0, title=f"{phase}: {title}"), "\n"]

    factors = stats.factor_report(_factor_groups(test_cases, phase, clusters))
    print(f"report[{phase}]: wrote deviation/histogram/factor artifacts")
    return factors


def _age_band(age: float | None) -> str:
    return "unknown" if age is None else ("<40" if age < 40 else "40-64" if age < 65 else "65+")


def _factor_groups(
    cases: Mapping[str, Sequence], phase: str, clusters: Sequence[int]
) -> dict[str, dict[str, list[float]]]:
    """The phase durations of ``cases``, a mapping of each case field to its
    column, grouped by each factor that the report tests: age band, sex,
    department and cluster (``clusters[i]`` is that of case i)."""
    durations = cases[PHASE_FIELDS[phase].duration]
    factors = {
        "age_band": map(_age_band, cases["age"]),
        "sex": cases["sex"],
        "department": cases["department"],
        "cluster": map(str, clusters),
    }
    groups: dict[str, dict[str, list[float]]] = {}
    for factor, keys in factors.items():
        by_key = groups[factor] = {}
        for key, value in zip(keys, durations):
            by_key.setdefault(key, []).append(value)
    return groups


_SKIPPED_SHOWN = 5  # predict lists this many of the --cases rows it skipped


def stage_predict(cfg: PipelineConfig, dest: str | None, apply_floors: bool) -> artifacts.Files:
    from . import clustering, textnorm

    phase, name = cfg.phases[0], cfg.models[0]
    out = Path(cfg.out)
    own = out / "predictions.csv"  # as in stage_ingest
    dest_path = Path(dest) if dest else own
    artifacts.refuse_overwrite(artifacts.writer_of(own), out, {"cases": cfg.cases_path()}, dest_path)
    bundle = _read_bundle(cfg, phase, name)

    cases_path = cfg.cases_path()
    attrs, errors = _parse_input(cases_path, parse_case_attributes)
    if errors:
        print(f"predict: skipped {len(errors)} of {len(attrs) + len(errors)} rows of {cases_path}", file=sys.stderr)
        for e in errors[:_SKIPPED_SHOWN]:
            print(f"  line {e.line}: {e.message}", file=sys.stderr)

    # new free text is clustered with the persisted TF-IDF + cluster model;
    # each row keeps its own cluster, also where rows share a case_id
    tfidf_path = out / f"tfidf_{phase}.json"
    tfidf = artifacts.read_json(tfidf_path, textnorm.TfidfModel.from_dict)

    def cluster_model_of(obj: dict) -> clustering.KMeansModel | clustering.GmmModel:
        model = clustering.model_from_dict(rules.field(obj, "model", dict))
        if model.dim != tfidf.dim:
            raise ValueError(f"the model has {model.dim} columns for the {tfidf.dim} terms of {tfidf_path.name}")
        return model

    cluster_model = artifacts.read_json(out / f"cluster_model_{phase}.json", cluster_model_of)
    preds: Sequence[float] = []  # a --cases without a row read gets a header-only file
    if attrs:
        columns = dict(zip(CASES_HEADER, zip(*attrs)))
        docs, text_of = _normalized_docs(cfg, phase, columns[PHASE_FIELDS[phase].text])
        X_docs, doc_of = _tfidf_matrix(docs, tfidf)
        clusters = clustering.cluster_assign(cluster_model, X_docs)[doc_of[text_of]].tolist()
        preds = _bundle_predict(bundle, columns, clusters)
    if apply_floors:
        from . import evaluate

        floors = {"induction": cfg.planning_floor_induction}
        preds = [evaluate.apply_planning_floor(p, phase, floors) for p in preds]
    yield dest_path, (
        ["case_id", "phase", "model", "prediction_min"],
        ([row[0], phase, name, repr(float(p))] for row, p in zip(attrs, preds)),
    )
    print(f"predict: wrote {len(attrs)} predictions to {dest_path}")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _build_parser() -> _Parser:
    parser = _Parser(prog="periop", description="Perioperative duration prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--out", help="artifact directory")
    common.add_argument("--seed", type=int, help="root seed")
    common.add_argument("--phase", choices=PHASES, help="restrict to one phase")
    common.add_argument("--tolerance", type=float, help="acceptable deviation fraction")
    common.add_argument("--model", choices=MODEL_CHOICES, help="model roster override")
    common.add_argument("--group-by", choices=("cluster", "exact-name"), dest="group_by")
    common.add_argument("--events", help="events.csv/.jsonl input path")
    common.add_argument("--cases", help="cases.csv/.jsonl input path")
    common.add_argument("--synonyms", help="synonyms.csv path, 'default' or 'none'")
    common.add_argument("--literal-strip", action="store_true", default=None,
                        dest="literal_strip", help="strip non-alphanumerics across whitespace")
    common.add_argument("--iqr-per-department", action="store_true", default=None,
                        dest="iqr_per_department", help="compute IQR bounds per department")
    common.add_argument("--grid-search", action="store_true", default=None,
                        dest="grid_search", help="tune hyperparameters by CV grid search")
    common.add_argument("--n-cases", type=int, dest="synth_n_cases", help="synthetic log size")
    for name in artifacts.WRITES:
        command = sub.add_parser(name, parents=[common])
        if name not in STAGES:  # predict
            command.add_argument("--dest", help="output CSV for predictions")
            command.add_argument("--apply-floors", action="store_true", help="raise predictions to the planning floors")
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {k: v for k, v in vars(args).items() if k in FIELD_TYPES}
    if args.phase:
        overrides["phases"] = (args.phase,)
    if args.model:
        overrides["models"] = (args.model,)
    return build_config(args.config, overrides)


STAGES = {
    "synth": stage_synth,
    "ingest": stage_ingest,
    "clean": stage_clean,
    "cluster": stage_cluster,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "report": stage_report,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    gc_enabled = gc.isenabled()
    gc.disable()  # for the length of the command; see the module docstring
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if args.command in STAGES:
            files = STAGES[args.command](cfg)
        else:
            files = stage_predict(cfg, args.dest, args.apply_floors)
        artifacts.write(files)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_enabled:
            gc.enable()


# The variables OpenBLAS reads its thread count from when numpy loads it, in
# the order it reads them. Unset, it starts one thread per core, which costs a
# numpy process about 70 ms at start-up, while every BLAS call of the pipeline
# (K-Means, GMM and silhouette on a few hundred distinct TF-IDF rows, the
# ridge's lstsq) is too small to gain from them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> None:
    # before any stage imports numpy; a thread count the user set is kept
    if not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(run())


if __name__ == "__main__":
    main()
