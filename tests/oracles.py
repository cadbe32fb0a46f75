"""Brute-force reference implementations, kept independent of the package
internals: they evaluate the documented formulas directly and exist only to
cross-check the real implementations. The ``*_cases`` functions are the
versions of the cleaning, feature and report code that read one Case record
per case, kept to cross-check the versions that read a case table's columns.
"""

import csv
import io
import json
import math
import re
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

import numpy as np

from periop import encoding
from periop.casetable import CaseTable
from periop.cleaning import MAX_PLAUSIBLE_MINUTES, CleaningReport, iqr_filter
from periop.clustering import GmmModel, KMeansModel
from periop.eventlog import (
    ANCHOR_EVENTS,
    CASE_FIELDS,
    CASES_HEADER,
    EVENTS_HEADER,
    NUMBER_FIELDS,
    PHASE_ANCHORS,
    PHASES,
    ParseError,
)
from periop.features import FeatureContext
from periop.models import Tree
from periop.synthgen import (
    ANESTHESIA_CANONICALS,
    DEPARTMENTS,
    OTHER_EVENT_LABELS,
    POSITIONINGS,
    PROCEDURE_TERMS,
    PROCEDURE_VARIANT_TEMPLATES,
    _fmt_minutes,
    _single_presence_rate,
    anesthesia_variants,
)


class Event(NamedTuple):
    """One timestamped event record, as the record-list oracles take them."""

    case_id: str
    event_type: str
    timestamp: datetime  # timezone-aware


# bytes that are not UTF-8 decode to lone surrogates under "surrogateescape"
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def records_slow(source, fmt, header):
    """``(line, fields)`` per non-blank record of ``source``, bytes or a
    binary stream, read from one decoded copy of the whole input.

    ``fields`` maps every ``header`` name to its text ("" = missing), or is
    the error message of a record that cannot be read. Input that is not
    UTF-8 as a whole is decoded with "surrogateescape", and a record holding
    an undecodable byte is the error "invalid UTF-8". A CSV file whose first
    row is not ``header`` raises ParseError.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unsupported format: {fmt!r}")
    data = source if isinstance(source, bytes) else source.read()
    try:
        data, undecodable = data.decode("utf-8"), False
    except UnicodeDecodeError:
        data, undecodable = data.decode("utf-8", "surrogateescape"), True
    lines = io.StringIO(data)
    if fmt == "jsonl":
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            if undecodable and _UNDECODABLE.search(line):
                yield line_no, "invalid UTF-8"
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):
                yield line_no, "invalid JSON"
                continue
            if not isinstance(obj, dict):
                yield line_no, "expected a JSON object"
                continue
            yield line_no, {k: "" if obj.get(k) is None else str(obj[k]) for k in header}
        return
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
    except csv.Error:
        first = None
    if first is None or tuple(h.strip() for h in first) != header:
        raise ParseError(1, f"expected header {','.join(header)!r}")
    while True:
        try:
            for row in reader:
                if not row:
                    continue
                if undecodable and any(_UNDECODABLE.search(value) for value in row):
                    yield reader.line_num, "invalid UTF-8"
                elif len(row) != len(header):
                    yield reader.line_num, f"expected {len(header)} columns, got {len(row)}"
                else:
                    yield reader.line_num, dict(zip(header, row))
            return
        except csv.Error as exc:  # the reader resumes at the next line
            yield reader.line_num, f"malformed CSV: {exc}"


def assemble_cases_slow(events, attrs):
    """Cases the way they were assembled from time-sorted event lists.

    Groups the events by case id, sorts each case's events by timestamp and
    type, flags every anchor that occurs more than once, and takes each phase
    duration from the first stamps of its two anchors unless an anchor
    repeats. ``attrs`` holds attribute rows, each led by its case id; a case
    without one gets the default attributes. Returns one plain tuple per
    case, sorted by case id: ``(case_id, attributes, n_events, (induction,
    preparation, procedure), duplicate_anchors)``.
    """
    attr_by_id = {}
    for a in attrs:
        attr_by_id[a[0]] = tuple(a)
    grouped = {}
    for ev in events:
        grouped.setdefault(ev.case_id, []).append(ev)
    out = []
    for case_id in sorted(grouped):
        evs = sorted(grouped[case_id], key=lambda e: (e.timestamp, e.event_type))
        counts = {}
        for ev in evs:
            if ev.event_type in ANCHOR_EVENTS:
                counts[ev.event_type] = counts.get(ev.event_type, 0) + 1
        duplicates = tuple(a for a in ANCHOR_EVENTS if counts.get(a, 0) > 1)
        durations = (None, None, None)
        if not duplicates:
            stamps = {}
            for ev in evs:
                if ev.event_type in ANCHOR_EVENTS and ev.event_type not in stamps:
                    stamps[ev.event_type] = ev.timestamp
            durations = tuple(
                (stamps[end] - stamps[start]).total_seconds() / 60.0
                if start in stamps and end in stamps
                else None
                for start, end in (PHASE_ANCHORS[phase] for phase in PHASES)
            )
        attributes = attr_by_id.get(case_id, (case_id, *DEFAULT_ATTRIBUTES))
        out.append((case_id, attributes, len(evs), durations, duplicates))
    return out


ATTRIBUTE_NAMES = (
    "case_id", "department", "age", "sex", "procedure_text", "anesthesia_text",
    "positioning_text", "planned_induction_min", "planned_procedure_min",
)
# the attributes after the case id of a case without an attribute row
DEFAULT_ATTRIBUTES = ("unknown", None, "other", "", "", "", None, None)
DURATION_NAMES = ("induction_min", "preparation_min", "procedure_min")  # in PHASES order
PHASE_TEXTS = {"induction": "anesthesia_text", "preparation": "positioning_text", "procedure": "procedure_text"}


def duration(case, phase):
    """The duration of ``phase`` that the record ``case`` holds."""
    return getattr(case, DURATION_NAMES[PHASES.index(phase)])


def phase_text(case, phase):
    """The free text of ``phase`` that the record ``case`` holds."""
    return getattr(case, PHASE_TEXTS[phase])


def cases_jsonl_slow(cases):
    """The text of ``cases.jsonl`` built field by field.

    Line 1 is the JSON array of the field names: the attributes, the
    durations, ``duplicate_anchors`` and ``n_events``. Each later line is one
    case's values in that order, each read by name.
    """
    names = (*ATTRIBUTE_NAMES, *DURATION_NAMES, "duplicate_anchors", "n_events")
    lines = [json.dumps(list(names)) + "\n"]
    for case in cases:
        row = [getattr(case, k) for k in (*ATTRIBUTE_NAMES, *DURATION_NAMES)]
        row += [list(case.duplicate_anchors), case.n_events]
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


def case_columns(cases):
    """Each field's column of ``cases``, a list of Case records, as a plain
    dict: the mapping that the column code reads, without a table's coding."""
    return {field: [getattr(c, field) for c in cases] for field in CASE_FIELDS}


def case_table(cases):
    """The CaseTable of ``cases``, a list of Case records with distinct ids."""
    table = CaseTable()
    table.extend(case_columns(cases))
    return table


# cases.jsonl read one line at a time: field -> the Python types json.loads
# gives for its JSON type and that type's name; field -> a check of a value
# of that type and what the check expects
CASE_ROW_TYPES = {
    **dict.fromkeys(CASE_FIELDS, ({str}, "a string")),
    **dict.fromkeys(NUMBER_FIELDS, ({int, float, type(None)}, "a number or null")),
    "duplicate_anchors": ({list}, "an array"),
    "n_events": ({int}, "an integer"),
}


def _finite_or_null(value):
    try:
        return value is None or math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


CASE_ROW_VALUES = {
    **dict.fromkeys(NUMBER_FIELDS, (_finite_or_null, "a finite number or null")),
    "duplicate_anchors": (
        lambda names: all(a in ANCHOR_EVENTS for a in names) and len(set(names)) == len(names),
        "an array of distinct anchor names",
    ),
    "n_events": (lambda n: n >= 0, "an integer >= 0"),
}


def read_cases_slow(path):
    """The rows of the cases.jsonl at ``path``, read one line at a time with
    blank lines skipped, and ``(line, message)`` for its first line at fault,
    or None: the rows are those before that line."""
    rows, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        expected = f"expected a header line of the {len(CASE_FIELDS)} field names"
        if not header:
            return rows, (1, f"{expected}, got an empty file")
        try:
            names = json.loads(header)
        except (ValueError, RecursionError):
            return rows, (1, f"{expected}, got invalid JSON")
        if names != list(CASE_FIELDS):
            return rows, (1, f"{expected}, got {_shown(names)}")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            problem = _case_row_problem(line, seen)
            if problem:
                return rows, (line_no, problem)
            rows.append(json.loads(line))
    return rows, None


def _shown(value, width=40):
    text = json.dumps(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def _case_row_problem(line, seen):
    """What is wrong with a cases.jsonl line whose case id must not be one
    of ``seen``, which it joins; None if nothing is."""
    try:
        row = json.loads(line)  # NaN and Infinity too, which are named below
    except (ValueError, RecursionError):
        return "invalid JSON"
    expected = f"expected a JSON array of {len(CASE_FIELDS)} fields"
    if type(row) is not list:
        return f"{expected}, got {_shown(row)}"
    if len(row) != len(CASE_FIELDS):
        return f"{expected}, got {len(row)}"
    for key, value in zip(CASE_FIELDS, row):
        types, name = CASE_ROW_TYPES[key]
        if type(value) not in types:
            return f"bad value for {key!r}: expected {name}, got {json.dumps(value)}"
        check, expected = CASE_ROW_VALUES.get(key, (None, None))
        if check and not check(value):
            return f"bad value for {key!r}: expected {expected}, got {_shown(value)}"
    if row[0] in seen:
        return f"case {row[0]!r} is listed a second time"
    seen.add(row[0])
    return None


# The Case-list versions of the code that reads case columns: one record per
# case, each value read from its record.


def plausibility_filter_cases(cases, phase, max_minutes=MAX_PLAUSIBLE_MINUTES):
    """The Case records whose phase duration is present, > 0 and at most
    max_minutes, and the report of the others."""
    retained = []
    report = CleaningReport()
    for case in cases:
        report.input += 1
        value = duration(case, phase)
        if value is None:
            report.counts["missing"] += 1
        elif value <= 0:
            report.counts["negative_or_zero"] += 1
        elif value > max_minutes:
            report.counts["excessive"] += 1
        else:
            retained.append(case)
    report.retained = len(retained)
    return retained, report


def clean_phase_cases(cases, phase, multiplier=1.5, max_minutes=MAX_PLAUSIBLE_MINUTES, by_department=False):
    """The plausibility filter, then the IQR filter over one group of every
    plausible case or one per department; a group below 4 cases is kept."""
    plausible, report = plausibility_filter_cases(cases, phase, max_minutes=max_minutes)
    groups = {}
    for case in plausible:
        groups.setdefault(case.department if by_department else "", []).append(case)
    kept_ids = set()
    for group in groups.values():
        if len(group) < 4:
            kept_ids.update(map(id, group))
            continue
        result = iqr_filter([(c, duration(c, phase)) for c in group], multiplier)
        report.counts["iqr_low"] += len(result.removed_low)
        report.counts["iqr_high"] += len(result.removed_high)
        kept_ids.update(id(c) for c, _ in result.retained)
        if not by_department:
            report.bounds = result.bounds
    retained = [c for c in plausible if id(c) in kept_ids]
    report.retained = len(retained)
    return retained, report


def fit_context_cases(phase, train_cases, clusters, group_by, target_smoothing):
    """The FeatureContext fitted on the Case records ``train_cases``."""
    targets = [duration(c, phase) for c in train_cases]
    encoder = encoding.target_encode_fit([str(c) for c in clusters], targets, m=target_smoothing)
    name_codes = {}
    if group_by == "exact-name":
        names = sorted({phase_text(c, phase).strip() for c in train_cases})
        name_codes = {name: i for i, name in enumerate(names)}
    ages = [c.age for c in train_cases if c.age is not None]
    return FeatureContext(
        phase=phase,
        group_by=group_by,
        target_smoothing=target_smoothing,
        name_codes=name_codes,
        target_encoder=encoder,
        age_fill=float(np.median(ages)) if ages else 50.0,
        sex_schema=encoding.OneHotSchema.fit([c.sex for c in train_cases]),
        department_schema=encoding.OneHotSchema.fit([c.department for c in train_cases]),
    )


def factor_groups_cases(test_cases, phase, clusters):
    """The report's factor groups of the Case records ``test_cases``."""
    factors = {"age_band": {}, "sex": {}, "department": {}, "cluster": {}}
    for case, cluster in zip(test_cases, clusters):
        value = duration(case, phase)
        age = case.age
        band = "unknown" if age is None else ("<40" if age < 40 else "40-64" if age < 65 else "65+")
        factors["age_band"].setdefault(band, []).append(value)
        factors["sex"].setdefault(case.sex, []).append(value)
        factors["department"].setdefault(case.department, []).append(value)
        factors["cluster"].setdefault(str(cluster), []).append(value)
    return factors


def tfidf_dense(corpus, max_terms=None):
    """Dense TF-IDF matrix computed straight from the formula.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, weights tf * idf, rows
    L2-normalized. Returns (matrix, ordered terms).
    """
    n = len(corpus)
    df = {}
    for doc in corpus:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    terms = sorted(df)
    if max_terms is not None and len(terms) > max_terms:
        terms = sorted(sorted(terms, key=lambda t: (-df[t], t))[:max_terms])
    col = {t: j for j, t in enumerate(terms)}
    out = np.zeros((n, len(terms)))
    for i, doc in enumerate(corpus):
        for term in doc:
            if term in col:
                out[i, col[term]] += 1.0
        for term in set(doc):
            if term in col:
                out[i, col[term]] *= math.log((1 + n) / (1 + df[term])) + 1
        norm = math.sqrt(float(np.sum(out[i] ** 2)))
        if norm > 0:
            out[i] /= norm
    return out, terms


def silhouette_slow(X, labels):
    """Mean silhouette via the O(n^2) definition, plain loops."""
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    n = len(labels)
    clusters = sorted(set(labels))
    total = 0.0
    for i in range(n):
        own = labels[i]
        own_points = [j for j in range(n) if labels[j] == own and j != i]
        if not own_points:
            continue
        a = sum(math.dist(X[i], X[j]) for j in own_points) / len(own_points)
        b = math.inf
        for c in clusters:
            if c == own:
                continue
            members = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(math.dist(X[i], X[j]) for j in members) / len(members))
        denom = max(a, b)
        total += 0.0 if denom == 0 else (b - a) / denom
    return total / n


def select_k_rows(X, fit_labels, k_range, seed):
    """k selection scored row by row: every k in k_range is fitted through
    ``fit_labels(X, k, seed + k)`` (labels of all rows) and its mean
    silhouette taken with ``silhouette_slow`` over all rows. A k above the
    number of distinct rows, or whose labels form a single cluster, scores
    -inf. Returns (best k or None, scores); ties go to the smallest k.
    """
    X = np.asarray(X, dtype=float)
    n_distinct = len({tuple(row) for row in X.tolist()})
    scores = {}
    for k in sorted(set(k_range)):
        if k > n_distinct:
            scores[k] = -math.inf
            continue
        labels = [int(v) for v in fit_labels(X, k, seed + k)]
        scores[k] = silhouette_slow(X, labels) if len(set(labels)) > 1 else -math.inf
    best = max(scores, key=lambda k: (scores[k], -k))
    return (best if scores[best] > -math.inf else None), scores


def _sq_dist_rows(X, centers):
    # (n, k) squared distances in the Gram form ||x||^2 - 2x.c + ||c||^2, clamped at 0
    d2 = np.sum(X * X, axis=1)[:, None] - 2.0 * (X @ centers.T) + np.sum(centers * centers, axis=1)[None, :]
    return np.maximum(d2, 0.0)


def kmeanspp_init_rows(X, k, rng):
    """k-means++ seeding over every row: the first centre is a uniform row,
    each later one a row drawn with probability proportional to its squared
    distance from the nearest centre (a uniform row when all are 0)."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = _sq_dist_rows(X, centers[:1]).ravel()
    for j in range(1, k):
        total = float(closest.sum())
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=closest / total))
        centers[j] = X[idx]
        closest = np.minimum(closest, _sq_dist_rows(X, centers[j : j + 1]).ravel())
    return centers


def kmeans_fit_rows(X, k, seed, max_iter=300, tol=1e-6):
    """Lloyd's algorithm on every row, one mean per cluster. An empty cluster
    is re-seeded to the row farthest from its nearest centroid."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    centers = kmeanspp_init_rows(X, k, np.random.default_rng(seed))
    trace = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = _sq_dist_rows(X, centers)
        labels = np.argmin(d2, axis=1)
        trace.append(float(d2[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        for j in range(k):
            if np.any(labels == j):
                new_centers[j] = X[labels == j].mean(axis=0)
        for j in range(k):
            if not np.any(labels == j):
                new_centers[j] = X[int(np.argmax(np.min(_sq_dist_rows(X, new_centers), axis=1)))]
        shift = float(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max())
        centers = new_centers
        if shift < tol:
            break
    inertia = float(np.min(_sq_dist_rows(X, centers), axis=1).sum())
    trace.append(inertia)
    return KMeansModel(centers, inertia, iterations, seed, tuple(trace))


def _gmm_log_prob_rows(X, weights, means, variances):
    d = X.shape[1]
    out = np.empty((X.shape[0], weights.shape[0]))
    for j in range(weights.shape[0]):
        diff = X - means[j]
        out[:, j] = (
            math.log(max(weights[j], 1e-300))
            - 0.5 * (d * math.log(2.0 * math.pi) + float(np.log(variances[j]).sum()))
            - 0.5 * np.sum(diff * diff / variances[j], axis=1)
        )
    return out


def gmm_fit_rows(X, k, seed, max_iter=200, tol=1e-7, var_floor=1e-6):
    """EM for a diagonal Gaussian mixture on every row, started from
    ``kmeanspp_init_rows`` and one hard assignment. Components that lose all
    mass are re-seeded once, one per distinct position, at the worst-explained
    rows; a second collapse raises ValueError."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    global_var = np.maximum(X.var(axis=0), var_floor)
    means = kmeanspp_init_rows(X, k, np.random.default_rng(seed))
    labels = np.argmin(_sq_dist_rows(X, means), axis=1)
    weights = np.full(k, 1.0 / k)
    variances = np.tile(global_var, (k, 1))
    for j in range(k):
        mask = labels == j
        if mask.any():
            weights[j] = mask.sum() / n
            means[j] = X[mask].mean(axis=0)
            variances[j] = np.maximum(X[mask].var(axis=0), var_floor)
    weights = weights / weights.sum()
    trace = []
    reinitialized = fresh_restart = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        logp = _gmm_log_prob_rows(X, weights, means, variances)
        mx = logp.max(axis=1, keepdims=True)
        lse = (mx + np.log(np.exp(logp - mx).sum(axis=1, keepdims=True))).ravel()
        ll = float(lse.sum())
        converged = bool(trace) and not fresh_restart and ll - trace[-1] < tol
        trace.append(ll)
        fresh_restart = False
        if converged:
            break
        resp = np.exp(logp - lse[:, None])
        nk = resp.sum(axis=0)
        dead = np.flatnonzero(nk < 1e-10)
        if dead.size:
            if reinitialized:
                raise ValueError("degenerate GMM component after re-initialization")
            reinitialized = fresh_restart = True
            order = np.argsort(lse, kind="stable")
            _, first = np.unique(X[order], axis=0, return_index=True)
            worst = order[np.sort(first)]  # the worst-explained row of each distinct position
            for pos, j in enumerate(dead):
                means[j] = X[worst[pos % worst.size]]
                variances[j] = global_var
                weights[j] = 1.0 / n
            weights = weights / weights.sum()
            continue
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        variances = np.maximum((resp.T @ (X * X)) / nk[:, None] - means * means, var_floor)
    return GmmModel(weights, means, variances, tuple(trace), iterations, seed, reinitialized)


def quantile_slow(samples, q):
    """Linear interpolation between order statistics at rank (n-1)*q."""
    values = sorted(float(v) for v in samples)
    h = (len(values) - 1) * q
    lo = int(math.floor(h))
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (h - lo) * (values[hi] - values[lo])


def target_encode_slow(categories, targets, m):
    """Smoothed target encoding by direct per-category summation."""
    prior = sum(targets) / len(targets)
    table = {}
    for cat in set(categories):
        ys = [t for c, t in zip(categories, targets) if c == cat]
        table[cat] = (len(ys) * (sum(ys) / len(ys)) + m * prior) / (len(ys) + m)
    return table, prior


def design_matrix_slow(ctx, family, attrs, clusters, encoded=True):
    """The design matrix of the cases ``attrs`` (in ``clusters``), one case at
    a time: no columns for the global mean; for group means the group code,
    the cluster or the exact-name code of the stripped text (-1 for a name
    not seen in training); otherwise the cluster (target encoded, or the raw
    code), the age (the fill when missing), then sex and department one-hot
    (all zeros for a value not seen in training)."""
    out = []
    for a, cluster in zip(attrs, clusters):
        if family == "mean":
            row = []
        elif family == "group-mean":
            code = cluster if ctx.group_by == "cluster" else ctx.name_codes.get(phase_text(a, ctx.phase).strip(), -1)
            row = [float(code)]
        else:
            row = [
                ctx.target_encoder.encode(str(cluster)) if encoded else float(cluster),
                ctx.age_fill if a.age is None else float(a.age),
                *(1.0 if a.sex == s else 0.0 for s in ctx.sex_schema.categories),
                *(1.0 if a.department == d else 0.0 for d in ctx.department_schema.categories),
            ]
        out.append(row)
    return np.array(out, dtype=float)


def fold_design_raw_codes(ctx, family, attrs, clusters, targets, fit_idx, val_idx):
    """The fitting and validation matrices of one CV fold as grid search
    built them on a design of its own: the design with the raw cluster code
    in column 0, whose codes (as floats) are then target encoded, fitted on
    the fold's fitting rows only, for every family that reads the cluster
    that way."""
    X = design_matrix_slow(ctx, family, attrs, clusters, encoded=False)
    y = np.asarray(targets, dtype=float)
    X_fit, X_val = X[fit_idx].copy(), X[val_idx].copy()
    if family in ("ridge", "tree", "forest", "gbm"):
        enc = encoding.target_encode_fit(list(X[fit_idx, 0]), list(y[fit_idx]), m=ctx.target_smoothing)
        X_fit[:, 0] = encoding.target_encode_apply(enc, list(X[fit_idx, 0]))
        X_val[:, 0] = encoding.target_encode_apply(enc, list(X[val_idx, 0]))
    return X_fit, X_val


def kmeans_best_two_partition(points):
    """Exhaustive best 2-partition of 1-D points by total squared error."""
    pts = [float(p) for p in points]
    best = None
    for mask in range(1, 2 ** len(pts) - 1):
        a = [p for i, p in enumerate(pts) if mask & (1 << i)]
        b = [p for i, p in enumerate(pts) if not mask & (1 << i)]
        ma = sum(a) / len(a)
        mb = sum(b) / len(b)
        sse = sum((p - ma) ** 2 for p in a) + sum((p - mb) ** 2 for p in b)
        if best is None or sse < best[0]:
            best = (sse, sorted((ma, mb)))
    return best


def build_tree_slow(X, y, max_depth, min_leaf, rng=None, feature_fraction=1.0):
    """Greedy variance-minimizing tree as nested dicts, by a sorted scan of
    every candidate feature at every node.

    Leaves are ``{"value": mean}``, internal nodes ``{"feature",
    "threshold", "left", "right"}``; rows with x < threshold go left. Nodes
    are split depth first, left child first; with ``feature_fraction < 1``
    each split draws ``ceil(feature_fraction * d)`` sorted features from
    ``rng``. The first lowest SSE in (feature, threshold) order wins.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    orders = [np.argsort(X[:, f], kind="stable") for f in range(d)]
    n_sub = d
    if feature_fraction < 1.0:
        n_sub = max(1, int(math.ceil(feature_fraction * d)))
    root = {}
    stack = [(np.ones(n, dtype=bool), 0, root)]
    while stack:
        mask, depth, node = stack.pop()
        n_node = int(mask.sum())
        ys_node = y[mask]
        total1 = float(ys_node.sum())
        total2 = float((ys_node * ys_node).sum())
        node_mean = total1 / n_node
        node_sse = max(total2 - total1 * total1 / n_node, 0.0)
        if depth >= max_depth or n_node < 2 * min_leaf or node_sse <= 1e-12:
            node["value"] = node_mean
            continue
        if n_sub < d:
            features = np.sort(rng.choice(d, size=n_sub, replace=False))
        else:
            features = range(d)
        best = None  # (sse, feature, threshold)
        for f in features:
            idx = orders[f][mask[orders[f]]]
            xs = X[idx, f]
            ys = y[idx]
            c1 = np.cumsum(ys)[:-1]
            c2 = np.cumsum(ys * ys)[:-1]
            nl = np.arange(1, n_node)
            nr = n_node - nl
            thr = (xs[:-1] + xs[1:]) / 2.0
            valid = (xs[:-1] < thr) & (nl >= min_leaf) & (nr >= min_leaf)
            if not valid.any():
                continue
            sse = (c2 - c1 * c1 / nl) + ((total2 - c2) - (total1 - c1) ** 2 / nr)
            sse[~valid] = np.inf
            pos = int(np.argmin(sse))
            if best is None or sse[pos] < best[0]:
                best = (float(sse[pos]), int(f), float(thr[pos]))
        if best is None:
            node["value"] = node_mean
            continue
        _, feature, threshold = best
        node["feature"] = feature
        node["threshold"] = threshold
        node["left"] = {}
        node["right"] = {}
        goes_left = X[:, feature] < threshold
        stack.append((mask & ~goes_left, depth + 1, node["right"]))
        stack.append((mask & goes_left, depth + 1, node["left"]))
    return root


def build_tree_rows(X, y, max_depth, min_leaf, rng=None, feature_fraction=1.0):
    """The histogram tree engine row by row, as it was before it worked on
    weighted distinct rows: every node histograms each of its rows.

    Returns ``(Tree, leaf of every row)``. Columns are binned at their
    sorted distinct values; a node's row count, Σy and Σy² per bin are three
    bincounts over its rows' codes of the candidate features. The split
    rules, the SSE formula, the tie order, the depth-first left-first node
    order and the per-split feature draws are those of ``periop.models``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    columns = [np.unique(X[:, f], return_inverse=True) for f in range(d)]
    width = max((len(distinct) for distinct, _ in columns), default=1)
    values = np.full((d, width), np.inf)
    codes = np.empty((n, d), dtype=np.intp)
    for f, (distinct, inverse) in enumerate(columns):
        values[f, : len(distinct)] = distinct
        codes[:, f] = f * width + inverse.ravel()
    flat_values = values.ravel()
    n_sub = d
    if feature_fraction < 1.0:
        n_sub = max(1, int(math.ceil(feature_fraction * d)))
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        for column, blank in zip((feature, threshold, left, right, value), (-1, 0.0, -1, -1, 0.0)):
            column.append(blank)
        return len(value) - 1

    def best_split(node_codes, ys, total1, total2):
        n_node = ys.shape[0]
        flat = node_codes.ravel()
        weights = np.repeat(ys, node_codes.shape[1])
        size = d * width
        hist = [
            np.bincount(flat, minlength=size),
            np.bincount(flat, weights=weights, minlength=size),
            np.bincount(flat, weights=weights * weights, minlength=size),
        ]
        occupied = np.flatnonzero(hist[0])
        lo, hi = occupied[:-1], occupied[1:]
        same_feature = lo // width == hi // width
        lo, hi = lo[same_feature], hi[same_feature]
        if lo.size == 0:
            return None
        nl, c1, c2 = (np.cumsum(h.reshape(d, width), axis=1).ravel()[lo] for h in hist)
        nr = n_node - nl
        thr = (flat_values[lo] + flat_values[hi]) / 2.0
        valid = (flat_values[lo] < thr) & (nl >= min_leaf) & (nr >= min_leaf)
        if not valid.any():
            return None
        sse = (c2 - c1 * c1 / nl) + ((total2 - c2) - (total1 - c1) ** 2 / nr)
        sse[~valid] = np.inf
        pos = int(np.argmin(sse))
        return int(lo[pos] // width), float(thr[pos]), int(lo[pos])

    leaf_of = np.empty(n, dtype=np.intp)
    stack = [(np.arange(n), 0, new_node())]
    while stack:
        rows, depth, node = stack.pop()
        n_node = rows.shape[0]
        ys = y[rows]
        total1 = float(ys.sum())
        total2 = float((ys * ys).sum())
        value[node] = total1 / n_node
        node_sse = max(total2 - total1 * total1 / n_node, 0.0)
        split = None
        if depth < max_depth and n_node >= 2 * min_leaf and node_sse > 1e-12:
            node_codes = codes[rows]
            candidates = node_codes
            if n_sub < d:
                candidates = node_codes[:, np.sort(rng.choice(d, size=n_sub, replace=False))]
            split = best_split(candidates, ys, total1, total2)
        if split is None:
            leaf_of[rows] = node
            continue
        feature[node], threshold[node], code = split
        goes_left = node_codes[:, feature[node]] <= code
        left[node], right[node] = new_node(), new_node()
        stack.append((rows[~goes_left], depth + 1, right[node]))
        stack.append((rows[goes_left], depth + 1, left[node]))
    tree = Tree(
        feature=np.asarray(feature, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.intp),
        right=np.asarray(right, dtype=np.intp),
        value=np.asarray(value, dtype=float),
    )
    return tree, leaf_of


def gbm_fit_rows(X, y, n_trees, learning_rate, max_depth, min_leaf):
    """Squared-error boosting on ``build_tree_rows``: each stage fits the
    residual of every row and updates each row from its leaf. Returns
    ``(base, trees, stage_mse)``."""
    y = np.asarray(y, dtype=float)
    base = float(y.mean())
    current = np.full(y.shape[0], base)
    residual = y - current
    trees, stage_mse = [], [float(np.mean(residual**2))]
    for _ in range(n_trees):
        tree, leaf_of = build_tree_rows(X, residual, max_depth, min_leaf)
        trees.append(tree)
        current = current + learning_rate * tree.value[leaf_of]
        residual = y - current
        stage_mse.append(float(np.mean(residual**2)))
    return base, trees, stage_mse


def tree_predict_slow(node, X):
    """Walk a ``build_tree_slow`` tree recursively for every row of X."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])

    def walk(node, idx):
        if idx.size == 0:
            return
        if "value" in node:
            out[idx] = node["value"]
            return
        goes_left = X[idx, node["feature"]] < node["threshold"]
        walk(node["left"], idx[goes_left])
        walk(node["right"], idx[~goes_left])

    walk(node, np.arange(X.shape[0]))
    return out


def anova_f_slow(groups):
    """One-way ANOVA F statistic, recomputing each group mean per value."""
    data = [[float(v) for v in g] for g in groups]
    n_total = sum(len(g) for g in data)
    k = len(data)
    grand = sum(sum(g) for g in data) / n_total
    ssb = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in data)
    ssw = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in data)
    return (ssb / float(k - 1)) / (ssw / float(n_total - k))


def midranks_slow(values):
    """Average ranks for ties plus the tie-correction sum of (t^3 - t)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_sum = 0.0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg_rank
        t = j - i + 1
        tie_sum += t**3 - t
        i = j + 1
    return ranks, tie_sum


# The vocabularies come from periop.synthgen; the per-case draw loop, the
# in-memory output assembly and the scalar helpers below, which the generator
# no longer has, are the reference here.
def _quantize_plan(raw_minutes, quantum):
    return max(quantum, round(raw_minutes / quantum) * quantum)


def _pair_presence(rng, coverage):
    """Presence of the (first, second) anchor of a pair; two draws, whichever is used."""
    both = rng.random() < coverage
    u = rng.random()
    if both:
        return True, True
    if u < 0.6:
        return False, False
    if u < 0.8:
        return True, False
    return False, True


def _noisy_text(rng, text):
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


def generate_log_slow(cfg):
    """The generator as a loop over the cases that builds each output in memory.

    Returns the bytes of (events.csv, cases.csv, ground_truth.json) as text,
    as the command line wrote them. Case by case, it draws scalars from one
    stream per raw column; a draw that only some cases use is made for
    every case.
    """
    names = (
        "family_params", "family", "anesthesia", "age", "sex",
        "induction", "preparation", "procedure", "procedure_plan_bias", "induction_plan_bias",
        "induction_anchors", "procedure_anchors", "positioning",
        "implausible", "implausible_negative", "implausible_multiday",
        "day", "minute", "other_event", "other_label", "other_minutes",
        "attrs", "variant", "surface", "procedure_noise", "anesthesia_noise",
    )
    rng = {
        name: np.random.default_rng(child)
        for name, child in zip(names, np.random.SeedSequence(cfg.seed).spawn(len(names)))
    }
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
    fam_dept = [DEPARTMENTS[i % len(DEPARTMENTS)] for i in range(n_fam)]
    fam_positioning = [POSITIONINGS[i % len(POSITIONINGS)] for i in range(n_fam)]
    variant_templates = PROCEDURE_VARIANT_TEMPLATES[: cfg.synonyms_per_family]

    n_anes = cfg.n_anesthesia_families
    anes_canon = ANESTHESIA_CANONICALS[:n_anes]
    anes_surfaces = [anesthesia_variants(c) for c in anes_canon]
    anes_medians = np.exp(
        params.uniform(
            math.log(cfg.induction_median_range[0]),
            math.log(cfg.induction_median_range[1]),
            size=n_anes,
        )
    )
    anes_sigmas = params.uniform(*cfg.induction_sigma_range, size=n_anes)
    anes_weights = params.dirichlet(np.full(n_anes, 2.0))

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
        fam = int(rng["family"].choice(n_fam, p=fam_weights))
        anes = int(rng["anesthesia"].choice(n_anes, p=anes_weights))
        positioning, prep_median = fam_positioning[fam]
        department = fam_dept[fam]
        age = int(np.clip(round(rng["age"].normal(55.0, 18.0)), 18, 95))
        sex = str(rng["sex"].choice(["f", "m", "other"], p=[0.48, 0.48, 0.04]))

        ind_z = rng["induction"].normal(math.log(anes_medians[anes]), anes_sigmas[anes])
        prep_z = rng["preparation"].normal(math.log(prep_median), cfg.preparation_sigma)
        proc_z = rng["procedure"].normal(math.log(fam_medians[fam]), fam_sigmas[fam])
        ind_sec = max(60, round(60.0 * float(np.exp(ind_z))))
        prep_sec = max(60, round(60.0 * float(np.exp(prep_z))))
        proc_sec = max(60, round(60.0 * float(np.exp(proc_z))))

        proc_bias = float(np.exp(rng["procedure_plan_bias"].normal(cfg.proc_plan_bias_mu, cfg.proc_plan_bias_sigma)))
        if fam_medians[fam] < 30.0:
            proc_bias *= cfg.short_family_bias
        proc_plan = _quantize_plan(fam_medians[fam] * proc_bias, cfg.plan_quantum_min)
        ind_bias = float(np.exp(rng["induction_plan_bias"].normal(cfg.ind_plan_bias_mu, cfg.ind_plan_bias_sigma)))
        ind_plan = _quantize_plan(anes_medians[anes] * ind_bias, cfg.plan_quantum_min)

        has_start, has_complete = _pair_presence(rng["induction_anchors"], cfg.coverage_induction)
        has_incision, has_suture = _pair_presence(rng["procedure_anchors"], cfg.coverage_procedure)
        has_positioning = rng["positioning"].random() < q_positioning

        implausible = None
        emitted_proc_sec = proc_sec
        draw = rng["implausible"].random()
        negative = rng["implausible"].random() < 0.5
        negative_sec = int(rng["implausible_negative"].integers(300, 3600))
        multiday_days = rng["implausible_multiday"].uniform(2.5, 5.0)
        if has_incision and has_suture and draw < cfg.implausible_rate:
            if negative:
                emitted_proc_sec = -negative_sec
                implausible = "negative"
            else:
                emitted_proc_sec = proc_sec + int(round(multiday_days * 86400))
                implausible = "multiday"

        day = int(rng["day"].integers(cfg.horizon_days))
        minute_of_day = float(rng["minute"].uniform(6 * 60, 16 * 60))
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
        has_other = rng["other_event"].random() < cfg.other_event_rate
        label = str(rng["other_label"].choice(OTHER_EVENT_LABELS))
        other_minutes = float(rng["other_minutes"].uniform(5.0, 25.0))
        if has_other:
            t_other = t0 - timedelta(minutes=other_minutes)
            events.append((t_other.astimezone(timezone.utc), case_id, label))

        attrs_present = rng["attrs"].random() >= cfg.attrs_missing_rate
        template = variant_templates[int(rng["variant"].integers(len(variant_templates)))]
        procedure_text = _noisy_text(rng["procedure_noise"], template.format(t=fam_terms[fam]))
        surfaces = anes_surfaces[anes]
        anesthesia_text = _noisy_text(rng["anesthesia_noise"], surfaces[int(rng["surface"].integers(len(surfaces)))])
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

    truth = {
        "cases": list(truth_cases),
        "procedure_family_means": {
            str(f): float(fam_medians[f] * math.exp(fam_sigmas[f] ** 2 / 2.0)) for f in range(n_fam)
        },
        "induction_family_means": {
            str(a): float(anes_medians[a] * math.exp(anes_sigmas[a] ** 2 / 2.0)) for a in range(n_anes)
        },
        "n_cases": cfg.n_cases,
        "seed": cfg.seed,
    }
    truth_json = json.dumps(truth, sort_keys=True, separators=(",", ":")) + "\n"
    return events_buf.getvalue(), cases_buf.getvalue(), truth_json
