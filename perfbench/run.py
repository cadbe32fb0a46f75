"""Pipeline benchmark for periop.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_10k --seed 7 --seconds 16 --trace 0

The benchmark runs the pipeline the way a user does: one ``periop <stage>``
process at a time from a single-threaded driver, with the environment (and so
numpy's BLAS thread settings) left as found. Set-up generates the workload's
log with ``periop synth``. Then, until ``--seconds`` have passed (at least
once), it runs the pipeline (ingest, clean, cluster, train, evaluate and
report, in a fresh artifact directory), a predict round (the workload's
``periop predict`` call(s) on the full ``cases.csv``, predicting from the
first pipeline's artifacts) and, while fewer than five have run, another
synth. Synth and predict rounds are topped up to five each. ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``.

Every stage and predict call is one operation. It fails if the process exits
non-zero or its outputs fail their checks: ``metrics.json`` names every roster
model plus ``manual`` for each phase, every prediction is finite and >= 0 with
one row per case, and the sha256 digest of the outputs is the same every time
(synth output, pipeline artifact directory, predictions).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` follows each
pipeline run with a traced one (see ``trace_stage.py``), adds a traced synth
and predict round, and prints the per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
PREDICT_REPEATS = 5
STAGES = ("ingest", "clean", "cluster", "train", "evaluate", "report")
PHASES = ("procedure", "induction")
# ground_truth.json keys: (per-case family, per-family planted mean duration)
TRUTH_FAMILY = {
    "procedure": ("procedure_family", "procedure_family_means"),
    "induction": ("anesthesia_family", "induction_family_means"),
}
FAMILIES = ("mean", "group-mean", "tree", "gbm")
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    n_cases: int
    config: dict[str, str]
    headline: str  # model whose test-set MAE is reported
    predict: tuple[tuple[str, str], ...]  # (phase, model) per predict call

    @property
    def roster(self) -> list[str]:
        return self.config["models"].split(",")


# Sizes keep one run (set-up, pipeline repeats, predict rounds) well under a
# minute on two cores. GBM tree building dominates train_10k. Silhouette
# k-selection dominates select_k_5k; it scores a 2000-row subsample, so its
# cost hardly depends on the number of cases. ingest_20k runs neither, so
# parsing, text vectorizing and the CLI's artifact I/O dominate.
WORKLOADS = {
    "train_10k": Workload(
        n_cases=10_000,
        config={"models": "mean,group-mean,tree,gbm"},
        headline="gbm",
        predict=(("procedure", "gbm"), ("induction", "gbm")),
    ),
    "select_k_5k": Workload(
        n_cases=5_000,
        config={"models": "mean,group-mean", "cluster_k.procedure": "2..30"},
        headline="group-mean",
        predict=(("procedure", "group-mean"),),
    ),
    "ingest_20k": Workload(
        n_cases=20_000,
        config={"models": "mean,group-mean"},
        headline="group-mean",
        predict=(("procedure", "group-mean"),),
    ),
}


@dataclass
class Op:
    """One stage or predict invocation and the result of its checks."""

    name: str
    wall_s: float
    rss_mb: float
    error: str | None = None
    spans: dict | None = None


class BenchError(Exception):
    pass


def run_periop(argv: list[str], log: Path, spans: Path | None = None) -> tuple[float, float, int]:
    """Run one periop command; return (wall seconds, peak RSS in MB, exit code)."""
    if spans is None:
        cmd = [sys.executable, "-m", "periop.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "trace_stage.py"), str(spans), *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def invoke(name: str, argv: list[str], logs: Path, trace: bool) -> Op:
    logs.mkdir(parents=True, exist_ok=True)
    log = logs / f"{name}.log"
    spans = logs / f"{name}.spans.json" if trace else None
    wall, rss, code = run_periop(argv, log, spans)
    op = Op(name, wall, rss)
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        op.error = f"exit {code}: {' '.join(tail)}"
    elif spans is not None:
        op.spans = json.loads(spans.read_text(encoding="utf-8"))
    return op


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(file.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(file.read_bytes()).digest())
    return h.hexdigest()


def read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _bad_value(text: str) -> bool:
    value = float(text)
    return not math.isfinite(value) or value < 0


def check_evaluate(wl: Workload, out: Path) -> str | None:
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    for phase in PHASES:
        missing = set(wl.roster + ["manual"]) - set(metrics.get(phase, {}))
        if missing:
            return f"metrics.json[{phase}] lacks {sorted(missing)}"
        n_retained = len(json.loads((out / f"clean_{phase}.json").read_text())["retained_ids"])
        rows = read_csv(out / f"predictions_{phase}.csv")
        if len(rows) != int(n_retained * 0.2) or not rows:
            return f"predictions_{phase}.csv has {len(rows)} rows for {n_retained} retained cases"
        if any(_bad_value(row[m]) for row in rows for m in wl.roster):
            return f"predictions_{phase}.csv holds a negative or non-finite prediction"
    return None


def check_predict(dest: Path, case_ids: list[str]) -> str | None:
    rows = read_csv(dest)
    if [row["case_id"] for row in rows] != case_ids:
        return f"{dest.name}: {len(rows)} rows for {len(case_ids)} input cases"
    if any(_bad_value(row["prediction_min"]) for row in rows):
        return f"{dest.name}: negative or non-finite prediction"
    return None


def checked(check, *args) -> str | None:
    try:
        return check(*args)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_stages(wl: Workload, common: list[str], source: Path, out: Path, logs: Path, trace: bool) -> list[Op]:
    out.mkdir(parents=True)
    for name in ("events.csv", "cases.csv"):
        shutil.copyfile(source / name, out / name)
    ops = []
    for stage in STAGES:
        op = invoke(stage, [stage, *common, "--out", str(out)], logs, trace)
        if op.error is None and stage == "evaluate":
            op.error = checked(check_evaluate, wl, out)
        ops.append(op)
        if op.error is not None:
            break
    return ops


def run_predict(wl: Workload, common: list[str], artifacts: Path, dest_dir: Path, logs: Path, trace: bool) -> list[Op]:
    dest_dir.mkdir(parents=True, exist_ok=True)
    cases = artifacts / "cases.csv"
    case_ids = [row["case_id"] for row in read_csv(cases)]
    ops = []
    for phase, model in wl.predict:
        name = f"predict_{phase}_{model}"
        dest = dest_dir / f"{name}.csv"
        argv = ["predict", *common, "--out", str(artifacts), "--phase", phase, "--model", model,
                "--cases", str(cases), "--dest", str(dest)]
        op = invoke(name, argv, logs, trace)
        if op.error is None:
            op.error = checked(check_predict, dest, case_ids)
        ops.append(op)
    return ops


def wall(ops: list[Op]) -> float:
    return sum(op.wall_s for op in ops)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_seconds() -> float:
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(benchmark["run_seconds"])


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": commit(),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced iteration
# ---------------------------------------------------------------------------

SELF_TIMES = {
    "synthgen.generate_log_s": "synthgen.generate_log",
    "eventlog.parse_events_s": "eventlog.parse_events",
    "eventlog.parse_case_attributes_s": "eventlog.parse_case_attributes",
    "eventlog.assemble_cases_s": "eventlog.assemble_cases",
    "cleaning.clean_phase_s": "cleaning.clean_phase",
    "textnorm.normalize_text_s": "textnorm.normalize_text",
    "textnorm.vectorize_s": "textnorm.vectorize",
    "textnorm.fit_tfidf_s": "textnorm.fit_tfidf",
    "textnorm.stack_dense_s": "textnorm.stack_dense",
    "clustering.select_k_s": "clustering.select_k",
    "clustering.silhouette_s": "clustering.silhouette",
    "clustering.kmeans_fit_s": "clustering.kmeans_fit",
    "clustering.gmm_fit_s": "clustering.gmm_fit",
    "clustering.cluster_assign_s": "clustering.cluster_assign",
    "clustering.cluster_catalog_s": "clustering.cluster_catalog",
    "encoding.target_encode_fit_s": "encoding.target_encode_fit",
    "encoding.target_encode_apply_s": "encoding.target_encode_apply",
    "encoding.one_hot_many_s": "encoding.one_hot_many",
    "evaluate.compute_metrics_s": "evaluate.compute_metrics",
    "evaluate.compare_to_plan_s": "evaluate.compare_to_plan",
    "evaluate.histogram_svg_s": "evaluate.histogram_svg",
    "stats.factor_report_s": "stats.factor_report",
    "stats.anova_f_test_s": "stats.anova_f_test",
    **{f"models.fit_s.{f}": f"models.fit.{f}" for f in FAMILIES},
    **{f"models.predict_s.{f}": f"models.predict.{f}" for f in FAMILIES},
}
CALLS = {
    "textnorm.normalize_text.calls": "textnorm.normalize_text",
    "textnorm.vectorize.calls": "textnorm.vectorize",
    "clustering.silhouette.calls": "clustering.silhouette",
    "clustering.kmeans_fit.calls": "clustering.kmeans_fit",
}
COUNTERS = (
    "eventlog.records",
    "textnorm.dense_bytes",
    "clustering.silhouette.rows",
    "clustering.kmeans.iterations",
    "clustering.gmm.iterations",
    "models.trees_built",
    "models.tree_nodes",
    "models.max_column_distinct",
)
PEAK_COUNTERS = ("textnorm.dense_bytes", "models.max_column_distinct")
CLI_STAGES = ("synth",) + STAGES + ("predict",)


def cli_stage(op_name: str) -> str:
    return "predict" if op_name.startswith("predict_") else op_name


def merge_spans(ops: list[Op]) -> dict:
    """Sum span totals and counters over the traced processes of one iteration."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    events: dict[str, list] = {}
    cli_self = {s: 0.0 for s in CLI_STAGES}
    for op in ops:
        for name, (calls, total, self_s) in op.spans["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        cli_self[cli_stage(op.name)] += op.spans["spans"].get("cli.run", [0, 0.0, 0.0])[2]
        for key, value in op.spans["counters"].items():
            if key in PEAK_COUNTERS:
                counters[key] = max(counters.get(key, 0.0), value)
            else:
                counters[key] = counters.get(key, 0.0) + value
        for key, items in op.spans["events"].items():
            events.setdefault(key, []).extend(items)
    return {"spans": spans, "counters": counters, "events": events, "cli_self": cli_self}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, out: Path) -> dict[str, tuple[float, str]]:
    spans, counters, events = traced["spans"], traced["counters"], traced["events"]
    m: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIMES.items():
        m[metric] = (spans.get(span, [0, 0.0, 0.0])[2], "s")
    for metric, span in CALLS.items():
        m[metric] = (spans.get(span, [0, 0.0, 0.0])[0], "count")
    for key in COUNTERS:
        unit = "bytes" if key.endswith("_bytes") else "count"
        m[key] = (counters.get(key, 0.0), unit)
    for stage in CLI_STAGES:
        m[f"cli.{stage}.self_s"] = (traced["cli_self"][stage], "s")
    records = counters.get("eventlog.records", 0.0)
    m["eventlog.parse_error_ratio"] = (ratio(counters.get("eventlog.errors", 0.0), records), "ratio")
    m["eventlog.valid_case_ratio"] = (
        ratio(counters.get("eventlog.valid_cases", 0.0), counters.get("eventlog.cases", 0.0)), "ratio"
    )
    m["clustering.select_k.finite_score_ratio"] = (
        ratio(counters.get("clustering.select_k.finite", 0.0), counters.get("clustering.select_k.scored", 0.0)),
        "ratio",
    )
    clean = {phase: ratio(kept, seen) for phase, seen, kept in events.get("clean", [])}
    # stage_cluster fits one TF-IDF model per phase, in the configured phase order
    distinct = dict(zip(PHASES, (ratio(d, n) for d, n in events.get("tfidf_corpus", []))))
    for phase in PHASES:
        m[f"cleaning.retained_ratio.{phase}"] = (clean.get(phase, 0.0), "ratio")
        m[f"textnorm.distinct_text_ratio.{phase}"] = (distinct.get(phase, 0.0), "ratio")
    model_bytes = sum(p.stat().st_size for p in out.glob("model_*.json"))
    m["models.model_json_bytes"] = (float(model_bytes), "bytes")
    return m


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class Run:
    """The operations of one benchmark run, their tally and the output digests."""

    def __init__(self, wl: Workload, seed: int, work: Path) -> None:
        self.wl = wl
        self.work = work
        config = work / "workload.cfg"
        lines = [f"{k} = {v}" for k, v in {"synth_n_cases": str(wl.n_cases), **wl.config}.items()]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.common = ["--config", str(config), "--seed", str(seed)]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.runs = 0

    def record(self, kind: str, ops: list[Op], out: Path) -> None:
        """Count the operations; all of them fail if the outputs differ from the first copy."""
        digest = digest_dir(out) if all(op.error is None for op in ops) else None
        same = digest is not None and self.digests.setdefault(kind, digest) == digest
        for op in ops:
            self.attempted += 1
            error = op.error or (None if same else f"{kind} outputs differ from the first run")
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.name}: {error}")
        if self.failed:
            raise BenchError("; ".join(self.errors))

    def _next(self) -> int:
        self.runs += 1
        return self.runs - 1

    def synth(self, traced: bool) -> Op:
        index = self._next()
        out = self.work / ("setup" if index == 0 else f"synth{index}")
        op = invoke("synth", ["synth", *self.common, "--out", str(out)], self.work / f"logs{index}", traced)
        self.record("synth", [op], out)
        if index > 0:
            shutil.rmtree(out)
        return op

    def pipeline(self, traced: bool) -> list[Op]:
        index = self._next()
        out = self.work / f"pipeline{index}"
        ops = run_stages(self.wl, self.common, self.work / "setup", out, self.work / f"logs{index}", traced)
        self.record("pipeline", ops, out)
        if (self.work / "artifacts").exists():
            shutil.rmtree(out)
        else:  # the first artifact set serves the predict rounds and the MAE readout
            out.rename(self.work / "artifacts")
        return ops

    def predict(self, traced: bool) -> list[Op]:
        index = self._next()
        dest = self.work / f"predictions{index}"
        ops = run_predict(self.wl, self.common, self.work / "artifacts", dest, self.work / f"logs{index}", traced)
        self.record("predictions", ops, dest)
        shutil.rmtree(dest)
        return ops


def headline_mae(wl: Workload, artifacts: Path) -> dict[str, float]:
    """Test-set MAE (minutes) of the workload's headline model, per phase."""
    metrics = json.loads((artifacts / "metrics.json").read_text(encoding="utf-8"))
    return {phase: metrics[phase][wl.headline]["mae"] for phase in PHASES}


def planted_mae(setup: Path, artifacts: Path) -> dict[str, float]:
    """MAE (minutes) of the generator's planted family means on the same test cases."""
    truth = json.loads((setup / "ground_truth.json").read_text(encoding="utf-8"))
    cases = {c["case_id"]: c for c in truth["cases"]}
    out = {}
    for phase in PHASES:
        family, means = TRUTH_FAMILY[phase]
        rows = read_csv(artifacts / f"predictions_{phase}.csv")
        errors = [abs(float(r["actual_min"]) - truth[means][str(cases[r["case_id"]][family])]) for r in rows]
        out[phase] = sum(errors) / len(errors)
    return out


def end_to_end(wl: Workload, setup: list[Op], pipelines: list[list[Op]], predicts: list[list[Op]], work: Path) -> dict:
    samples = {
        "setup_s": ([op.wall_s for op in setup], "s"),
        "pipeline_s": ([wall(ops) for ops in pipelines], "s"),
        "predict_s": ([wall(ops) for ops in predicts], "s"),
        "peak_rss_mb": ([max(op.rss_mb for ops in [setup] + pipelines + predicts for op in ops)], "MB"),
    }
    model = headline_mae(wl, work / "artifacts")
    planted = planted_mae(work / "setup", work / "artifacts")
    for phase in PHASES:
        samples[f"mae_vs_truth_{phase}"] = ([model[phase] / planted[phase]], "ratio")
    return samples


def per_layer(
    wl: Workload,
    setup: list[Op],
    pipelines: list[list[Op]],
    predicts: list[list[Op]],
    traced: list[list[Op]],
    artifacts: Path,
) -> dict:
    samples: dict[str, tuple[list[float], str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        samples.setdefault(name, ([], unit))[0].append(value)

    for ops in [[op] for op in setup] + pipelines + predicts:
        for stage in CLI_STAGES:
            stage_ops = [op for op in ops if cli_stage(op.name) == stage]
            if stage_ops:
                add(f"cli.{stage}_s", wall(stage_ops), "s")
                add(f"cli.{stage}.peak_rss_mb", max(op.rss_mb for op in stage_ops), "MB")
    for ops in traced:
        for name, (value, unit) in layer_metrics(merge_spans(ops), artifacts).items():
            add(name, value, unit)
    for phase, mae in headline_mae(wl, artifacts).items():
        add(f"evaluate.mae_{phase}_min", mae, "min")
    traced_pipeline = [wall([op for op in ops if op.name in STAGES]) for ops in traced]
    overhead = statistics.median(traced_pipeline) - statistics.median(wall(ops) for ops in pipelines)
    add("trace.overhead_s", overhead, "s")
    return samples


def report(samples: dict[str, tuple[list[float], str]]) -> dict:
    print(f"{'metric':45s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    result = {}
    for name in sorted(samples):
        values, unit = samples[name]
        q1, med, q3 = quartiles(values)
        print(f"{name:45s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3d}  {unit}")
        result[name] = {"value": med, "unit": unit}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "periop" / "cli.py").is_file():
        print(f"error: no periop sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps the stage process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    env["loadavg_before"] = loadavg()
    run = Run(wl, args.seed, work)
    metrics: dict = {}
    try:
        # repeats are spread over the run, so that their medians see the same
        # spells of machine slowdown as the pipeline's
        setup = [run.synth(traced=False)]
        pipelines: list[list[Op]] = []
        predicts: list[list[Op]] = []
        traced: list[list[Op]] = []
        start = time.perf_counter()
        while not pipelines or time.perf_counter() - start < args.seconds:
            pipelines.append(run.pipeline(traced=False))
            predicts.append(run.predict(traced=False))
            if args.trace:
                traced.append(run.pipeline(traced=True) + run.predict(traced=True))
            if len(setup) < SETUP_REPEATS:
                setup.append(run.synth(traced=False))
        while len(setup) < SETUP_REPEATS or len(predicts) < PREDICT_REPEATS:
            if len(setup) < SETUP_REPEATS:
                setup.append(run.synth(traced=False))
            if len(predicts) < PREDICT_REPEATS:
                predicts.append(run.predict(traced=False))
        if args.trace:
            synth = run.synth(traced=True)
            traced = [ops + [synth] for ops in traced]
            samples = per_layer(wl, setup, pipelines, predicts, traced, work / "artifacts")
        else:
            samples = end_to_end(wl, setup, pipelines, predicts, work)
        metrics = report(samples)
        print(f"artifact_sha256 {run.digests['pipeline']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = loadavg()
    print("env " + json.dumps(env, sort_keys=True))
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
