"""Run one periop CLI command with a span around every public library call.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/trace_stage.py SPANS_JSON <periop arguments...>

Before it calls ``periop.cli.run`` the script replaces every public
module-level function of the periop library modules, and the ``fit`` and
``predict`` methods of the model classes, with a wrapper that times the call.
Names that other modules imported directly (``from .eventlog import
parse_events``) are rebound too, so those calls are timed where they are made.
``periop.cli.run`` itself is the root span; its self time is the CLI's own
work (artifact I/O and feature building).

Span totals (calls, total seconds, self seconds) and a few layer counters are
kept in memory and written to SPANS_JSON when the command returns. Self time
is a span's duration minus the durations of the spans it directly encloses.
The script exits with the command's exit code.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

from periop import (
    cleaning,
    cli,
    clustering,
    encoding,
    evaluate,
    eventlog,
    models,
    stats,
    synthgen,
    textnorm,
)

LIBRARY = (eventlog, cleaning, textnorm, clustering, encoding, models, stats, evaluate, synthgen)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.events: dict[str, list] = {}  # per-call records, in call order
        self._stack = [0.0]  # time covered by the children of each open span

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def record(self, key: str, item) -> None:
        self.events.setdefault(key, []).append(item)

    def wrap(self, fn, name, hook=None):
        """``name`` is a string, or a function of the call's arguments."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                key = name if isinstance(name, str) else name(args)
                span = spans.get(key)
                if span is None:
                    span = spans[key] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += end - start
                span[2] += end - start - children
                stack[-1] += end - start
            if hook is not None:
                # the hook's own time is left out of the caller's self time
                hook_start = clock()
                hook(args, result)
                stack[-1] += clock() - hook_start
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, "events": self.events}, fh)


def _count_nodes(node: dict) -> int:
    if "left" not in node:  # leaf
        return 1
    return 1 + _count_nodes(node["left"]) + _count_nodes(node["right"])


def _hooks(tracer: Tracer) -> dict:
    """Counters taken at layer boundaries, keyed by span name."""

    def parsed(args, result):
        records, errors = result
        tracer.count("eventlog.records", len(records) + len(errors))
        tracer.count("eventlog.errors", len(errors))

    def assembled(args, result):
        tracer.count("eventlog.cases", len(result))
        tracer.count("eventlog.valid_cases", sum(1 for c in result if c.is_valid))

    def cleaned(args, result):
        report = result[1]
        tracer.record("clean", [args[1], report.input, report.retained])

    def tfidf(args, result):
        corpus = args[0]
        tracer.record("tfidf_corpus", [len({tuple(doc) for doc in corpus}), len(corpus)])

    def dense(args, result):
        tracer.peak("textnorm.dense_bytes", result.shape[0] * result.shape[1] * 8)

    def silhouette(args, result):
        tracer.count("clustering.silhouette.rows", len(args[0]))

    def kmeans(args, result):
        tracer.count("clustering.kmeans.iterations", result.iterations_run)

    def gmm(args, result):
        tracer.count("clustering.gmm.iterations", result.iterations_run)

    def select_k(args, result):
        scores = result[1].values()
        tracer.count("clustering.select_k.scored", len(scores))
        tracer.count("clustering.select_k.finite", sum(1 for s in scores if np.isfinite(s)))

    return {
        "eventlog.parse_events": parsed,
        "eventlog.parse_case_attributes": parsed,
        "eventlog.assemble_cases": assembled,
        "cleaning.clean_phase": cleaned,
        "textnorm.fit_tfidf": tfidf,
        "textnorm.stack_dense": dense,
        "clustering.silhouette": silhouette,
        "clustering.kmeans_fit": kmeans,
        "clustering.gmm_fit": gmm,
        "clustering.select_k": select_k,
    }


def _model_fit_hook(tracer: Tracer):
    def fitted(args, model):
        X = args[1].X
        for j in range(X.shape[1]):
            tracer.peak("models.max_column_distinct", len(np.unique(X[:, j])))
        state = model.state_dict()
        trees = state.get("trees", [state["tree"]] if "tree" in state else [])
        tracer.count("models.trees_built", len(trees))
        tracer.count("models.tree_nodes", sum(_count_nodes(t) for t in trees))

    return fitted


def install(tracer: Tracer) -> None:
    hooks = _hooks(tracer)
    replaced: dict[int, object] = {}
    for module in LIBRARY:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped = tracer.wrap(obj, name, hooks.get(name))
            setattr(module, attr, wrapped)
            replaced[id(obj)] = wrapped
    # names imported into other modules are called through those modules
    for module in LIBRARY + (cli,):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])

    fit_hook = _model_fit_hook(tracer)
    models.Model.predict = tracer.wrap(
        models.Model.predict, lambda args: f"models.predict.{args[0].family}"
    )
    for cls in vars(models).values():
        if inspect.isclass(cls) and issubclass(cls, models.Model) and cls is not models.Model:
            cls.fit = tracer.wrap(vars(cls)["fit"], f"models.fit.{cls.family}", fit_hook)
    cli.run = tracer.wrap(cli.run, "cli.run")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_stage.py SPANS_JSON <periop arguments...>", file=sys.stderr)
        return 1
    tracer = Tracer()
    install(tracer)
    try:
        return cli.run(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
