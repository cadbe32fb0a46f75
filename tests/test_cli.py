import contextlib
import csv
import functools
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from fnmatch import fnmatchcase
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import periop
from oracles import case_table, factor_groups_cases
from periop import artifacts, cli, clustering, rules
from periop.cli import derive_seed, run
from periop.config import MODEL_KEYS, PipelineConfig, UsageError, build_config, parse_config_text
from periop.eventlog import ANCHOR_EVENTS, CASE_FIELDS, CASES_HEADER, Case
from periop.models import make_model

SMALL = [
    "--seed", "13",
    "--n-cases", "1500",
]


def run_stage(stage, out, extra=()):
    code = run([stage, "--out", str(out), *SMALL, *extra])
    assert code == 0, f"stage {stage} failed"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    config = out / "pipeline.cfg"
    config.write_text(
        "\n".join(
            [
                "# small deterministic run",
                "synth_procedure_families = 8",
                "synth_anesthesia_families = 4",
                "cluster_k.procedure = 8",
                "cluster_k.induction = 4",
                "models = mean,group-mean,mta,gbm",
                "gbm_n_trees = 40",
            ]
        )
        + "\n"
    )
    for stage in ("synth", "ingest", "clean", "cluster", "train", "evaluate", "report"):
        run_stage(stage, out, ("--config", str(config)))
    return out, config


def test_derive_seed_stable():
    assert derive_seed(7, "synth") == derive_seed(7, "synth")
    assert derive_seed(7, "synth") != derive_seed(7, "split:procedure")
    assert derive_seed(7, "synth") != derive_seed(8, "synth")


def test_parse_config_text():
    values = parse_config_text("a = 1\n# comment\nb = x,y # trailing\n\nmodels = mean\n")
    assert values == {"a": "1", "b": "x,y", "models": "mean"}
    with pytest.raises(UsageError):
        parse_config_text("not a pair\n")


def test_build_config_overrides_and_types(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("seed = 5\ntolerance = 0.3\ncluster_k.procedure = 2..4\nmodels = mean\n")
    cfg = build_config(str(cfg_file), {"seed": 9, "out": str(tmp_path)})
    assert cfg.seed == 9  # flag overrides file
    assert cfg.tolerance == 0.3
    assert cfg.cluster_k["procedure"] == (2, 3, 4)
    assert cfg.models == ("mean",)


@pytest.mark.parametrize(
    "line, key, expected",
    [
        ("stemming = false", "stemming", False),
        ("stemming = TRUE", "stemming", True),
        ("out = 2024", "out", "2024"),
        ("seed = 7", "seed", 7),
        ("tolerance = 1", "tolerance", 1.0),
        ("phases = induction", "phases", ("induction",)),
    ],
)
def test_build_config_coerces_by_field_type(tmp_path, line, key, expected):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(line + "\n")
    value = getattr(build_config(str(cfg_file), {}), key)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize(
    "line",
    [
        "stemming = no",
        "stemming = 1",
        "tolerance = abc",
        "seed = 7.5",
        "cluster_k.procedure = 2..x",
        "tolerance = inf",
        "iqr_multiplier = nan",
        "max_duration_min = -inf",
    ],
)
def test_build_config_rejects_values_that_do_not_fit_the_field(tmp_path, capsys, line):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(line + "\n")
    key = line.split("=")[0].strip()
    with pytest.raises(UsageError, match=key):
        build_config(str(cfg_file), {})
    assert run(["synth", "--out", str(tmp_path), "--config", str(cfg_file)]) == 1
    assert f"config key {key!r}" in capsys.readouterr().err


def test_build_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("no_such_setting = 1\n")
    with pytest.raises(UsageError):
        build_config(str(cfg_file), {})


def test_config_validation():
    with pytest.raises(UsageError):
        PipelineConfig(phases=("nonsense",))
    with pytest.raises(UsageError):
        PipelineConfig(test_fraction=1.5)
    with pytest.raises(UsageError):
        PipelineConfig(models=("bogus",))


@pytest.mark.parametrize(
    "lines, key",
    [
        (["cluster_algo.procedure = dbscan", "cluster_k.procedure = 2..5"], "cluster_algo.procedure"),
        (["cluster_algo.surgery = gmm", "cluster_k.surgery = 3"], "cluster_algo.surgery"),
        (["cluster_k.surgery = 3"], "cluster_k.surgery"),
        (["cluster_k.procedure ="], "cluster_k.procedure"),
        (["cluster_k.procedure = 1..0"], "cluster_k.procedure"),
        (["cluster_k.procedure = 0"], "cluster_k.procedure"),
        (["cluster_k.induction = 1..5"], "cluster_k.induction"),
        (["iqr_multiplier = 0"], "iqr_multiplier"),
        (["gbm_learning_rate = 0"], "gbm_learning_rate"),
        (["gbm_max_depth = -1"], "gbm_max_depth"),
        (["forest_min_leaf = 0"], "forest_min_leaf"),
        (["tree_max_depth = -1"], "tree_max_depth"),
        (["ridge_lambda = -1"], "ridge_lambda"),
        (["cv_folds = 1"], "cv_folds"),
        (["synth_n_cases = 99"], "synth_n_cases"),
        (["synonyms_phases = procdure"], "synonyms_phases"),
    ],
    ids=[
        "unknown-algorithm",
        "unknown-phase-algo",
        "unknown-phase-k",
        "empty-k",
        "empty-k-range",
        "zero-k",
        "k-range-from-one",
        "zero-iqr-multiplier",
        "zero-gbm-learning-rate",
        "negative-gbm-depth",
        "zero-forest-min-leaf",
        "negative-tree-depth",
        "negative-ridge-lambda",
        "one-cv-fold",
        "too-few-synth-cases",
        "unknown-synonyms-phase",
    ],
)
def test_config_mistakes_exit_one_at_load(tmp_path, capsys, lines, key):
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match=key):
        build_config(str(config), {})
    for stage in ("clean", "cluster"):  # rejected before any artifact is read
        assert run([stage, "--out", str(tmp_path), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert key in err and "missing artifact" not in err


# a value that each model parameter with a rule rejects
BAD_PARAMS = {"lam": -1.0, "n_trees": -1, "max_depth": -1, "min_leaf": 0, "learning_rate": 0.0, "feature_fraction": 0.0}


@pytest.mark.parametrize(
    "family, param, key", [(family, param, key) for family, keys in MODEL_KEYS.items() for param, key in keys.items()]
)
def test_config_rejects_a_model_parameter_with_the_constructors_message(tmp_path, family, param, key):
    """The config and the model constructor check one rule: the config's
    message is the constructor's, prefixed with the key."""
    with pytest.raises(ValueError) as constructor:
        make_model(family, {param: BAD_PARAMS[param]})
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = {BAD_PARAMS[param]}\n")
    with pytest.raises(UsageError) as loaded:
        build_config(str(config), {})
    assert str(loaded.value) == f"config key {key!r}: {constructor.value}"


def test_config_and_clustering_know_the_same_algorithms():
    assert set(clustering.ALGORITHMS) == set(rules.CLUSTER_ALGORITHMS)
    with pytest.raises(ValueError, match="unknown algorithm 'dbscan'"):
        clustering.select_k([[0.0], [1.0], [2.0]], "dbscan", [2])


# run in a fresh interpreter: argv[1:] is one periop command; prints what
# ``import periop.cli`` loaded, the command's exit code and what it then held
# loaded, where "loaded" is each of _WATCHED that is imported and the periop
# modules. numpy.random imports secrets, hmac and OpenSSL's _hashlib, and
# np.median's NaN check numpy.ma: only a stage that draws may load the first.
_WATCHED = ("numpy", "numpy.ma", "numpy.random", "secrets")
_LOADED_BY = f"""
import json, sys
def loaded():
    return [m for m in {_WATCHED!r} if m in sys.modules] + sorted(m for m in sys.modules if m.startswith("periop"))
import periop.cli
at_import = loaded()
print(json.dumps([at_import, periop.cli.run(sys.argv[1:]), loaded()]))
"""
_CLI_MODULES = ["periop", "periop.artifacts", "periop.cli", "periop.config", "periop.eventlog", "periop.rules"]


def _listed(modules):
    """``modules`` in the order ``_LOADED_BY`` lists them."""
    return [m for m in _WATCHED if m in modules] + sorted(m for m in modules if m.startswith("periop"))


def test_ingest_and_clean_import_no_numpy(pipeline_dir, tmp_path):
    """Each command imports only the modules it runs: importing the CLI
    loads no numpy, so ``main`` can set BLAS's thread count before OpenBLAS
    starts; ingest and clean never load it, ingest loads no case table, and
    predict loads the evaluate module only to apply the planning floors.
    Cluster alone draws: train, evaluate and report read the split from the
    assignments file and load no numpy.random, and report loads no models;
    a grid search draws its folds, and loads no numpy.ma.
    numpy before 2.0 loads numpy.random and numpy.ma with numpy itself, so
    what ``import numpy`` loads is expected of every numpy stage."""
    source, config = pipeline_dir
    for name in ("events.csv", "cases.csv"):
        shutil.copy(source / name, tmp_path / name)
    src = str(Path(periop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def loaded_by(*code):
        result = subprocess.run([sys.executable, "-c", *code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    with_numpy = loaded_by(f"import json, sys, numpy; print(json.dumps([m for m in {_WATCHED!r} if m in sys.modules]))")
    own = ["--out", str(tmp_path), "--seed", "13", "--config", str(config)]
    predict = ["predict", "--out", str(source), *SMALL, "--config", str(config),
               "--phase", "procedure", "--model", "gbm", "--dest", str(tmp_path / "p.csv")]
    clustering = [*with_numpy, "periop.clustering", "periop.encoding", "periop.models", "periop.textnorm"]
    design = [*with_numpy, "periop.encoding", "periop.features", "periop.models", "periop.stats"]
    expected = [  # (command, the modules it adds to _CLI_MODULES), in pipeline order
        (["ingest", *own], []),
        (["clean", *own], ["periop.casetable", "periop.cleaning"]),
        (["cluster", *own], [*clustering, "numpy.random", "secrets", "periop.casetable"]),
        (["train", *own], [*design, "periop.casetable"]),
        (["evaluate", *own], [*design, "periop.casetable", "periop.evaluate"]),
        (["report", *own], [*with_numpy, "periop.casetable", "periop.evaluate", "periop.stats"]),
        (predict, [*clustering, *design]),
        ([*predict, "--apply-floors"], [*clustering, *design, "periop.evaluate"]),
        (["train", *own, "--grid-search"], [*design, "numpy.random", "secrets", "periop.casetable"]),
    ]
    for argv, added in expected:
        at_import, code, loaded = loaded_by(_LOADED_BY, *argv)
        assert (at_import, code) == (_CLI_MODULES, 0), argv
        assert loaded == _listed({*_CLI_MODULES, *added}), argv
    assert (tmp_path / "factor_report.json").exists()


def _blas_settings_seen_by_main(monkeypatch, **environ):
    """The thread variables after ``main`` starts a command under ``environ``."""
    for var in cli._BLAS_THREAD_VARS:  # set, then unset: the fixture restores either way
        monkeypatch.setenv(var, "")
        monkeypatch.delenv(var)
    for var, value in environ.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(cli, "run", lambda: 0)
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    assert exit_info.value.code == 0
    return {var: os.environ[var] for var in cli._BLAS_THREAD_VARS if var in os.environ}


@pytest.mark.parametrize(
    "environ",
    [{"OPENBLAS_NUM_THREADS": "3"}, {"GOTO_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": ""}, {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "2"}],
    ids=["openblas", "goto", "omp", "openblas-empty", "omp-and-openblas"],
)
def test_main_keeps_a_blas_thread_count_the_user_set(monkeypatch, environ):
    """OpenBLAS reads these variables, in this order, when numpy loads it;
    with any of them set, the CLI leaves the thread count to OpenBLAS."""
    assert _blas_settings_seen_by_main(monkeypatch, **environ) == environ


def test_main_runs_numpy_on_one_blas_thread_by_default(monkeypatch):
    assert _blas_settings_seen_by_main(monkeypatch) == {"OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_cyclic_gc_as_it_found_it(tmp_path, monkeypatch, enabled):
    """The collector is paused for the command and restored after exit 0, 1 and 2."""
    seen = []

    def stage(cfg):
        seen.append(gc.isenabled())
        if cfg.seed == 2:
            raise RuntimeError("a runtime failure")

    monkeypatch.setitem(cli.STAGES, "clean", stage)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        codes = [run(["clean", "--out", str(tmp_path), "--seed", seed]) for seed in ("0", "x", "2")]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert codes == [0, 1, 2]
    assert seen == [False, False]  # the usage error exits before the stage runs


def test_unknown_subcommand_exits_one():
    assert run(["definitely-not-a-command"]) == 1
    assert run(["clean", "--no-such-flag"]) == 1


def test_missing_artifacts_exit_one(tmp_path):
    assert run(["clean", "--out", str(tmp_path / "empty")]) == 1
    assert run(["ingest", "--out", str(tmp_path / "empty")]) == 1


@pytest.mark.parametrize(
    "events",
    ["case,event_type,timestamp\nW1,incision,2024-03-01T08:40:00Z\n", ""],
    ids=["wrong-header", "empty"],
)
def test_bad_input_header_exits_one(tmp_path, capsys, events):
    (tmp_path / "events.csv").write_text(events)
    (tmp_path / "cases.csv").write_text(",".join(CASES_HEADER) + "\nW1,urology,63,f,,,,,\n")
    assert run(["ingest", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'events.csv'}: line 1: expected header")


@pytest.mark.parametrize(
    "entry", ["ingest-events", "ingest-cases", "predict-cases", "config", "config-not-utf-8", "synonyms"]
)
def test_an_input_path_that_cannot_be_read_exits_one_naming_it(pipeline_dir, tmp_path, capsys, entry):
    """A directory, or a config file that is not UTF-8, given as an input
    stops the command with exit 1, naming the path."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    folder = tmp_path / "folder"
    folder.mkdir()
    not_utf_8 = tmp_path / "latin-1.cfg"
    not_utf_8.write_bytes(b"seed = 13 # \xe9\n")
    common = ["--out", str(out), *SMALL, "--config", str(config)]
    predict = ["predict", *common, "--phase", "procedure", "--model", "gbm", "--dest", str(tmp_path / "p.csv")]
    argv, message = {
        "ingest-events": (["ingest", *common, "--events", str(folder)], f"input {folder}: Is a directory"),
        "ingest-cases": (["ingest", *common, "--cases", str(folder)], f"input {folder}: Is a directory"),
        "predict-cases": ([*predict, "--cases", str(folder)], f"input {folder}: Is a directory"),
        "config": (["clean", "--out", str(out), "--config", str(folder)], f"config file {folder}: Is a directory"),
        "config-not-utf-8": (["clean", "--out", str(out), "--config", str(not_utf_8)],
                             f"config file {not_utf_8}: invalid UTF-8"),
        "synonyms": (["cluster", *common, "--synonyms", str(folder)], f"synonyms file {folder}: Is a directory"),
    }[entry]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--cases", "--events"])
def test_ingest_refuses_an_input_that_it_writes(pipeline_dir, tmp_path, capsys, flag):
    """Ingest would read its input and then overwrite it with cases.jsonl:
    an input that resolves to a file ingest writes exits 1 before any read,
    and the file keeps its bytes."""
    source, _ = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    before = (out / "cases.jsonl").read_bytes()
    given = out / ".." / "out" / "cases.jsonl"  # the same file by another path
    capsys.readouterr()
    assert run(["ingest", "--out", str(out), *SMALL, flag, str(given)]) == 1
    assert (out / "cases.jsonl").read_bytes() == before
    assert capsys.readouterr().err == (
        f"error: {flag[2:]} input {given} is a file that ingest writes; give an input outside its output\n"
    )


def _predict_argv(out, config, *extra):
    return ["predict", "--out", str(out), *SMALL, "--config", str(config), "--phase", "procedure", "--model", "gbm",
            *extra]


@pytest.mark.parametrize(
    "name, writer",
    [("cases.jsonl", "ingest"), ("model_procedure_gbm.json", "train"), ("predictions_procedure.csv", "evaluate"),
     ("events.csv", "synth")],
)
def test_predict_refuses_a_dest_that_another_command_writes(pipeline_dir, tmp_path, capsys, name, writer):
    """A --dest that resolves to another command's artifact in --out exits 1
    before any read, naming the file and the command, and the file keeps its
    bytes."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    before = (out / name).read_bytes()
    dest = out / ".." / "out" / name  # the same file by another path
    capsys.readouterr()
    assert run(_predict_argv(out, config, "--dest", str(dest))) == 1
    assert (out / name).read_bytes() == before
    assert capsys.readouterr().err == (
        f"error: --dest {dest} is a file that {writer} writes; give a path no other command writes\n"
    )


def test_predict_writes_its_own_file_in_out_or_a_path_outside_it(pipeline_dir, tmp_path):
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    for dest in (out / "predictions.csv", tmp_path / "elsewhere.csv"):
        assert run(_predict_argv(out, config, "--dest", str(dest))) == 0
    assert (out / "predictions.csv").read_bytes() == (tmp_path / "elsewhere.csv").read_bytes()


def test_predict_refuses_a_dest_that_is_its_cases_input(pipeline_dir, tmp_path, capsys):
    """predict --cases mine.csv --dest mine.csv would replace the cases with
    the predictions: it exits 1 and mine.csv keeps its bytes."""
    source, config = pipeline_dir
    mine = tmp_path / "mine.csv"
    shutil.copy(source / "cases.csv", mine)
    before = mine.read_bytes()
    capsys.readouterr()
    assert run(_predict_argv(source, config, "--cases", str(mine), "--dest", str(mine))) == 1
    assert mine.read_bytes() == before
    assert capsys.readouterr().err == (
        f"error: cases input {mine} is a file that predict writes; give an input outside its output\n"
    )


@pytest.mark.parametrize("command", ["predict", "synth", "ingest"])
def test_an_output_path_that_cannot_be_created_exits_one_naming_it(pipeline_dir, tmp_path, capsys, command):
    """A --dest that is a directory, or an --out that is a regular file."""
    source, config = pipeline_dir
    folder, regular = tmp_path / "folder", tmp_path / "regular"
    folder.mkdir()
    regular.write_text("not a directory\n")
    argv, message = {
        "predict": (_predict_argv(source, config, "--dest", str(folder)), f"output {folder}: Is a directory"),
        "synth": (["synth", "--out", str(regular), *SMALL], f"output {regular}: File exists"),
        "ingest": (["ingest", "--out", str(regular), *SMALL, "--events", str(source / "events.csv"),
                    "--cases", str(source / "cases.csv")], f"output {regular}: File exists"),
    }[command]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert regular.read_text() == "not a directory\n"


def test_the_subcommands_are_the_commands_of_the_writes_table():
    assert [*cli.STAGES, "predict"] == list(artifacts.WRITES)


# three small chains: the default config; one phase without a plan, so no
# plan histogram and no deviation row; one phase with the whole roster tuned
# by grid search
_TABLE_CHAINS = {
    "default": ("", ()),
    "no-plan": ("phases = preparation\n", ()),
    "roster-grid": (
        "phases = procedure\nmodels = mean,group-mean,mta,ridge,tree,forest,gbm\nforest_n_trees = 5\n",
        ("--grid-search",),
    ),
}


@pytest.fixture(scope="module")
def chain_writes(tmp_path_factory):
    """chain_writes(chain): the --out of a 300-case chain and predict, and
    each file that artifacts._create opened there by the command that opened
    it. Each chain runs once."""

    @functools.cache
    def writes(chain):
        lines, flags = _TABLE_CHAINS[chain]
        out = tmp_path_factory.mktemp(chain)
        config = tmp_path_factory.mktemp(f"{chain}-config") / "chain.cfg"
        config.write_text("synth_n_cases = 300\n" + lines)
        created: dict[str, list[Path]] = {command: [] for command in artifacts.WRITES}
        running = []  # the command that runs now, last
        create = artifacts._create

        def recording(path):
            created[running[-1]].append(path)
            return create(path)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(artifacts, "_create", recording)
            for command in artifacts.WRITES:
                running.append(command)
                assert run([command, "--out", str(out), "--seed", "7", "--config", str(config), *flags]) == 0, command
        return out, created

    return writes


@pytest.mark.parametrize("chain", list(_TABLE_CHAINS))
def test_every_file_a_command_creates_is_declared_for_it_alone(chain_writes, chain):
    out, created = chain_writes(chain)
    for command, paths in created.items():
        for path in paths:
            assert path.parent == out, (command, path)
            assert artifacts.writer_of(path) == command, (command, path.name)
            matching = [c for c, names in artifacts.WRITES.items() if any(fnmatchcase(path.name, n) for n in names)]
            assert matching == [command], (command, path.name)


def test_every_declared_name_is_written_by_some_chain(chain_writes):
    names = {path.name for chain in _TABLE_CHAINS for paths in chain_writes(chain)[1].values() for path in paths}
    for command, patterns in artifacts.WRITES.items():
        for pattern in patterns:
            assert any(fnmatchcase(name, pattern) for name in names), (command, pattern)


def test_ingest_report_names_the_source_of_each_error(tmp_path):
    (tmp_path / "events.csv").write_text(
        "case_id,event_type,timestamp\nW1,incision,yesterday\nW1,suture,2024-03-01T10:10:00Z\n"
    )
    (tmp_path / "cases.csv").write_text(",".join(CASES_HEADER) + "\nW1,urology,270,f,,,,,\n")
    assert run(["ingest", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ingest_report.json").read_text())
    assert report["first_errors"] == [
        {"source": "events", "line": 2, "message": "malformed timestamp 'yesterday'"},
        {"source": "cases", "line": 2, "message": "age out of range [0, 130]: 270"},
    ]


EVENTS_OF_W1_W2 = [
    {"case_id": case_id, "event_type": event_type, "timestamp": stamp}
    for case_id in ("W1", "W2")
    for event_type, stamp in (("incision", "2024-03-01T08:40:00Z"), ("suture", "2024-03-01T10:10:00Z"))
]
# W1 twice: the first row is kept, the second reported at its line
CASES_W1_TWICE = [
    dict.fromkeys(CASES_HEADER, "") | row
    for row in (
        {"case_id": "W1", "department": "urology", "age": "63"},
        {"case_id": "W2", "department": "surgery"},
        {"case_id": "W1", "department": "cardiology", "age": "70"},
    )
]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_ingest_keeps_the_first_row_of_a_repeated_case_id(tmp_path, fmt):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, rows in (("events", EVENTS_OF_W1_W2), ("cases", CASES_W1_TWICE)):
        with (inputs / f"{name}.{fmt}").open("w", newline="") as fh:
            if fmt == "csv":
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
            else:
                fh.writelines(json.dumps(row) + "\n" for row in rows)
    out = tmp_path / "out"
    argv = ["ingest", "--out", str(out), "--events", str(inputs / f"events.{fmt}"), "--cases", str(inputs / f"cases.{fmt}")]
    assert run(argv) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["attr_parse_errors"] == 1
    line = 4 if fmt == "csv" else 3  # the CSV header is line 1
    assert report["first_errors"] == [{"source": "cases", "line": line, "message": "case 'W1' is listed a second time"}]
    table = artifacts.read_cases(out / "cases.jsonl")
    assert table.ids == ["W1", "W2"]
    assert table["department"] == ["urology", "surgery"] and table["age"] == [63, None]


# one case's fields by name, in the order of the cases.jsonl header
GOOD_CASE = {
    "case_id": "W1", "department": "urology", "age": 50, "sex": "m", "procedure_text": "TURP",
    "anesthesia_text": "ITN", "positioning_text": "", "planned_induction_min": 15.0,
    "planned_procedure_min": 30.0, "induction_min": 20.5, "preparation_min": 10.0, "procedure_min": 76.4,
    "duplicate_anchors": [], "n_events": 4,
}
CASES_JSONL_HEADER = json.dumps(list(GOOD_CASE))


def case_line(**changes):
    return json.dumps(list((GOOD_CASE | changes).values()))


NOT_FINITE = "bad value for {!r}: expected a finite number or null"
ANCHORS = "bad value for 'duplicate_anchors': expected an array of distinct anchor names"
# a cases.jsonl row of the builds before the header line: one object per case
OBJECT_ROW = json.dumps(GOOD_CASE, sort_keys=True)
WRONG_HEADER = CASES_JSONL_HEADER.replace("age", "years")


@pytest.mark.parametrize(
    "line, problem",
    [
        (case_line()[:40], "invalid JSON"),
        (OBJECT_ROW, f"expected a JSON array of 14 fields, got {OBJECT_ROW[:37]}..."),
        (json.dumps(list(GOOD_CASE.values())[:-1]), "expected a JSON array of 14 fields, got 13"),
        (case_line(age="x"), "bad value for 'age': expected a number or null, got \"x\""),
        (case_line(procedure_min="12"), "bad value for 'procedure_min': expected a number or null, got \"12\""),
        (case_line(n_events=True), "bad value for 'n_events': expected an integer, got true"),
        (case_line(department=None), "bad value for 'department': expected a string, got null"),
        (case_line(procedure_min=math.nan), f"{NOT_FINITE.format('procedure_min')}, got NaN"),
        (case_line(induction_min=-math.inf), f"{NOT_FINITE.format('induction_min')}, got -Infinity"),
        (case_line(planned_procedure_min=math.inf), f"{NOT_FINITE.format('planned_procedure_min')}, got Infinity"),
        (case_line().replace("76.4", "1e400"), f"{NOT_FINITE.format('procedure_min')}, got Infinity"),
        (case_line(age=10**400), f"{NOT_FINITE.format('age')}, got {str(10**400)[:37]}..."),
        (case_line(case_id="W2", duplicate_anchors=[math.nan, {"x": [1]}]), f"{ANCHORS}, got [NaN, {{\"x\": [1]}}]"),
        (case_line(case_id="W2", duplicate_anchors=["suture", "suture"]), f"{ANCHORS}, got [\"suture\", \"suture\"]"),
        (case_line(case_id="W2", n_events=-3), "bad value for 'n_events': expected an integer >= 0, got -3"),
        (case_line(), "case 'W1' is listed a second time"),
    ],
    ids=[
        "truncated", "stale", "one-field-short", "age-text", "duration-text", "count-bool", "department-null",
        "duration-nan", "duration-minus-infinity", "plan-infinity", "duration-1e400", "age-too-large",
        "anchors-not-names", "anchors-repeated", "count-negative", "repeated-id",
    ],
)
def test_bad_cases_jsonl_exits_one_naming_the_line(tmp_path, capsys, line, problem):
    path = tmp_path / "cases.jsonl"
    path.write_text(CASES_JSONL_HEADER + "\n" + case_line() + "\n" + line + "\n")
    for stage in ("clean", "cluster", "train", "evaluate", "report"):
        assert run([stage, "--out", str(tmp_path)]) == 1, stage
        assert capsys.readouterr().err == f"error: {path}:3: {problem}; re-run 'ingest' to rebuild it\n"


@pytest.mark.parametrize(
    "text, got",
    [
        (OBJECT_ROW + "\n", f"{OBJECT_ROW[:37]}..."),
        (WRONG_HEADER + "\n" + case_line() + "\n", f"{WRONG_HEADER[:37]}..."),
        ("", "an empty file"),
        ("\n" + case_line() + "\n", "invalid JSON"),
    ],
    ids=["object-row-of-an-older-build", "wrong-header", "empty-file", "blank-line-1"],
)
def test_cases_jsonl_without_its_header_exits_one_at_line_one(tmp_path, capsys, text, got):
    path = tmp_path / "cases.jsonl"
    path.write_text(text)
    for stage in ("clean", "cluster", "train", "evaluate", "report"):
        assert run([stage, "--out", str(tmp_path)]) == 1, stage
        assert capsys.readouterr().err == (
            f"error: {path}:1: expected a header line of the 14 field names, got {got}; re-run 'ingest' to rebuild it\n"
        )


def test_blank_lines_and_a_last_line_without_its_newline_read_as_the_same_table(tmp_path):
    rows = [case_line(case_id=f"W{i}", age=i) for i in range(3)]
    path = tmp_path / "cases.jsonl"
    path.write_text(CASES_JSONL_HEADER + "\n" + "\n".join(rows) + "\n")
    table = artifacts.read_cases(path)
    path.write_text(CASES_JSONL_HEADER + "\n\n" + rows[0] + "\n \n" + rows[1] + "\n" + rows[2])
    spaced = artifacts.read_cases(path)
    assert spaced.ids == table.ids == ["W0", "W1", "W2"]
    assert all(spaced[field] == table[field] for field in CASE_FIELDS)


FACTOR_CASES = st.lists(
    st.builds(
        Case,
        case_id=st.text(max_size=3),
        department=st.sampled_from(["a", "b", "c"]),
        age=st.none() | st.integers(0, 130),
        sex=st.sampled_from(["f", "m", "other"]),
        procedure_text=st.text(),
        anesthesia_text=st.text(),
        positioning_text=st.text(),
        planned_induction_min=st.none(),
        planned_procedure_min=st.none(),
        induction_min=st.none() | st.floats(-10, 600),
        preparation_min=st.none() | st.floats(-10, 600),
        procedure_min=st.none() | st.floats(-10, 600),
        duplicate_anchors=st.lists(st.sampled_from(ANCHOR_EVENTS), unique=True).map(tuple),
        n_events=st.integers(0, 50),
    ),
    unique_by=lambda c: c.case_id,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cases=FACTOR_CASES, phase=st.sampled_from(["procedure", "induction", "preparation"]))
def test_report_factor_groups_on_the_case_table_equal_the_case_record_version(data, cases, phase):
    """The same factors, keys and durations, each in the same order."""
    clusters = data.draw(st.lists(st.integers(-1, 3), min_size=len(cases), max_size=len(cases)))
    got = cli._factor_groups(case_table(cases), phase, clusters)
    assert repr(got) == repr(factor_groups_cases(cases, phase, clusters))


def test_pipeline_artifacts_exist(pipeline_dir):
    pipeline_dir, _ = pipeline_dir
    expected = [
        "events.csv",
        "cases.csv",
        "ground_truth.json",
        "cases.jsonl",
        "ingest_report.json",
        "cleaning_report.json",
        "clean_procedure.json",
        "clean_induction.json",
        "tfidf_procedure.json",
        "cluster_model_procedure.json",
        "assignments_procedure.csv",
        "clusters_procedure.csv",
        "model_procedure_mean.json",
        "model_procedure_group-mean.json",
        "model_procedure_mta.json",
        "model_procedure_gbm.json",
        "metrics.json",
        "predictions_procedure.csv",
        "deviation_report.json",
        "factor_report.json",
        "histogram_procedure_plan.csv",
        "histogram_procedure_plan.svg",
    ]
    for name in expected:
        assert (pipeline_dir / name).exists(), name


def test_pipeline_metrics_sane(pipeline_dir):
    pipeline_dir, _ = pipeline_dir
    metrics = json.loads((pipeline_dir / "metrics.json").read_text())
    for phase in ("procedure", "induction"):
        assert set(metrics[phase]) == {"mean", "group-mean", "mta", "gbm", "manual"}
        for report in metrics[phase].values():
            assert report["mae"] >= 0
            assert report["rmse"] >= report["mae"] - 1e-9
            assert 0.0 <= report["within_tol_rate"] <= 1.0
        # grouping by anything beats the global mean on this data
        assert metrics[phase]["group-mean"]["mae"] < metrics[phase]["mean"]["mae"]


def test_pipeline_deviation_report(pipeline_dir):
    pipeline_dir, _ = pipeline_dir
    report = json.loads((pipeline_dir / "deviation_report.json").read_text())
    rows = {r["source"]: r for r in report["procedure"]["rows"]}
    assert "manual" in rows and "group-mean" in rows
    assert report["procedure"]["improvement_pp"]["group-mean"] > 0


def test_plan_histogram_only_15_minute_mass(pipeline_dir):
    pipeline_dir, _ = pipeline_dir
    lines = (pipeline_dir / "histogram_procedure_plan.csv").read_text().splitlines()[1:]
    for line in lines:
        start, count = line.split(",")
        if int(count) > 0:
            assert float(start) % 15.0 == 0.0


def test_report_rerun_is_byte_identical(pipeline_dir):
    pipeline_dir, config = pipeline_dir
    before = (pipeline_dir / "deviation_report.json").read_bytes()
    metrics_before = (pipeline_dir / "metrics.json").read_bytes()
    run_stage("report", pipeline_dir, ("--config", str(config)))
    run_stage("evaluate", pipeline_dir, ("--config", str(config)))
    assert (pipeline_dir / "deviation_report.json").read_bytes() == before
    assert (pipeline_dir / "metrics.json").read_bytes() == metrics_before


def test_train_with_grid_search_ridge(pipeline_dir):
    pipeline_dir, config = pipeline_dir
    code = run(
        [
            "train", "--out", str(pipeline_dir), *SMALL, "--config", str(config),
            "--phase", "procedure", "--model", "ridge", "--grid-search",
        ]
    )
    assert code == 0
    bundle = json.loads((pipeline_dir / "model_procedure_ridge.json").read_text())
    assert bundle["grid"] is not None
    assert set(bundle["grid"]["best_params"]) == {"lam"}
    assert len(bundle["grid"]["cv_table"]) == 3
    assert bundle["model"]["lambda"] == bundle["grid"]["best_params"]["lam"]


def test_predict_subcommand_with_floors(pipeline_dir, tmp_path):
    pipeline_dir, config = pipeline_dir
    newcases = tmp_path / "new.csv"
    lines = (pipeline_dir / "cases.csv").read_text().splitlines()
    newcases.write_text("\n".join(lines[:4]) + "\n")
    dest = tmp_path / "preds.csv"
    code = run(
        [
            "predict", "--out", str(pipeline_dir), *SMALL, "--config", str(config),
            "--phase", "induction", "--model", "group-mean",
            "--cases", str(newcases), "--dest", str(dest), "--apply-floors",
        ]
    )
    assert code == 0
    rows = dest.read_text().splitlines()
    assert rows[0] == "case_id,phase,model,prediction_min"
    assert len(rows) == 4
    for row in rows[1:]:
        assert float(row.split(",")[-1]) >= 20.0  # induction floor applied


def test_predict_reports_the_cases_rows_it_skipped(pipeline_dir, tmp_path, capsys):
    pipeline_dir, config = pipeline_dir
    header, *rows = (pipeline_dir / "cases.csv").read_text().splitlines()[:5]
    argv = ["predict", "--out", str(pipeline_dir), *SMALL, "--config", str(config),
            "--phase", "procedure", "--model", "group-mean"]
    clean_cases, clean_dest = tmp_path / "clean.csv", tmp_path / "clean_preds.csv"
    clean_cases.write_text("\n".join([header, *rows]) + "\n")
    assert run([*argv, "--cases", str(clean_cases), "--dest", str(clean_dest)]) == 0
    assert capsys.readouterr().err == ""

    # a bad age on line 3; the other four rows are predicted as without it
    cases, dest = tmp_path / "new.csv", tmp_path / "preds.csv"
    cases.write_text("\n".join([header, *rows[:1], "W9999999,urology,abc,f,,,,,", *rows[1:]]) + "\n")
    assert run([*argv, "--cases", str(cases), "--dest", str(dest)]) == 0
    assert capsys.readouterr().err == (
        f"predict: skipped 1 of 5 rows of {cases}\n  line 3: age is not an integer: 'abc'\n"
    )
    assert dest.read_bytes() == clean_dest.read_bytes()

    # only the first few skipped rows are listed
    cases.write_text("\n".join([header, *rows, *[f"W999999{i},urology,{200 + i},f,,,,," for i in range(7)]]) + "\n")
    assert run([*argv, "--cases", str(cases), "--dest", str(dest)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"predict: skipped 7 of 11 rows of {cases}"
    assert err[1:] == [f"  line {6 + i}: age out of range [0, 130]: {200 + i}" for i in range(5)]
    assert dest.read_bytes() == clean_dest.read_bytes()


def test_predict_reproduces_evaluate_predictions(pipeline_dir, tmp_path):
    """Train/evaluate and predict build features on one path: predicting the
    full cases.csv gives every test case the value evaluate wrote. (The
    generator also plants cases with events but no cases.csv row; predict
    cannot see those.)"""
    pipeline_dir, config = pipeline_dir
    with (pipeline_dir / "cases.csv").open(newline="") as fh:
        listed = {row["case_id"] for row in csv.DictReader(fh)}
    for phase in ("procedure", "induction"):
        with (pipeline_dir / f"predictions_{phase}.csv").open(newline="") as fh:
            evaluated = [row for row in csv.DictReader(fh) if row["case_id"] in listed]
        assert evaluated
        for name in ("mean", "group-mean", "mta", "gbm"):
            dest = tmp_path / f"{phase}_{name}.csv"
            code = run(
                [
                    "predict", "--out", str(pipeline_dir), *SMALL, "--config", str(config),
                    "--phase", phase, "--model", name, "--dest", str(dest),
                ]
            )
            assert code == 0
            with dest.open(newline="") as fh:
                predicted = {row["case_id"]: row["prediction_min"] for row in csv.DictReader(fh)}
            mismatched = [r["case_id"] for r in evaluated if predicted[r["case_id"]] != r[name]]
            assert mismatched == [], (phase, name, mismatched[:5])


def test_rows_sharing_a_case_id_keep_their_own_cluster(pipeline_dir, tmp_path):
    """Each row of --cases is clustered by its own text: a row whose id
    another row repeats predicts what it predicts alone."""
    pipeline_dir, config = pipeline_dir
    with (pipeline_dir / "cases.csv").open(encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    cases, dest = tmp_path / "new.csv", tmp_path / "preds.csv"

    def predict(rows):
        with cases.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        argv = ["predict", "--out", str(pipeline_dir), *SMALL, "--config", str(config),
                "--phase", "procedure", "--model", "group-mean", "--cases", str(cases), "--dest", str(dest)]
        assert run(argv) == 0
        with dest.open(encoding="utf-8", newline="") as fh:
            return [row["prediction_min"] for row in csv.DictReader(fh)]

    alone = predict(rows)
    other = next(i for i, p in enumerate(alone) if p != alone[0])
    twin = [rows[0][0], *rows[other][1:]]  # the first row's id, another row's text
    assert predict([rows[0], twin]) == [alone[0], alone[other]]


NESTED_TREE = {"feature": 0, "threshold": 0.5, "left": {"value": 30.0}, "right": {"value": 40.0}}


@pytest.mark.parametrize(
    "model",
    [
        {"family": "tree", "max_depth": 1, "min_leaf": 5, "tree": NESTED_TREE},
        {"family": "forest", "n_trees": 1, "max_depth": 1, "min_leaf": 5, "feature_fraction": 1.0,
         "bootstrap": True, "seed": 0, "trees": [NESTED_TREE]},
        {"family": "gbm", "n_trees": 1, "learning_rate": 0.1, "max_depth": 1, "min_leaf": 5, "seed": 0,
         "base": 35.0, "trees": [NESTED_TREE]},
    ],
)
def test_model_file_with_nested_trees_exits_one(pipeline_dir, tmp_path, capsys, model):
    """Model files of older versions stored trees as nested dicts; evaluate
    and predict name the file and ask for a new train run."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    family = model["family"]
    bundle = json.loads((out / "model_procedure_gbm.json").read_text())
    bundle.update(name=family, family=family, model=model)
    path = out / f"model_procedure_{family}.json"
    path.write_text(json.dumps(bundle))
    common = ["--out", str(out), *SMALL, "--config", str(config), "--phase", "procedure", "--model", family]
    capsys.readouterr()
    for argv in (["evaluate", *common], ["predict", *common, "--dest", str(tmp_path / "p.csv")]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: tree is not in the flat-array layout"), err
        assert "re-run 'train'" in err


@pytest.mark.parametrize(
    "artifact, section, field, stages, rerun",
    [
        ("model_procedure_gbm.json", "model", "base", ("evaluate", "predict"), "train"),
        ("model_procedure_gbm.json", "features", "age_fill", ("evaluate", "predict"), "train"),
        ("model_procedure_gbm.json", None, "family", ("evaluate", "predict"), "train"),
        ("cluster_model_procedure.json", "model", "centroids", ("predict",), "cluster"),
        ("tfidf_procedure.json", None, "idf", ("predict",), "cluster"),
    ],
    ids=["gbm-base", "features-age-fill", "bundle-family", "kmeans-centroids", "tfidf-idf"],
)
def test_artifact_missing_a_field_exits_one(pipeline_dir, tmp_path, capsys, artifact, section, field, stages, rerun):
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    path = out / artifact
    obj = json.loads(path.read_text())
    del (obj[section] if section else obj)[field]
    path.write_text(json.dumps(obj))
    common = ["--out", str(out), *SMALL, "--config", str(config), "--phase", "procedure", "--model", "gbm"]
    argvs = {"evaluate": ["evaluate", *common], "predict": ["predict", *common, "--dest", str(tmp_path / "p.csv")]}
    capsys.readouterr()
    for stage in stages:
        assert run(argvs[stage]) == 1, stage
        err = capsys.readouterr().err
        assert err == f"error: {path}: missing field {field!r}; re-run {rerun!r} to rebuild it\n", err


def test_tfidf_idf_not_matching_the_vocabulary_exits_one(pipeline_dir, tmp_path, capsys):
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    path = out / "tfidf_procedure.json"
    obj = json.loads(path.read_text())
    n_terms = len(obj["vocabulary"])
    obj["idf"] = obj["idf"][:-3]
    path.write_text(json.dumps(obj))
    argv = ["predict", "--out", str(out), *SMALL, "--config", str(config), "--phase", "procedure",
            "--model", "gbm", "--dest", str(tmp_path / "p.csv")]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: idf holds {n_terms - 3} weights for {n_terms} vocabulary terms; "
        "re-run 'cluster' to rebuild it\n"
    )


def test_predict_without_a_row_writes_a_header_only_file(pipeline_dir, tmp_path, capsys):
    """A --cases with no data row, or none that parses, gets a header-only
    prediction file and exit 0; skipped rows are reported as usual."""
    pipeline_dir, config = pipeline_dir
    header = (pipeline_dir / "cases.csv").read_text().splitlines()[0]
    argv = ["predict", "--out", str(pipeline_dir), *SMALL, "--config", str(config),
            "--phase", "induction", "--model", "gbm", "--apply-floors"]
    cases, dest = tmp_path / "new.csv", tmp_path / "preds.csv"
    for rows, err in [
        ([], ""),
        (["W1,urology,abc,f,,,,,"], f"predict: skipped 1 of 1 rows of {cases}\n  line 2: age is not an integer: 'abc'\n"),
    ]:
        cases.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert run([*argv, "--cases", str(cases), "--dest", str(dest)]) == 0
        assert capsys.readouterr().err == err
        assert dest.read_text() == "case_id,phase,model,prediction_min\n"


@pytest.fixture(scope="module")
def artifact_dir(pipeline_dir, tmp_path_factory):
    """A copy of the pipeline's artifacts, with ridge, tree and forest bundles
    trained next to the roster's."""
    source, config = pipeline_dir
    out = tmp_path_factory.mktemp("artifacts")
    shutil.copytree(source, out, dirs_exist_ok=True)
    extra = out / "extra.cfg"
    extra.write_text(config.read_text() + "models = ridge,tree,forest\nforest_n_trees = 3\n")
    run_stage("train", out, ("--config", str(extra), "--phase", "procedure"))
    return out, config


def _json_fields(obj, path=()):
    """The path of every object member in ``obj``, through objects, not arrays."""
    for key, value in obj.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from _json_fields(value, (*path, key))


# fields that no command reads, so no value there changes what it does; a
# bundle's name and phase are read only to be compared with its file name,
# which test_a_bundle_unlike_its_file_or_roster_entry_exits_one covers
_UNREAD = {"name", "phase", "params", "grid", "selected_k", "silhouette_scores", "bounds"}
_NULLABLE = {("max_terms",)}  # the TF-IDF term cap; null is no cap
_JSON_VALUES = {  # a strategy for the values of each JSON type
    type(None): st.none(),
    bool: st.booleans(),
    float: st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
    str: st.text(max_size=5),
    list: st.lists(st.integers(), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
_ARTIFACTS = [
    *(f"model_procedure_{name}.json" for name in ("mean", "group-mean", "mta", "gbm", "ridge", "tree", "forest")),
    "tfidf_procedure.json",
    "cluster_model_procedure.json",
    "cluster_model_induction.json",
    "tfidf_induction.json",
    "model_induction_gbm.json",
    "clean_procedure.json",
    "clean_induction.json",
]


_LATER = ("cluster", "train", "evaluate", "report")  # the stages after clean


def _json_type(value):
    return float if type(value) is int else type(value)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_artifact_field_of_another_json_type_exits_one(artifact_dir, capsys, data):
    """Any field that a later stage or predict reads, given a value of another
    JSON type, exits 1 and names the file; it never ends in a runtime error."""
    out, config = artifact_dir
    artifact = data.draw(st.sampled_from(_ARTIFACTS))
    path = out / artifact
    original = path.read_text()
    obj = json.loads(original)
    fields = sorted(f for f in _json_fields(obj) if f[0] not in _UNREAD)
    field = data.draw(st.sampled_from(fields))
    *parents, key = field
    parent = obj
    for name in parents:
        parent = parent[name]
    kinds = [k for k in _JSON_VALUES if k is not _json_type(parent[key])]
    if field in _NULLABLE:
        kinds.remove(type(None))
    parent[key] = data.draw(st.sampled_from(kinds).flatmap(_JSON_VALUES.get))

    if artifact.startswith("model_"):  # a bundle: both commands read it
        _, phase, name = path.stem.split("_", 2)
        stages = ("predict", "evaluate")
    elif artifact.startswith("clean_"):  # every stage after clean splits the retained ids
        phase, name, stages = path.stem.rsplit("_", 1)[1], "mean", _LATER
    else:  # predict reads the cluster artifacts, with any bundle
        phase, name, stages = path.stem.rsplit("_", 1)[1], "mean", ("predict",)
    common = ["--out", str(out), *SMALL, "--config", str(config), "--phase", phase, "--model", name]
    argvs = {"predict": ["predict", *common, "--dest", str(out / "p.csv")], **{s: [s, *common] for s in _LATER}}
    path.write_text(json.dumps(obj))
    try:
        for stage in stages:
            capsys.readouterr()
            assert run(argvs[stage]) == 1, (stage, field, parent[key])
            assert capsys.readouterr().err.startswith(f"error: {path}: "), field
    finally:
        path.write_text(original)


def _set_first_number(value, new, name):
    """Put ``new`` in place of the first number in the arrays and objects
    ``value``, the member ``name``; returns the name of the innermost member
    on the way, the array that holds the number."""
    while True:
        key = next(iter(value)) if isinstance(value, dict) else 0
        name = key if isinstance(value, dict) else name
        if not isinstance(value[key], (dict, list)):
            value[key] = new
            return name
        value = value[key]


@pytest.mark.parametrize(
    "artifact, path",
    [
        ("tfidf_procedure.json", ("idf",)),
        ("cluster_model_procedure.json", ("model", "centroids")),
        ("cluster_model_procedure.json", ("model", "inertia_trace")),
        ("cluster_model_induction.json", ("model", "weights")),
        ("cluster_model_induction.json", ("model", "means")),
        ("cluster_model_induction.json", ("model", "variances")),
        ("cluster_model_induction.json", ("model", "log_likelihood")),
        ("model_procedure_ridge.json", ("model", "coef")),
        *(("model_procedure_tree.json", ("model", "tree", name))
          for name in ("feature", "threshold", "left", "right", "value")),
        ("model_procedure_gbm.json", ("model", "stage_mse")),
        ("model_procedure_group-mean.json", ("model", "means")),
        ("model_procedure_gbm.json", ("features", "target_encoder", "stats")),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else v.removesuffix(".json"),
)
def test_true_in_a_number_array_exits_one(artifact_dir, capsys, artifact, path):
    """json reads true as a number that numpy and float() take for 1; every
    number array an artifact holds rejects it and names the file."""
    file = artifact_dir[0] / artifact
    obj = json.loads(file.read_text())
    array = obj
    for name in path:
        array = array[name]
    key = _set_first_number(array, True, path[-1])
    _assert_reading_exits_one(artifact_dir, capsys, file, obj, f"bad entry in {key!r}: expected a number, got true;")


def _assert_reading_exits_one(artifact_dir, capsys, file, obj, problem):
    """Write ``obj``, or the JSON text ``obj``, over the artifact ``file``:
    every command that reads it exits 1 with ``problem`` after the file name.
    The file is restored."""
    out, config = artifact_dir
    original = file.read_text()
    if file.name.startswith("model_"):
        _, phase, name = file.stem.split("_", 2)
        stages = ("predict", "evaluate")
    else:
        phase, name, stages = file.stem.rsplit("_", 1)[1], "mean", ("predict",)
    common = ["--out", str(out), *SMALL, "--config", str(config), "--phase", phase, "--model", name]
    argvs = {"predict": ["predict", *common, "--dest", str(out / "p.csv")], "evaluate": ["evaluate", *common]}
    file.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    try:
        for stage in stages:
            capsys.readouterr()
            assert run(argvs[stage]) == 1, stage
            err = capsys.readouterr().err
            assert err.startswith(f"error: {file}: {problem}"), err
    finally:
        file.write_text(original)


def _put(obj, path, value):
    """Set the entry at ``path`` of ``obj`` to ``value``, where None stands
    for an object's first member; returns the innermost member's name, the
    one an error names."""
    entry, key = obj, None
    for name in path[:-1]:
        if isinstance(entry, dict):
            key = next(iter(entry)) if name is None else name
            name = key
        entry = entry[name]
    entry[path[-1]] = value
    return key


@pytest.mark.parametrize(
    "artifact, path, value",
    [
        ("model_procedure_tree.json", ("model", "tree", "feature", 0), 0.7),
        ("model_procedure_tree.json", ("model", "tree", "left", 0), 1.2),
        ("model_procedure_tree.json", ("model", "tree", "right", 0), 2.9),
        ("model_procedure_gbm.json", ("features", "target_encoder", "stats", None, 0), 2.5),
        ("model_procedure_mta.json", ("features", "name_codes", 0, 1), 1.5),
        ("model_procedure_mta.json", ("features", "name_codes", 0, 1), True),
    ],
    ids=["tree-feature", "tree-left", "tree-right", "encoder-count", "name-code", "name-code-bool"],
)
def test_a_fraction_or_boolean_in_an_integer_field_exits_one(artifact_dir, capsys, artifact, path, value):
    """int() and numpy truncate 2.5 to 2 and read true as 1; every integer
    that a model bundle holds rejects both and names its field."""
    file = artifact_dir[0] / artifact
    obj = json.loads(file.read_text())
    key = _put(obj, path, value)
    _assert_reading_exits_one(
        artifact_dir, capsys, file, obj, f"bad entry in {key!r}: expected an integer, got {json.dumps(value)};"
    )


@pytest.mark.parametrize(
    "artifact, path, value, problem",
    [
        ("model_procedure_gbm.json", ("features", "target_encoder", "stats", None, 0), 0,
         "a count must be from 1 to 2**63 - 1, got 0"),
        ("model_procedure_gbm.json", ("features", "target_encoder", "stats", None, 0), -40,
         "a count must be from 1 to 2**63 - 1, got -40"),
        ("model_procedure_tree.json", ("model", "tree", "feature", 0), 10**30,
         "an integer out of the index range"),
    ],
    ids=["encoder-count-zero", "encoder-count-negative", "tree-feature-overflow"],
)
def test_an_integer_out_of_its_range_exits_one(artifact_dir, capsys, artifact, path, value, problem):
    """A target-encoder count below 1 would divide by zero when a category is
    encoded, and numpy cannot hold a tree index beyond 2**63: both model
    files are rejected at load, naming the field."""
    file = artifact_dir[0] / artifact
    obj = json.loads(file.read_text())
    key = _put(obj, path, value)
    _assert_reading_exits_one(artifact_dir, capsys, file, obj, f"bad entry in {key!r}: {problem};")


_TOKEN = "a number token to write raw"


@pytest.mark.parametrize(
    "token, problem",
    [
        ("1e400", "{kind} {key!r}: expected a finite number, got Infinity;"),
        ("-1e400", "{kind} {key!r}: expected a finite number, got -Infinity;"),
        ("1" + "0" * 400, "{kind} {key!r}: expected a finite number, got 1000"),
        ("Infinity", "Infinity is not a JSON number;"),
        ("-Infinity", "-Infinity is not a JSON number;"),
        ("NaN", "NaN is not a JSON number;"),
    ],
    ids=["1e400", "-1e400", "10**400", "Infinity", "-Infinity", "NaN"],
)
@pytest.mark.parametrize(
    "path, kind",
    [
        (("features", "target_encoder", "prior"), "bad value for"),
        (("model", "trees", 0, "threshold", 0), "bad entry in"),
    ],
    ids=["encoder-prior", "tree-threshold"],
)
def test_a_non_finite_number_in_a_model_file_exits_one(artifact_dir, capsys, token, problem, path, kind):
    """json reads 1e400 as inf and takes the NaN and Infinity tokens, which
    JSON does not have; a model file holding any of them is rejected at load,
    not read into finite but wrong predictions."""
    file = artifact_dir[0] / "model_procedure_gbm.json"
    obj = json.loads(file.read_text())
    _put(obj, path, _TOKEN)
    key = next(name for name in reversed(path) if isinstance(name, str))
    text = json.dumps(obj).replace(json.dumps(_TOKEN), token)
    _assert_reading_exits_one(artifact_dir, capsys, file, text, problem.format(kind=kind, key=key))


def test_a_forest_file_with_more_trees_than_n_trees_exits_one(artifact_dir, capsys):
    file = artifact_dir[0] / "model_procedure_forest.json"
    obj = json.loads(file.read_text())
    trees = obj["model"]["trees"]
    assert obj["model"]["n_trees"] == len(trees) == 3
    trees.append(trees[0])
    _assert_reading_exits_one(artifact_dir, capsys, file, obj, "expected 3 trees, as 'n_trees' says, got 4; re-run 'train'")


def test_a_model_file_cut_short_exits_one(artifact_dir, capsys):
    file = artifact_dir[0] / "model_procedure_gbm.json"
    _assert_reading_exits_one(
        artifact_dir, capsys, file, '{"', "Unterminated string starting at: line 1 column 2 (char 1); re-run 'train'"
    )


def _edit_json(edit):
    def apply(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return apply


def _edit_lines(edit):
    """An edit of a CSV artifact's lines, each without its line end."""
    def apply(text):
        lines = text.splitlines()
        edit(lines)
        return "".join(line + "\n" for line in lines)
    return apply


def _set_cell(col, value):
    def edit(lines):
        fields = lines[1].split(",")
        fields[col] = value
        lines[1] = ",".join(fields)
    return edit


@pytest.mark.parametrize(
    "artifact, edit, stages, rerun, problem",
    [
        ("clean_procedure.json", _edit_json(lambda obj: obj.pop("retained_ids")), _LATER, "clean",
         "missing field 'retained_ids'"),
        ("clean_procedure.json", lambda text: "[]", _LATER, "clean",
         "expected a JSON object holding 'retained_ids', got []"),
        ("clean_procedure.json", _edit_json(lambda obj: obj["retained_ids"].append("NOPE")), _LATER, "clean",
         "'retained_ids' holds ids that cases.jsonl lacks, such as 'NOPE'"),
        ("clean_procedure.json", _edit_json(lambda obj: obj["retained_ids"].append(7)), _LATER, "clean",
         "bad entry in 'retained_ids': expected a string, got 7"),
        ("assignments_procedure.csv", _edit_lines(_set_cell(1, "x")), _LATER[1:], "cluster",
         "bad value in column 'cluster': expected an integer from 0 to 2**63 - 1, got \"x\""),
        ("assignments_procedure.csv", _edit_lines(lambda lines: lines.__setitem__(1, lines[1].split(",")[0])),
         _LATER[1:], "cluster", "expected 2 fields, got 1"),
        ("assignments_procedure.csv", lambda text: "", _LATER[1:], "cluster",
         'expected the header line "case_id,cluster", got an empty file'),
        ("assignments_procedure.csv", lambda text: "\udcff" + text, _LATER[1:], "cluster", "invalid UTF-8"),
        ("predictions_procedure.csv", _edit_lines(_set_cell(-1, "abc")), ("report",), "evaluate",
         "bad value in column 'mta': expected a finite number, got \"abc\""),
        ("predictions_procedure.csv", _edit_lines(lambda lines: lines.pop(1)), ("report",), "evaluate",
         "holds no row for 1 of the"),
        ("predictions_procedure.csv", _edit_lines(lambda lines: lines.__setitem__(1, lines[1].rsplit(",", 1)[0])),
         ("report",), "evaluate", "expected 7 fields, got 6"),
        ("predictions_procedure.csv", lambda text: "", ("report",), "evaluate",
         'expected the header line "case_id,actual_min,planned_min,<model>...", got an empty file'),
        ("assignments_procedure.csv", _edit_lines(lambda lines: lines.pop(0)), _LATER[1:], "cluster",
         'expected the header line "case_id,cluster", got "'),
        ("assignments_procedure.csv", _edit_lines(lambda lines: lines.pop(1)), ("train",), "cluster",
         "holds no row for 1 of the"),
        ("clean_procedure.json", lambda text: "[" * 100_000, _LATER, "clean", "maximum recursion depth"),
        ("tfidf_procedure.json", lambda text: "[" * 100_000, ("predict",), "cluster", "maximum recursion depth"),
        ("cluster_model_induction.json", _edit_json(lambda obj: obj["model"]["weights"].__setitem__(0, -1)),
         ("predict",), "cluster", "bad entry in 'weights': expected a number > 0, got -1"),
        ("cluster_model_induction.json", _edit_json(lambda obj: obj["model"]["means"].pop()), ("predict",),
         "cluster", "'weights', 'means' and 'variances' are (4,), (3, "),
        ("cluster_model_procedure.json", _edit_json(lambda obj: [row.pop() for row in obj["model"]["centroids"]]),
         ("predict",), "cluster", "columns for the "),
        ("tfidf_procedure.json", _edit_json(lambda obj: obj["idf"].__setitem__(0, 1e-320)), ("predict",), "cluster",
         "bad entry in 'idf': expected a weight from 1 to 1 + ln(1 + n_docs) = "),
        ("tfidf_procedure.json", _edit_json(lambda obj: obj.__setitem__("n_docs", 0)), ("predict",), "cluster",
         "bad value for 'n_docs': expected an integer >= 1, got 0"),
        ("model_procedure_group-mean.json", _edit_json(lambda obj: obj["model"].__setitem__("group_col", 5)),
         ("evaluate",), "train", "'model.group_col' is 5, but model 'group-mean' of phase 'procedure' needs 0"),
        ("model_procedure_group-mean.json", _edit_json(lambda obj: obj["model"].__setitem__("group_col", 2**63)),
         ("evaluate",), "train",
         "'model.group_col' is 9223372036854775808, but model 'group-mean' of phase 'procedure' needs 0"),
        ("model_procedure_gbm.json", _edit_json(lambda obj: obj["model"]["trees"][0]["feature"].__setitem__(0, 40)),
         ("evaluate", "predict"), "train", "the model reads 41 design columns, but 'features' gives 14"),
    ],
    ids=["clean-no-retained-ids", "clean-a-list", "clean-unknown-id", "clean-id-not-a-string",
         "assignments-cluster-x", "assignments-one-field-row", "assignments-empty", "assignments-not-utf8",
         "predictions-abc", "predictions-row-deleted", "predictions-short-row", "predictions-empty",
         "assignments-no-header", "assignments-row-deleted", "clean-nested-too-deeply",
         "tfidf-nested-too-deeply", "gmm-negative-weight", "gmm-means-one-row-short",
         "kmeans-centroids-one-column-narrow", "tfidf-idf-below-one", "tfidf-no-documents",
         "group-mean-group-col-5", "group-mean-group-col-2**63", "gbm-tree-feature-40"],
)
def test_an_edited_artifact_exits_one_naming_it_and_the_stage_to_rerun(
    pipeline_dir, tmp_path, capsys, artifact, edit, stages, rerun, problem
):
    """An artifact that is malformed, or that no longer covers the cases it is
    read for, stops every later stage that reads it with exit 1; the message
    names the file and the stage that rebuilds it."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    path = out / artifact
    # surrogateescape: "\udcff" in the edited text writes the byte 0xff, which is not UTF-8
    path.write_bytes(edit(path.read_text()).encode("utf-8", "surrogateescape"))
    phase = "induction" if "induction" in artifact else "procedure"
    extra = {"predict": ["--phase", phase, "--model", "gbm", "--dest", str(tmp_path / "p.csv")]}
    capsys.readouterr()
    for stage in stages:
        assert run([stage, "--out", str(out), *SMALL, "--config", str(config), *extra.get(stage, [])]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and problem in err, (stage, err)
        assert err.endswith(f"; re-run {rerun!r} to rebuild it\n"), (stage, err)


@pytest.mark.parametrize(
    "section, key, value, expected",
    [
        ((), "phase", "induction", "procedure"),
        ((), "name", "mta", "group-mean"),
        ((), "family", "mean", "group-mean"),
        (("model",), "family", "mean", "group-mean"),
        (("features",), "phase", "induction", "procedure"),
        (("features",), "group_by", "exact-name", "cluster"),
    ],
    ids=["phase", "name", "family", "model-family", "features-phase", "features-group-by"],
)
def test_a_bundle_unlike_its_file_or_roster_entry_exits_one(
    pipeline_dir, tmp_path, capsys, section, key, value, expected
):
    """A bundle's phase and name must be those of its file name, and its
    family, model family, feature phase and grouping those the roster plans
    for it: a group-mean bundle that groups by exact name would predict the
    global mean for every case."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    path = out / "model_procedure_group-mean.json"
    bundle = json.loads(path.read_text())
    functools.reduce(dict.__getitem__, section, bundle)[key] = value
    path.write_text(json.dumps(bundle))
    common = ["--out", str(out), *SMALL, "--config", str(config), "--phase", "procedure", "--model", "group-mean"]
    for argv in (["evaluate", *common], ["predict", *common, "--dest", str(tmp_path / "p.csv")]):
        capsys.readouterr()
        assert run(argv) == 1, argv[0]
        field = ".".join((*section, key))
        assert capsys.readouterr().err == (
            f"error: {path}: {field!r} is {value!r}, but model 'group-mean' of phase 'procedure' needs "
            f"{expected!r}; re-run 'train' to rebuild it\n"
        )


@pytest.mark.parametrize(
    "edit",
    [
        lambda bundle: bundle["model"]["coef"].append(0.5),
        lambda bundle: bundle["model"]["coef"].pop(),
        lambda bundle: bundle["features"]["sex_schema"]["categories"].append("x"),
    ],
    ids=["coef-one-longer", "coef-one-shorter", "one-more-sex"],
)
def test_a_ridge_that_reads_another_design_width_exits_one(pipeline_dir, tmp_path, capsys, edit):
    """A ridge reads exactly as many design columns as it has coefficients,
    and its bundle's features must give that many."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    common = ["--out", str(out), *SMALL, "--config", str(config), "--phase", "procedure", "--model", "ridge"]
    assert run(["train", *common]) == 0
    path = out / "model_procedure_ridge.json"
    bundle = json.loads(path.read_text())
    edit(bundle)
    path.write_text(json.dumps(bundle))
    features = bundle["features"]
    width = 2 + len(features["sex_schema"]["categories"]) + len(features["department_schema"]["categories"])
    reads = len(bundle["model"]["coef"])
    for argv in (["evaluate", *common], ["predict", *common, "--dest", str(tmp_path / "p.csv")]):
        capsys.readouterr()
        assert run(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"error: {path}: the model reads {reads} design columns, but 'features' gives {width}; "
            "re-run 'train' to rebuild it\n"
        )


@pytest.mark.parametrize(
    "content, problem",
    [
        (b"a,b\nx,y\n", "expected synonyms header 'from,to'"),
        (b"from,to\nx,y,z\n", "expected 2 columns in synonyms row, got 3"),
        (b"from,to\nx,\xff\n", "invalid UTF-8"),
    ],
    ids=["header-a-b", "row-of-three-columns", "byte-0xff"],
)
@pytest.mark.parametrize("stage", ["cluster", "predict"])
def test_a_bad_synonyms_file_exits_one_naming_it(pipeline_dir, tmp_path, capsys, stage, content, problem):
    """A synonyms file that is not a from,to mapping stops the stages that
    normalize text with exit 1, naming the file."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    synonyms = tmp_path / "synonyms.csv"
    synonyms.write_bytes(content)
    with_synonyms = tmp_path / "synonyms.cfg"
    with_synonyms.write_text(config.read_text() + f"\nsynonyms = {synonyms}\n")
    argv = [stage, "--out", str(out), *SMALL, "--config", str(with_synonyms)]
    if stage == "predict":  # synonyms_phases is induction by default
        argv += ["--phase", "induction", "--model", "gbm", "--dest", str(tmp_path / "p.csv")]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: synonyms file {synonyms}: {problem}\n"


def test_clean_run_again_after_cluster_exits_one_in_the_later_stages(pipeline_dir, tmp_path, capsys):
    """Per-department IQR bounds retain other cases than the assignments were
    written for: the stages that read them exit 1 and ask for cluster again."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    common = ["--out", str(out), *SMALL, "--config", str(config)]
    assert run(["clean", *common, "--iqr-per-department"]) == 0
    capsys.readouterr()
    for stage in ("train", "evaluate", "report"):
        assert run([stage, *common]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'assignments_procedure.csv'}: holds no row for "), (stage, err)
        assert err.endswith("; re-run 'cluster' to rebuild it\n"), (stage, err)


@pytest.mark.parametrize(
    "line, clean_again, where, problem",
    [
        ("max_duration_min = 200", True, ": holds rows for ", " cases that cleaning did not retain, such as "),
        ("test_fraction = 0.3", False, ":", " breaks the ascending order of the test ids, so "),
    ],
    ids=["narrower-clean", "larger-test-fraction"],
)
def test_a_split_that_no_longer_fits_the_config_exits_one_in_the_later_stages(
    pipeline_dir, tmp_path, capsys, line, clean_again, where, problem
):
    """The assignments file is the record of cluster's split. A lower
    duration cap, with clean run again, retains a subset of the cases that
    cluster split; a larger test_fraction makes the last 30 % of the rows,
    not the ascending test ids that cluster wrote, the test side. Either way
    the stages that read the split exit 1 and ask for cluster again."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    changed = tmp_path / "changed.cfg"
    changed.write_text(f"{config.read_text()}{line}\n")
    common = ["--out", str(out), *SMALL, "--config", str(changed)]
    if clean_again:
        assert run(["clean", *common]) == 0
    capsys.readouterr()
    for stage in ("train", "evaluate", "report"):
        assert run([stage, *common]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'assignments_procedure.csv'}{where}"), (stage, err)
        assert problem in err and err.endswith("; re-run 'cluster' to rebuild it\n"), (stage, err)


def test_evaluate_with_another_seed_scores_the_split_cluster_drew(pipeline_dir, tmp_path):
    """The seed draws the split once, in cluster: evaluate and report under
    another seed score the same test cases, which the models were not
    trained on, and write the same files."""
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    for stage in ("evaluate", "report"):
        assert run([stage, "--out", str(out), "--seed", "8", "--n-cases", "1500", "--config", str(config)]) == 0
    for name in ("metrics.json", "predictions_procedure.csv", "predictions_induction.csv", "factor_report.json"):
        assert (out / name).read_bytes() == (source / name).read_bytes(), name


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A finished 300-case run, every stage through report."""
    out = tmp_path_factory.mktemp("small_run")
    config = out / "small.cfg"
    config.write_text("synth_n_cases = 300\nmodels = mean,group-mean,gbm\ngbm_n_trees = 5\n")
    for stage in _CHAIN:
        assert run([stage, "--out", str(out), "--seed", "3", "--config", str(config)]) == 0, stage
    return out, config


_CSV_READERS = {  # a CSV artifact -> the stages that read it
    "assignments": ("train", "evaluate", "report"),
    "predictions": ("report",),
}
_CSV_MUTATIONS = ("text-in-number", "drop-row", "duplicate-row", "drop-field", "delete-header", "truncate")
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def _mutated_csv(data, text, mutation):
    """``text``, a CSV artifact, with one ``mutation`` drawn from ``data``."""
    if mutation == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    header, *rows = text.splitlines(keepends=True)
    if mutation == "delete-header":
        return "".join(rows)
    i = data.draw(st.integers(0, len(rows) - 1))
    fields = rows[i].rstrip("\n").split(",")
    if mutation == "drop-row":
        del rows[i]
    elif mutation == "duplicate-row":
        rows.insert(i, rows[i])
    elif mutation == "drop-field":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    else:  # text-in-number: every field after the case id is a number
        fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(_CELL_TEXT)
    if mutation in ("drop-field", "text-in-number"):
        rows[i] = ",".join(fields) + "\n"
    return header + "".join(rows)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_edited_csv_artifact_never_ends_in_a_runtime_error(small_run, data):
    """One edit of an assignments or predictions file: every later stage that
    reads it exits 0 or 1, never 2."""
    source, config = small_run
    kind = data.draw(st.sampled_from(sorted(_CSV_READERS)))
    phase = data.draw(st.sampled_from(["procedure", "induction"]))
    mutation = data.draw(st.sampled_from(_CSV_MUTATIONS))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(source, out)
        path = out / f"{kind}_{phase}.csv"
        path.write_text(_mutated_csv(data, path.read_text(), mutation))
        for stage in _CSV_READERS[kind]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([stage, "--out", str(out), "--seed", "3", "--config", str(config), "--phase", phase])
            assert code in (0, 1), (stage, mutation, err.getvalue())


def test_synth_below_100_cases_exits_one_at_load(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path), "--n-cases", "8"]) == 1
    assert capsys.readouterr().err == "error: config key 'synth_n_cases': n_cases must be >= 100\n"
    assert not (tmp_path / "events.csv").exists()


@pytest.mark.parametrize(
    "line, problem",
    [
        ("test_fraction = 0.001", "config key 'test_fraction': 0.001 leaves phase 'procedure' "
                                  "an empty test split of its {retained} retained cases"),
        ("max_duration_min = 1", "phase 'procedure': cleaning retained no cases; see cleaning_report.json"),
        ("max_duration_min = 12", "config key 'test_fraction': 0.2 leaves phase 'procedure' "
                                  "an empty test split of its {retained} retained cases"),
    ],
    ids=["no-test-case", "no-retained-case", "one-retained-case"],
)
def test_an_empty_split_exits_one_at_the_first_stage_that_splits(tmp_path, capsys, line, problem):
    """At 300 cases, floor(n * 0.001) = 0 test cases, a 1-minute cap
    retains none, and a 12-minute cap leaves one plausible procedure, too
    few for IQR bounds, which clean keeps: cluster, train and evaluate exit
    1 and say which."""
    config = tmp_path / "tiny.cfg"
    config.write_text(f"synth_n_cases = 300\n{line}\n")
    common = ["--out", str(tmp_path), "--seed", "1", "--config", str(config)]
    for stage in ("synth", "ingest", "clean"):
        assert run([stage, *common]) == 0, stage
    retained = len(json.loads((tmp_path / "clean_procedure.json").read_text())["retained_ids"])
    capsys.readouterr()
    for stage in ("cluster", "train", "evaluate"):
        assert run([stage, *common]) == 1, stage
        assert capsys.readouterr().err == f"error: {problem.format(retained=retained)}\n"
    assert not (tmp_path / "tfidf_procedure.json").exists()


def test_text_rules_that_leave_no_token_exit_one_in_cluster(tmp_path, capsys):
    """At 300 cases, 50-letter tokens leave every text empty: cluster exits
    1 naming the text-rule keys, and no later stage exits 2."""
    config = tmp_path / "tiny.cfg"
    config.write_text("synth_n_cases = 300\nmin_token_len = 50\n")
    common = ["--out", str(tmp_path), "--seed", "1", "--config", str(config)]
    for stage in ("synth", "ingest", "clean"):
        assert run([stage, *common]) == 0, stage
    capsys.readouterr()
    assert run(["cluster", *common]) == 1
    assert capsys.readouterr().err == (
        "error: phase 'procedure': the text rules (config keys 'min_token_len', 'literal_strip', "
        "'synonyms', 'stemming') leave no token in any training text\n"
    )
    for stage in ("train", "evaluate", "report"):
        assert run([stage, *common]) == 1, stage


def test_cluster_k_above_the_distinct_training_texts_exits_one(pipeline_dir, tmp_path, capsys):
    """A k that the training texts cannot support is a usage error, for
    K-Means and the GMM alike; the message names the phase and the count."""
    source, _ = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    config = tmp_path / "k.cfg"

    def cluster(*lines):
        config.write_text("\n".join(["cluster_k.induction = 2", *lines]) + "\n")
        code = run(["cluster", "--out", str(out), *SMALL, "--config", str(config)])
        return code, capsys.readouterr().err

    capsys.readouterr()
    code, err = cluster("cluster_k.procedure = 500")
    assert code == 1
    match = re.fullmatch(
        r"error: config key 'cluster_k.procedure': phase 'procedure' has (\d+) distinct "
        r"training texts, fewer than k = 500\n",
        err,
    )
    assert match, err
    n_texts = int(match.group(1))
    for lines in (
        [f"cluster_k.procedure = {n_texts + 1}"],
        [f"cluster_k.procedure = {n_texts + 1}", "cluster_algo.procedure = gmm"],
        [f"cluster_k.procedure = {n_texts + 1}..{n_texts + 3}"],
    ):
        code, err = cluster(*lines)
        assert code == 1 and f"has {n_texts} distinct training texts, fewer than k = {n_texts + 1}" in err, err
    assert cluster(f"cluster_k.procedure = {n_texts}") == (0, "")
    obj = json.loads((out / "cluster_model_procedure.json").read_text())
    assert obj["selected_k"] == n_texts
    # a range that reaches past the training rows scores only the k that fit
    assert cluster(f"cluster_k.procedure = {n_texts - 1}..3000") == (0, "")
    scores = json.loads((out / "cluster_model_procedure.json").read_text())["silhouette_scores"]
    assert [s["k"] for s in scores] == list(range(n_texts - 1, 3001))
    assert all(s["score"] is None for s in scores[2:]) and None not in (scores[0]["score"], scores[1]["score"])


def test_cluster_k_range_above_the_training_cases_less_one_exits_one(tmp_path, capsys):
    """Silhouette selection scores no k above the training cases less one:
    a range of such k is a usage error naming the phase and its training
    cases, while one k, which needs no scoring, still clusters."""
    config = tmp_path / "k.cfg"
    lines = ["synth_n_cases = 100", "phases = procedure", "max_duration_min = 30", "test_fraction = 0.75"]
    common = ["--out", str(tmp_path), "--seed", "15", "--config", str(config)]
    config.write_text("\n".join([*lines, "cluster_k.procedure = 2..3"]) + "\n")
    for stage in ("synth", "ingest", "clean"):
        assert run([stage, *common]) == 0, stage
    capsys.readouterr()
    assert run(["cluster", *common]) == 1
    assert capsys.readouterr().err == (
        "error: config key 'cluster_k.procedure': phase 'procedure' has 2 training cases: "
        "silhouette selection scores no k above 1, and the smallest k is 2\n"
    )
    config.write_text("\n".join([*lines, "cluster_k.procedure = 2"]) + "\n")
    assert run(["cluster", *common]) == 0


def test_cluster_model_is_strict_json(tmp_path):
    """k above the distinct texts is written null, k ascending, no NaN/Infinity."""
    config = tmp_path / "k.cfg"
    config.write_text("cluster_k.induction = 2..10\n")
    for stage in ("synth", "ingest", "clean", "cluster"):
        argv = [stage, "--out", str(tmp_path), "--seed", "7", "--n-cases", "10000", "--config", str(config)]
        assert run(argv) == 0, stage

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    obj = json.loads((tmp_path / "cluster_model_induction.json").read_text(), parse_constant=reject)
    scores = obj["silhouette_scores"]
    assert [s["k"] for s in scores] == list(range(2, 11))
    assert [s["k"] for s in scores if s["score"] is None] == [7, 8, 9, 10]  # 6 distinct texts
    best = max((s for s in scores if s["score"] is not None), key=lambda s: s["score"])
    assert obj["selected_k"] == best["k"]
    assert obj["model"]["log_likelihood"]


def test_case_id_with_carriage_return_round_trips_through_csv_artifacts(tmp_path):
    """csv leaves a bare "\r" unquoted with "\n" line ends; the artifacts quote it."""
    config = tmp_path / "run.cfg"
    config.write_text("models = mean,group-mean\n")
    extra = ("--config", str(config))
    for stage in ("synth", "ingest", "clean"):
        run_stage(stage, tmp_path, extra)
    renamed_from = json.loads((tmp_path / "clean_procedure.json").read_text())["retained_ids"][0]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name in ("events", "cases"):
        with (tmp_path / f"{name}.csv").open(newline="") as fh:
            rows = [
                {**row, "case_id": "W1\rX" if row["case_id"] == renamed_from else row["case_id"]}
                for row in csv.DictReader(fh)
            ]
        (inputs / f"{name}.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    extra += ("--events", str(inputs / "events.jsonl"), "--cases", str(inputs / "cases.jsonl"))
    for stage in ("ingest", "clean", "cluster", "train", "evaluate", "report"):
        run_stage(stage, tmp_path, extra)
    assert b'\n"W1\rX","' in (tmp_path / "assignments_procedure.csv").read_bytes()
    with (tmp_path / "assignments_procedure.csv").open(newline="") as fh:
        assignments = {row["case_id"]: int(row["cluster"]) for row in csv.DictReader(fh)}
    assert "W1\rX" in assignments and renamed_from not in assignments
    dest = tmp_path / "predict.csv"
    argv = ["predict", "--out", str(tmp_path), *SMALL, *extra, "--phase", "procedure", "--model", "group-mean"]
    assert run([*argv, "--dest", str(dest)]) == 0
    with dest.open(newline="") as fh:
        assert "W1\rX" in {row["case_id"] for row in csv.DictReader(fh)}


_CHAIN = ("synth", "ingest", "clean", "cluster", "train", "evaluate", "report")


def _k_choices(most):
    """One k, or a range of them, as a config value."""
    return st.one_of(
        st.integers(1, most).map(str),
        st.tuples(st.integers(2, most), st.integers(0, 6)).map(lambda kw: f"{kw[0]}..{kw[0] + kw[1]}"),
    )


# each edge value among the usual ones, so that most runs get past clean
@settings(max_examples=40, deadline=None)
@given(
    n_cases=st.integers(100, 400),
    seed=st.integers(0, 20),
    max_duration_min=st.sampled_from([1.0, 12.0, 30.0, 2880.0, 2880.0, 2880.0]),
    min_token_len=st.sampled_from([1, 1, 2, 3, 50]),
    test_fraction=st.sampled_from([0.001, 0.2, 0.999]) | st.floats(0.05, 0.95),
    iqr_multiplier=st.sampled_from([0.0001, 1.5, 3.0]) | st.floats(0.0001, 5.0),
    k_procedure=_k_choices(30),
    k_induction=_k_choices(6),
    phases=st.lists(st.sampled_from(["procedure", "induction", "preparation"]), min_size=1, max_size=3, unique=True),
)
# clean keeps 6 cases, 2 of them for training: no k of 2..3 can be scored by silhouette
@example(n_cases=100, seed=15, max_duration_min=30.0, min_token_len=1, test_fraction=0.75, iqr_multiplier=1.5,
         k_procedure="2..3", k_induction="1", phases=["procedure"])
def test_small_runs_exit_zero_or_one_never_two(n_cases, seed, phases, k_procedure, k_induction, **keys):
    """The whole chain on a small synthetic log under edge settings: each
    stage finishes or exits 1 naming the problem; none ends in a runtime
    error, also after an earlier stage exited 1."""
    lines = [
        f"synth_n_cases = {n_cases}",
        f"phases = {','.join(phases)}",
        f"cluster_k.procedure = {k_procedure}",
        f"cluster_k.induction = {k_induction}",
        "models = mean,group-mean,gbm",
        "gbm_n_trees = 10",
        *(f"{key} = {value}" for key, value in keys.items()),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "edge.cfg"
        config.write_text("\n".join(lines) + "\n")
        common = ["--out", tmp, "--seed", str(seed), "--config", str(config)]
        argvs = [[stage, *common] for stage in _CHAIN]
        argvs.append(["predict", *common, "--phase", phases[0], "--model", "mean", "--dest", f"{tmp}/p.csv"])
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1), (argv[0], lines, err.getvalue())
