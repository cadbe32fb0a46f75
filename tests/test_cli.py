import contextlib
import csv
import functools
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from fnmatch import fnmatchcase
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import broken_inputs
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


def _in_process(argv):
    """``run(argv)``'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def broken(tmp_path_factory):
    """The runner of the broken-inputs table, in-process; its chains are built once."""
    return broken_inputs.Runner(_in_process, tmp_path_factory.mktemp("broken"))


@pytest.fixture(scope="module")
def pipeline_dir(broken):
    """The --out and config file of the table's 1500-case pipeline chain."""
    return broken.chain("pipeline")


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

    def stage(cfg):  # a stage that writes no file
        seen.append(gc.isenabled())
        if cfg.seed == 2:
            raise RuntimeError("a runtime failure")
        return ()

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


def _table_test(rows):
    """The one test of the broken-inputs table, for ``rows``, the rows that
    share one name: parametrized by row id, or plain for one row without."""
    if rows[0].id is None:
        def test(broken):
            broken.check(rows[0])
    else:
        @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
        def test(broken, row):
            broken.check(row)
    return test


# each row is collected under its own name; see tests/broken_inputs.py
for _name, _rows in broken_inputs.rows_by_test().items():
    globals()[_name] = _table_test(_rows)


def _predict_argv(out, config, *extra):
    return ["predict", "--out", str(out), *SMALL, "--config", str(config), "--phase", "procedure", "--model", "gbm",
            *extra]


def test_predict_writes_its_own_file_in_out_or_a_path_outside_it(pipeline_dir, tmp_path):
    source, config = pipeline_dir
    out = tmp_path / "out"
    shutil.copytree(source, out)
    for dest in (out / "predictions.csv", tmp_path / "elsewhere.csv"):
        assert run(_predict_argv(out, config, "--dest", str(dest))) == 0
    assert (out / "predictions.csv").read_bytes() == (tmp_path / "elsewhere.csv").read_bytes()


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


# Relations of the whole chain on a 300-case log: ingest sorts the cases by
# id, so no file from ingest on depends on the order of the input rows or on
# the rendering they were read from
_FROM_INGEST = ("ingest", "clean", "cluster", "train", "evaluate", "report")


def _chain_files(events: Path, cases: Path, out: Path, stages=_FROM_INGEST) -> dict[str, bytes]:
    """The files that ``stages`` write into ``out`` from the inputs ``events`` and ``cases``."""
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in stages:
            argv = [stage, "--out", str(out), "--seed", "7", "--events", str(events), "--cases", str(cases)]
            assert run(argv) == 0, stage
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def relation_log(tmp_path_factory):
    """The events.csv and cases.csv of a 300-case log, and the files its chain writes."""
    log = tmp_path_factory.mktemp("relation-log")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["synth", "--out", str(log), "--seed", "7", "--n-cases", "300"]) == 0
    events, cases = log / "events.csv", log / "cases.csv"
    return events, cases, _chain_files(events, cases, tmp_path_factory.mktemp("relation-out"))


# no shrinking: one shuffle is as telling as another, and shrinking a failing
# one reruns the chain for minutes
@settings(
    max_examples=8,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(order=st.randoms(use_true_random=False))
def test_shuffled_input_rows_leave_every_file_of_the_chain_as_it_was(relation_log, order):
    events, cases, expected = relation_log
    with tempfile.TemporaryDirectory() as tmp:
        shuffled = {}
        for path in (events, cases):
            header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
            order.shuffle(rows)
            shuffled[path.name] = Path(tmp) / path.name
            shuffled[path.name].write_text(header + "".join(rows), encoding="utf-8")
        got = _chain_files(shuffled["events.csv"], shuffled["cases.csv"], Path(tmp) / "out")
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == expected[name], name


def test_the_jsonl_rendering_of_the_inputs_gives_the_cases_and_report_of_the_csv(relation_log, tmp_path):
    events, cases, expected = relation_log
    for path in (events, cases):
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        (tmp_path / f"{path.stem}.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
    got = _chain_files(tmp_path / "events.jsonl", tmp_path / "cases.jsonl", tmp_path / "out", stages=["ingest"])
    assert got == {name: expected[name] for name in artifacts.WRITES["ingest"]}


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


def test_blank_lines_and_a_last_line_without_its_newline_read_as_the_same_table(tmp_path):
    case_line, header = broken_inputs.case_line, broken_inputs.CASES_JSONL_HEADER
    rows = [case_line(case_id=f"W{i}", age=i) for i in range(3)]
    path = tmp_path / "cases.jsonl"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    table = artifacts.read_cases(path)
    path.write_text(header + "\n\n" + rows[0] + "\n \n" + rows[1] + "\n" + rows[2])
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
def artifact_dir(broken):
    """The --out and config file of the table's chain that trains every family."""
    return broken.chain("roster")


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
        phase, name, stages = path.stem.rsplit("_", 1)[1], "mean", broken_inputs.LATER
    else:  # predict reads the cluster artifacts, with any bundle
        phase, name, stages = path.stem.rsplit("_", 1)[1], "mean", ("predict",)
    common = ["--out", str(out), *SMALL, "--config", str(config), "--phase", phase, "--model", name]
    argvs = {"predict": ["predict", *common, "--dest", str(out / "p.csv")],
             **{s: [s, *common] for s in broken_inputs.LATER}}
    path.write_text(json.dumps(obj))
    try:
        for stage in stages:
            capsys.readouterr()
            assert run(argvs[stage]) == 1, (stage, field, parent[key])
            assert capsys.readouterr().err.startswith(f"error: {path}: "), field
    finally:
        path.write_text(original)


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


# the files of one phase that each command writes, for each roster model;
# the files that cover both phases are left out
_PER_PHASE = {
    "cluster": ("tfidf_{phase}.json", "cluster_model_{phase}.json", "assignments_{phase}.csv", "clusters_{phase}.csv"),
    "train": ("model_{phase}_{model}.json",),
    "evaluate": ("predictions_{phase}.csv",),
    "report": ("histogram_{phase}_{kind}.csv", "histogram_{phase}_{kind}.svg"),
}


@pytest.mark.parametrize("command", list(_PER_PHASE))
def test_a_command_writes_each_phase_as_a_run_of_that_phase_alone_does(broken, tmp_path, command):
    """The phases of one run share no state: computing both phases writes
    each phase's files with the bytes that one phase at a time writes over
    the same upstream output. Train runs on the chain that trains every
    family, so that a seeded one (the forest) is among its models."""
    source, config = broken.chain("roster" if command == "train" else "pipeline")
    out = tmp_path / "out"
    shutil.copytree(source, out)
    written = sorted({
        pattern.format(phase=phase, model=model, kind=kind)
        for pattern in _PER_PHASE[command] for phase in ("procedure", "induction")
        for model in build_config(str(config), {}).models for kind in ("actual", "plan")
    })
    assert len(written) == {"train": 14, "evaluate": 2}.get(command, 8)  # four, seven or one for each phase
    for name in written:
        assert artifacts.writer_of(Path(name)) == command, name
        (out / name).unlink()
    for phase in ("procedure", "induction"):
        assert run([command, "--out", str(out), *SMALL, "--config", str(config), "--phase", phase]) == 0
    for name in written:
        assert (out / name).read_bytes() == (source / name).read_bytes(), name


_ROSTER = ("mean", "group-mean", "mta", "ridge", "tree", "forest", "gbm")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A finished 300-case run of every model family, every stage through report."""
    out = tmp_path_factory.mktemp("small_run")
    config = out / "small.cfg"
    config.write_text(f"synth_n_cases = 300\nmodels = {','.join(_ROSTER)}\nforest_n_trees = 2\ngbm_n_trees = 5\n")
    for stage in broken_inputs.STAGES:
        assert run([stage, "--out", str(out), "--seed", "3", "--config", str(config)]) == 0, stage
    return out, config


_READ_BACK = {  # each artifact that later commands read back -> those commands
    "cases.jsonl": ("clean", "cluster", "train", "evaluate", "report"),
    "clean_{phase}.json": ("cluster", "train", "evaluate", "report"),
    "tfidf_{phase}.json": ("predict",),
    "cluster_model_{phase}.json": ("predict",),
    "assignments_{phase}.csv": ("train", "evaluate", "report"),
    "model_{phase}_{model}.json": ("evaluate", "predict"),
    "predictions_{phase}.csv": ("report",),
}
_CSV_MUTATIONS = ("text-in-number", "drop-row", "duplicate-row", "drop-field", "delete-header", "truncate")
_JSONL_MUTATIONS = ("edit-a-line", "drop-row", "duplicate-row", "delete-header", "truncate")
_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_ANY_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**63, 1e-320, 0.5, 1e308]), st.floats(),
    st.text(max_size=5), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def _mutated_csv(data, text, mutation):
    """``text``, a CSV artifact or cases.jsonl, with one ``mutation`` drawn from ``data``."""
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
    elif mutation == "edit-a-line":  # one JSON edit of a cases.jsonl row
        rows[i] = json.dumps(_edited_json(data, json.loads(rows[i]))) + "\n"
    else:  # text-in-number: every field after the case id is a number
        fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(_CELL_TEXT)
    if mutation in ("drop-field", "text-in-number"):
        rows[i] = ",".join(fields) + "\n"
    return header + "".join(rows)


def _edited_json(data, root):
    """``root``, a decoded JSON value, with one edit drawn from ``data`` at a
    node reached down from the root: a member deleted, a value replaced, or
    an array entry dropped or duplicated."""
    parent, key, node = None, None, root
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):  # 0 stops at this node
        keys = st.sampled_from(list(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1)
        parent, key = node, data.draw(keys)
        node = parent[key]
    if parent is None:
        return data.draw(_ANY_JSON)
    edits = ["replace", "delete"] if isinstance(parent, dict) else ["replace", "drop", "duplicate"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "replace":
        parent[key] = data.draw(_ANY_JSON)
    elif edit == "duplicate":
        parent.insert(key, node)
    else:
        del parent[key]
    return root


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_edited_artifact_never_ends_in_a_runtime_error(small_run, data):
    """One structured edit of any JSON or CSV artifact that a later command
    reads back: every command that reads it exits 0 or 1, never 2."""
    source, config = small_run
    artifact = data.draw(st.sampled_from(sorted(_READ_BACK)))
    phase = data.draw(st.sampled_from(["procedure", "induction"]))
    name = data.draw(st.sampled_from(_ROSTER))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(source, out)
        path = out / artifact.format(phase=phase, model=name)
        text = path.read_text()
        if path.suffix == ".json":
            text = json.dumps(_edited_json(data, json.loads(text)))
        else:
            text = _mutated_csv(data, text, data.draw(st.sampled_from(
                _JSONL_MUTATIONS if path.suffix == ".jsonl" else _CSV_MUTATIONS)))
        path.write_text(text)
        common = ["--out", str(out), "--seed", "3", "--config", str(config), "--phase", phase]
        for command in _READ_BACK[artifact]:
            extra = ["--model", name, "--dest", f"{tmp}/p.csv"] if command == "predict" else []
            code, err = _in_process([command, *common, *extra])
            assert code in (0, 1), (command, path.name, err)


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
        argvs = [[stage, *common] for stage in broken_inputs.STAGES]
        argvs.append(["predict", *common, "--phase", phases[0], "--model", "mean", "--dest", f"{tmp}/p.csv"])
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1), (argv[0], lines, err.getvalue())
