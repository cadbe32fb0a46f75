"""The table of broken inputs: each row copies a finished chain of stages,
breaks one input, and requires every command it then runs to exit with an
exact code and message.

A row holds:

- ``test`` and ``id``: the name and the parameter id that tier-1 collects
  the row under (``id`` is None for the one row of a name that takes no
  parameter);
- ``chain``: the name of the chain in ``CHAINS`` whose ``--out`` and config
  the row copies, or None for an empty ``--out``. A chain is its config
  text, its seed, its ``--n-cases`` and the last stage it runs;
- ``edits``: what the row changes before its runs, in order, each a path
  and a change (see ``_apply``);
- ``runs``: each command's argv, its exit code and its stderr. The stderr
  is exact, except that ``ANY`` in it stands for any text;
- ``same``: files in ``--out`` that must still equal the chain's
  afterwards, or still be absent where the chain has none.

Paths and texts may name ``{out}``, the copy of the chain's ``--out``,
``{config}``, the copy of its config file, and ``{tmp}``, a directory
outside ``{out}``. A run gets ``--out {out}``, and on a chain also
``--seed <seed> --config {config}``, before its own flags; a flag it gives
again takes the later value.

To add a row, append it to ``ROWS``: tier-1 collects it through
``tests/test_cli.py``, which runs it in-process through ``periop.cli.run``,
and so does this script, which runs it through a command:

    PYTHONPATH=tests python tests/broken_inputs.py periop
    PYTHONPATH=src:tests python tests/broken_inputs.py python -m periop.cli

It builds each chain once, runs every row on its own copy, and exits 1
when a row fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

from periop.eventlog import CASES_HEADER, CASE_FIELDS

ANY = "…"  # in an expected stderr: any text, also none
DIR = "a directory"  # an edit that makes its path a directory


class Chain(NamedTuple):
    config: str
    seed: int
    n_cases: int
    last: str  # the chain runs synth .. last


class Row(NamedTuple):
    test: str
    id: str | None
    chain: str | None
    edits: tuple
    runs: tuple
    same: tuple = ()


STAGES = ("synth", "ingest", "clean", "cluster", "train", "evaluate", "report")
PIPELINE_CONFIG = (
    "# small deterministic run\n"
    "synth_procedure_families = 8\n"
    "synth_anesthesia_families = 4\n"
    "cluster_k.procedure = 8\n"
    "cluster_k.induction = 4\n"
    "models = mean,group-mean,mta,gbm\n"
    "gbm_n_trees = 40\n"
)
FEW_CONFIG = "phases = procedure\ncluster_k.procedure = 2..3\nmax_duration_min = 33\ntest_fraction = 0.75\n"

CHAINS = {
    "pipeline": Chain(PIPELINE_CONFIG, 13, 1500, "report"),
    # the pipeline's config with every family trained
    "roster": Chain(
        PIPELINE_CONFIG.replace("gbm\n", "gbm,ridge,tree,forest\n") + "forest_n_trees = 3\n", 13, 1500, "train"
    ),
    # 300 cases cleaned to an empty side of the split, or to texts of no token
    "no-test-case": Chain("test_fraction = 0.001\n", 1, 300, "clean"),
    "no-retained-case": Chain("max_duration_min = 1\n", 1, 300, "clean"),
    "one-retained-case": Chain("max_duration_min = 9.25\n", 1, 300, "clean"),
    "no-token": Chain("min_token_len = 50\n", 1, 300, "clean"),
    # 100 cases of which clean keeps 6, 2 of them for training
    "few": Chain(FEW_CONFIG, 15, 100, "clean"),
}


# ---------------------------------------------------------------------------
# Edits and runs
# ---------------------------------------------------------------------------


def json_edit(edit: Callable) -> Callable[[str], str]:
    """A text edit that applies ``edit`` to the decoded JSON, in place."""
    def apply(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return apply


def lines_edit(edit: Callable) -> Callable[[str], str]:
    """A text edit that applies ``edit`` to the list of lines, each without its line end."""
    def apply(text):
        lines = text.splitlines()
        edit(lines)
        return "".join(line + "\n" for line in lines)
    return apply


def set_cell(col, value):
    """A lines edit: field ``col`` of the first row after the header, a CSV line, set to ``value``."""
    def edit(lines):
        fields = lines[1].split(",")
        fields[col] = value
        lines[1] = ",".join(fields)
    return edit


def set_field(line, name, value):
    """A lines edit: field ``name`` of cases.jsonl line ``line`` (from 1) set to ``value``."""
    def edit(lines):
        row = json.loads(lines[line - 1])
        row[CASE_FIELDS.index(name)] = value
        lines[line - 1] = json.dumps(row)
    return edit


def put(path, value):
    """A JSON edit: the entry at ``path`` set to ``value``; None in ``path``
    stands for an object's first member."""
    def edit(obj):
        for name in path[:-1]:
            obj = obj[next(iter(obj)) if name is None else name]
        obj[path[-1]] = value
    return edit


def delete(path):
    """A JSON edit: the member at ``path`` deleted."""
    def edit(obj):
        for name in path[:-1]:
            obj = obj[name]
        del obj[path[-1]]
    return edit


def set_first_number(path, value):
    """A JSON edit: the first number under the entry at ``path``, through
    arrays and objects, set to ``value``."""
    def edit(obj):
        for name in path:
            obj = obj[name]
        while True:
            key = next(iter(obj)) if isinstance(obj, dict) else 0
            if not isinstance(obj[key], (dict, list)):
                obj[key] = value
                return
            obj = obj[key]
    return edit


_TOKEN = "a number token to write raw"


def raw_number(path, token):
    """A text edit: the entry at ``path`` set to ``token``, written as it is,
    which may be no JSON number (NaN) or none that a float holds (1e400)."""
    return lambda text: json_edit(put(path, _TOKEN))(text).replace(json.dumps(_TOKEN), token)


def each(commands, code, err):
    """One run per command, a name or an argv, each with ``code`` and ``err``."""
    return tuple(((c,) if isinstance(c, str) else tuple(c), code, err) for c in commands)


def predict(phase="procedure", model="gbm", *flags, dest="{tmp}/p.csv"):
    return ("predict", "--phase", phase, "--model", model, "--dest", dest, *flags)


def reads(artifact):
    """The commands that read ``artifact``: evaluate and predict read a
    model bundle, predict the cluster and TF-IDF files with any bundle."""
    stem = artifact.removesuffix(".json")
    if stem.startswith("model_"):
        _, phase, name = stem.split("_", 2)
        return (predict(phase, name), ("evaluate", "--phase", phase, "--model", name))
    return (predict(stem.rsplit("_", 1)[1], "mean"),)


def reading(test, id, artifact, edit, problem, chain="roster"):
    """Every command that reads ``artifact``, edited, exits 1 with ``problem`` after the file name."""
    return Row(test, id, chain, ((f"{{out}}/{artifact}", edit),),
               each(reads(artifact), 1, f"error: {{out}}/{artifact}: {problem}{ANY}"))


def rerun(writer):
    return f"; re-run {writer!r} to rebuild it\n"


# ---------------------------------------------------------------------------
# The rows
# ---------------------------------------------------------------------------

LATER = ("cluster", "train", "evaluate", "report")  # the stages after clean
AFTER_INGEST = ("clean", *LATER)
NESTED_TREE = {"feature": 0, "threshold": 0.5, "left": {"value": 30.0}, "right": {"value": 40.0}}
# one case's fields by name, in the order of the cases.jsonl header
GOOD_CASE = {
    "case_id": "W1", "department": "urology", "age": 50, "sex": "m", "procedure_text": "TURP",
    "anesthesia_text": "ITN", "positioning_text": "", "planned_induction_min": 15.0,
    "planned_procedure_min": 30.0, "induction_min": 20.5, "preparation_min": 10.0, "procedure_min": 76.4,
    "duplicate_anchors": [], "n_events": 4,
}
CASES_JSONL_HEADER = json.dumps(list(GOOD_CASE))
CASES_CSV = ",".join(CASES_HEADER) + "\nW1,urology,63,f,,,,,\n"


def case_line(**changes):
    return json.dumps(list((GOOD_CASE | changes).values()))


NOT_FINITE = "bad value for {!r}: expected a finite number or null"
ANCHORS = "bad value for 'duplicate_anchors': expected an array of distinct anchor names"
OBJECT_ROW = json.dumps(GOOD_CASE, sort_keys=True)  # a cases.jsonl row of the builds before the header line
WRONG_HEADER = CASES_JSONL_HEADER.replace("age", "years")
SPLIT = "{out}/assignments_procedure.csv"

ROWS = [
    Row("test_missing_artifacts_exit_one", None, None, (), (
        (("clean",), 1, "error: missing artifact: {out}/cases.jsonl (run 'ingest' first)\n"),
        (("ingest",), 1, "error: input not found: {out}/events.csv\n"),
    )),
    *(Row("test_bad_input_header_exits_one", id, None,
          (("{out}/events.csv", events), ("{out}/cases.csv", CASES_CSV)),
          each(["ingest"], 1, f"error: {{out}}/events.csv: line 1: expected header{ANY}"))
      for id, events in (("wrong-header", "case,event_type,timestamp\nW1,incision,2024-03-01T08:40:00Z\n"),
                         ("empty", ""))),
    # a directory, or a config file that is not UTF-8, given as an input
    *(Row("test_an_input_path_that_cannot_be_read_exits_one_naming_it", id, "pipeline",
          (("{tmp}/folder", DIR), ("{tmp}/latin-1.cfg", b"seed = 13 # \xe9\n")), ((argv, 1, f"error: {message}\n"),))
      for id, argv, message in (
          ("ingest-events", ("ingest", "--events", "{tmp}/folder"), "input {tmp}/folder: Is a directory"),
          ("ingest-cases", ("ingest", "--cases", "{tmp}/folder"), "input {tmp}/folder: Is a directory"),
          ("predict-cases", predict("procedure", "gbm", "--cases", "{tmp}/folder"),
           "input {tmp}/folder: Is a directory"),
          ("config", ("clean", "--config", "{tmp}/folder"), "config file {tmp}/folder: Is a directory"),
          ("config-not-utf-8", ("clean", "--config", "{tmp}/latin-1.cfg"),
           "config file {tmp}/latin-1.cfg: invalid UTF-8"),
          ("synonyms", ("cluster", "--synonyms", "{tmp}/folder"), "synonyms file {tmp}/folder: Is a directory"),
      )),
    # ingest would read its input and then overwrite it with cases.jsonl
    *(Row("test_ingest_refuses_an_input_that_it_writes", flag, "pipeline", (),
          each([("ingest", flag, "{out}/../out/cases.jsonl")], 1,
               f"error: {flag[2:]} input {{out}}/../out/cases.jsonl is a file that ingest writes; "
               "give an input outside its output\n"),
          same=("cases.jsonl",))
      for flag in ("--cases", "--events")),
    *(Row("test_predict_refuses_a_dest_that_another_command_writes", f"{name}-{writer}", "pipeline", (),
          each([predict(dest=f"{{out}}/../out/{name}")], 1,
               f"error: --dest {{out}}/../out/{name} is a file that {writer} writes; "
               "give a path no other command writes\n"),
          same=(name,))
      for name, writer in (("cases.jsonl", "ingest"), ("model_procedure_gbm.json", "train"),
                           ("predictions_procedure.csv", "evaluate"), ("events.csv", "synth"))),
    # --cases X --dest X, a file outside --out, would replace the cases with the predictions
    Row("test_predict_refuses_a_dest_that_is_its_cases_input", None, "pipeline", (),
        each([predict("procedure", "gbm", "--out", "{tmp}", "--cases", "{out}/cases.csv", dest="{out}/cases.csv")],
             1, "error: cases input {out}/cases.csv is a file that predict writes; give an input outside its output\n"),
        same=("cases.csv",)),
    # a --dest that is a directory, or an --out that is a regular file, checked before any input is read
    *(Row("test_an_output_path_that_cannot_be_created_exits_one_naming_it", id, "pipeline",
          (("{tmp}/folder", DIR),), ((argv, 1, f"error: {message}\n"),), same=("ground_truth.json",))
      for id, argv, message in (
          ("predict", predict(dest="{tmp}/folder"), "output {tmp}/folder: Is a directory"),
          ("synth", ("synth", "--out", "{out}/ground_truth.json", "--n-cases", "1500"),
           "output {out}/ground_truth.json: File exists"),
          ("ingest", ("ingest", "--out", "{out}/ground_truth.json", "--events", "{out}/events.csv",
                      "--cases", "{out}/cases.csv"), "output {out}/ground_truth.json: File exists"),
          ("ingest-before-reading-its-inputs",
           ("ingest", "--out", "{out}/ground_truth.json", "--events", "{tmp}/folder"),
           "output {out}/ground_truth.json: File exists"),
      )),
    *(Row("test_bad_cases_jsonl_exits_one_naming_the_line", id, None,
          (("{out}/cases.jsonl", f"{CASES_JSONL_HEADER}\n{case_line()}\n{line}\n"),),
          each(AFTER_INGEST, 1, f"error: {{out}}/cases.jsonl:3: {problem}{rerun('ingest')}"))
      for id, line, problem in (
          ("truncated", case_line()[:40], "invalid JSON"),
          ("stale", OBJECT_ROW, f"expected a JSON array of 14 fields, got {OBJECT_ROW[:37]}..."),
          ("one-field-short", json.dumps(list(GOOD_CASE.values())[:-1]), "expected a JSON array of 14 fields, got 13"),
          ("age-text", case_line(age="x"), "bad value for 'age': expected a number or null, got \"x\""),
          ("duration-text", case_line(procedure_min="12"),
           "bad value for 'procedure_min': expected a number or null, got \"12\""),
          ("count-bool", case_line(n_events=True), "bad value for 'n_events': expected an integer, got true"),
          ("department-null", case_line(department=None), "bad value for 'department': expected a string, got null"),
          ("duration-nan", case_line(procedure_min=math.nan), f"{NOT_FINITE.format('procedure_min')}, got NaN"),
          ("duration-minus-infinity", case_line(induction_min=-math.inf),
           f"{NOT_FINITE.format('induction_min')}, got -Infinity"),
          ("plan-infinity", case_line(planned_procedure_min=math.inf),
           f"{NOT_FINITE.format('planned_procedure_min')}, got Infinity"),
          ("duration-1e400", case_line().replace("76.4", "1e400"),
           f"{NOT_FINITE.format('procedure_min')}, got Infinity"),
          ("age-too-large", case_line(age=10**400), f"{NOT_FINITE.format('age')}, got {str(10**400)[:37]}..."),
          ("anchors-not-names", case_line(case_id="W2", duplicate_anchors=[math.nan, {"x": [1]}]),
           f"{ANCHORS}, got [NaN, {{\"x\": [1]}}]"),
          ("anchors-repeated", case_line(case_id="W2", duplicate_anchors=["suture", "suture"]),
           f"{ANCHORS}, got [\"suture\", \"suture\"]"),
          ("count-negative", case_line(case_id="W2", n_events=-3),
           "bad value for 'n_events': expected an integer >= 0, got -3"),
          ("repeated-id", case_line(), "case 'W1' is listed a second time"),
      )),
    # line 2 of a chain's cases.jsonl: a NaN procedure duration, the line twice,
    # and an anchor list that holds no anchor name with a negative event count
    *(Row("test_bad_cases_jsonl_exits_one_naming_the_line", id, "pipeline", (("{out}/cases.jsonl", edit),),
          each(["clean"], 1, f"error: {{out}}/cases.jsonl:{problem}{rerun('ingest')}"))
      for id, edit, problem in (
          ("chain-line-2-nan-duration", lines_edit(set_field(2, "procedure_min", math.nan)),
           f"2: {NOT_FINITE.format('procedure_min')}, got NaN"),
          ("chain-line-2-twice", lines_edit(lambda lines: lines.insert(1, lines[1])),
           f"3: case {ANY} is listed a second time"),
          ("chain-line-2-anchors-nan-count-negative",
           lines_edit(lambda lines: (set_field(2, "duplicate_anchors", [math.nan])(lines),
                                     set_field(2, "n_events", -3)(lines))),
           f"2: {ANCHORS}, got [NaN]"),
      )),
    *(Row("test_cases_jsonl_without_its_header_exits_one_at_line_one", id, None, (("{out}/cases.jsonl", text),),
          each(AFTER_INGEST, 1,
               f"error: {{out}}/cases.jsonl:1: expected a header line of the 14 field names, got {got}"
               f"{rerun('ingest')}"))
      for id, text, got in (
          ("object-row-of-an-older-build", OBJECT_ROW + "\n", f"{OBJECT_ROW[:37]}..."),
          ("wrong-header", f"{WRONG_HEADER}\n{case_line()}\n", f"{WRONG_HEADER[:37]}..."),
          ("empty-file", "", "an empty file"),
          ("blank-line-1", f"\n{case_line()}\n", "invalid JSON"),
      )),
    # a blank line after line 1 and no last newline: clean writes the same clean files
    Row("test_clean_skips_a_blank_line_and_takes_a_last_line_without_its_newline", None, "pipeline",
        (("{out}/cases.jsonl", lambda text: text.replace("\n", "\n\n", 1)[:-1]),
         ("{out}/clean_procedure.json", None), ("{out}/clean_induction.json", None)),
        each(["clean"], 0, ""), same=("clean_procedure.json", "clean_induction.json")),
    # model files of older versions stored trees as nested dicts
    *(Row("test_model_file_with_nested_trees_exits_one", id, "roster",
          ((f"{{out}}/model_procedure_{family}.json", json_edit(put(("model", key), value))),),
          each(reads(f"model_procedure_{family}.json"), 1,
               f"error: {{out}}/model_procedure_{family}.json: tree is not in the flat-array layout{ANY}"
               f"{rerun('train')}"))
      for id, family, key, value in (
          ("model0", "tree", "tree", NESTED_TREE),
          ("model1", "forest", "trees", [NESTED_TREE] * 3),
          ("model2", "gbm", "trees", [NESTED_TREE] * 40),
      )),
    *(Row("test_artifact_missing_a_field_exits_one", id, "pipeline",
          ((f"{{out}}/{artifact}", json_edit(delete(path))),),
          each(commands, 1, f"error: {{out}}/{artifact}: missing field {path[-1]!r}{rerun(writer)}"))
      for id, artifact, path, commands, writer in (
          ("gbm-base", "model_procedure_gbm.json", ("model", "base"), reads("model_procedure_gbm.json"), "train"),
          ("features-age-fill", "model_procedure_gbm.json", ("features", "age_fill"),
           reads("model_procedure_gbm.json"), "train"),
          ("bundle-family", "model_procedure_gbm.json", ("family",), reads("model_procedure_gbm.json"), "train"),
          ("kmeans-centroids", "cluster_model_procedure.json", ("model", "centroids"), [predict()], "cluster"),
          ("tfidf-idf", "tfidf_procedure.json", ("idf",), [predict()], "cluster"),
      )),
    Row("test_tfidf_idf_not_matching_the_vocabulary_exits_one", None, "pipeline",
        (("{out}/tfidf_procedure.json", json_edit(lambda obj: obj.__setitem__("idf", obj["idf"][:-3]))),),
        each([predict()], 1, "error: {out}/tfidf_procedure.json: idf holds 8 weights for 11 vocabulary terms"
                             f"{rerun('cluster')}")),
    # json reads true as a number that numpy and float() take for 1
    *(reading("test_true_in_a_number_array_exits_one", f"{artifact.removesuffix('.json')}-{'-'.join(path)}",
              artifact, json_edit(set_first_number(path, True)), f"bad entry in {key!r}: expected a number, got true;")
      for artifact, path, key in (
          ("tfidf_procedure.json", ("idf",), "idf"),
          ("cluster_model_procedure.json", ("model", "centroids"), "centroids"),
          ("cluster_model_procedure.json", ("model", "inertia_trace"), "inertia_trace"),
          ("cluster_model_induction.json", ("model", "weights"), "weights"),
          ("cluster_model_induction.json", ("model", "means"), "means"),
          ("cluster_model_induction.json", ("model", "variances"), "variances"),
          ("cluster_model_induction.json", ("model", "log_likelihood"), "log_likelihood"),
          ("model_procedure_ridge.json", ("model", "coef"), "coef"),
          *(("model_procedure_tree.json", ("model", "tree", name), name)
            for name in ("feature", "threshold", "left", "right", "value")),
          ("model_procedure_gbm.json", ("model", "stage_mse"), "stage_mse"),
          ("model_procedure_group-mean.json", ("model", "means"), "means"),
          ("model_procedure_gbm.json", ("features", "target_encoder", "stats"), "0"),
      )),
    # int() and numpy truncate 2.5 to 2 and read true as 1
    *(reading("test_a_fraction_or_boolean_in_an_integer_field_exits_one", id, artifact, json_edit(put(path, value)),
              f"bad entry in {key!r}: expected an integer, got {json.dumps(value)};")
      for id, artifact, path, value, key in (
          ("tree-feature", "model_procedure_tree.json", ("model", "tree", "feature", 0), 0.7, "feature"),
          ("tree-left", "model_procedure_tree.json", ("model", "tree", "left", 0), 1.2, "left"),
          ("tree-right", "model_procedure_tree.json", ("model", "tree", "right", 0), 2.9, "right"),
          ("encoder-count", "model_procedure_gbm.json", ("features", "target_encoder", "stats", None, 0), 2.5, "0"),
          ("name-code", "model_procedure_mta.json", ("features", "name_codes", 0, 1), 1.5, "name_codes"),
          ("name-code-bool", "model_procedure_mta.json", ("features", "name_codes", 0, 1), True, "name_codes"),
      )),
    # a target-encoder count below 1 would divide by zero; numpy holds no tree index beyond 2**63
    *(reading("test_an_integer_out_of_its_range_exits_one", id, artifact, json_edit(put(path, value)),
              f"bad entry in {key!r}: {problem};")
      for id, artifact, path, value, key, problem in (
          ("encoder-count-zero", "model_procedure_gbm.json", ("features", "target_encoder", "stats", None, 0), 0,
           "0", "a count must be from 1 to 2**63 - 1, got 0"),
          ("encoder-count-negative", "model_procedure_gbm.json", ("features", "target_encoder", "stats", None, 0),
           -40, "0", "a count must be from 1 to 2**63 - 1, got -40"),
          ("tree-feature-overflow", "model_procedure_tree.json", ("model", "tree", "feature", 0), 10**30,
           "feature", "an integer out of the index range"),
      )),
    # json reads 1e400 as inf and takes the NaN and Infinity tokens, which JSON does not have
    *(reading("test_a_non_finite_number_in_a_model_file_exits_one", f"{path_id}-{token_id}",
              "model_procedure_gbm.json", raw_number(path, token), problem.format(kind=kind, key=key))
      for path_id, path, kind, key in (
          ("encoder-prior", ("features", "target_encoder", "prior"), "bad value for", "prior"),
          ("tree-threshold", ("model", "trees", 0, "threshold", 0), "bad entry in", "threshold"),
      )
      for token_id, token, problem in (
          ("1e400", "1e400", "{kind} {key!r}: expected a finite number, got Infinity;"),
          ("-1e400", "-1e400", "{kind} {key!r}: expected a finite number, got -Infinity;"),
          ("10**400", "1" + "0" * 400, "{kind} {key!r}: expected a finite number, got 1000"),
          ("Infinity", "Infinity", "Infinity is not a JSON number;"),
          ("-Infinity", "-Infinity", "-Infinity is not a JSON number;"),
          ("NaN", "NaN", "NaN is not a JSON number;"),
      )),
    reading("test_a_forest_file_with_more_trees_than_n_trees_exits_one", None, "model_procedure_forest.json",
            json_edit(lambda obj: obj["model"]["trees"].append(obj["model"]["trees"][0])),
            "expected 3 trees, as 'n_trees' says, got 4; re-run 'train'"),
    reading("test_a_model_file_cut_short_exits_one", None, "model_procedure_gbm.json", lambda text: '{"',
            "Unterminated string starting at: line 1 column 2 (char 1); re-run 'train'"),
    # malformed, or no longer covering the cases it is read for
    *(Row("test_an_edited_artifact_exits_one_naming_it_and_the_stage_to_rerun", id, "pipeline",
          ((f"{{out}}/{artifact}", edit),),
          each([predict("induction" if "induction" in artifact else "procedure") if c == "predict" else c
                for c in commands], 1, f"error: {{out}}/{artifact}{ANY}{problem}{ANY}{rerun(writer)}"))
      for id, artifact, edit, commands, writer, problem in (
          ("clean-no-retained-ids", "clean_procedure.json", json_edit(lambda obj: obj.pop("retained_ids")), LATER,
           "clean", "missing field 'retained_ids'"),
          ("clean-a-list", "clean_procedure.json", lambda text: "[]", LATER, "clean",
           "expected a JSON object holding 'retained_ids', got []"),
          ("clean-unknown-id", "clean_procedure.json", json_edit(lambda obj: obj["retained_ids"].append("NOPE")),
           LATER, "clean", "'retained_ids' holds ids that cases.jsonl lacks, such as 'NOPE'"),
          ("clean-id-not-a-string", "clean_procedure.json", json_edit(lambda obj: obj["retained_ids"].append(7)),
           LATER, "clean", "bad entry in 'retained_ids': expected a string, got 7"),
          ("assignments-cluster-x", "assignments_procedure.csv", lines_edit(set_cell(1, "x")), LATER[1:], "cluster",
           "bad value in column 'cluster': expected an integer from 0 to 2**63 - 1, got \"x\""),
          ("assignments-one-field-row", "assignments_procedure.csv",
           lines_edit(lambda lines: lines.__setitem__(1, lines[1].split(",")[0])), LATER[1:], "cluster",
           "expected 2 fields, got 1"),
          ("assignments-empty", "assignments_procedure.csv", lambda text: "", LATER[1:], "cluster",
           'expected the header line "case_id,cluster", got an empty file'),
          # "\udcff" writes the byte 0xff, which is not UTF-8
          ("assignments-not-utf8", "assignments_procedure.csv", lambda text: "\udcff" + text, LATER[1:], "cluster",
           "invalid UTF-8"),
          ("predictions-abc", "predictions_procedure.csv", lines_edit(set_cell(-1, "abc")), ("report",), "evaluate",
           "bad value in column 'mta': expected a finite number, got \"abc\""),
          ("predictions-row-deleted", "predictions_procedure.csv", lines_edit(lambda lines: lines.pop(1)),
           ("report",), "evaluate", "holds no row for 1 of the"),
          ("predictions-short-row", "predictions_procedure.csv",
           lines_edit(lambda lines: lines.__setitem__(1, lines[1].rsplit(",", 1)[0])), ("report",), "evaluate",
           "expected 7 fields, got 6"),
          ("predictions-empty", "predictions_procedure.csv", lambda text: "", ("report",), "evaluate",
           'expected the header line "case_id,actual_min,planned_min,<model>...", got an empty file'),
          ("assignments-no-header", "assignments_procedure.csv", lines_edit(lambda lines: lines.pop(0)), LATER[1:],
           "cluster", 'expected the header line "case_id,cluster", got "'),
          ("assignments-row-deleted", "assignments_procedure.csv", lines_edit(lambda lines: lines.pop(1)),
           ("train",), "cluster", "holds no row for 1 of the"),
          ("clean-nested-too-deeply", "clean_procedure.json", lambda text: "[" * 100_000, LATER, "clean",
           "maximum recursion depth"),
          ("tfidf-nested-too-deeply", "tfidf_procedure.json", lambda text: "[" * 100_000, ("predict",), "cluster",
           "maximum recursion depth"),
          ("gmm-negative-weight", "cluster_model_induction.json", json_edit(put(("model", "weights", 0), -1)),
           ("predict",), "cluster", "bad entry in 'weights': expected a number > 0, got -1"),
          ("gmm-means-one-row-short", "cluster_model_induction.json",
           json_edit(lambda obj: obj["model"]["means"].pop()), ("predict",), "cluster",
           "'weights', 'means' and 'variances' are (4,), (3, "),
          # finite entries whose squared distances to a TF-IDF row overflow
          ("kmeans-centroid-1e308", "cluster_model_procedure.json", json_edit(put(("model", "centroids", 0, 0), 1e308)),
           ("predict",), "cluster", "bad row 0 in 'centroids': its sum of squares is not finite"),
          ("gmm-mean-1e308", "cluster_model_induction.json", json_edit(put(("model", "means", 0, 0), 1e308)),
           ("predict",), "cluster", "bad row 0 in 'means': its sum of squares over 'variances' is not finite"),
          ("gmm-mean-1e153-over-the-floor", "cluster_model_induction.json",
           json_edit(lambda obj: (put(("model", "means", 1, 0), 1e153)(obj), put(("model", "variances", 1, 0), 1e-6)(obj))),
           ("predict",), "cluster", "bad row 1 in 'means': its sum of squares over 'variances' is not finite"),
          ("gmm-variance-1e-320", "cluster_model_induction.json", json_edit(put(("model", "variances", 0, 0), 1e-320)),
           ("predict",), "cluster", "bad entry in 'variances': expected a number >= 1e-06, got 9.99989e-321"),
          ("kmeans-centroids-one-column-narrow", "cluster_model_procedure.json",
           json_edit(lambda obj: [row.pop() for row in obj["model"]["centroids"]]), ("predict",), "cluster",
           "columns for the "),
          ("tfidf-idf-below-one", "tfidf_procedure.json", json_edit(put(("idf", 0), 1e-320)), ("predict",),
           "cluster", "bad entry in 'idf': expected a weight from 1 to 1 + ln(1 + n_docs) = "),
          ("tfidf-no-documents", "tfidf_procedure.json", json_edit(put(("n_docs",), 0)), ("predict",), "cluster",
           "bad value for 'n_docs': expected an integer >= 1, got 0"),
          ("group-mean-group-col-5", "model_procedure_group-mean.json", json_edit(put(("model", "group_col"), 5)),
           ("evaluate",), "train", "'model.group_col' is 5, but model 'group-mean' of phase 'procedure' needs 0"),
          ("group-mean-group-col-2**63", "model_procedure_group-mean.json",
           json_edit(put(("model", "group_col"), 2**63)), ("evaluate",), "train",
           "'model.group_col' is 9223372036854775808, but model 'group-mean' of phase 'procedure' needs 0"),
          ("gbm-tree-feature-40", "model_procedure_gbm.json", json_edit(put(("model", "trees", 0, "feature", 0), 40)),
           ("evaluate", "predict"), "train", "the model reads 41 design columns, but 'features' gives 14"),
      )),
    # a bundle's phase and name are those of its file name, and its family,
    # model family, feature phase and grouping those the roster plans for it
    *(Row("test_a_bundle_unlike_its_file_or_roster_entry_exits_one", id, "pipeline",
          (("{out}/model_procedure_group-mean.json", json_edit(put(path, value))),),
          each(reads("model_procedure_group-mean.json"), 1,
               f"error: {{out}}/model_procedure_group-mean.json: {'.'.join(path)!r} is {value!r}, but model "
               f"'group-mean' of phase 'procedure' needs {expected!r}{rerun('train')}"))
      for id, path, value, expected in (
          ("phase", ("phase",), "induction", "procedure"),
          ("name", ("name",), "mta", "group-mean"),
          ("family", ("family",), "mean", "group-mean"),
          ("model-family", ("model", "family"), "mean", "group-mean"),
          ("features-phase", ("features", "phase"), "induction", "procedure"),
          ("features-group-by", ("features", "group_by"), "exact-name", "cluster"),
      )),
    # a ridge reads exactly as many design columns as it has coefficients
    *(Row("test_a_ridge_that_reads_another_design_width_exits_one", id, "roster",
          (("{out}/model_procedure_ridge.json", json_edit(edit)),),
          each(reads("model_procedure_ridge.json"), 1,
               f"error: {{out}}/model_procedure_ridge.json: the model reads {model_reads} design columns, "
               f"but 'features' gives {width}{rerun('train')}"))
      for id, edit, model_reads, width in (
          ("coef-one-longer", lambda obj: obj["model"]["coef"].append(0.5), 15, 14),
          ("coef-one-shorter", lambda obj: obj["model"]["coef"].pop(), 13, 14),
          ("one-more-sex", lambda obj: obj["features"]["sex_schema"]["categories"].append("x"), 14, 15),
      )),
    # a tree, forest or gbm file records the design width it was fitted on
    *(Row("test_a_tree_family_model_fitted_on_another_design_width_exits_one", f"{family}-{id}", "roster",
          ((f"{{out}}/model_procedure_{family}.json", json_edit(edit)),),
          each(reads(f"model_procedure_{family}.json"), 1,
               f"error: {{out}}/model_procedure_{family}.json: the model reads {model_reads} design columns, "
               f"but 'features' gives {width}{rerun('train')}"))
      for family in ("gbm", "tree", "forest")
      for id, edit, model_reads, width in (
          ("one-more-sex", lambda obj: obj["features"]["sex_schema"]["categories"].append("x"), 14, 15),
          ("one-department-less", lambda obj: obj["features"]["department_schema"]["categories"].pop(), 14, 13),
          ("width-one-more", lambda obj: obj["model"].__setitem__("width", 15), 15, 14),
      )),
    # a synonyms file that is not a from,to mapping
    *(Row("test_a_bad_synonyms_file_exits_one_naming_it", f"{command[0]}-{id}", "pipeline",
          (("{tmp}/synonyms.csv", content), ("{config}", lambda text: text + "synonyms = {tmp}/synonyms.csv\n")),
          each([command], 1, f"error: synonyms file {{tmp}}/synonyms.csv: {problem}\n"))
      for command in (("cluster",), predict("induction"))  # synonyms_phases is induction by default
      for id, content, problem in (
          ("header-a-b", b"a,b\nx,y\n", "expected synonyms header 'from,to'"),
          ("row-of-three-columns", b"from,to\nx,y,z\n", "expected 2 columns in synonyms row, got 3"),
          ("byte-0xff", b"from,to\nx,\xff\n", "invalid UTF-8"),
      )),
    Row("test_synonyms_phases_naming_no_phase_exits_one_in_cluster", None, "pipeline",
        (("{config}", lambda text: text + "synonyms_phases = procdure\n"),),
        each(["cluster"], 1, "error: config key 'synonyms_phases': unknown phase 'procdure'\n")),
    # per-department IQR bounds retain other cases than the assignments were written for
    Row("test_clean_run_again_after_cluster_exits_one_in_the_later_stages", None, "pipeline", (), (
        (("clean", "--iqr-per-department"), 0, ""),
        *each(LATER[1:], 1, f"error: {SPLIT}: holds no row for {ANY}{rerun('cluster')}"),
    )),
    # a lower duration cap, with clean run again, retains a subset of the
    # cases that cluster split; a larger test_fraction moves the boundary
    Row("test_a_split_that_no_longer_fits_the_config_exits_one_in_the_later_stages", "narrower-clean", "pipeline",
        (("{config}", lambda text: text + "max_duration_min = 200\n"),), (
            (("clean",), 0, ""),
            *each(LATER[1:], 1, f"error: {SPLIT}: holds rows for {ANY} cases that cleaning did not retain, "
                                f"such as {ANY}{rerun('cluster')}"),
        )),
    Row("test_a_split_that_no_longer_fits_the_config_exits_one_in_the_later_stages", "larger-test-fraction",
        "pipeline", (("{config}", lambda text: text + "test_fraction = 0.3\n"),),
        each(LATER[1:], 1, f"error: {SPLIT}:{ANY} breaks the ascending order of the test ids, so {ANY}"
                           f"{rerun('cluster')}")),
    # floor(n * 0.001) = 0 test cases, a 1-minute cap retains none, and a
    # 9.25-minute cap leaves one plausible procedure, too few for IQR bounds
    *(Row("test_an_empty_split_exits_one_at_the_first_stage_that_splits", id, id, (),
          each(("cluster", "train", "evaluate"), 1, f"error: {problem}\n"), same=("tfidf_procedure.json",))
      for id, problem in (
          ("no-test-case", "config key 'test_fraction': 0.001 leaves phase 'procedure' an empty test split of "
                           "its 204 retained cases"),
          ("no-retained-case", "phase 'procedure': cleaning retained no cases; see cleaning_report.json"),
          ("one-retained-case", "config key 'test_fraction': 0.2 leaves phase 'procedure' an empty test split of "
                                "its 1 retained cases"),
      )),
    # 50-letter tokens leave every text empty
    Row("test_text_rules_that_leave_no_token_exit_one_in_cluster", None, "no-token", (), (
        (("cluster",), 1, "error: phase 'procedure': the text rules (config keys 'min_token_len', 'literal_strip', "
                          "'synonyms', 'stemming') leave no token in any training text\n"),
        *each(LATER[1:], 1, f"error: missing artifact: {SPLIT} (run 'cluster' first)\n"),
    )),
    # silhouette selection scores no k above the training cases less one; one k needs no scoring
    Row("test_cluster_k_range_above_the_training_cases_less_one_exits_one", None, "few",
        (("{tmp}/one-k.cfg", FEW_CONFIG.replace("2..3", "2")),), (
            (("cluster",), 1, "error: config key 'cluster_k.procedure': phase 'procedure' has 2 training cases: "
                              "silhouette selection scores no k above 1, and the smallest k is 2\n"),
            (("cluster", "--config", "{tmp}/one-k.cfg"), 0, ""),
        )),
    Row("test_synth_below_100_cases_exits_one_at_load", None, None, (),
        each([("synth", "--n-cases", "8")], 1, "error: config key 'synth_n_cases': n_cases must be >= 100\n"),
        same=("events.csv",)),
]


def rows_by_test() -> dict[str, list[Row]]:
    """``ROWS`` by the name that tier-1 collects them under, in table order."""
    groups: dict[str, list[Row]] = {}
    for row in ROWS:
        groups.setdefault(row.test, []).append(row)
    return groups


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class Runner:
    """Runs rows through ``run(argv) -> (exit code, stderr)``, in directories
    under ``workdir``; builds each chain once, on first use."""

    def __init__(self, run: Callable[[list[str]], tuple[int, str]], workdir: Path) -> None:
        self.run, self.workdir, self._built = run, Path(workdir), {}

    def chain(self, name: str) -> tuple[Path, Path]:
        """The ``--out`` and the config file of the chain ``name``."""
        if name not in self._built:
            chain = CHAINS[name]
            out, config = self.workdir / name, self.workdir / f"{name}.cfg"
            config.write_text(chain.config)
            for stage in STAGES[: STAGES.index(chain.last) + 1]:
                size = ["--n-cases", str(chain.n_cases)] if stage == "synth" else []
                argv = [stage, "--out", str(out), "--seed", str(chain.seed), "--config", str(config), *size]
                code, err = self.run(argv)
                if code:
                    raise RuntimeError(f"chain {name!r}: {stage} exited {code}: {err}")
            self._built[name] = out, config
        return self._built[name]

    def check(self, row: Row) -> None:
        """Run ``row`` on a copy of its chain; raises AssertionError naming
        the first run or file that differs from what the row expects."""
        tmp = Path(tempfile.mkdtemp(prefix="row-", dir=self.workdir))
        out, config = tmp / "out", tmp / "chain.cfg"
        try:
            prefix = ["--out", str(out)]
            base = None
            if row.chain:
                base, base_config = self.chain(row.chain)
                shutil.copytree(base, out)
                shutil.copy(base_config, config)
                prefix += ["--seed", str(CHAINS[row.chain].seed), "--config", str(config)]

            def fill(text: str) -> str:
                return text.replace("{out}", str(out)).replace("{config}", str(config)).replace("{tmp}", str(tmp))

            for path, change in row.edits:
                _apply(Path(fill(path)), change, fill)
            for argv, code, err in row.runs:
                got = self.run([argv[0], *prefix, *map(fill, argv[1:])])
                if got[0] != code or not _matches(got[1], fill(err)):
                    raise AssertionError(f"{' '.join(argv)}: expected exit {code} with {fill(err)!r}, got {got}")
            for name in row.same:
                if _bytes(out / name) != _bytes(base / name if base else None):
                    raise AssertionError(f"{name} differs from the chain's")
        finally:
            shutil.rmtree(tmp)


def _apply(path: Path, change, fill: Callable[[str], str]) -> None:
    """One edit: None deletes ``path``, ``DIR`` makes it a directory, bytes
    are written as they are, and a text, or a function of the file's text
    that gives one, is written with its placeholders filled; "\\udcff" in a
    text writes the byte 0xff."""
    if change is None:
        path.unlink()
    elif change is DIR:
        path.mkdir()
    else:
        if callable(change):
            change = change(path.read_text(encoding="utf-8", errors="surrogateescape"))
        if isinstance(change, str):
            change = fill(change).encode("utf-8", "surrogateescape")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(change)


def _matches(err: str, expected: str) -> bool:
    return re.fullmatch(".*".join(map(re.escape, expected.split(ANY))), err, re.DOTALL) is not None


def _bytes(path: Path | None) -> bytes | None:
    return path.read_bytes() if path is not None and path.exists() else None


def main(command: list[str]) -> int:
    """Run every row through ``command``, the prefix of each argv."""
    def run(argv):
        done = subprocess.run([*command, *argv], capture_output=True, encoding="utf-8", errors="replace")
        return done.returncode, done.stderr

    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        runner = Runner(run, Path(workdir))
        for row in ROWS:
            try:
                runner.check(row)
            except AssertionError as exc:
                failed += 1
                print(f"FAILED {row.test}{f'[{row.id}]' if row.id else ''}: {exc}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} broken-input rows pass through {' '.join(command)}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND...  (e.g. periop, or python -m periop.cli)")
    sys.exit(main(sys.argv[1:]))
