"""Record the benchmark's baseline: repeated runs over seeds, in two sets.

Usage, from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in ``run.py`` it runs ``run.py --trace 0`` once per seed
1..10, twice over (two sets), then one ``--trace 1`` run on seed 7. For each
end-to-end metric it records the per-run values, the median, quartiles and
sample count of each set, their spread (interquartile distance over the
median) and how far the second set's median moved from the first. A metric
is within its bound when every spread and the move are at most the bound
from ``BENCHMARK.json``, and steady when they are at most a third of it. A
metric whose values are the same in both sets (the accuracy ratios, which
are exact for a seed) is stored once. A run's artifact digest must match
between the sets for the same seed. The environment is stored once per
workload, with the load average before and after every run. The script also
checks the acceptance configuration at 20,000 cases, seed 7, against the
model errors known for it, and writes everything to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# seed-7 test-set MAE (minutes, procedure phase) of the acceptance configuration
# at 20,000 cases: the paper's setting, and the train workload at full size
KNOWN_MAE_20K = {"gbm": 31.92, "group-mean": 35.39, "manual": 77.27}
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(bench.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    for line in lines:
        if line.startswith("artifact_sha256 "):
            result["digest"] = line.split()[1]
        elif line.startswith("env "):
            result["env"] = json.loads(line[4:])
    result["exit"] = proc.returncode
    result["wall_s"] = time.perf_counter() - start
    if proc.returncode != 0:
        result["stderr"] = proc.stderr[-2000:]
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} "
          f"correct={result['correct']} wall={result['wall_s']:.1f}s", flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = bench.quartiles(values)
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def sanity_check() -> dict:
    wl = dataclasses.replace(bench.WORKLOADS["train_10k"], n_cases=20_000)
    work = bench.WORK / "sanity"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = bench.Run(wl, 7, work)
        run.synth(traced=False)
        run.pipeline(traced=False)
        metrics = json.loads((work / "artifacts" / "metrics.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = {name: round(metrics["procedure"][name]["mae"], 2) for name in KNOWN_MAE_20K}
    return {"expected": KNOWN_MAE_20K, "measured": measured, "ok": measured == KNOWN_MAE_20K}


def self_time_ranking(result: dict) -> list[list]:
    """The largest self times of the traced run: library functions and the CLI's own work."""
    names = set(bench.SELF_TIMES) | {f"cli.{stage}.self_s" for stage in bench.CLI_STAGES}
    times = [[k, v["value"]] for k, v in result["metrics"].items() if k in names]
    return sorted(times, key=lambda kv: -kv[1])[:8]


def metric_entry(values: list[list[float]], unit: str, bound: float) -> dict:
    """Per-set summaries of one end-to-end metric, judged against its bound."""
    per_set = [summary(v) for v in values]
    shift = per_set[-1]["median"] / per_set[0]["median"] - 1 if per_set[0]["median"] else 0.0
    worst = max([s["spread"] for s in per_set] + [shift])
    same = all(v == values[0] for v in values)
    return {
        "unit": unit,
        "bound": bound,
        "sets": per_set[:1] if same else per_set,
        "values": values[:1] if same else values,
        "second_vs_first": shift,
        "within_bound": worst <= bound,
        "steady": worst <= bound / 3,
    }


def environment(runs: list[dict]) -> dict:
    """The environment shared by the runs, and each run's load average before and after."""
    envs = [r.get("env") or {} for r in runs]
    shared = {k: v for k, v in envs[0].items() if not k.startswith("loadavg") and all(e.get(k) == v for e in envs)}
    shared["loadavg"] = [[e.get("loadavg_before"), e.get("loadavg_after")] for e in envs]
    return shared


def dumps(data: dict) -> str:
    """Indented JSON with every list of plain values on one line."""
    text = json.dumps(data, indent=1, sort_keys=True)
    return re.sub(
        r"\[\n([^\[\]{}]*)\n\s*\]",
        lambda m: "[" + ", ".join(item.strip() for item in m.group(1).split(",\n")) + "]",
        text,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(bench.BENCH / "baseline.json"))
    args = parser.parse_args()

    out: dict = {"run_seconds": BENCHMARK["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    out["sanity_20k_seed7"] = sanity_check()
    print("sanity:", out["sanity_20k_seed7"], flush=True)
    for workload in bench.WORKLOADS:
        sets = [[run_once(workload, seed, 0) for seed in SEEDS] for _ in range(SETS)]
        entry: dict = {"failed_share": [], "metrics": {}}
        for runs in sets:
            attempted = sum(r.get("attempted", 0) for r in runs)
            entry["failed_share"].append(sum(r.get("failed", 0) for r in runs) / max(attempted, 1))
        entry["digests_match"] = all(
            a.get("digest") is not None and a.get("digest") == b.get("digest") for a, b in zip(*sets)
        )
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in runs if r["correct"]] for runs in sets]
            entry["metrics"][name] = metric_entry(values, metric["unit"], metric["bound"])
        entry["run_wall_s"] = [summary([r["wall_s"] for r in runs]) for runs in sets]
        entry["env"] = environment([r for runs in sets for r in runs])
        traced = run_once(workload, 7, 1)
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        pipeline = sum(values.get(f"cli.{stage}_s", 0.0) for stage in bench.STAGES) or 1.0
        entry["traced_seed7"] = {
            "correct": traced["correct"],
            "largest_self_times": self_time_ranking(traced),
            # self time as a share of the untraced pipeline time of the same run
            "share_of_pipeline": {
                name: values.get(name, 0.0) / pipeline
                for name in ("clustering.silhouette_s", "models.fit_s.gbm", "cli.ingest.self_s")
            },
            "metrics": values,
        }
        out["workloads"][workload] = entry
        Path(args.out).write_text(dumps(out) + "\n", encoding="utf-8")
        for name, m in entry["metrics"].items():
            print(f"  {name:22s} " + "  ".join(
                f"med={s['median']:.4g} spread={s['spread']:.3f} n={s['n']}" for s in m["sets"]
            ) + f"  shift={m['second_vs_first']:+.3f} bound={m['bound']}"
              f" within={m['within_bound']} steady={m['steady']}", flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
