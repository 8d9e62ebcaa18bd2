"""Write a BENCH_<n>.json record from paired benchmark runs.

Each file RUNDIR/<workload>-<side>-<seed>.log holds the standard output of

    python3 benchmark/run.py --workload <workload> --seed <seed> --seconds 10 --trace 0

run from a checkout of the parent commit (side "parent") or of the change
(side "change"); its last line is run.py's JSON result.  The record holds the
parent commit, the git tree of the change's src/ (after commit, equal to
`git rev-parse <commit>:src`), the machine (with whether
PYTHONDONTWRITEBYTECODE is set in this session, which the runs' children
inherit), and for each workload and
end-to-end metric each side's median and quartiles over the runs and how many
same-seed pairs the change won.  Run it from the change's checkout, with the
change staged:

    python3 tools/bench_record.py BENCH_6.json --runs RUNDIR --parent fff7009 \\
        --tier1 182.9 142.8

With --trace-runs TRACEDIR, whose <workload>-<side>-<seed>.log files hold the
output of the same command with `--trace 1`, each workload also gets a
`layers` block: for every per-layer metric, each side's median over its runs.

With --whole-runs WHOLEDIR, whose <name>-<side>-<pair>.log files end with the
JSON line of `tools/whole_run.py` (one CLI run in a fresh child), the record
gets a `whole_runs` entry per CLI argv: for `wall_s` and `peak_rss_mb`, each
side's median and quartiles and how many pairs the change won, and each
side's count of runs that exited non-zero.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
from importlib import metadata

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
WHOLE_RUN_METRICS = ("wall_s", "peak_rss_mb")
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def _compare(vals: dict) -> dict:
    """Each side's spread of vals[side] (same-seed pairs in order), how many
    pairs the change won, and the change of the median."""
    entry = {s: _spread(vals[s]) for s in SIDES}
    entry["change_better_pairs"] = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
    entry["median_change"] = entry["change"]["median"] / entry["parent"]["median"] - 1.0
    return entry


def _load(rundir: pathlib.Path) -> dict:
    """{workload: {side: {seed: result}}} from the run logs."""
    runs: dict = {}
    for path in sorted(rundir.glob("*.log")):
        workload, side, seed = path.stem.rsplit("-", 2)
        if side not in SIDES:
            raise SystemExit(f"{path}: side must be one of {SIDES}")
        last = path.read_text(encoding="utf-8").strip().splitlines()[-1]
        runs.setdefault(workload, {}).setdefault(side, {})[int(seed)] = json.loads(last)
    return runs


def _show(name: str, metric: str, entry: dict, pairs: int) -> None:
    print(f"{name:8s} {metric:12s} {entry['parent']['median']:10.4g} -> "
          f"{entry['change']['median']:10.4g} ({entry['median_change']:+.1%}, "
          f"better in {entry['change_better_pairs']}/{pairs} pairs)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=pathlib.Path)
    ap.add_argument("--runs", type=pathlib.Path, required=True)
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--tier1", type=float, nargs=2, metavar=("PARENT_S", "CHANGE_S"),
                    help="tier-1 test wall times on the same machine")
    ap.add_argument("--trace-runs", type=pathlib.Path,
                    help="logs of the same runs with --trace 1")
    ap.add_argument("--whole-runs", type=pathlib.Path,
                    help="logs of tools/whole_run.py, paired by side")
    args = ap.parse_args()

    workloads = {}
    for workload, sides in sorted(_load(args.runs).items()):
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        entry = {"seeds": seeds,
                 "attempted": {s: sum(r["attempted"] for r in sides[s].values()) for s in SIDES},
                 "failed": {s: sum(r["failed"] for r in sides[s].values()) for s in SIDES}}
        for metric in METRICS:
            entry[metric] = _compare({
                s: [sides[s][seed]["metrics"][metric]["value"] for seed in seeds]
                for s in SIDES})
            _show(workload, metric, entry[metric], len(seeds))
        workloads[workload] = entry
    traced = _load(args.trace_runs) if args.trace_runs else {}
    for workload, sides in sorted(traced.items()):
        names = sorted({name for runs in sides.values() for r in runs.values()
                        for name in r["metrics"]})
        workloads.setdefault(workload, {})["layers"] = {
            name: {s: statistics.median(r["metrics"][name]["value"]
                                        for r in sides[s].values()) for s in SIDES}
            for name in names}
    whole_runs = {}
    for sides in (_load(args.whole_runs) if args.whole_runs else {}).values():
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        name = " ".join(sides["parent"][pairs[0]]["argv"])
        entry = whole_runs[name] = {
            "pairs": pairs,
            "failed": {s: sum(r["exit"] != 0 for r in sides[s].values()) for s in SIDES}}
        for metric in WHOLE_RUN_METRICS:
            entry[metric] = _compare({s: [sides[s][p][metric] for p in pairs]
                                      for s in SIDES})
            _show(name, metric, entry[metric], len(pairs))

    record = {
        "parent": {"commit": _git("rev-parse", args.parent),
                   "src_tree": _git("rev-parse", f"{args.parent}:src")},
        "change": {"src_tree": _git("write-tree", "--prefix=src/")},
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
                    # the runs' children inherit it; without a bytecode
                    # cache each round compiles the package, which moves
                    # setup_s and peak_rss_mb
                    "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))},
        "command": "python3 benchmark/run.py --workload W --seed N --seconds 10 --trace 0",
        "layers_command": ("python3 benchmark/run.py --workload W --seed N --seconds 10 "
                           "--trace 1" if args.trace_runs else None),
        "workloads": workloads,
        "whole_runs_command": ("python3 tools/whole_run.py [--src SRC] -- ARGV"
                               if args.whole_runs else None),
        "whole_runs": whole_runs if args.whole_runs else None,
        "tier1_wall_s": dict(zip(SIDES, args.tier1)) if args.tier1 else None,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
