"""Regenerate the reference figures of `benchmark/README.md`.

    python3 benchmark/figures.py

For each workload it makes ten runs of `benchmark/run.py` (seeds 1..10),
then two traced runs (seeds 1 and 2).  It prints, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median); the per-layer metrics of the first traced run,
with every count compared against the second; and the tracing overhead, the
traced `wall_s` minus the untraced median.  Runs are made one at a time.
Exit code 1 if a run fails or reports failed operations, or a count differs.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("ground", "motion", "circuit")
RUNS = 10


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed operations\n{proc.stdout}")
    return result


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            for name, m in run(workload, seed, 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"## {workload}: {RUNS} runs")
        print("| metric | median | q1 | q3 | spread |")
        print("| --- | --- | --- | --- | --- |")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.2%} |")
        traced = [run(workload, seed, 1)["metrics"] for seed in (1, 2)]
        stored = json.loads((HERE / "results" / f"{workload}-seed1-trace.json").read_text())
        traced_wall = statistics.median(r["metrics"]["wall_s"] for r in stored["rounds"])
        overhead = traced_wall - statistics.median(values["wall_s"])
        print(f"\ntraced wall_s {traced_wall:.4g} s; tracing overhead {overhead:+.3g} s\n")
        print("| layer metric | value | repeats |")
        print("| --- | --- | --- |")
        for name, m in traced[0].items():
            same = m["value"] == traced[1][name]["value"]
            if m["unit"] == "count":
                ok &= same
            repeats = ("yes" if same else "NO") if m["unit"] == "count" else ""
            print(f"| `{name}` | {m['value']:.4g} | {repeats} |")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
