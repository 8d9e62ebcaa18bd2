"""Benchmark command: one workload, measured in fresh child processes.

    python3 benchmark/run.py --workload {ground,motion,circuit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  It first makes an untimed warm-up import,
so every measured child finds the same bytecode cache, then runs whole
rounds of the workload (`benchmark/workload.py`), each in a fresh child with
one BLAS thread, until the rounds have taken at least S seconds.  A run is
capped at RUN_LIMIT_S (170 s) in all: no round starts that the last one
says would not fit, and when the cap ends a run before S seconds were
measured, a warning on standard error says so.  It prints
each metric by name and unit, and as its last line one JSON object with
`correct`, `attempted`, `failed` and the medians over the rounds: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
Round records and spans go to `benchmark/results/`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("ground", "motion", "circuit")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# A run ends within this many seconds: no round starts that would not fit.
RUN_LIMIT_S = 170.0
# Fixed BLAS/OpenMP thread count, and a fixed hash seed so that counts repeat.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 1


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "su2lgt" / "__init__.py").is_file():
        return fail(f"no su2lgt package under {ROOT / 'src'}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")

    try:
        warm = child(["--warm-up"], timeout=RUN_LIMIT_S)
        if warm.returncode != 0:
            return fail(f"warm-up import failed:\n{warm.stderr}")
        rounds = []
        while True:
            remaining = RUN_LIMIT_S - (time.monotonic() - started)
            cmd = [args.workload, "--seed", str(args.seed)]
            if args.trace:
                cmd += ["--trace", str(RESULTS / f"{stem}-{len(rounds)}.spans.json")]
            t = time.monotonic()
            proc = child(cmd, timeout=remaining)
            took = time.monotonic() - t
            if proc.returncode != 0:
                return fail(f"round {len(rounds)} exited with {proc.returncode}:\n"
                            f"{proc.stderr}")
            rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            measured = sum(r["metrics"]["wall_s"] for r in rounds)
            if measured >= args.seconds or time.monotonic() - started + took > RUN_LIMIT_S:
                break
    except subprocess.TimeoutExpired:
        return fail(f"a child ran past the {RUN_LIMIT_S:.0f} s limit of a run")

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    source = "layers" if args.trace else "metrics"
    names = list(rounds[0][source])
    metrics = {}
    for name in names:
        value = statistics.median(r[source][name] for r in rounds)
        unit = END_TO_END.get(name) or ("s" if name.endswith("_s") else "count")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:.6g} {unit}")
    for r in rounds:
        for op, why in r["failures"].items():
            print(f"FAILED {op}: {why}")
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "rounds": rounds}, fh, indent=1)
    if measured < args.seconds:
        print(f"benchmark: warning: the {RUN_LIMIT_S:.0f} s cap of a run ended it "
              f"after {len(rounds)} round(s), {measured:.1f} s of the "
              f"{args.seconds:g} s asked for", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
