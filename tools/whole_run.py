"""Time one su2lgt CLI run in a fresh child process.

    python3 tools/whole_run.py [--src SRC] -- evolve --L 3

runs `python -m su2lgt.cli ARGV` with SRC (default: this checkout's src/) on
PYTHONPATH, one BLAS/OpenMP thread and a fixed hash seed, in this checkout's
root whatever directory it is called from (so relative paths in ARGV are
taken from there, and a relative SRC from the caller's directory).  It
discards the child's standard output, passes on its standard error, and
prints one JSON line: the argv, the exit code, `wall_s` (from starting the
child to its exit), `peak_rss_mb` (the child's maximum resident set size, as
the benchmark reads it) and `pythondontwritebytecode` (whether the child
runs with PYTHONDONTWRITEBYTECODE set, so without a bytecode cache).  It
exits 1 when the child did not exit 0.  The logs of paired runs of both
sides feed `tools/bench_record.py --whole-runs`.

The working directory moved a whole-run peak by about 0.7 MB, and the
path of the checkout alone (SRC's, on PYTHONPATH) still can: a peak
difference under about 1 MB between two checkouts at different paths is
heap layout, not code (notes/decisions.md, "Peak memory of the solve
paths").
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the thread counts and hash seed of benchmark/run.py's children
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                    help="the src/ directory of the checkout to run")
    ap.add_argument("argv", nargs="+", help="the CLI arguments, after --")
    args = ap.parse_args()
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(args.src.resolve()))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "su2lgt.cli", *args.argv], env=env,
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    sys.stderr.write(proc.stderr)
    print(json.dumps({"argv": args.argv, "exit": proc.returncode, "wall_s": wall,
                      "peak_rss_mb": peak,
                      "pythondontwritebytecode": bool(env.get("PYTHONDONTWRITEBYTECODE"))}))
    return 1 if proc.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
