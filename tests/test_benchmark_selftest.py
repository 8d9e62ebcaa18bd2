"""The benchmark's negative controls run against the current package, so an
API change that breaks the benchmark's checkers fails here; and one traced
round of each workload runs, so a change that breaks the tracer does too."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "benchmark/selftest.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def _benchmark_run():
    path = ROOT / "benchmark" / "run.py"
    spec = importlib.util.spec_from_file_location("benchmark_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["ground", "motion", "circuit"])
def test_traced_round_runs(tmp_path, workload):
    # the harness's own child: a fresh process with one BLAS thread
    proc = _benchmark_run().child(
        [workload, "--seed", "1", "--trace", str(tmp_path / "spans.json")],
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert result["layers"]
