"""tools/bench_record.py turns paired run logs into a BENCH_* record; here it
runs on synthetic logs in a throwaway git repository, and nothing is timed."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")

# (workload, side, seed) -> the value of every metric; the change wins the
# pairs of seeds 1 and 2 on `ground` and none on `circuit`
_VALUES = {
    ("ground", "parent", 1): 2.0, ("ground", "parent", 2): 3.0,
    ("ground", "parent", 3): 4.0,
    ("ground", "change", 1): 1.0, ("ground", "change", 2): 2.5,
    ("ground", "change", 3): 5.0,
    ("circuit", "parent", 1): 1.0, ("circuit", "parent", 2): 1.0,
    ("circuit", "change", 1): 1.0, ("circuit", "change", 2): 1.5,
}


# traced runs: (workload, side, seed) -> the values of LAYER_NAMES
LAYER_NAMES = ("circuits.synthesis_s", "circuits.gates")
_LAYERS = {
    ("circuit", "parent", 1): (0.30, 1730), ("circuit", "parent", 2): (0.20, 1730),
    ("circuit", "parent", 3): (0.40, 1730),
    ("circuit", "change", 1): (0.10, 1730), ("circuit", "change", 2): (0.12, 1730),
}


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
        check=True, capture_output=True, text=True).stdout.strip()


def test_record_from_synthetic_logs(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "module.py").write_text("x = 1\n", encoding="utf-8")
    _git(repo, "init", "-q")
    _git(repo, "add", "src")
    _git(repo, "commit", "-q", "-m", "parent")
    runs = tmp_path / "runs"
    runs.mkdir()
    for (workload, side, seed), v in _VALUES.items():
        result = {"attempted": 4, "failed": int(side == "change"),
                  "metrics": {m: {"value": v} for m in METRICS}}
        (runs / f"{workload}-{side}-{seed}.log").write_text(
            "warm-up chatter\n" + json.dumps(result) + "\n", encoding="utf-8")

    traced = tmp_path / "traced"
    traced.mkdir()
    for (workload, side, seed), values in _LAYERS.items():
        result = {"attempted": 4, "failed": 0,
                  "metrics": {name: {"value": v, "unit": "s"}
                              for name, v in zip(LAYER_NAMES, values)}}
        (traced / f"{workload}-{side}-{seed}.log").write_text(
            "circuits.synthesis_s  0.1 s\n" + json.dumps(result) + "\n",
            encoding="utf-8")

    out = tmp_path / "BENCH_0.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), str(out),
         "--runs", str(runs), "--parent", "HEAD", "--tier1", "30.5", "29.0",
         "--trace-runs", str(traced)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))

    assert record["parent"] == {"commit": _git(repo, "rev-parse", "HEAD"),
                                "src_tree": _git(repo, "rev-parse", "HEAD:src")}
    assert record["change"]["src_tree"] == record["parent"]["src_tree"]
    assert record["tier1_wall_s"] == {"parent": 30.5, "change": 29.0}
    assert sorted(record["workloads"]) == ["circuit", "ground"]
    ground, circuit = record["workloads"]["ground"], record["workloads"]["circuit"]
    assert ground["seeds"] == [1, 2, 3] and circuit["seeds"] == [1, 2]
    assert ground["attempted"] == {"parent": 12, "change": 12}
    assert ground["failed"] == {"parent": 0, "change": 3}
    for metric in METRICS:
        entry = ground[metric]
        assert entry["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5,
                                   "runs": [2.0, 3.0, 4.0]}
        assert entry["change"]["runs"] == [1.0, 2.5, 5.0]
        assert entry["change"]["median"] == 2.5
        assert entry["change_better_pairs"] == 2
        assert entry["median_change"] == 2.5 / 3.0 - 1.0
        assert circuit[metric]["change_better_pairs"] == 0
        assert circuit[metric]["change"]["median"] == 1.25
    # each side's median over its own traced runs; a workload without traced
    # runs has no block
    assert circuit["layers"] == {
        "circuits.gates": {"parent": 1730, "change": 1730},
        "circuits.synthesis_s": {"parent": 0.30, "change": 0.11}}
    assert "layers" not in ground
    assert record["layers_command"].endswith("--trace 1")
