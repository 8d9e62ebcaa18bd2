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


# whole CLI runs: (log name, side, pair) -> (exit code, wall_s, peak_rss_mb)
WHOLE_ARGV = {"evolve_L3": ["evolve", "--L", "3"],
              "report_motion": ["report", "--sections", "motion"]}
_WHOLE = {
    ("evolve_L3", "parent", 1): (0, 1.0, 100.0), ("evolve_L3", "change", 1): (0, 0.9, 80.0),
    ("evolve_L3", "parent", 2): (0, 1.2, 100.5), ("evolve_L3", "change", 2): (0, 1.3, 80.5),
    ("evolve_L3", "parent", 3): (0, 1.1, 99.0), ("evolve_L3", "change", 3): (0, 1.0, 79.0),
    ("report_motion", "parent", 1): (0, 2.0, 150.0),
    ("report_motion", "change", 1): (1, 2.0, 120.0),
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

    whole = tmp_path / "whole"
    whole.mkdir()
    for (name, side, pair), (code, wall, peak) in _WHOLE.items():
        result = {"argv": WHOLE_ARGV[name], "exit": code, "wall_s": wall,
                  "peak_rss_mb": peak}
        (whole / f"{name}-{side}-{pair}.log").write_text(
            "error: child chatter\n" + json.dumps(result) + "\n", encoding="utf-8")

    out = tmp_path / "BENCH_0.json"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GIT_") and k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), str(out),
         "--runs", str(runs), "--parent", "HEAD", "--tier1", "30.5", "29.0",
         "--trace-runs", str(traced), "--whole-runs", str(whole)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))

    assert record["parent"] == {"commit": _git(repo, "rev-parse", "HEAD"),
                                "src_tree": _git(repo, "rev-parse", "HEAD:src")}
    assert record["change"]["src_tree"] == record["parent"]["src_tree"]
    assert record["tier1_wall_s"] == {"parent": 30.5, "change": 29.0}
    # the session, which the runs' children inherit, kept a bytecode cache
    assert record["machine"]["pythondontwritebytecode"] is False
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
    # each CLI argv is one entry: each side's spread of its runs, paired by
    # pair number, and the runs that exited non-zero
    runs = record["whole_runs"]
    assert sorted(runs) == ["evolve --L 3", "report --sections motion"]
    evolve, report = runs["evolve --L 3"], runs["report --sections motion"]
    assert evolve["pairs"] == [1, 2, 3] and report["pairs"] == [1]
    assert evolve["failed"] == {"parent": 0, "change": 0}
    assert report["failed"] == {"parent": 0, "change": 1}
    assert evolve["wall_s"]["parent"] == {"median": 1.1, "q1": 1.05, "q3": 1.15,
                                          "runs": [1.0, 1.2, 1.1]}
    assert evolve["wall_s"]["change"]["median"] == 1.0
    assert evolve["wall_s"]["change_better_pairs"] == 2
    assert evolve["peak_rss_mb"]["change"]["median"] == 80.0
    assert evolve["peak_rss_mb"]["change_better_pairs"] == 3
    assert evolve["peak_rss_mb"]["median_change"] == 80.0 / 100.0 - 1.0
    assert report["peak_rss_mb"]["change_better_pairs"] == 1
    assert report["wall_s"]["change_better_pairs"] == 0
    assert record["whole_runs_command"].startswith("python3 tools/whole_run.py")


def test_whole_run_records_the_bytecode_setting():
    # one CLI run in a child without a bytecode cache: the JSON line says so
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "whole_run.py"), "--", "hamiltonian",
         "--L", "1"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["argv"] == ["hamiltonian", "--L", "1"] and line["exit"] == 0
    assert line["pythondontwritebytecode"] is True


def test_whole_run_starts_its_child_in_the_checkout_root(tmp_path, monkeypatch):
    # the child's working directory is the same from wherever the tool is
    # called, so it does not move the child's heap layout
    import importlib.util

    spec = importlib.util.spec_from_file_location("whole_run", ROOT / "tools" / "whole_run.py")
    whole_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(whole_run)
    started = []

    def run(argv, **kwargs):
        started.append(kwargs["cwd"])
        return subprocess.CompletedProcess(argv, 0, stderr="")

    monkeypatch.setattr(whole_run.subprocess, "run", run)
    for where in (tmp_path, ROOT / "tests"):
        monkeypatch.chdir(where)
        monkeypatch.setattr(sys, "argv", ["whole_run.py", "--", "hamiltonian", "--L", "1"])
        assert whole_run.main() == 0
    assert started == [ROOT, ROOT]
