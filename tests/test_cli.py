import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lgt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_groundstate_json(capsys):
    code, out = run_cli(capsys, "groundstate", "--L", "1", "--nq", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == pytest.approx(-0.6578, abs=5e-4)
    assert payload["components"]["kinetic"] == pytest.approx(-0.9474,
                                                             abs=5e-4)


def test_groundstate_hadron_mass(capsys):
    code, out = run_cli(capsys, "groundstate", "--L", "1", "--nq", "1",
                        "--hadron-mass")
    assert code == 0
    payload = json.loads(out)
    assert payload["hadron_mass"] == pytest.approx(0.4685, abs=1e-3)


def test_bad_flag_returns_config_error(capsys):
    code = main(["groundstate", "--no-such-flag"])
    capsys.readouterr()
    assert code == 1


def test_bad_heavy_position_returns_config_error(capsys):
    code = main(["groundstate", "--L", "1", "--heavy", "7"])
    capsys.readouterr()
    assert code == 1
    # a repeated position is rejected, not merged into one heavy quark
    code = main(["groundstate", "--L", "2", "--heavy", "0,0"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "position 0" in err and "Traceback" not in err


def test_empty_heavy_places_no_heavy_quark(tmp_path, capsys):
    # --heavy "" and {"heavy": ""} both mean no heavy quark, as --nq 0 does
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"heavy": ""}))
    runs = [run_cli(capsys, "groundstate", "--L", "1", *argv)
            for argv in (["--heavy", ""], ["--config", str(path)], ["--nq", "0"])]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == 0 and json.loads(runs[0][1])["heavy"] == []


@pytest.mark.parametrize("heavy", [",", "1,", ",1", "0,,1"])
def test_empty_heavy_token_is_rejected(capsys, heavy):
    code = main(["groundstate", "--L", "2", "--heavy", heavy])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --heavy")
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, named", [
    (["groundstate", "--L", "2", "--g", "inf"], "g must be finite"),
    (["groundstate", "--L", "2", "--g", "nan"], "g must be finite"),
    (["hamiltonian", "--L", "1", "--mq", "nan"], "mq must be finite"),
    (["hamiltonian", "--L", "1", "--mQ=-inf"], "mQ must be finite"),
    (["hamiltonian", "--L", "1", "--lambda2", "nan"], "lambda2 must be finite"),
])
def test_non_finite_coupling_is_config_error(capsys, argv, named):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert named in err and "Traceback" not in err
    assert out == ""


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 1, "nq": 1}))
    _, from_cfg = run_cli(capsys, "groundstate", "--config", str(cfg))
    assert json.loads(from_cfg)["L"] == 1
    # explicit flags win over the config file
    _, overridden = run_cli(capsys, "groundstate", "--config", str(cfg),
                            "--nq", "0")
    assert json.loads(overridden)["n_Q"] == 0


def test_hamiltonian_term_counts(capsys):
    code, out = run_cli(capsys, "hamiltonian", "--L", "1", "--nq", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_qubits"] == 6
    assert all(p["n_terms"] > 0 for p in payload["pieces"].values())


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main(["groundstate", "--L", "1", "--nq", "0", "--out",
                     str(path)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_prepare_reports_reference_sequence(capsys):
    code, out = run_cli(capsys, "prepare", "--L", "2", "--nq", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence"][0] == "O_M0^(0)"
    assert payload["infidelity_density"] == pytest.approx(0.003619, abs=1e-3)


def test_circuit_resources_json(capsys):
    code, out = run_cli(capsys, "circuit", "--L", "3", "--nq", "1",
                        "--template", "fswap", "--x-from", "0", "--x-to", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["two_qubit_depth"] <= 22
    assert payload["n_qubits"] == 18


def test_circuit_emit_roundtrip(tmp_path, capsys):
    from su2lgt.circuits import parse_text

    path = tmp_path / "c.qasm"
    code = main(["circuit", "--L", "2", "--nq", "1", "--template", "scprep",
                 "--emit", str(path)])
    capsys.readouterr()
    assert code == 0
    circ = parse_text(path.read_text())
    assert circ.n_qubits == 12


def test_observables_estimator(capsys):
    code, out = run_cli(capsys, "observables", "--L", "3", "--nq", "1",
                        "--what", "estimator")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == pytest.approx(-0.5058, abs=5e-4)
    assert payload["total_after_move"] == pytest.approx(0.0, abs=1e-10)


# sha256 of the stdout of `observables --what estimator --nq 1` at each L, with
# one BLAS thread: the JSON holds full-precision floats, summed over the
# state's support
_ESTIMATOR_SHA256 = {
    "2": "d4bade205edd00df8bd61e64e037e735c8d0d102c2346a3cecc5b35c25c34443",
    "3": "a26daa472aa51134100ad97c5985c93edef2fde3ca0f00521ff2908803aad64f",
}


@pytest.mark.parametrize("L", list(_ESTIMATOR_SHA256))
def test_estimator_output_is_pinned(L):
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from su2lgt.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "observables", "--what", "estimator",
         "--L", L, "--nq", "1"], capture_output=True, env=env)
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == _ESTIMATOR_SHA256[L]


def test_output_does_not_depend_on_the_blas_thread_count():
    # the package fixes one BLAS thread before numpy loads, whatever the
    # environment asks for; each child runs the argvs in turn
    import subprocess
    import sys

    argvs = [["groundstate", "--L", "3"], ["prepare", "--L", "3"],
             ["observables", "--what", "entanglement", "--L", "3"],
             ["observables", "--what", "estimator", "--L", "3", "--nq", "1"],
             ["evolve", "--L", "3", "--horizon", "2"]]
    code = ("from su2lgt.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0\n    print('--', flush=True)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = []
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items() if k not in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if threads is not None:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             env=env, check=True)
        assert run.stdout.count(b"--\n") == len(argvs)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_evolve_csv(capsys):
    code, out = run_cli(capsys, "evolve", "--L", "2", "--nq", "1", "--moves",
                        "0-1@0", "--horizon", "1", "--dt", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["t", "kinetic", "mass"]
    assert len(lines) == 4  # header + t = 0, 0.5, 1
    totals = [float(l.split(",")[-1]) for l in lines[1:]]
    assert max(totals) - min(totals) < 1e-6


# sha256 of the stdout of `evolve --L 2 --csv-z` with each evolver and order
_EVOLVE_SHA256 = {
    ("exact", "2"): "9ac30c99fc0ad80f5ffc42344842e10dc909dd9752703ad1c56484029fb4fa8f",
    ("trotter", "1"): "00254266474df7b52354fe0add556efbec833788f0d5702630d885ef1d3760f2",
    ("trotter", "2"): "331e62976970bcf8f363995e69fff2d55fb7e93ab41a036fb377f0f29f1bacfe",
}


@pytest.mark.parametrize("evolver, order", list(_EVOLVE_SHA256))
def test_evolve_output_is_pinned(capsys, evolver, order):
    code, out = run_cli(capsys, "evolve", "--L", "2", "--csv-z",
                        "--evolver", evolver, "--order", order)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EVOLVE_SHA256[
        (evolver, order)]


def test_report_sections_exit_codes(capsys):
    code, out = run_cli(capsys, "report", "--sections", "toy,mitigation")
    assert code == 0
    assert "PASS" in out
    # these sections carry numpy floats; they print as plain floats
    assert "np." not in out
    assert "toy_grid_err        PASS  value=0.0 target=0.0 tol=1e-12" in out
    # a section list with no section in it is a configuration error
    code = main(["report", "--sections", ","])
    captured = capsys.readouterr()
    assert code == 1
    assert "--sections" in captured.err and captured.out == ""


def test_evolve_rejects_horizon_off_the_time_grid(capsys):
    code = main(["evolve", "--L", "2", "--nq", "1", "--moves", "0-1@9.5",
                 "--horizon", "10", "--dt", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "whole number" in err


def test_report_out_writes_json(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = main(["report", "--sections", "toy,mitigation", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.out + captured.err
    payload = json.loads(path.read_text())
    assert payload and all(row["passed"] is True for row in payload)


def test_observables_magic_sampled_is_deterministic(tmp_path, capsys):
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = main(["observables", "--what", "magic", "--L", "2", "--nq", "0",
                     "--samples", "50", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    assert lines[0] == "stage,m2_exact,m2_sampled,m2_err"
    assert len(lines) > 1


_WRONG_TYPES = [  # (command and flags, config, the option the error names)
    (["groundstate"], {"L": "abc"}, "--L"),
    (["groundstate"], {"nq": "x"}, "--nq"),
    (["groundstate"], {"heavy": "a,b"}, "--heavy"),
    (["groundstate"], {"L": 2.7}, "--L"),
    # a boolean is not a number
    (["groundstate"], {"L": True}, "--L"),
    (["groundstate", "--L", "1"], {"g": True}, "--g"),
    (["groundstate", "--L", "1"], {"lambda2": False}, "--lambda2"),
    (["evolve", "--L", "1"], {"horizon": True}, "--horizon"),
    (["circuit", "--L", "1", "--template", "trotter"], {"steps": True},
     "--steps"),
    (["report", "--sections", "toy"], {"seed": True}, "--seed"),
    # a path is a string
    (["groundstate", "--L", "1"], {"out": True}, "--out"),
    (["circuit", "--L", "1", "--template", "scprep"], {"emit": 7}, "--emit"),
    (["circuit", "--L", "1", "--template", "scprep"], {"report": [1]},
     "--report"),
    (["circuit", "--L", "1", "--template", "scprep"], {"csv_perqubit": 1.5},
     "--csv-perqubit"),
    (["dedx", "--L", "2"], {"timeseries": False}, "--timeseries"),
    (["prepare", "--L", "1"], {"csv_z": True}, "--csv-z"),
    # --sections is a comma-separated string
    (["report"], {"sections": 5}, "--sections"),
    (["report"], {"sections": ["toy"]}, "--sections"),
    # a flag is a JSON boolean
    (["prepare", "--L", "1"], {"optimize": "false"}, "--optimize"),
    (["observables", "--L", "1", "--what", "magic"], {"optimize": 0}, "--optimize"),
    (["groundstate", "--L", "1"], {"hadron_mass": "no"}, "--hadron-mass"),
    (["hamiltonian", "--L", "1"], {"symmetric_gauge": 1}, "--symmetric-gauge"),
    (["hamiltonian", "--L", "1"], {"terms": "yes"}, "--terms"),
    (["evolve", "--L", "1", "--horizon", "0"], {"csv_z": "true"}, "--csv-z"),
    # an infinite number is no integer
    (["groundstate"], {"L": math.inf}, "--L"),
    (["groundstate"], {"nq": -math.inf}, "--nq"),
    (["circuit", "--L", "1", "--template", "trotter"], {"steps": -math.inf},
     "--steps"),
    (["circuit", "--L", "1", "--template", "meson"], {"x": math.inf}, "--x"),
    # --heavy is a string; no other value falls back to --nq
    (["groundstate", "--L", "1"], {"heavy": False}, "--heavy"),
    (["groundstate", "--L", "1"], {"heavy": []}, "--heavy"),
]


@pytest.mark.parametrize("argv, config, named", _WRONG_TYPES,
                         ids=[f"config{i}" for i in range(len(_WRONG_TYPES))])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, argv,
                                                    config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(argv + ["--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and named in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    # the message itself names the option, not only the usage after it
    assert named in captured.err.splitlines()[0]


@pytest.mark.parametrize("command, options", [
    ("groundstate", {"L": 1, "nq": 0}),  # int
    ("groundstate", {"L": 1, "g": 0.7}),  # float
    ("evolve", {"L": 1, "horizon": 1, "evolver": "trotter"}),  # choice
    ("evolve", {"L": 1, "horizon": 0, "csv_z": True}),  # flag
    ("groundstate", {"L": 2, "heavy": "1"}),  # --heavy
    ("groundstate", {"L": 1, "out": "ground.json"}),  # a path
])
def test_config_value_acts_as_its_flag(tmp_path, capsys, command, options):
    outputs = []
    for source in ("flag", "config"):
        where = tmp_path / source
        where.mkdir()
        given = {key: str(where / val) if key == "out" else val
                 for key, val in options.items()}
        if source == "flag":
            argv = [f"--{key.replace('_', '-')}" + ("" if val is True else f"={val}")
                    for key, val in given.items()]
        else:
            (where / "cfg.json").write_text(json.dumps(given))
            argv = ["--config", str(where / "cfg.json")]
        code, out = run_cli(capsys, command, *argv)
        assert code == 0
        if "out" in options:
            out += (where / options["out"]).read_text()
        outputs.append(out)
    assert outputs[0] == outputs[1] != ""


def test_sector_too_large_for_the_dense_solve_is_numerical_failure(
        monkeypatch, capsys):
    import su2lgt.spectra

    monkeypatch.setattr(su2lgt.spectra, "MAX_DENSE_STATES", 10)
    code = main(["groundstate", "--L", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("numerical failure: the sector holds ")
    assert "at most 10\n" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_evolve_csv_z_in_a_config_is_a_flag(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"csv_z": True}))
    code, out = run_cli(capsys, "evolve", "--L", "1", "--nq", "0",
                        "--horizon", "0", "--config", str(path))
    assert code == 0
    assert out.splitlines()[0].endswith(",z5")


@pytest.mark.parametrize("argv", [
    ["dedx", "--L", "2"],
    ["dedx", "--L", "2", "--evolver", "trotter"],
    ["evolve", "--L", "2", "--nq", "1", "--moves", "1-2@0", "--horizon", "1",
     "--dt", "0.5"],
    ["evolve", "--L", "1", "--nq", "1", "--moves", "0-1@0", "--horizon", "1",
     "--dt", "0.5"],
    ["observables", "--what", "estimator", "--L", "1", "--nq", "0"],
])
def test_move_outside_the_lattice_is_rejected(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "leaves the lattice" in err
    assert "Traceback" not in err


def test_zero_horizon_prints_one_record(capsys):
    code, out = run_cli(capsys, "evolve", "--L", "1", "--nq", "1",
                        "--horizon", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.0,")


@pytest.mark.parametrize("argv,named", [
    (["--dt", "inf"], "dt"),
    (["--horizon", "inf"], "horizon"),
    (["--moves", "0-1@nan", "--horizon", "1"], "event time"),
])
def test_non_finite_schedule_is_numerical_failure(capsys, argv, named):
    code = main(["evolve", "--L", "2", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{named} must be finite" in err and "Traceback" not in err


def test_two_heavy_quarks_need_two_sites(capsys):
    code = main(["groundstate", "--L", "1", "--nq", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "L >= 2" in captured.err and captured.out == ""


def test_zero_dt_is_rejected(capsys):
    code = main(["evolve", "--L", "1", "--nq", "1", "--horizon", "1",
                 "--dt", "0"])
    assert code == 2
    assert "dt > 0" in capsys.readouterr().err


def test_record_count_beyond_the_limit_is_rejected_at_once(capsys):
    import time

    for argv, asked in [
            (["--dt", "1e-09", "--horizon", "10"], "10000000000 records"),
            # horizon / dt overflows to infinity
            (["--dt", "1e-320"], "over 1e308 records"),
            (["--horizon", "1e300", "--dt", "1e-300"], "over 1e308 records")]:
        start = time.perf_counter()
        code = main(["evolve", *argv])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2, argv
        assert asked in err
        assert "at most 100000 are allowed" in err
        assert "infinity" not in err
        assert elapsed < 1.0


@pytest.mark.parametrize("argv,named", [
    (["--template", "meson", "--d", "3"], "d = 3"),
    (["--template", "meson", "--x", "-1"], "x = -1"),
    (["--template", "meson", "--d", "1", "--x", "2"], "x = 2"),
    (["--template", "baryon", "--d", "2"], "d = 2"),
    (["--template", "baryon", "--x", "3"], "x = 3"),
    (["--template", "pipeline", "--L", "2"], "L = 3, not L = 2"),
])
def test_template_input_errors_name_the_value(capsys, argv, named):
    code = main(["circuit", *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert named in err
    assert "outside register" not in err


@pytest.mark.parametrize("template,key,value", [
    ("trotter", "t", math.inf),
    ("pipeline", "t", -math.inf),
    ("meson", "theta", math.inf),
    ("baryon", "theta", -math.inf),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_infinite_circuit_angle_is_config_error(tmp_path, capsys, template, key,
                                                value, source):
    code = main(["circuit", "--L", "2", "--nq", "1", "--template", template,
                 *_given(source, {key: value}, tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"--{key} must be finite" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_trotter_circuit_at_zero_time_is_the_identity(tmp_path, capsys):
    from su2lgt.circuits import parse_text
    from su2lgt.pauli import StateVector

    from conftest import random_state

    path = tmp_path / "c.qasm"
    code = main(["circuit", "--L", "1", "--nq", "1", "--template", "trotter",
                 "--t", "0", "--emit", str(path)])
    capsys.readouterr()
    assert code == 0
    circ = parse_text(path.read_text())
    v = random_state(circ.n_qubits, np.random.default_rng(4))
    assert np.max(np.abs(circ.apply(StateVector(v)).amps - v)) < 1e-12


def test_fswap_circuit_takes_site_zero_as_destination(capsys):
    code, out = run_cli(capsys, "circuit", "--L", "2", "--nq", "1",
                        "--template", "fswap", "--x-from", "1", "--x-to", "0")
    assert code == 0
    assert json.loads(out)["n_qubits"] == 12


def _given(source, options, tmp_path):
    """argv that sets the options as flags, or through a --config file."""
    if source == "flag":
        return [f"--{key.replace('_', '-')}={val}" for key, val in options.items()]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(options))
    return ["--config", str(path)]


@pytest.mark.parametrize("options", [
    {"evolver": "trotter", "order": 3},
    {"order": 0},
    {"evolver": "rk4"},
    {"horizon": "soon"},
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_invalid_evolve_option_is_config_error(tmp_path, capsys, options, source):
    argv = ["evolve", "--L", "1", "--nq", "1"]
    code = main(argv + _given(source, {"horizon": 1, "dt": 0.5, **options}, tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("options", [
    {"template": "trotter", "steps": 0},
    {"template": "trotter", "steps": -2},
    {"template": "trotter", "order": 3},
    {"template": "fswap", "x_from": 0, "x_to": 2},
    {"template": "fswap", "x_from": 1, "x_to": 1},
    {"template": "meson", "d": -1},
    {"template": "trotter", "steps": 1001},
    {"template": "pipeline", "L": 3, "steps": 1001},
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_invalid_circuit_option_is_config_error(tmp_path, capsys, options, source):
    argv = ["circuit", "--nq", "1"]
    code = main(argv + _given(source, {"L": 2, **options}, tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_fractional_integer_option_in_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 1.5}))
    code = main(["circuit", "--L", "1", "--template", "trotter", "--config",
                 str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "--steps" in err


@pytest.mark.parametrize("argv,named", [
    (["observables", "--what", "entanglement", "--L", "2", "--nq", "0"], "heavy quark"),
    (["observables", "--what", "entanglement", "--L", "2", "--nq", "2"], "heavy quark"),
    (["observables", "--what", "magic", "--L", "2", "--nq", "1", "--samples", "-5"],
     "--samples"),
])
def test_observables_input_errors_are_config_errors(capsys, argv, named):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert named in err and "Traceback" not in err


def test_negative_seed_for_the_report_magic_section_is_config_error(capsys):
    code = main(["report", "--sections", "components,magic", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--seed" in captured.err and captured.out == ""
    # a section that draws no random numbers still takes any seed
    code, out = run_cli(capsys, "report", "--sections", "components", "--seed", "-1")
    assert code == 0 and "0 failures" in out


def test_negative_seed_for_the_optimizer_is_config_error(capsys):
    code = main(["prepare", "--L", "1", "--optimize", "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "--seed" in err and "Traceback" not in err


def test_evolve_exits_2_when_energy_is_not_conserved(monkeypatch, capsys):
    from su2lgt import dynamics

    exact = dynamics._lanczos_step

    def drifting(hs, w, tau):
        out, step = exact(hs, w, tau)
        return out + 1e-4 * w[::-1], step

    monkeypatch.setattr(dynamics, "_lanczos_step", drifting)
    code = main(["evolve", "--L", "2", "--nq", "1", "--moves", "0-1@0",
                 "--horizon", "1", "--dt", "0.5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical failure" in err


# -- the CLI contract over drawn argv ------------------------------------------

_SITES = st.sampled_from(["-1", "0", "1", "2", "3"])
_TIMES = st.sampled_from(["-1", "0", "0.5", "1", "1.5", "2", "inf"])
_LATTICE = st.fixed_dictionaries({
    "L": st.sampled_from(["1", "2", "0", "-1"])}, optional={
    "nq": st.sampled_from(["0", "1", "2", "-1"]),
    "heavy": st.sampled_from(["0", "1", "0,1", "-1"]),
    "g": st.sampled_from(["0.5", "0", "nan", "inf"]),
    "mq": st.sampled_from(["0", "-0.5"]),
})
_COMMANDS = {
    "groundstate": st.fixed_dictionaries({}, optional={
        "hadron-mass": st.just(None)}),
    "evolve": st.fixed_dictionaries({"horizon": _TIMES}, optional={
        "moves": st.lists(st.builds("{}-{}@{}".format, _SITES, _SITES, _TIMES),
                          max_size=2).map(",".join),
        "dt": st.sampled_from(["-0.5", "0", "0.3", "0.5", "1", "inf"]),
        "evolver": st.sampled_from(["exact", "trotter"]),
        "order": st.sampled_from(["-1", "0", "1", "2", "3"]),
        "csv-z": st.just(None)}),
    "dedx": st.fixed_dictionaries({"horizon": _TIMES}, optional={
        "schedule": st.sampled_from(["vacuum", "medium", "vac-med-default"]),
        "dt": st.sampled_from(["-0.5", "0", "0.5", "1", "inf"]),
        "evolver": st.sampled_from(["exact", "trotter"])}),
    "prepare": st.fixed_dictionaries({}, optional={
        "optimize": st.just(None), "seed": st.sampled_from(["-1", "0", "3"])}),
    "circuit": st.one_of(
        st.fixed_dictionaries({"template": st.just("fswap")}, optional={
            "x-from": _SITES, "x-to": _SITES}),
        st.fixed_dictionaries({"template": st.just("trotter")}, optional={
            "t": _TIMES, "order": st.sampled_from(["-1", "0", "1", "2", "3"]),
            "steps": st.sampled_from(["-1", "0", "1", "2"])}),
        st.fixed_dictionaries({"template": st.sampled_from(["scprep", "pipeline"])}),
        st.fixed_dictionaries({"template": st.sampled_from(["meson", "baryon"])},
                              optional={"d": st.sampled_from(["-1", "0", "1", "2", "3"]),
                                        "x": _SITES,
                                        "theta": st.sampled_from(["-1", "0", "0.3"])}),
        st.fixed_dictionaries({"template": st.just("measure")}, optional={
            "group": st.sampled_from(["diagonal", "hop_01_23", "hop_01_45",
                                      "hop_07_89", "nope"])})),
    "observables": st.fixed_dictionaries({
        "what": st.sampled_from(["estimator", "entanglement", "tangles", "magic"])},
        optional={"seed": st.sampled_from(["-1", "0", "3"]),
                  "samples": st.sampled_from(["-5", "0", "40"]),
                  "optimize": st.just(None), "horizon": _TIMES,
                  "dt": st.sampled_from(["-0.5", "0", "0.5", "1", "inf"])}),
    # report takes no lattice options; its cheap sections only
    "report": st.fixed_dictionaries({
        "sections": st.lists(st.sampled_from(["toy", "mitigation", "components"]),
                             min_size=1, max_size=3, unique=True).map(",".join)},
        optional={"seed": st.sampled_from(["-1", "0", "3"])}),
}


# the content of a --config file: an object of drawn option values (flags
# take precedence over it) or JSON that is not an object
_CONFIG = st.one_of(
    st.fixed_dictionaries({}, optional={
        "nq": st.sampled_from([0, 1, 2, 1.5, "1"]),
        "optimize": st.booleans(),
        "seed": st.sampled_from([0, 3, -1, 1.5, "x"]),
        "mQ": st.sampled_from([0.0, 0.5, "heavy"]),
        # an int, a float and a string option, each also given values of
        # other JSON types
        "L": st.sampled_from([2, math.inf, -math.inf, math.nan, True, [2]]),
        "dt": st.sampled_from([0.5, math.inf, -math.inf, math.nan, False, [0.5]]),
        "heavy": st.sampled_from(["0", math.inf, -math.inf, math.nan, True,
                                  ["0"]])}),
    st.just([1, 2]))


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    lattice = draw(_LATTICE) if command != "report" else {}
    options = {**lattice, **draw(_COMMANDS[command])}
    argv = [command]
    for key, val in options.items():
        argv.append(f"--{key}" if val is None else f"--{key}={val}")
    return argv, draw(st.one_of(st.none(), _CONFIG))


@settings(max_examples=150, deadline=None)
@given(drawn=_cli_argv())
def test_cli_contract_holds_for_drawn_argv(drawn):
    argv, config = drawn
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = argv + [f"--config={path}"]
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv
            outputs.append(out.getvalue())
    assert outputs[0] == outputs[1], argv
