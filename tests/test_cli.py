import json

import pytest

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


def test_evolve_csv(capsys):
    code, out = run_cli(capsys, "evolve", "--L", "2", "--nq", "1", "--moves",
                        "0-1@0", "--horizon", "1", "--dt", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["t", "kinetic", "mass"]
    assert len(lines) == 4  # header + t = 0, 0.5, 1
    totals = [float(l.split(",")[-1]) for l in lines[1:]]
    assert max(totals) - min(totals) < 1e-6


def test_report_sections_exit_codes(capsys):
    code, out = run_cli(capsys, "report", "--sections", "toy,mitigation")
    assert code == 0
    assert "PASS" in out
    # these sections carry numpy floats; they print as plain floats
    assert "np." not in out
    assert "toy_grid_err        PASS  value=0.0 target=0.0 tol=1e-12" in out


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


@pytest.mark.parametrize("config", [{"L": "abc"}, {"nq": "x"},
                                    {"heavy": "a,b"}])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["groundstate", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err
