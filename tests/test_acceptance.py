"""End-to-end acceptance criteria for the reference couplings
(g = 1.0, m_q = 0.1, m_Q = 0, lambda^2 = 20 g^2).

`su2lgt.report` is the one implementation of each paper check.  Each
criterion runs its report section and asserts that every check passes, that
the section's check names are exactly the expected ones, and that each
check's (target, tol, mode) equals the values frozen in this module.  The
reference tables the report reads are frozen here as well and compared
whole, so an edit to `su2lgt.reference` or to `su2lgt.report` alone fails a
test.  A few checks that are stricter than the report's, or cover more
points, run here only; they are marked "test only".

The published intermediate-stage angles and Z rows of criterion 3 agree with
each other only to about 1e-3 in angle, so the report checks those rows with
a bounded angle fit rather than at the printed angles; the analysis is in
notes/decisions.md.
"""
import functools
import math
import time

import numpy as np
import pytest

from su2lgt import reference
from su2lgt.pauli import StateVector
from su2lgt.report import _moved_state, _spec, _z_misfit, fit_z_row, run_report

# ---------------------------------------------------------------------------
# frozen reference tables, in the shape of `su2lgt.reference`
# ---------------------------------------------------------------------------

ENERGIES = {(1, 0): -0.6578, (1, 1): -0.1892, (2, 0): -1.5179,
            (2, 1): -1.162, (3, 0): -2.3994, (3, 1): -2.0806,
            (3, 2): -1.5485}
HADRON_MASSES = {1: 0.4685, 2: 0.3557, 3: 0.3188}
L1_COMPONENTS = {"kinetic": -0.9474, "mass": 0.14553, "gauge": 0.1440}

STAGED = {
    ("L2", 0): {
        "sequence": ["O_M1^(0,1)", ("O_M0^(0)", "O_M0^(1)"),
                     ("O_B0^(0)", "O_B0^(1)"), "O_M1^(0,1)", "O_B1^(0,1)"],
        "angles": [
            [0.1907],
            [0.1291, 0.2967],
            [0.1291, 0.2543, 0.0469],
            [0.2264, 0.2802, 0.0588, -0.1498],
            [0.2316, 0.2790, 0.0637, -0.1691, 0.0289],
        ],
        "infidelity": [0.3479, 0.0202, 0.0133, 0.0020, 0.0007],
        "identity_infidelity": 0.3857,
    },
    ("L2", 1): {
        "sequence": ["O_M0^(0)", "O_M1^(0,1)", "O_M0^(1)", "O_B0^(1)",
                     "O_B1^(0,1)", "O_M0^(0)"],
        "angles": [
            [0.2309],
            [0.2096, 0.2473],
            [0.2231, 0.2152, 0.2563],
            [0.2231, 0.2149, 0.2318, 0.03233],
            [0.2223, 0.2025, 0.2283, 0.03208, 0.02261],
            [0.3862, 0.2358, 0.2282, 0.03233, 0.02613, -0.1837],
        ],
        "infidelity": [0.2965, 0.1855, 0.02256, 0.02048, 0.01959, 0.003619],
        "identity_infidelity": 0.336982,
    },
    ("L3", 1): {
        "sequence": ["O_M0^(0)", "O_M0^(2)", "O_M1^(0,1)", "O_B0^(2)",
                     "O_M0^(1)", "O_B0^(1)", "O_B1^(0,1)", "O_M0^(0)",
                     "O_M1^(1,2)", "O_M2^(1,2)"],
        "stages": [2, 4, 5, 6, 7, 8, 9, 10],
        "angles": [
            [0.2270, 0.2687],
            [0.2024, 0.2363, 0.2644, 0.0328],
            [0.2141, 0.2411, 0.2369, 0.0358, 0.2280],
            [0.2137, 0.2375, 0.2360, 0.0380, 0.2092, 0.0268],
            [0.2165, 0.2386, 0.2203, 0.0386, 0.2072, 0.0261, 0.0247],
            [0.3706, 0.2401, 0.2591, 0.0370, 0.2102, 0.0235, 0.0278, -0.1878],
            [0.3753, 0.2139, 0.2675, 0.0325, 0.1831, 0.0187, 0.0401, -0.1997,
             0.2002],
            [0.3802, 0.2200, 0.2642, 0.0270, 0.1820, 0.0196, 0.0407, -0.2000,
             0.2314, -0.0995],
        ],
        "infidelity": [0.2258, 0.1557, 0.0889, 0.0881, 0.0875, 0.0765,
                       0.0171, 0.0043],
        "identity_infidelity": 0.2835,
        "m2": [(1.519, 0.005), (1.993, 0.005), (3.04, 0.02), (3.06, 0.03),
               (3.07, 0.03), (3.21, 0.03), (4.07, 0.04), (4.16, 0.03)],
    },
}

Z_TABLES = {
    ("L2", 0): {
        "columns": list(range(12)),
        "sc": [-1, -1, -1, -1, 1, 1, -1, -1, -1, -1, 1, 1],
        "layers": [
            [-1, -1, -1, -1, 0.7220, 0.7220, -1, -1, -0.7220, -0.7220, 1, 1],
            [-1, -1, -0.4127, -0.4127, 0.2810, 0.2810, -1, -1, -0.2810,
             -0.2810, 0.4127, 0.4127],
            [-1, -1, -0.4048, -0.4048, 0.2731, 0.2731, -1, -1, -0.2731,
             -0.2731, 0.4048, 0.4048],
            [-1, -1, -0.3936, -0.3936, 0.2841, 0.2841, -1, -1, -0.2841,
             -0.2841, 0.3936, 0.3936],
            [-1, -1, -0.3890, -0.3890, 0.2842, 0.2842, -1, -1, -0.2842,
             -0.2842, 0.3890, 0.3890],
        ],
        "exact": [-1, -1, -0.3856, -0.3856, 0.2796, 0.2796, -1, -1, -0.2796,
                  -0.2796, 0.3856, 0.3856],
    },
    ("L2", 1): {
        "columns": list(range(12)),
        "sc": [0, 0, 0, 0, 1, 1, -1, -1, -1, -1, 1, 1],
        "layers": [
            [0, 0, 0.1971, 0.1971, 0.8028, 0.8028, -1, -1, -1, -1, 1, 1],
            [0, 0, 0.1660, 0.1660, 0.4148, 0.4148, -1, -1, -0.5809, -0.5809,
             1, 1],
            [0, 0, 0.1839, 0.1839, 0.4941, 0.4941, -1, -1, -0.2752, -0.2752,
             0.5971, 0.5971],
            [0, 0, 0.1844, 0.1844, 0.5049, 0.5049, -1, -1, -0.2843, -0.2843,
             0.5948, 0.5948],
            [0, 0, 0.1854, 0.1854, 0.5061, 0.5061, -1, -1, -0.2796, -0.2796,
             0.5880, 0.5880],
            [0, 0, 0.1533, 0.1533, 0.5034, 0.5034, -1, -1, -0.2581, -0.2581,
             0.6013, 0.6013],
        ],
        "exact": [0, 0, 0.1554, 0.1554, 0.4989, 0.4989, -1, -1, -0.2498,
                  -0.2498, 0.5955, 0.5955],
    },
    ("L3", 1): {
        "columns": [2, 3, 4, 5, 8, 9, 10, 11, 14, 15, 16, 17],
        "heavy": {0: 0, 1: 0, 6: -1, 7: -1, 12: -1, 13: -1},
        "sc": [0, 0, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1],
        "layers": [
            [0.1935, 0.1935, 0.8064, 0.8064, -1, -1, 1, 1, -0.4727, -0.4727,
             0.4727, 0.4727],
            [0.1593, 0.1593, 0.3711, 0.3711, -0.5305, -0.5305, 1, 1, -0.4961,
             -0.4961, 0.4961, 0.4961],
            [0.1705, 0.1705, 0.4447, 0.4447, -0.3033, -0.3033, 0.6880, 0.6880,
             -0.4444, -0.4444, 0.4444, 0.4444],
            [0.1728, 0.1728, 0.4501, 0.4501, -0.3069, -0.3069, 0.6839, 0.6839,
             -0.4533, -0.4533, 0.4533, 0.4533],
            [0.1763, 0.1763, 0.4437, 0.4437, -0.2980, -0.2980, 0.6779, 0.6779,
             -0.4558, -0.4558, 0.4558, 0.4558],
            [0.1264, 0.1264, 0.4557, 0.4557, -0.2747, -0.2747, 0.6926, 0.6926,
             -0.4536, -0.4536, 0.4536, 0.4536],
            [0.1115, 0.1115, 0.4253, 0.4253, -0.3049, -0.3049, 0.5661, 0.5661,
             -0.3581, -0.3581, 0.5600, 0.5600],
            [0.1177, 0.1177, 0.4310, 0.4310, -0.2834, -0.2834, 0.5035, 0.5035,
             -0.2929, -0.2929, 0.5240, 0.5240],
        ],
        "exact": [0.1169, 0.1169, 0.4204, 0.4204, -0.2705, -0.2705, 0.4940,
                  0.4940, -0.2878, -0.2878, 0.5270, 0.5270],
    },
}

ENTANGLEMENT = {
    "mutual_information_quark": [1.5182, 0.0367, 1.59e-4],
    "mutual_information_antiquark": [0.0448, 2.52e-3, 9.20e-5],
    "four_tangle_quark": [0.618, 8.03e-3, 3.07e-5],
    "four_tangle_antiquark": [8.95e-3, 4.17e-4, 1.30e-5],
}

MOTION = {
    "move_times": (0.0, 5.0),
    "horizon": 10.0,
    "vacuum_plateaus": [0.0, 0.5002, 0.8721],
    "medium_plateaus": [0.0, 0.5030, 1.2595],
    "vacuum_base": -2.0806,
    "medium_base": -1.5485,
    "dedx": [0.0028, 0.3846],
}

ESTIMATOR = {"groups": [0.3314, -0.7951, -0.0421], "total": -0.5058}
HADAMARD = {"value": -0.50, "half_width": 0.03}
TROTTER_Z = {
    "columns": [2, 4, 8, 10, 14, 16],
    "values": [0.183, 0.348, -0.285, 0.541, -0.325, 0.537],
}

# two-qubit depth and count budgets of the circuit templates (count None:
# depth only)
RESOURCES = {
    "sc_prep": (2, 3), "meson0": (6, 8), "meson1": (14, 28),
    "meson2": (26, 60), "baryon0": (14, None), "fswap": (22, None),
    "gauge_block": (78, None), "trotter_step": (112, None),
    "pipeline": (184, None),
}

# criterion 3: Z tolerance of a stage row, and the fit box and infidelity
# guard with which a row missed at its printed angles may still be reached
Z_ROW_TOL = 2e-3
Z_FIT_BOX = 2e-3
Z_FIT_INFIDELITY_GUARD = 5e-5

# ---------------------------------------------------------------------------
# running a section
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _run(section, seconds=math.inf):
    """The section's checks, run once; the run must take under `seconds`."""
    t0 = time.monotonic()
    checks = tuple(run_report([section]))
    assert time.monotonic() - t0 < seconds, section
    return checks


def _assert_checks(checks, expected):
    """Every check passed; names, in order, and each (target, tol, mode) are
    the expected ones.  Returns the checks by name."""
    assert [c.name for c in checks] == list(expected)
    for c in checks:
        assert (c.target, c.tol, c.mode) == expected[c.name], c.name
        assert c.passed, c
    return {c.name: c for c in checks}


def _stages(staged):
    return staged.get("stages", list(range(1, len(staged["angles"]) + 1)))


# ---------------------------------------------------------------------------
# criterion 1: sector energies and hadron masses
# ---------------------------------------------------------------------------

def test_criterion01_energies_and_hadron_masses():
    checks = _run("energies", 60.0)
    expected = {f"energy_L{L}_nq{nq}": (t, 5e-4, "abs")
                for (L, nq), t in sorted(ENERGIES.items())}
    expected.update({f"hadron_mass_L{L}": (t, 1e-3, "abs")
                     for L, t in sorted(HADRON_MASSES.items())})
    assert reference.ENERGIES == ENERGIES
    assert reference.HADRON_MASSES == HADRON_MASSES
    _assert_checks(checks, expected)


# ---------------------------------------------------------------------------
# criterion 2: L = 1 vacuum energy components
# ---------------------------------------------------------------------------

def test_criterion02_l1_components():
    assert reference.L1_COMPONENTS == L1_COMPONENTS
    _assert_checks(_run("components"),
                   {f"component_L1_{k}": (L1_COMPONENTS[k], 5e-4, "abs")
                    for k in sorted(L1_COMPONENTS)})


# ---------------------------------------------------------------------------
# criterion 3: single-qubit Z tables
# ---------------------------------------------------------------------------

def _assert_zprofile_checks(layers):
    """Assert the zprofiles section's checks of the stage rows (layers) or
    of the exact, SC and heavy rows (not layers); the two calls together
    cover every check of the section."""
    expected = {}
    for (lkey, nq), table in sorted(Z_TABLES.items()):
        for row in ("exact", "sc", "heavy"):
            if row in table:
                expected[f"zrow_{row}_{lkey}_nq{nq}"] = (0.0, 5e-4, "upper")
        for k in _stages(STAGED[(lkey, nq)]):
            expected[f"zrow_layer{k}_{lkey}_nq{nq}"] = (0.0, Z_ROW_TOL,
                                                        "upper")

    def keep(name):
        return ("_layer" in name) == layers

    _assert_checks([c for c in _run("zprofiles") if keep(c.name)],
                   {name: v for name, v in expected.items() if keep(name)})


def test_criterion03_z_tables_exact_and_sc_rows():
    assert reference.Z_TABLES == Z_TABLES
    _assert_zprofile_checks(layers=False)


def test_criterion03_z_tables_layer_rows():
    """Per-stage Z rows of the staged preparation.

    The published intermediate-stage angles and Z rows agree with each other
    only to about 1e-3 in angle, while <Z> moves with slopes of order 1-10
    per radian (notes/decisions.md).  The report accepts a row that misses
    the Z tolerance at its printed angles only when a least-squares fit that
    keeps every angle within +-Z_FIT_BOX of its printed value reaches it and
    moves the infidelity density by no more than Z_FIT_INFIDELITY_GUARD,
    below the ~1e-4 scatter between the published infidelity column and its
    value at the printed angles.  The final stage of each sector is compared
    at its printed angles.  Test only: at L = 2 the same fit must reject a
    wrong program, reversed layer order or every angle shifted by +0.02."""
    from su2lgt import report
    from su2lgt.ansatz import sequence_from_names
    from su2lgt.spectra import sc_state

    assert reference.STAGED == STAGED
    assert report.Z_ROW_TOL == Z_ROW_TOL
    assert report.Z_FIT_BOX == Z_FIT_BOX
    assert report.Z_FIT_INFIDELITY_GUARD == Z_FIT_INFIDELITY_GUARD
    _assert_zprofile_checks(layers=True)

    def fitted_misfit(spec, start, names, angles, cols, row):
        seq = sequence_from_names(spec, names, angles)
        fitted = fit_z_row(seq, start, cols, row, box=Z_FIT_BOX)
        return _z_misfit(fitted.apply(start), cols, row)

    for (lkey, nq), staged in STAGED.items():
        if lkey != "L2":
            continue
        spec = _spec(2, nq)
        start = sc_state(spec)
        table = Z_TABLES[(lkey, nq)]
        cols = table["columns"]
        for k, angles, row in zip(_stages(staged), staged["angles"],
                                  table["layers"]):
            names = staged["sequence"][:k]
            miss = fitted_misfit(spec, start, names, np.add(angles, 0.02),
                                 cols, row)
            assert miss > Z_ROW_TOL, ("shifted", lkey, nq, k, miss)
            if k >= 2:
                miss = fitted_misfit(spec, start, names[::-1], angles[::-1],
                                     cols, row)
                assert miss > Z_ROW_TOL, ("reversed", lkey, nq, k, miss)


# ---------------------------------------------------------------------------
# criterion 4: variational infidelities at the printed angles
# ---------------------------------------------------------------------------

def test_criterion04_variational_infidelities():
    checks = _run("variational", 600.0)
    assert reference.STAGED == STAGED
    _assert_checks(checks, {
        f"infidelity_{lkey}_nq{nq}": (staged["infidelity"][-1], 1e-3, "upper")
        for (lkey, nq), staged in sorted(STAGED.items())})


# ---------------------------------------------------------------------------
# criterion 5: entanglement structure of the L = 3 ground state
# ---------------------------------------------------------------------------

def test_criterion05_entanglement():
    assert reference.ENTANGLEMENT == ENTANGLEMENT
    expected = {}
    for flavor in ("quark", "antiquark"):
        for x in range(3):
            expected[f"mutual_info_{flavor}_x{x}"] = (
                ENTANGLEMENT[f"mutual_information_{flavor}"][x], 2e-3, "abs")
            expected[f"four_tangle_{flavor}_x{x}"] = (
                ENTANGLEMENT[f"four_tangle_{flavor}"][x], 2e-3, "abs")
    _assert_checks(_run("entanglement"), expected)


# ---------------------------------------------------------------------------
# criterion 6: stabilizer Renyi entropy through the staged optimization
# ---------------------------------------------------------------------------

def test_criterion06_magic_staging():
    checks = _run("magic")
    staged = STAGED[("L3", 1)]
    assert reference.STAGED == STAGED
    expected = {f"m2_exact_stage{k}": (m2, 0.05, "abs")
                for k, (m2, _sigma) in zip(staged["stages"], staged["m2"])}
    # the sampled estimate is compared with the final stage's exact value,
    # within three of its standard errors (seed 0, 2000 samples)
    final = next(c for c in checks if c.name == "m2_exact_stage10")
    expected["m2_sampled_final"] = (
        final.value, pytest.approx(0.6971979747334638, rel=1e-6), "abs")
    _assert_checks(checks, expected)


# ---------------------------------------------------------------------------
# criterion 7: heavy-quark motion energetics and dE/dx
# ---------------------------------------------------------------------------

def test_criterion07_motion_and_dedx():
    checks = _run("motion", 300.0)
    assert reference.MOTION == MOTION
    expected = {"motion_base_vacuum": (MOTION["vacuum_base"], 2e-3, "abs"),
                "motion_base_medium": (MOTION["medium_base"], 2e-3, "abs")}
    for key, run in (("vac", "vacuum"), ("med", "medium")):
        for i, t in enumerate(MOTION[f"{run}_plateaus"]):
            expected[f"motion_{key}_plateau{i}"] = (t, 2e-3, "abs")
    for i, t in enumerate(MOTION["dedx"]):
        expected[f"dedx_x{i + 1}{i}"] = (t, 2e-3, "abs")
    _assert_checks(checks, expected)


# ---------------------------------------------------------------------------
# criterion 8: grouped energy-loss estimator
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _direct_energy_loss():
    """<Delta H_g> of the prepared L = 3 state, measured ungrouped."""
    from su2lgt.ansatz import prepared_state
    from su2lgt.observables import delta_hg_operator

    spec = _spec(3, 1)
    return delta_hg_operator(spec).expectation(prepared_state(spec))


def test_criterion08_energy_loss_estimator():
    assert reference.ESTIMATOR == ESTIMATOR
    expected = {f"estimator_group{i}": (t, 5e-4, "abs")
                for i, t in enumerate(ESTIMATOR["groups"])}
    expected["estimator_total"] = (ESTIMATOR["total"], 5e-4, "abs")
    expected["estimator_total_after_move"] = (0.0, 1e-10, "upper")
    checks = _assert_checks(_run("estimator"), expected)
    # test only: the direct (ungrouped) measurement of the same operator
    # agrees, and after undoing the move the estimator vanishes strictly
    # below the report's bound
    assert _direct_energy_loss() == pytest.approx(ESTIMATOR["total"],
                                                  abs=5e-4)
    assert checks["estimator_total_after_move"].value < 1e-10


# ---------------------------------------------------------------------------
# criterion 9: circuit resources and unitary equivalence
# ---------------------------------------------------------------------------

def test_criterion09_circuit_resources():
    from su2lgt.circuits import trotter_circuit
    from su2lgt.dynamics import trotter_step

    expected = {}
    for name, (depth, count) in RESOURCES.items():
        expected[f"depth_{name}"] = (depth, 2, "upper")
        if count is not None:
            expected[f"count_{name}"] = (count, 2, "upper")
    expected.update({"rbox_unitary_err": (0.0, 1e-12, "upper"),
                     "sc_prep_infidelity": (0.0, 1e-12, "upper"),
                     "pipeline_state_err": (0.0, 1e-9, "upper"),
                     "emit_roundtrip": (0.0, 0.0, "upper")})
    checks = _assert_checks(_run("circuits"), expected)
    # test only: the pipeline circuit meets a bound ten times tighter than
    # the report's, and the Trotter-step circuit equals the state-vector
    # step on a random state, whose sector is the whole register
    assert checks["pipeline_state_err"].value < 1e-10
    spec = _spec(3, 1)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(1 << spec.n_qubits) \
        + 1j * rng.standard_normal(1 << spec.n_qubits)
    v = StateVector(v / np.linalg.norm(v))
    got = trotter_circuit(spec, 1.0).apply(v)
    oracle = trotter_step(v, spec, 1.0, order=2)
    assert np.max(np.abs(got.amps - oracle.amps)) < 1e-10


# ---------------------------------------------------------------------------
# criterion 10: product-formula convergence and single-step Z profile
# ---------------------------------------------------------------------------

def test_criterion10_trotter_convergence_and_z_row():
    from su2lgt.dynamics import trotter_step
    from su2lgt.observables import z_profile

    assert reference.TROTTER_Z == TROTTER_Z
    _assert_checks(_run("trotter"), {
        "trotter_slope_order1": (2.0, 0.1, "abs"),
        "trotter_slope_order2": (3.0, 0.1, "abs"),
        "trotter_z_row_err": (0.0, 5e-3, "upper")})
    # test only: the partner qubit c + 1 of each tabulated column
    spec = _spec(3, 1)
    z = z_profile(trotter_step(_moved_state(spec), spec, 1.0, order=2))
    for c, v in zip(TROTTER_Z["columns"], TROTTER_Z["values"]):
        assert z[c + 1] == pytest.approx(v, abs=5e-3), c + 1


# ---------------------------------------------------------------------------
# criterion 11: two-qubit toy model of the continuous-angle move
# ---------------------------------------------------------------------------

def test_criterion11_toy_model():
    from su2lgt.dynamics import ToyModelParams, toy_fswap_expectation

    _assert_checks(_run("toy"), {
        "toy_grid_err": (0.0, 1e-12, "upper"),
        "toy_full_move": (1.0, 1e-12, "abs"),
        "toy_interference": (1.0 - np.sin(0.9 / 2) ** 2, 1e-12, "abs")})

    # test only: a 9-point grid at another move strength alpha = 0.17
    def closed_form(theta, phi, eta):
        return (np.sin(phi / 2) ** 2 * np.cos(theta / 2) ** 2
                + np.cos(phi / 2) ** 2 * np.sin(theta / 2) ** 2
                + 0.5 * np.sin(theta) * np.sin(phi) * np.cos(eta))

    grid = np.linspace(0.0, 2 * np.pi, 9)
    for theta in grid:
        for phi in grid:
            for eta in grid:
                got = toy_fswap_expectation(
                    ToyModelParams(theta, phi, eta, 0.17))
                assert got == pytest.approx(closed_form(theta, phi, eta),
                                            abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 12: Hadamard-test extrapolation of the gauge-energy difference
# ---------------------------------------------------------------------------

def test_criterion12_hadamard_test():
    assert reference.HADAMARD == HADAMARD
    # the extrapolation is also compared with the exact <Delta H_g>
    _assert_checks(_run("hadamard"), {
        "hadamard_value": (HADAMARD["value"], HADAMARD["half_width"], "abs"),
        "hadamard_half_width": (0.0, HADAMARD["half_width"], "upper"),
        "hadamard_vs_exact": (_direct_energy_loss(), 0.01, "abs")})


# ---------------------------------------------------------------------------
# criterion 13: error-mitigation algebra
# ---------------------------------------------------------------------------

def test_criterion13_mitigation():
    from su2lgt.observables import depolarized, odr_rescale

    assert reference.ESTIMATOR == ESTIMATOR
    # the ZNE tolerance is three standard errors of the fitted intercept
    # (the report's noiseless line with slope 0.1 and sigma 0.01)
    checks = _assert_checks(_run("mitigation"), {
        "odr_recovery_err": (0.0, 1e-12, "upper"),
        "zne_intercept_err": (0.0, pytest.approx(0.06595452979136457,
                                                 rel=1e-9), "upper")})
    # test only: the intercept to 1e-12, and ODR recovery at three more
    # survival probabilities
    assert checks["zne_intercept_err"].value <= 1e-12
    true = ESTIMATOR["total"]
    for survival in (0.9, 0.65, 0.3):
        rec = odr_rescale(depolarized(true, survival),
                          depolarized(true, survival), true)
        assert rec == pytest.approx(true, abs=1e-12)
