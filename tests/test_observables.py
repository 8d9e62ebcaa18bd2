import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lgt import observables
from su2lgt.ansatz import prepared_state
from su2lgt.observables import (delta_hg_operator, depolarized,
                                energy_loss_estimator, evaluate_energy_loss,
                                four_tangle, ghz_evolution_unitary,
                                hadamard_test_energy, mutual_information,
                                odr_rescale, shot_sample, sre_m2, z_profile,
                                zne_extrapolate)
from su2lgt.pauli import PauliString, PauliSum, StateVector

from conftest import (dense_label, random_state, reduced_density, spec_for)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=30)
def test_z_profile_matches_dense_oracle(seed, n):
    rng = np.random.default_rng(seed)
    v = random_state(n, rng)
    z = z_profile(StateVector(v))
    for j in range(n):
        label = "I" * j + "Z" + "I" * (n - 1 - j)
        oracle = np.vdot(v, dense_label(label) @ v).real
        assert z[j] == pytest.approx(oracle, abs=1e-12)


def _entropy_oracle(rho):
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-(evals * np.log2(evals)).sum())


def test_mutual_information_matches_entropy_oracle():
    spec = spec_for(1, (0,))
    rng = np.random.default_rng(3)
    v = random_state(spec.n_qubits, rng)
    got = mutual_information(StateVector(v), spec, 0, "quark")
    heavy, flav = [0, 1], [2, 3]
    s_h = _entropy_oracle(reduced_density(v, heavy, 6))
    s_f = _entropy_oracle(reduced_density(v, flav, 6))
    s_hf = _entropy_oracle(reduced_density(v, heavy + flav, 6))
    assert got == pytest.approx(s_h + s_f - s_hf, abs=1e-9)


def test_mutual_information_limits():
    spec = spec_for(1, (0,))
    # product state: zero mutual information
    prod = StateVector.basis(6, 0b011011)
    assert mutual_information(prod, spec, 0, "quark") == pytest.approx(
        0.0, abs=1e-9)
    # maximally entangled heavy/quark color pairs: 2 bits
    amps = np.zeros(64)
    for b in range(4):
        amps[(b << 4) | (b << 2) | 0b11] = 0.5
    bell = StateVector(amps)
    # for a globally pure state the mutual information of a maximally
    # entangled bipartition is twice the subsystem entropy: 4 bits
    assert mutual_information(bell, spec, 0, "quark") == pytest.approx(
        4.0, abs=1e-9)


def test_four_tangle_matches_spinflip_oracle():
    spec = spec_for(1, (0,))
    rng = np.random.default_rng(5)
    v = random_state(6, rng)
    got = four_tangle(StateVector(v), spec, 0, 0, "quark")
    # Y^(x4) is real, so the spin-flip overlap is |v^T Y4 v|^2
    y4 = dense_label("YYYYII").real
    assert got == pytest.approx(abs(v @ (y4 @ v)) ** 2, abs=1e-12)


def test_four_tangle_on_ghz_like_state():
    # |0000> + |1111> on the four relevant qubits carries unit 4-tangle
    spec = spec_for(1, (0,))
    amps = np.zeros(64)
    amps[0b000011] = 1 / np.sqrt(2)
    amps[0b111111] = 1 / np.sqrt(2)
    assert four_tangle(StateVector(amps), spec, 0, 0, "quark") == (
        pytest.approx(1.0, abs=1e-12))


def test_sre_vanishes_on_stabilizer_states():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    for state in (StateVector.basis(3, 5), StateVector(ghz)):
        assert sre_m2(state, method="exact").value == pytest.approx(
            0.0, abs=1e-9)


def test_sre_single_qubit_magic_state():
    # T|+>: <X> = <Y> = 1/sqrt(2), <Z> = 0, so
    # M2 = -log2((1 + 2 * (1/2)^2) / 2) = -log2(3/4)
    amps = np.array([1.0, np.exp(0.25j * np.pi)]) / np.sqrt(2)
    got = sre_m2(StateVector(amps), method="exact").value
    assert got == pytest.approx(-np.log2(0.75), abs=1e-12)


def test_sre_sampled_agrees_with_exact():
    rng = np.random.default_rng(11)
    v = random_state(4, rng)
    exact = sre_m2(StateVector(v), method="exact").value
    est = sre_m2(StateVector(v), method="sampled", samples=4000, seed=3)
    assert est.std_error > 0.0
    assert abs(est.value - exact) < 5 * est.std_error


def test_sre_sparse_exact_path_matches_dense():
    # > 14 qubits triggers the amplitude-space evaluation; compare the two
    # code paths on the same state embedded at different sizes
    rng = np.random.default_rng(13)
    small = random_state(4, rng)
    big = np.zeros(1 << 16)
    big[: 16] = small.real  # real sparse state as used by the pipeline
    big /= np.linalg.norm(big)
    dense_val = sre_m2(StateVector(np.asarray(big[:16] / np.linalg.norm(big[:16]),
                                              dtype=complex)),
                       method="exact").value
    sparse_val = sre_m2(StateVector(big), method="exact").value
    assert sparse_val == pytest.approx(dense_val, abs=1e-9)


def _refuse(*args):
    raise AssertionError("took the other exact M2 path")


@pytest.mark.parametrize("heavy", [(), (0,)])
def test_l2_prepared_states_take_the_sparse_m2_path(heavy, monkeypatch):
    state = prepared_state(spec_for(2, heavy))
    dense = -np.log2(observables._sre_dense(state.amps, state.n))
    monkeypatch.setattr(observables, "_sre_dense", _refuse)
    assert sre_m2(state, method="exact").value == pytest.approx(dense, abs=1e-12)


def test_sre_sparse_path_is_exact_on_complex_amplitudes(monkeypatch):
    rng = np.random.default_rng(17)
    amps = np.zeros(1 << 10, dtype=complex)
    amps[rng.choice(amps.size, 12, replace=False)] = (rng.standard_normal(12)
                                                      + 1j * rng.standard_normal(12))
    state = StateVector(amps / np.linalg.norm(amps))
    dense = -np.log2(observables._sre_dense(state.amps, state.n))
    monkeypatch.setattr(observables, "_sre_dense", _refuse)
    assert sre_m2(state, method="exact").value == pytest.approx(dense, abs=1e-12)


def test_sre_full_support_state_takes_the_dense_path(monkeypatch):
    state = StateVector(random_state(6, np.random.default_rng(19)))
    dense = -np.log2(observables._sre_dense(state.amps, state.n))
    monkeypatch.setattr(observables, "_sre_sparse_exact", _refuse)
    assert sre_m2(state, method="exact").value == pytest.approx(dense, abs=1e-12)


def test_estimator_groups_sum_to_gauge_difference():
    spec = spec_for(3, (0,))
    groups = energy_loss_estimator(spec)
    total = PauliSum.zero(spec.n_qubits)
    for g in groups:
        total = total + g.as_pauli_sum(spec.n_qubits)
    diff = total - delta_hg_operator(spec)
    assert all(abs(t.coeff) < 1e-12 for t in diff.terms())


def test_estimator_group_evaluate_matches_pauli_expectation():
    spec = spec_for(3, (0,))
    rng = np.random.default_rng(17)
    v = StateVector(random_state(spec.n_qubits, rng))
    groups = energy_loss_estimator(spec)
    values, total = evaluate_energy_loss(groups, v)
    acc = 0.0
    for g, val in zip(groups, values):
        direct = g.as_pauli_sum(spec.n_qubits).expectation(v)
        assert val == pytest.approx(direct, abs=1e-10)
        acc += val
    assert total == pytest.approx(acc, abs=1e-12)


def test_estimator_keeps_no_full_register_arrays():
    # a fresh interpreter, so no earlier test has filled a cache: the
    # estimator builds each 2 MiB sign vector of the 18-qubit register as a
    # temporary and holds none of them after it returns
    import os
    import subprocess
    import sys

    code = """
import tracemalloc
from su2lgt import LatticeSpec
from su2lgt.ansatz import prepared_state
from su2lgt.observables import energy_loss_estimator, evaluate_energy_loss
spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))
state = prepared_state(spec)
groups = energy_loss_estimator(spec)
tracemalloc.start()
for _ in range(2):
    evaluate_energy_loss(groups, state)
kept, peak = tracemalloc.get_traced_memory()
print(kept, peak)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    kept, peak = map(int, out.stdout.split())
    assert kept < 1 << 20
    assert peak < 16 << 20


def test_ghz_evolution_unitary_is_clifford_basis_change():
    u = ghz_evolution_unitary()
    assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)
    # it diagonalizes the symmetrized double-hop operator
    hop = dense_label("XXXX") + dense_label("YYXX") + dense_label("XXYY") \
        + dense_label("YYYY")
    d = u.conj().T @ hop @ u
    assert np.max(np.abs(d - np.diag(np.diag(d)))) < 1e-12


def test_shot_sample_converges_to_expectation():
    rng = np.random.default_rng(23)
    v = StateVector(random_state(3, rng))
    op = [PauliString.from_label("ZII", 0.7),
          PauliString.from_label("IZZ", -0.4)]
    exact_each = [PauliSum(3, [p]).expectation(v) for p in op]
    stats = shot_sample(v, op, n_shots=200000, seed=5)
    for (mean, stderr), target in zip(stats, exact_each):
        assert stderr > 0.0
        assert abs(mean - target) < 5 * stderr


def test_hadamard_test_on_single_qubit():
    z = PauliSum(1, [PauliString.from_label("Z")])
    grid = np.arange(0.05, 0.2751, 0.025)
    val, err = hadamard_test_energy(StateVector.basis(1, 0), z, grid)
    assert val == pytest.approx(1.0, abs=1e-3)
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
    val, err = hadamard_test_energy(plus, z, grid)
    assert val == pytest.approx(0.0, abs=1e-3)


def test_depolarized_and_odr_are_inverse():
    true = -0.7321
    meas = depolarized(true, 0.65)
    assert meas == pytest.approx(0.65 * true)
    assert odr_rescale(meas, depolarized(true, 0.65), true) == pytest.approx(
        true, abs=1e-12)


def test_zne_linear_extrapolation_recovers_intercept():
    xs = [1.0, 1.5, 2.0, 2.5]
    vals = [(x, 0.4 - 0.13 * x, 0.01) for x in xs]
    intercept, err = zne_extrapolate(vals)
    assert intercept == pytest.approx(0.4, abs=1e-12)
    assert err >= 0.0
