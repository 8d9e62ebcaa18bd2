import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lgt import observables
from su2lgt.ansatz import prepared_state
from su2lgt.observables import (EstimatorGroup, delta_hg_operator, depolarized,
                                energy_loss_estimator, evaluate_energy_loss,
                                four_tangle, ghz_evolution_unitary,
                                hadamard_test_energy, mutual_information,
                                odr_rescale, shot_sample, sre_m2, z_profile,
                                zne_extrapolate)
from su2lgt.pauli import PauliString, PauliSum, StateVector

from conftest import dense_label, random_state, reduced_density, spec_for


@st.composite
def support_states(draw, n_qubits=st.integers(1, 8)):
    """A random normalized state kept at a random support of 1 to 2^n basis
    states, n at most 8."""
    n = draw(n_qubits)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    idx = np.sort(rng.choice(1 << n, draw(st.integers(1, 1 << n)), replace=False))
    vals = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    return StateVector.on_basis(n, idx, vals / np.linalg.norm(vals))


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


@given(support_states())
@settings(max_examples=40)
def test_z_profile_on_a_support_matches_the_register(state):
    v = state.amps
    z = z_profile(state)
    for j in range(state.n):
        label = "I" * j + "Z" + "I" * (state.n - 1 - j)
        assert z[j] == pytest.approx(np.vdot(v, dense_label(label) @ v).real, abs=1e-12)


@given(support_states(st.integers(4, 8)), st.data())
@settings(max_examples=40)
def test_reduced_density_matches_reshape_oracle(state, data):
    v = state.amps
    for _ in range(3):
        keep = data.draw(st.lists(st.integers(0, state.n - 1), min_size=1,
                                  max_size=4, unique=True))
        rho = observables._reduced_density(state.n, keep, *state.support())
        oracle = reduced_density(v, keep, state.n)
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.allclose(rho, oracle, atol=1e-12)


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


@given(support_states(st.just(6)), st.integers(0, 1))
@settings(max_examples=40)
def test_four_tangle_on_a_support_matches_the_register(state, antiquark):
    spec = spec_for(1, (0,))
    flavor = ("quark", "antiquark")[antiquark]
    v = state.amps
    y4 = dense_label(("YYYYII", "YYIIYY")[antiquark])
    oracle = abs(np.vdot(v, y4 @ v.conj())) ** 2
    assert four_tangle(state, spec, 0, 0, flavor) == pytest.approx(oracle, abs=1e-12)


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
    # a real 4-qubit state embedded in the first 16 amplitudes of a 16-qubit
    # register spans rank 4, so its exact M2 is the 4-qubit one
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


def _transform_sizes(monkeypatch) -> list[int]:
    """The register sizes that `_sre_dense` is called with from now on."""
    sizes, dense = [], observables._sre_dense

    def spy(amps, n):
        sizes.append(n)
        return dense(amps, n)

    monkeypatch.setattr(observables, "_sre_dense", spy)
    return sizes


@pytest.mark.parametrize("heavy", [(), (0,)])
def test_l2_prepared_states_take_the_sparse_m2_path(heavy, monkeypatch):
    # the 36 and 42 support states of the 12-qubit register span ranks 6
    # and 7, and the transform runs on that span alone
    state = prepared_state(spec_for(2, heavy))
    dense = -np.log2(observables._sre_dense(state.amps, state.n))
    sizes = _transform_sizes(monkeypatch)
    assert sre_m2(state, method="exact").value == pytest.approx(dense, abs=1e-12)
    assert sizes == [6 + len(heavy)]


def test_sre_sparse_path_is_exact_on_complex_amplitudes():
    rng = np.random.default_rng(17)
    amps = np.zeros(1 << 10, dtype=complex)
    amps[rng.choice(amps.size, 12, replace=False)] = (rng.standard_normal(12)
                                                      + 1j * rng.standard_normal(12))
    state = StateVector(amps / np.linalg.norm(amps))
    dense = -np.log2(observables._sre_dense(state.amps, state.n))
    assert sre_m2(state, method="exact").value == pytest.approx(dense, abs=1e-12)


def test_sre_full_support_state_takes_the_dense_path(monkeypatch):
    # a full support spans the whole register: one transform of all 2^n
    state = StateVector(random_state(6, np.random.default_rng(19)))
    dense = -np.log2(observables._sre_dense(state.amps, state.n))
    sizes = _transform_sizes(monkeypatch)
    assert sre_m2(state, method="exact").value == pytest.approx(dense, abs=1e-12)
    assert sizes == [6]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sre_exact_is_the_transform_on_the_span(data):
    # an r-qubit state, on all or part of its register, spread over n qubits
    # by a random CNOT network and an X string (a Clifford) keeps the r-qubit
    # state's Pauli sum
    n = data.draw(st.integers(1, 8))
    r = data.draw(st.integers(0, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    small = rng.standard_normal(1 << r)
    if data.draw(st.booleans()):
        small = small + 1j * rng.standard_normal(small.size)
    small[rng.random(small.size) < data.draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    small[rng.integers(small.size)] += 1.0
    small = small / np.linalg.norm(small)
    idx = np.arange(small.size)
    for _ in range(data.draw(st.integers(0, 3 * n)) if n > 1 else 0):
        ctrl, targ = rng.choice(n, 2, replace=False)
        idx ^= ((idx >> ctrl) & 1) << targ
    idx ^= int(rng.integers(0, 1 << n))
    order = np.argsort(idx)
    state = StateVector.on_basis(n, idx[order], small[order])
    got = observables._sre_exact(state)
    assert got == pytest.approx(observables._sre_dense(small, r), abs=1e-12)
    assert got == pytest.approx(observables._sre_dense(state.amps, n), abs=1e-12)


def test_sre_exact_refuses_a_wide_span():
    # 20 random basis states of 18 qubits span rank 18, above the cap; the
    # elimination finds that at once, and the sampled method still runs
    import time

    rng = np.random.default_rng(23)
    idx = np.sort(rng.choice(1 << 18, 20, replace=False))
    vals = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    state = StateVector.on_basis(18, idx, vals / np.linalg.norm(vals))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"rank 1[5-8].*method='sampled'"):
        sre_m2(state, method="exact")
    assert time.perf_counter() - t0 < 1.0
    est = sre_m2(state, method="sampled", samples=200, seed=5)
    assert np.isfinite(est.value) and est.std_error >= 0.0


def test_sre_exact_keeps_no_full_register_arrays():
    # a fresh interpreter: the exact M2 of the L = 3 prepared state (488
    # support states, rank 11) transforms 2^11 amplitudes in blocks of 2^16
    # entries (traced peak 4.3 MiB when measured; the support sum it replaced
    # peaked at 11.4 MiB)
    import os
    import subprocess
    import sys

    code = """
import tracemalloc
from su2lgt import LatticeSpec
from su2lgt.ansatz import prepared_state
from su2lgt.observables import sre_m2
state = prepared_state(LatticeSpec(L=3, heavy_positions=frozenset({0})))
tracemalloc.start()
sre_m2(state, method="exact")
print(tracemalloc.get_traced_memory()[1])
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert int(out.stdout) < 8 << 20


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


@st.composite
def estimator_groups(draw, n):
    """A group of one to eight I/Z strings with random coefficients on four
    distinct wires of n, measured with or without the GHZ adjoint."""
    qubits = tuple(draw(st.permutations(range(n)))[:4])
    strings = draw(st.lists(st.text("IZ", min_size=4, max_size=4), min_size=1,
                            max_size=8))
    coeffs = draw(st.lists(st.floats(-2, 2), min_size=len(strings),
                           max_size=len(strings)))
    return EstimatorGroup("drawn", qubits, tuple(strings), tuple(coeffs),
                          ghz=draw(st.booleans()))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_estimator_on_a_support_matches_its_pauli_sum(data):
    state = data.draw(support_states(st.integers(4, 8)))
    group = data.draw(estimator_groups(state.n))
    want = group.as_pauli_sum(state.n).expectation(state)
    assert group.evaluate(state) == pytest.approx(want, abs=1e-12)


def test_estimator_keeps_no_full_register_arrays():
    # a fresh interpreter, so no earlier test has filled a cache: the
    # estimator reads the prepared state's 488 support states and builds no
    # array of the 18-qubit register (traced peak 0.43 MB when measured)
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
    assert peak < 1 << 20


def test_hadamard_test_keeps_no_full_register_arrays():
    # a fresh interpreter: the Hadamard test's ten evolved states stay on
    # their sector, and P0 - P1 is one inner product over the supports
    # (traced peak 0.79 MB when measured; the 2^19 ancilla register it built
    # before took 33.6 MB)
    import os
    import subprocess
    import sys

    code = """
import tracemalloc
import numpy as np
from su2lgt import LatticeSpec
from su2lgt.ansatz import prepared_state
from su2lgt.observables import hadamard_test_energy
spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))
state = prepared_state(spec)
tracemalloc.start()
hadamard_test_energy(state, spec, np.arange(0.05, 0.2751, 0.025))
print(tracemalloc.get_traced_memory()[1])
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert int(out.stdout) < 2 << 20


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


@st.composite
def hermitian_sums(draw, n):
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1,
                           max_size=4))
    return PauliSum(n, [PauliString.from_label(label, draw(st.floats(-1, 1)))
                        for label in labels])


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_hadamard_test_on_a_support_matches_the_ancilla_register(data):
    # the dense formula: U(t) by expm, the ancilla's two branches on the full
    # register, and the same fit of (P0 - P1)/t
    from scipy.linalg import expm

    state = data.draw(support_states(st.integers(1, 5)))
    h = data.draw(hermitian_sums(state.n))
    grid = np.arange(0.05, 0.2751, 0.025)
    psi, dense = state.amps, h.to_dense()
    ys = []
    for t in grid:
        full = np.concatenate([psi + 1j * expm(-1j * t * dense) @ psi,
                               psi - 1j * expm(-1j * t * dense) @ psi]) / 2.0
        ys.append((np.sum(np.abs(full[:psi.size]) ** 2)
                   - np.sum(np.abs(full[psi.size:]) ** 2)) / t)
    intercepts = [np.polynomial.polynomial.polyfit(grid[i:], ys[i:], order)[0]
                  for order in (1, 2, 3) for i in range(grid.size - order - 2)]
    center, spread = hadamard_test_energy(state, h, grid)
    assert center == pytest.approx(np.median(intercepts), abs=1e-9)
    assert spread == pytest.approx(0.5 * (max(intercepts) - min(intercepts)), abs=1e-9)


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
