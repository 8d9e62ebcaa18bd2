import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from su2lgt.pauli import PauliString, PauliSum, StateVector, exp_sum_apply

from conftest import dense_label, dense_sum, random_state

labels = st.integers(1, 4).flatmap(
    lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n))
# drawn directly: filtering `labels` to length 3 drops ~3 in 4 draws and
# fails hypothesis' filter_too_much health check on some seeds
labels3 = st.text(alphabet="IXYZ", min_size=3, max_size=3)
coeffs = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                            allow_infinity=False)


@given(labels, coeffs)
def test_string_dense_matches_kron_oracle(label, c):
    ps = PauliString.from_label(label, c)
    assert np.allclose(ps.to_dense(), dense_label(label, c), atol=1e-12)


@given(labels, labels)
def test_string_product_matches_dense(la, lb):
    if len(la) != len(lb):
        lb = (lb + "I" * len(la))[:len(la)]
    n = len(la)
    prod = (PauliSum(n, [PauliString.from_label(la)])
            * PauliSum(n, [PauliString.from_label(lb)]))
    oracle = dense_label(la) @ dense_label(lb)
    assert np.allclose(prod.to_dense(), oracle, atol=1e-12)


@given(labels, st.integers(0, 2**31 - 1))
def test_string_apply_matches_matvec(label, seed):
    rng = np.random.default_rng(seed)
    v = random_state(len(label), rng)
    out = PauliSum(len(label), [PauliString.from_label(label)]).apply(
        StateVector(v, normalized=False))
    assert np.allclose(out.amps, dense_label(label) @ v, atol=1e-12)


@given(st.lists(st.tuples(labels3,
                          st.floats(-2, 2)), min_size=1, max_size=5),
       st.floats(-2, 2), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_exp_sum_apply_matches_expm(pairs, theta, seed):
    h = PauliSum(3, [PauliString.from_label(l, c) for l, c in pairs])
    rng = np.random.default_rng(seed)
    v = random_state(3, rng)
    out = exp_sum_apply(h, theta, StateVector(v, normalized=False))
    oracle = expm(-1j * theta * dense_sum(pairs, 3)) @ v
    assert np.allclose(out.amps, oracle, atol=1e-9)


@given(st.lists(st.tuples(labels3,
                          st.floats(-2, 2)), min_size=1, max_size=6),
       st.integers(0, 2**31 - 1))
def test_hermitian_expectation_is_real_and_matches_dense(pairs, seed):
    h = PauliSum(3, [PauliString.from_label(l, c) for l, c in pairs])
    assert h.is_hermitian()
    rng = np.random.default_rng(seed)
    v = random_state(3, rng)
    val = h.expectation(StateVector(v))
    oracle = np.vdot(v, dense_sum(pairs, 3) @ v)
    assert abs(oracle.imag) < 1e-12
    assert val == pytest.approx(oracle.real, abs=1e-10)


def test_sum_accumulates_and_prunes_duplicates():
    h = PauliSum(2, [PauliString.from_label("XZ", 1.5),
                     PauliString.from_label("XZ", -1.5),
                     PauliString.from_label("YY", 2.0)])
    assert len(h) == 1
    [t] = h.terms()
    assert t.label() == "YY" and t.coeff == pytest.approx(2.0)


def test_sum_text_roundtrip():
    h = PauliSum(3, [PauliString.from_label("XYZ", 0.25),
                     PauliString.from_label("IIZ", -1.0),
                     PauliString.from_label("III", 0.5)])
    # terms sorted by (X-mask, Z-mask), qubit 0 the most significant bit
    assert h.to_text() == "+0.5 I\n-1 Z2\n+0.25 X0 Y1 Z2"


def test_basis_and_ket_conventions():
    # qubit 0 is the most significant bit; |0> is spin up with <Z> = +1
    s = StateVector.from_ket("01")
    assert np.allclose(s.amps, [0, 1, 0, 0])
    z0 = PauliSum(2, [PauliString.from_label("ZI")])
    z1 = PauliSum(2, [PauliString.from_label("IZ")])
    assert z0.expectation(s) == pytest.approx(1.0)
    assert z1.expectation(s) == pytest.approx(-1.0)
    assert np.allclose(StateVector.basis(2, 0b01).amps, s.amps)


def test_overlap_and_fidelity():
    a = StateVector.from_ket("00")
    b = StateVector(np.array([1, 1, 0, 0]) / np.sqrt(2))
    assert a.overlap(b) == pytest.approx(1 / np.sqrt(2))
    assert a.fidelity(b) == pytest.approx(0.5)


def test_exp_sum_apply_rejects_non_hermitian_generator():
    h = PauliSum(2, [PauliString.from_label("XZ"),
                     PauliString.from_label("YY", 0.5j)])
    with pytest.raises(ValueError, match="Hermitian"):
        exp_sum_apply(h, 0.3, StateVector.from_ket("01"))


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_non_finite_angle_is_rejected(theta):
    # it gave an all-NaN state; the Trotter step and the ansatz pass it on
    from su2lgt import LatticeSpec
    from su2lgt.ansatz import REFERENCE_SEQUENCES, sequence_from_names
    from su2lgt.dynamics import trotter_step
    from su2lgt.spectra import sc_state

    h = PauliSum(2, [PauliString.from_label("XX"), PauliString.from_label("YY")])
    with pytest.raises(ValueError, match="finite angle"):
        exp_sum_apply(h, theta, StateVector.from_ket("01"))
    spec = LatticeSpec(L=2, heavy_positions=frozenset({0}))
    with pytest.raises(ValueError, match="finite angle"):
        trotter_step(sc_state(spec), spec, theta)
    names, angles = REFERENCE_SEQUENCES[2, 1]
    seq = sequence_from_names(spec, names, [theta] + list(angles[1:]))
    with pytest.raises(ValueError, match="finite angle"):
        seq.apply(sc_state(spec))


def test_gate_level_path_imports_no_scipy():
    # a fresh interpreter: preparation, FSWAP move, Trotter step, the GHZ
    # estimator, a gate-level circuit, a first matvec and to_dense and the
    # dense magic path run on numpy alone
    import os
    import subprocess
    import sys

    code = """
import sys
from su2lgt import LatticeSpec, circuits
from su2lgt.ansatz import prepared_state
from su2lgt.dynamics import fswap_move, trotter_step
from su2lgt.hamiltonian import build_hamiltonian
from su2lgt.observables import energy_loss_estimator, evaluate_energy_loss, sre_m2
from su2lgt.pauli import StateVector
spec = LatticeSpec(L=2, heavy_positions=frozenset({0}))
state = prepared_state(spec)
build_hamiltonian(spec).total.matvec(state.amps)
moved = fswap_move(state, spec, 0, 1)
trotter_step(moved, spec, 0.5)
evaluate_energy_loss(energy_loss_estimator(spec), moved)
circuits.fswap_circuit(spec, 0, 1).apply(state)
build_hamiltonian(LatticeSpec(L=1, heavy_positions=frozenset())).total.to_dense()
sre_m2(StateVector([0.25] * 16))  # full support: the Walsh-Hadamard path
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_ground_path_imports_no_scipy():
    # a fresh interpreter: the dense ground solve, the angle optimizer, the
    # component energies and the ground-path CLI commands run on numpy alone,
    # and load neither numpy.ma (np.unique's first call) nor numpy.random
    import os
    import subprocess
    import sys

    code = """
import contextlib, io, sys
from su2lgt import LatticeSpec
from su2lgt.ansatz import REFERENCE_SEQUENCES, optimize_angles, sequence_from_names
from su2lgt.cli import main
from su2lgt.dynamics import _sector_expectations
from su2lgt.hamiltonian import build_hamiltonian
from su2lgt.spectra import lanczos_ground, sc_state
spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))
terms = build_hamiltonian(spec)
_, psi = lanczos_ground(terms.total, sc_state(spec))
_sector_expectations(terms.total, psi, terms.as_dict())
names, angles = REFERENCE_SEQUENCES[3, 1]
optimize_angles(sequence_from_names(spec, names[:4], angles[:4]), sc_state(spec),
                psi, 3, n_starts=1)
for argv in (["groundstate"], ["prepare"], ["prepare", "--optimize"],
             ["observables", "--what", "entanglement"],
             ["observables", "--what", "estimator"],
             ["observables", "--what", "magic"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--L", "3"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m in ("numpy.ma", "numpy.random")))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"



def test_exact_propagation_imports_no_scipy():
    # a fresh interpreter: evolve_exact, exact and Trotter protocols, the
    # evolve and dedx commands and the motion, trotter and circuits report
    # sections run on numpy alone, without numpy.ma or numpy.random
    import os
    import subprocess
    import sys

    code = """
import contextlib, io, sys
from su2lgt import LatticeSpec
from su2lgt.cli import main
from su2lgt.dynamics import MotionSchedule, evolve_exact, run_protocol
from su2lgt.hamiltonian import build_hamiltonian
from su2lgt.spectra import sc_state
spec = LatticeSpec(L=2, heavy_positions=frozenset({0}))
evolve_exact(sc_state(spec), build_hamiltonian(spec).total, 0.7)
schedule = MotionSchedule(events=((0.5, 0, 1),), horizon=1.0, dt=0.5)
for evolver in ("exact", "trotter"):
    run_protocol(spec, schedule, evolver=evolver)
for argv in (["evolve", "--L", "3"], ["dedx", "--L", "3"],
             ["report", "--sections", "motion,trotter,circuits"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m in ("numpy.ma", "numpy.random")))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"

sums = st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
              coeffs), max_size=12)))


@given(sums, st.integers(0, 2**31 - 1))
@example((3, [(0, 0, 2.5 - 0.5j)]), 0)                            # identity only
@example((5, [(0, 3, 1.0), (0, 17, -0.5j), (0, 0, 0.25)]), 0)   # diagonal only
@example((7, []), 0)
@example((4, [(5, 3, 0.5 + 1j), (0, 6, -1.0), (9, 0, 2.0)]), 0)  # X != 0 first
@settings(max_examples=60, deadline=None)
def test_compile_and_to_dense_match_per_term_oracle(case, seed):
    n, terms = case
    h = PauliSum(n, [PauliString(n, x, z, c) for x, z, c in terms])
    oracle = np.zeros((1 << n, 1 << n), dtype=complex)
    for t in h.terms():
        oracle += t.to_dense()
    assert np.allclose(h.to_dense(), oracle, atol=1e-12)
    v = random_state(n, np.random.default_rng(seed))
    assert np.allclose(h.matvec(v), oracle @ v, atol=1e-12)
    assert np.allclose(h.matvec(v.real), oracle @ v.real, atol=1e-12)


_SUPPORTS = ("empty", "basis state", "grid row", "scattered rows", "full register")


@given(sums, st.sampled_from(_SUPPORTS), st.booleans(), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_matvec_on_any_support_matches_per_term_oracle(case, support, is_complex,
                                                       seed):
    # matvec evaluates only the basis states where v is non-zero, from none
    # of them to all
    n, terms = case
    h = PauliSum(n, [PauliString(n, x, z, c) for x, z, c in terms])
    rng = np.random.default_rng(seed)
    shape = (1 << (n - n // 2), 1 << (n // 2))
    v = rng.standard_normal(shape)
    if is_complex:
        v = v + 1j * rng.standard_normal(shape)
    keep = np.zeros(shape, dtype=bool)
    if support == "basis state":
        keep.flat[rng.integers(keep.size)] = True
    elif support == "grid row":
        keep[rng.integers(shape[0])] = True
    elif support == "scattered rows":
        keep[rng.choice(shape[0], min(3, shape[0]), replace=False)] = True
    elif support == "full register":
        keep[:] = True
    v = np.where(keep, v, 0).ravel()
    oracle = sum((t.to_dense() for t in h.terms()), np.zeros((v.size, v.size)))
    out = h.matvec(v)
    assert np.allclose(out, oracle @ v, rtol=0, atol=1e-12)
    if support == "empty":
        assert out.dtype == np.result_type(v.dtype, float) and not out.any()


def test_expectation_raises_on_imaginary_residual():
    # each coefficient passes is_hermitian(1e-10); their sum on |00> does not
    c = 1 + 9e-11j
    h = PauliSum(2, [PauliString.from_label(label, c) for label in ("ZI", "IZ", "II")])
    assert h.is_hermitian(1e-10)
    with pytest.raises(ValueError, match="imaginary residual"):
        h.expectation(StateVector.from_ket("00"))
