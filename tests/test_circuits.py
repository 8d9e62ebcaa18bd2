import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from su2lgt import circuits as circuits_module
from su2lgt.circuits import (Circuit, CircuitParseError, Gate,
                             ansatz_circuit, baryon_circuit,
                             clifford_conjugate, count_resources, emit_text,
                             fswap_circuit, ghz_evolution_circuit,
                             layer_circuit, measurement_basis_circuit,
                             meson_circuit, parse_text, pipeline_circuit,
                             rbox, sc_prep_circuit, trotter_circuit)
from su2lgt.pauli import PauliString, PauliSum, StateVector

from conftest import apply_on_wires, dense_label, kron_chain, random_state, spec_for

_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_S = np.diag([1, 1j])
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_gate_matrices_against_references():
    checks = {
        ("h", None): _H,
        ("s", None): _S,
        ("sdg", None): _S.conj(),
        ("x", None): np.array([[0, 1], [1, 0]]),
        ("z", None): np.diag([1, -1]),
        ("rz", 0.7): expm(-0.35j * np.diag([1.0, -1.0])),
        ("ry", 0.7): expm(-0.35j * np.array([[0, -1j], [1j, 0]])),
        ("rx", 0.7): expm(-0.35j * np.array([[0, 1], [1, 0]])),
    }
    for (kind, param), oracle in checks.items():
        c = Circuit(1).add(kind, 0, param=param)
        assert np.allclose(c.unitary(), oracle, atol=1e-12), kind
    cx = Circuit(2).add("cx", 0, 1)
    assert np.allclose(cx.unitary(), _CX, atol=1e-12)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("h", (0,), 0.5)
    with pytest.raises(ValueError):
        Gate("rz", (0,))
    with pytest.raises(ValueError):
        Gate("nope", (0,))


def test_circuit_inverse_and_apply():
    rng = np.random.default_rng(2)
    c = Circuit(3)
    c.add("h", 0).add("cx", 0, 2).add("rz", 1, param=0.3).add("s", 2)
    v = StateVector(random_state(3, rng))
    roundtrip = c.inverse().apply(c.apply(v))
    assert np.max(np.abs(roundtrip.amps - v.amps)) < 1e-12


_KINDS_1Q = ["h", "s", "sdg", "x", "z"]
_KINDS_P = ["rz", "ry", "rx"]


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 4))
    c = Circuit(n)
    for _ in range(draw(st.integers(0, 10))):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            c.add(draw(st.sampled_from(_KINDS_1Q)), draw(st.integers(0, n - 1)))
        elif choice == 1:
            q = draw(st.integers(0, n - 1))
            c.add(draw(st.sampled_from(_KINDS_P)), q,
                  param=draw(st.floats(-3, 3, allow_nan=False)))
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
            c.add(draw(st.sampled_from(["cx", "cz"])), a, b)
    return c


@given(circuits())
@settings(max_examples=60)
def test_text_roundtrip(c):
    assert parse_text(emit_text(c)) == c


def test_parse_rejects_garbage():
    with pytest.raises(CircuitParseError):
        parse_text("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n")


def test_count_resources_oracle():
    c = Circuit(4)
    c.add("h", 0).add("cx", 0, 1).add("cx", 2, 3).add("cx", 1, 2)
    c.add("rz", 0, param=0.1).add("cz", 0, 3)
    rep = count_resources(c)
    assert rep.two_qubit_count == 4
    # ASAP layering: {cx(0,1), cx(2,3)} then {cx(1,2), cz(0,3)}
    assert rep.two_qubit_depth == 2


@pytest.mark.parametrize("kind,gen", [
    ("XX+", lambda: dense_label("XX") + dense_label("YY")),
    ("XX-", lambda: dense_label("XX") - dense_label("YY")),
    ("XY+", lambda: dense_label("XY") + dense_label("YX")),
    ("XY-", lambda: dense_label("YX") - dense_label("XY")),
])
def test_rbox_unitary(kind, gen):
    theta = 0.456
    u = rbox(kind, theta, 0, 1, 2).unitary()
    target = expm(-0.5j * theta * gen())
    phase = np.vdot(target.ravel(), u.ravel())
    phase /= abs(phase)
    assert np.max(np.abs(u - phase * target)) < 1e-12


@st.composite
def clifford_cases(draw):
    """(gates, op): up to twelve Clifford gates of every kind on 3 or 4
    qubits, cx and cz on any ordered pair of distinct wires, and a sum of
    one to four distinct strings."""
    n = draw(st.integers(3, 4))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(_KINDS_1Q + ["cx", "cz"]))
        a = draw(st.integers(0, n - 1))
        if kind in ("cx", "cz"):
            gates.append(Gate(kind, (a, draw(st.integers(0, n - 1).filter(
                lambda q: q != a)))))
        else:
            gates.append(Gate(kind, (a,)))
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n),
                           min_size=1, max_size=4, unique=True))
    coeffs = st.sampled_from([0.5, -1.25, 0.75j, 1.0 - 0.5j])
    return gates, PauliSum(n, [PauliString.from_label(label, draw(coeffs))
                               for label in labels])


@given(clifford_cases())
@settings(max_examples=80, deadline=None)
# two-qubit gates on non-adjacent and reversed wires
@example(([Gate("cx", (3, 0)), Gate("cz", (0, 2)), Gate("h", (1,)),
           Gate("cx", (1, 3)), Gate("sdg", (2,)), Gate("cz", (3, 1))],
          PauliSum(4, [PauliString.from_label("XYZY", 0.5),
                       PauliString.from_label("ZZIX", -1.25)])))
def test_clifford_conjugate_matches_dense(case):
    gates, op = case
    got = clifford_conjugate(gates, op)
    u = Circuit(op.n, gates).unitary()
    oracle = u @ op.to_dense() @ u.conj().T
    assert np.max(np.abs(got.to_dense() - oracle)) < 1e-12


def test_clifford_conjugate_rejects_non_clifford_gates():
    op = PauliSum(2, [PauliString.from_label("XZ")])
    with pytest.raises(ValueError, match="gate 'rz' is not Clifford"):
        clifford_conjugate([Gate("h", (0,)), Gate("rz", (1,), 0.3)], op)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("kind", circuits_module._RBOX_KINDS)
def test_box_tables_match_dense_conjugation(kind, sign):
    # the box exp(-i sign pi/4 P1) exp(-i sign sigma pi/4 P2) maps each
    # two-qubit string to the table's string, negated where it says so
    l1, l2, sigma = circuits_module._BOX_FACTORS[kind]
    box = (expm(-0.25j * np.pi * sign * dense_label("".join(l1)))
           @ expm(-0.25j * np.pi * sign * sigma * dense_label("".join(l2))))
    table = circuits_module._BOX_TABLES[kind, sign]
    for i, (x, z, negated) in enumerate(table):
        string = PauliString(2, i >> 2, i & 3).to_dense()
        image = PauliString(2, x, z, -1.0 if negated else 1.0).to_dense()
        assert np.max(np.abs(box @ string @ box.conj().T - image)) < 1e-12


def test_sc_prep_circuit_prepares_sc_state():
    from su2lgt.spectra import sc_state

    for heavy in ((), (0,)):
        spec = spec_for(2, heavy)
        circ = sc_prep_circuit(spec)
        out = circ.apply(StateVector.basis(spec.n_qubits, 0))
        assert abs(np.vdot(out.amps, sc_state(spec).amps)) ** 2 == (
            pytest.approx(1.0, abs=1e-12))


@pytest.mark.parametrize("maker,args", [
    (meson_circuit, (0, 0)), (meson_circuit, (1, 0)),
    (baryon_circuit, (0, 1)), (baryon_circuit, (1, 0)),
])
def test_variational_blocks_match_generator_exponentials(maker, args):
    from su2lgt.ansatz import pool_by_name
    from su2lgt.pauli import exp_sum_apply

    spec = spec_for(2, (0,))
    theta = 0.317
    d, x = args
    circ = maker(spec, d, x, theta)
    kind = "M" if maker is meson_circuit else "B"
    name = f"O_{kind}{d}^({x})" if d == 0 else f"O_{kind}{d}^({x},{x + d})"
    gen = pool_by_name(spec)[name].sum
    rng = np.random.default_rng(4)
    v = StateVector(random_state(spec.n_qubits, rng))
    oracle = exp_sum_apply(gen, theta, v)
    got = circ.apply(v)
    assert np.max(np.abs(got.amps - oracle.amps)) < 1e-10


def test_layer_and_ansatz_circuits_match_module_sequence():
    from su2lgt.ansatz import L2_Q1_ANGLES, L2_Q1_SEQUENCE, sequence_from_names
    from su2lgt.spectra import sc_state

    spec = spec_for(2, (0,))
    seq = sequence_from_names(spec, L2_Q1_SEQUENCE, L2_Q1_ANGLES)
    # the ansatz block acts on the strong-coupling state, not on |0...0>
    circ = sc_prep_circuit(spec) + ansatz_circuit(spec, L2_Q1_SEQUENCE,
                                                  L2_Q1_ANGLES)
    got = circ.apply(StateVector.basis(spec.n_qubits, 0))
    oracle = seq.apply(sc_state(spec))
    assert abs(np.vdot(got.amps, oracle.amps)) ** 2 == pytest.approx(
        1.0, abs=1e-10)


def test_fswap_circuit_matches_module_move():
    from su2lgt.dynamics import fswap_move
    from su2lgt.spectra import sc_state

    spec = spec_for(2, (0,))
    rng = np.random.default_rng(8)
    v = StateVector(random_state(spec.n_qubits, rng))
    got = fswap_circuit(spec, 0, 1).apply(v)
    oracle = fswap_move(v, spec, 0, 1)
    assert np.max(np.abs(got.amps - oracle.amps)) < 1e-10


@pytest.mark.parametrize("order", [1, 2])
def test_trotter_circuit_matches_module_step(order):
    from su2lgt.dynamics import trotter_step

    spec = spec_for(2, (0,))
    rng = np.random.default_rng(10)
    v = StateVector(random_state(spec.n_qubits, rng))
    t = 0.9
    got = trotter_circuit(spec, t, order=order).apply(v)
    oracle = trotter_step(v, spec, t, order=order)
    assert np.max(np.abs(got.amps - oracle.amps)) < 1e-10


def test_trotter_circuit_names_its_step_limit():
    with pytest.raises(ValueError, match="steps must be at most 1000"):
        trotter_circuit(spec_for(1, (0,)), 1.0, steps=1001)


@pytest.mark.parametrize("steps,message", [(0, "steps must be positive"),
                                           (1001, "steps must be at most 1000")])
def test_pipeline_rejects_steps_before_synthesizing(monkeypatch, steps, message):
    def no_search(key, w):
        raise AssertionError("synthesis ran before steps was checked")

    monkeypatch.setattr(circuits_module, "_search_reduction", no_search)
    with pytest.raises(ValueError, match=message):
        pipeline_circuit(spec_for(3, (0,)), steps=steps)


def test_ghz_measurement_basis_diagonalizes_groups():
    from su2lgt.observables import energy_loss_estimator

    spec = spec_for(3, (0,))
    rng = np.random.default_rng(12)
    v = StateVector(random_state(spec.n_qubits, rng))
    for group in energy_loss_estimator(spec):
        basis = measurement_basis_circuit(group, spec.n_qubits)
        rotated = basis.apply(v)
        from su2lgt.observables import z_profile  # noqa: F401
        # after the basis change the group operator is diagonal, so its
        # expectation is recovered from the rotated probabilities
        diag = clifford_conjugate(basis.gates, group.as_pauli_sum(
            spec.n_qubits).adjoint()).adjoint()
        direct = group.evaluate(v)
        p = np.abs(rotated.amps) ** 2
        val = float(p @ np.real(np.diag(diag.to_dense()))) \
            if spec.n_qubits <= 12 else None
        if val is not None:
            assert val == pytest.approx(direct, abs=1e-10)
        else:
            assert diag.expectation(rotated) == pytest.approx(direct,
                                                              abs=1e-10)


def test_pipeline_circuit_matches_module_pipeline():
    from su2lgt.ansatz import L3_Q1_ANGLES, L3_Q1_SEQUENCE, sequence_from_names
    from su2lgt.dynamics import fswap_move, trotter_step
    from su2lgt.spectra import sc_state

    spec = spec_for(3, (0,))
    circ = pipeline_circuit(spec)
    got = circ.apply(StateVector.basis(spec.n_qubits, 0))
    seq = sequence_from_names(spec, L3_Q1_SEQUENCE, L3_Q1_ANGLES)
    state = seq.apply(sc_state(spec))
    state = fswap_move(state, spec, 0, 1)
    oracle = trotter_step(state, spec, 1.0, order=2)
    assert np.max(np.abs(got.amps - oracle.amps)) < 1e-9


# -- fused simulation against one kernel call per gate ------------------------

@st.composite
def fusable_circuits(draw):
    n = draw(st.integers(1, 8))
    phase = draw(st.floats(-3, 3, allow_nan=False).filter(lambda p: p != 0))
    c = Circuit(n, phase=phase)
    kinds = _KINDS_1Q + _KINDS_P + (["cx", "cz"] if n > 1 else [])
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("cx", "cz"):
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda q: q != a))
            c.add(kind, a, b)
        else:
            param = (draw(st.floats(-3, 3, allow_nan=False))
                     if kind in _KINDS_P else None)
            c.add(kind, draw(st.integers(0, n - 1)), param=param)
    return c


@given(fusable_circuits())
@settings(max_examples=80, deadline=None)
@example(Circuit(1, [Gate("ry", (0,), 0.4)], phase=0.5))
@example(Circuit(8, [Gate("cx", (7, 0))], phase=-2.0))
# runs of two-qubit gates that each cross the four-wire block boundary
@example(Circuit(8, [Gate("cx", (0, 1)), Gate("cz", (2, 3)), Gate("cx", (3, 4)),
                     Gate("h", (4,)), Gate("cx", (5, 6)), Gate("cz", (6, 7)),
                     Gate("cx", (7, 0)), Gate("rz", (0,), 1.1)], phase=0.3))
def test_fused_apply_matches_per_gate_reference(c):
    v = StateVector(random_state(c.n_qubits, np.random.default_rng(c.n_qubits)))
    ref = v.amps
    for g in c.gates:
        ref = apply_on_wires(circuits_module._gate_matrix(g), g.qubits, ref)
    ref = np.exp(1j * c.phase) * ref
    assert np.max(np.abs(c.apply(v).amps - ref)) < 1e-12


def test_pipeline_apply_keeps_the_state_on_its_support():
    # from |0...0> the 18-qubit pipeline's support stays under 2^n /
    # _SPARSE_SHARE states through the last block, so the state comes back
    # on its sorted basis indices: a fresh interpreter traces no 2^18
    # register (1.0 MiB when measured; 8.0 MiB while the result was
    # scattered into one and the phase product made a second)
    import os
    import subprocess
    import sys

    code = """
import tracemalloc
from su2lgt import LatticeSpec
from su2lgt.circuits import pipeline_circuit
from su2lgt.pauli import StateVector
circ = pipeline_circuit(LatticeSpec(L=3, heavy_positions=frozenset({0})))
start = StateVector.basis(circ.n_qubits, 0)
tracemalloc.start()
circ.apply(start)
print(tracemalloc.get_traced_memory()[1])
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert int(out.stdout) < 2 << 20

    spec = spec_for(3, (0,))
    n = spec.n_qubits
    circ = pipeline_circuit(spec)
    got = circ.apply(StateVector.basis(n, 0))
    assert got.indices is not None
    assert got.indices.size <= (1 << n) // circuits_module._SPARSE_SHARE
    assert np.all(np.diff(got.indices) > 0)
    # the register the support path scattered before the phase product
    idx, vals = np.array([0]), np.array([1.0 + 0j])
    for wires, u in circuits_module._fused_blocks(circ.gates):
        idx, vals = circuits_module._apply_on_support(n, wires, u, idx, vals)
    register = np.zeros(1 << n, dtype=complex)
    register[idx] = vals
    assert np.array_equal(got.amps, np.exp(1j * circ.phase) * register)


@st.composite
def wide_starts(draw):
    """A drawn circuit and a state kept on more than 2^n / _SPARSE_SHARE of
    its basis states."""
    c = draw(fusable_circuits())
    n = c.n_qubits
    k = draw(st.integers((1 << n) // circuits_module._SPARSE_SHARE + 1, 1 << n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = np.sort(rng.choice(1 << n, size=k, replace=False))
    vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return c, StateVector.on_basis(n, idx, vals / np.linalg.norm(vals))


@given(wide_starts())
@settings(max_examples=40, deadline=None)
def test_apply_on_a_wide_support_returns_the_whole_register(drawn):
    c, start = drawn
    got = c.apply(start)
    assert got.indices is None and got.values.size == 1 << c.n_qubits
    oracle = c.unitary() @ start.amps  # the phase included
    assert np.max(np.abs(got.amps - oracle)) < 1e-12


def test_apply_leaves_the_support_when_it_passes_the_share():
    # one basis state on 8 qubits: the first block's Hadamards spread it
    # over 16 > 2^8 / _SPARSE_SHARE states, and the blocks left run on the
    # whole register
    c = Circuit(8, phase=0.25)
    for q in range(8):
        c.add("h", q)
    c.add("cx", 0, 7)
    got = c.apply(StateVector.basis(8, 5))
    assert got.indices is None and got.values.size == 256
    oracle = c.unitary() @ StateVector.basis(8, 5).amps
    assert np.max(np.abs(got.amps - oracle)) < 1e-12


def test_fusion_groups_the_pipeline_into_four_wire_blocks():
    spec = spec_for(3, (0,))
    blocks = circuits_module._fused_blocks(pipeline_circuit(spec).gates)
    assert len(blocks) == 95
    assert max(len(wires) for wires, _ in blocks) == 4


@st.composite
def gate_runs(draw):
    """A block's wires (at most four of an eight-qubit register, in any
    order) and a run of gates on them."""
    wires = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
    kinds = _KINDS_1Q + _KINDS_P + (["cx", "cz"] if len(wires) > 1 else [])
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("cx", "cz"):
            a, b = draw(st.permutations(wires))[:2]
            gates.append(Gate(kind, (a, b)))
        else:
            param = draw(st.floats(-3, 3, allow_nan=False)) if kind in _KINDS_P else None
            gates.append(Gate(kind, (draw(st.sampled_from(wires)),), param))
    return wires, gates


def _kron_embedding(g: Gate, wires) -> np.ndarray:
    """g on the block's wires as a kron product of one-qubit factors, the
    first wire the leftmost; a controlled gate as the sum over the control's
    two projectors."""
    def on(factors):
        return kron_chain([factors.get(q, np.eye(2)) for q in wires])
    if g.kind in ("cx", "cz"):
        c, t = g.qubits
        target = np.array([[0, 1], [1, 0]]) if g.kind == "cx" else np.diag([1, -1])
        return on({c: np.diag([1, 0])}) + on({c: np.diag([0, 1]), t: target})
    return on({g.qubits[0]: circuits_module._gate_matrix(g)})


@given(gate_runs())
@settings(max_examples=60, deadline=None)
@example(([2, 0, 1], [Gate("cx", (2, 0)), Gate("ry", (1,), 0.7), Gate("cz", (1, 2))]))
def test_block_matrix_matches_kron_embedding(run):
    wires, gates = run
    got = circuits_module._block_matrix(wires, gates, {})
    oracle = np.eye(1 << len(wires))
    for g in gates:
        oracle = _kron_embedding(g, wires) @ oracle
    assert np.allclose(got, oracle, atol=1e-12)
    assert np.abs(got - oracle).max() <= 1e-14


@pytest.mark.parametrize("start", ["basis", "random", "zero"])
def test_apply_gives_the_bits_of_one_kernel_call_per_block(start):
    # a full-support state runs on the whole register: the bits of one
    # kernel call per block.  A sparse one runs on its support, where each
    # block drops the outputs at or below eps times its largest: that stays
    # within 1e-15 of the whole-register path, and the reference holds
    # nothing above that bound where a block dropped an output
    spec = spec_for(3, (0,))
    n = spec.n_qubits
    circ = pipeline_circuit(spec)
    s = {"basis": StateVector.basis(n, 0),
         "random": StateVector(random_state(n, np.random.default_rng(13))),
         "zero": StateVector(np.zeros(1 << n), normalized=False)}[start]
    blocks = circuits_module._fused_blocks(circ.gates)
    ref = s.amps
    for wires, u in blocks:
        ref = apply_on_wires(u, wires, ref)
    got = circ.apply(s).amps
    ref = np.exp(1j * circ.phase) * ref
    if start == "random":
        assert np.array_equal(got, ref)
        return
    assert np.abs(got - ref).max() <= 1e-15
    if start == "zero":
        assert not got.any()
        return
    idx = np.flatnonzero(s.amps)
    vals = s.amps[idx]
    eps = np.finfo(float).eps
    for wires, u in blocks:
        before = np.zeros(1 << n, dtype=complex)
        before[idx] = vals
        dense = apply_on_wires(u, wires, before)
        idx, vals = circuits_module._apply_on_support(n, wires, u, idx, vals)
        outside = np.ones(1 << n, dtype=bool)
        outside[idx] = False
        assert np.abs(dense[outside]).max() <= eps * np.abs(dense).max()
    assert np.array_equal(np.flatnonzero(got), np.sort(idx))


def test_support_kernel_drops_only_outputs_at_or_below_eps_of_the_largest():
    # the identity on wire 0 copies each amplitude exactly; one at eps times
    # the largest goes, one at twice that stays, and a zero state stays empty
    eps = np.finfo(float).eps
    idx = np.array([0b000, 0b011, 0b101, 0b110])
    vals = np.array([1.0, eps / 2, -eps, 2 * eps], dtype=complex)
    out_idx, out_vals = circuits_module._apply_on_support(3, [0], np.eye(2), idx, vals)
    kept = dict(zip(out_idx.tolist(), out_vals.tolist()))
    assert kept == {0b000: 1.0, 0b110: 2 * eps}
    empty = circuits_module._apply_on_support(3, [0], np.eye(2), idx[:0], vals[:0])
    assert empty[0].size == empty[1].size == 0


# -- the box search on drawn generators ------------------------------------------

def _rbox_generator(w, kind, a, base):
    """base * (P1 + sigma * P2) of an R-box kind on qubits (a, a + 1), as the
    search's (x, z, coeff) terms."""
    l1, l2, sigma = circuits_module._BOX_FACTORS[kind]
    strings = [PauliString.from_ops(w, {a: letters[0], a + 1: letters[1]})
               for letters in (l1, l2)]
    return tuple((p.x, p.z, complex(base * rel))
                 for p, rel in zip(strings, (1, sigma)))


def _as_sum(w, gen):
    return PauliSum(w, [PauliString(w, x, z, c) for x, z, c in gen])


def _box_conjugates(w, gens, box):
    """B gen B^dag for each generator, B the box on w qubits."""
    table = circuits_module._BOX_TABLES[box.kind, box.sign]
    return [circuits_module._conjugate(g, table, (box.a, box.b), w)
            for g in gens]


@st.composite
def scrambled_generators(draw):
    """(w, generators, angles): one or two commuting R-box generators on
    w <= 6 qubits, each conjugated by the same one to three drawn boxes."""
    w = draw(st.integers(2, 6))
    kinds = st.sampled_from(circuits_module._RBOX_KINDS)
    gens = [_rbox_generator(w, draw(kinds), draw(st.integers(0, w - 2)),
                            draw(st.sampled_from([-1.0, -0.25, 0.5, 0.75])))
            for _ in range(draw(st.integers(1, 2)))]
    first, last = (_as_sum(w, g).to_dense() for g in (gens[0], gens[-1]))
    assume(np.allclose(first @ last, last @ first))
    for _ in range(draw(st.integers(1, 3))):
        box = circuits_module._Box(draw(kinds), draw(st.sampled_from([1, -1])),
                                   draw(st.integers(0, w - 2)))
        gens = _box_conjugates(w, gens, box)
    lams = [draw(st.floats(-2, 2, allow_nan=False)) for _ in gens]
    return w, gens, lams


@given(scrambled_generators())
@settings(max_examples=60, deadline=None)
def test_box_search_reduces_drawn_generators(drawn):
    w, gens, lams = drawn
    key = circuits_module._canon(gens)
    try:
        boxes = circuits_module._search_reduction.__wrapped__(key, w)
    except circuits_module.SynthesisError:
        return
    reduced = gens
    for box in boxes:
        reduced = _box_conjugates(w, reduced, box)
    assert all(circuits_module._classify_pair(g, w) is not None for g in reduced)
    circ = circuits_module._rotation_block(
        w, [(_as_sum(w, g), lam) for g, lam in zip(gens, lams)])
    oracle = expm(-1j * sum(lam * _as_sum(w, g).to_dense()
                            for g, lam in zip(gens, lams)))
    assert np.max(np.abs(circ.unitary() - oracle)) < 1e-10


def _drawn_search_keys(count, seed):
    """(w, `_canon` key) pairs drawn as `scrambled_generators` draws them, from
    a seeded generator: one to three commuting R-box generators on w <= 8
    qubits, each conjugated by the same one to five drawn boxes."""
    rng = random.Random(seed)
    keys = []
    while len(keys) < count:
        w = rng.randint(2, 8)
        gens = [_rbox_generator(w, rng.choice(circuits_module._RBOX_KINDS),
                                rng.randint(0, w - 2),
                                rng.choice([-1.0, -0.25, 0.5, 0.75]))
                for _ in range(rng.randint(1, 3))]
        dense = [_as_sum(w, g).to_dense() for g in gens]
        if not all(np.allclose(p @ q, q @ p)
                   for p, q in itertools.combinations(dense, 2)):
            continue
        for _ in range(rng.randint(1, 5)):
            box = circuits_module._Box(rng.choice(circuits_module._RBOX_KINDS),
                                       rng.choice([1, -1]), rng.randint(0, w - 2))
            gens = _box_conjugates(w, gens, box)
        keys.append((w, circuits_module._canon(gens)))
    return keys


def test_box_search_answers_are_pinned_on_a_drawn_corpus():
    # sha256 of the answers (boxes as (kind, sign, a), or "SynthesisError")
    # for 200 drawn keys, taken from the search that expanded one node and
    # one move at a time: ranking and tie-breaks beyond the pipeline's keys
    answers = []
    for w, key in _drawn_search_keys(200, seed=21):
        try:
            boxes = circuits_module._search_reduction.__wrapped__(key, w)
        except circuits_module.SynthesisError:
            answers.append("SynthesisError")
        else:
            answers.append(tuple((b.kind, b.sign, b.a) for b in boxes))
    assert 0 < answers.count("SynthesisError") < len(answers)
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
        "8107f8cf65c4e2fb69a1128a40c80ccc8593240aeaea87f295dcd6f225701206")


def _labelled_generator(*labels):
    return tuple((p.x, p.z, complex(c)) for p, c in
                 ((PauliString.from_label(label), c) for label, c in labels))


@pytest.mark.parametrize("gens", [
    [_labelled_generator(("XZZX", 1.0))],
    [_labelled_generator(("XXII", 0.5), ("YYII", 0.5), ("ZZII", -1.0))],
    # ragged: a reducible 2-term generator beside a 3-term one
    [_labelled_generator(("IIXX", 0.5), ("IIYY", 0.5)),
     _labelled_generator(("XXII", 0.5), ("YYII", 0.5), ("ZZII", 0.25))],
], ids=["one-term", "three-term", "ragged"])
def test_box_search_fails_on_generators_that_are_not_term_pairs(gens):
    # scrambled by one box, so the search expands levels before it gives up
    gens = _box_conjugates(4, gens, circuits_module._Box("XY-", 1, 1))
    with pytest.raises(circuits_module.SynthesisError,
                       match="box reduction failed"):
        circuits_module._search_reduction.__wrapped__(
            circuits_module._canon(gens), 4)


@st.composite
def diagonal_sums(draw):
    """(w, wires, strings, lam): distinct Z strings on w <= 6 qubits as
    (qubits, coefficient), the identity allowed, the qubits the parity
    walk prefers as targets, and an angle."""
    w = draw(st.integers(1, 6))
    supports = draw(st.lists(st.frozensets(st.integers(0, w - 1)), min_size=1,
                             max_size=10, unique=True))
    coeffs = st.sampled_from([-1.0, -0.25, 0.5, 0.75, 1.5])
    strings = [(tuple(sorted(s)), draw(coeffs)) for s in supports]
    wires = tuple(sorted(draw(st.frozensets(st.integers(0, w - 1)))))
    return w, wires, strings, draw(st.floats(-2, 2, allow_nan=False))


@given(diagonal_sums())
@settings(max_examples=80, deadline=None)
# every string holds qubits 1 and 2; the target is 2, on the wires, and
# qubit 1 is folded onto it before a Gray cube over qubits 3 and 4
@example((5, (2,), [((1, 2), 0.5), ((1, 2, 3), -0.25), ((1, 2, 4), 0.75),
                    ((1, 2, 3, 4), 1.5)], 0.3))
# a full Gray cube over qubits 1 and 2 with target 0, and a phase
@example((3, (), [((0,), 0.5), ((0, 1), -1.0), ((0, 2), 0.75),
                  ((0, 1, 2), 1.5), ((), -0.25)], -1.1))
# no cube: target 0 walks {0, 1} and {0, 2} greedily, then {1, 2} follows
@example((3, (), [((0, 1), 0.5), ((0, 2), -0.25), ((1, 2), 0.75)], 0.7))
def test_diagonal_block_matches_the_exact_exponential(drawn):
    w, wires, strings, lam = drawn
    op = PauliSum(w, [PauliString.from_ops(w, {j: "Z" for j in s}, c)
                      for s, c in strings])
    circ = circuits_module._diagonal_block(w, wires, (), op, lam)
    oracle = expm(-1j * lam * op.to_dense())
    assert np.max(np.abs(circ.unitary() - oracle)) < 1e-12


def test_diagonal_block_rejects_what_it_cannot_diagonalize():
    from su2lgt.ansatz import meson_operator

    spec = spec_for(2, (0,))
    with pytest.raises(circuits_module.SynthesisError, match="diagonalize"):
        circuits_module._diagonal_block(
            spec.n_qubits, (2, 3, 4, 5), circuits_module._GHZ_PREP_LOCAL,
            meson_operator(spec, 0, 0), 0.3)
    imaginary = PauliSum(2, [PauliString.from_label("ZZ", 0.5j)])
    with pytest.raises(circuits_module.SynthesisError, match="non-Hermitian"):
        circuits_module._diagonal_block(2, (0, 1), (), imaginary, 0.3)


# -- synthesis pinned byte for byte (L = 3, n_Q = 1) -----------------------------

_EMIT_SHA256 = {
    "scprep": "f1d413ce854764a406578cab8dfd0987741f9df2bde20962363d2630b96f8b3a",
    "meson0": "52bbf0da60666d2eb076595a5f3865123c55c35873f4f47d5b7d98467b07d8b4",
    "meson1": "8e8f3fc6e133cb39f16b4e7009180f393db001da4459818d051f0fecf9fdc55b",
    "meson2": "240d47fe98cb6cc6a4eafbc25bc793ad751c475e256831b4a1cf50256c1aea91",
    "baryon0": "3d96a7e0a8cf7da220325a6ed7424449fef92f0a7cf9b4859aff27da54a2c274",
    "baryon1": "89f244c13becffc2681a964e0cfca9f0ca6ba3fd0d7a9bc7b7a4aea77f381577",
    "fswap": "ca4f487888cc5a9dcf52d5d3350ac7a97813d07966f30f6a1e619b86353e04bb",
    "trotter-o1-s1": "87b34163de99049df20605abd9db5eba62764ebd5020ad2f41bae3d03e484326",
    "trotter-o1-s2": "952c192aed98e60c69c00a76dfafc8cff5fdab417d768faf5613586fb682689e",
    "trotter-o2-s1": "9e81098a70babb6d425fd1bbb96bcd90d9362e2dbfc8e17e1869410d7cec2afd",
    "trotter-o2-s2": "e36e08eee8dd449445a169facb9fc60c7b41b48c3ae87e47e284475310efc66d",
    "measure-diagonal": "aec721e608ac593525272fd5f17f448af42fe4a1e0ee1c7e04af0311b5a9c402",
    "measure-hop_01_23": "9a15f9ff94ad0c362696570eb2cf53a4ea5befea71216b30d8c6dca7cdc7b28e",
    "measure-hop_01_45": "09fed29ef17bf7ab96261f59d8ec90f76cbdb107100ba05f098105e66f7591d3",
    "pipeline": "572c1e151bb5adcd5f05ba6c64f31073a4d5c8b3e52005c00430173db35c02be",
    "baryon0-x1": "844dd26f34cf90458d0f98b06e744d9a6fe4c9ff6e8282ad50a8e93fc1841469",
    "baryon0-x2": "c414c52dfb81ebadf415c1cef9658d04b8b43fc8ce6920be3987386efb004b85",
    "baryon1-x1": "43296c401a89c9f15dd93213a8c68272b6334e1dd3e31ed5e7fcad9e069cb4ae",
    "L2-baryon0": "42cced3891e155cc136ab3c97e25be2f35357cb47ac87e9fc9a6dcc72fac984e",
    "L2-trotter-o2-s1": "7de03277e06ada15d44483dfb9ce03ba604dcc58c87e36fd554ac486061cf3a1",
    "L2-trotter-o2-s2": "53b72d2b05a8c8458bc582a54ba9e2cd960a9ed291d12422523bf1d263703962",
}


def test_emitted_text_is_pinned():
    from su2lgt.observables import energy_loss_estimator

    spec = spec_for(3, (0,))
    made = {"scprep": sc_prep_circuit(spec), "fswap": fswap_circuit(spec, 0, 1),
            "pipeline": pipeline_circuit(spec)}
    for d in (0, 1, 2):
        made[f"meson{d}"] = meson_circuit(spec, d, 0, 0.1)
    for d in (0, 1):
        made[f"baryon{d}"] = baryon_circuit(spec, d, 0, 0.1)
    for d, x in ((0, 1), (0, 2), (1, 1)):
        made[f"baryon{d}-x{x}"] = baryon_circuit(spec, d, x, 0.1)
    spec2 = spec_for(2, (0,))
    made["L2-baryon0"] = baryon_circuit(spec2, 0, 0, 0.1)
    for steps in (1, 2):
        made[f"L2-trotter-o2-s{steps}"] = trotter_circuit(spec2, 1.0, order=2,
                                                         steps=steps)
    for order in (1, 2):
        for steps in (1, 2):
            made[f"trotter-o{order}-s{steps}"] = trotter_circuit(
                spec, 1.0, order=order, steps=steps)
    for group in energy_loss_estimator(spec):
        made[f"measure-{group.name}"] = measurement_basis_circuit(
            group, spec.n_qubits)
    got = {name: hashlib.sha256(emit_text(c).encode()).hexdigest()
           for name, c in made.items()}
    assert got == _EMIT_SHA256


# `EstimatorGroup.as_pauli_sum(n).to_text()` of the L = 3, n_Q = 1 groups:
# the GHZ ones are `clifford_conjugate` output that no emitted circuit holds
_SUM_SHA256 = {
    "diagonal": "53ad491104acafd8dbd0805dae499063309a4ce7ede400c194686bc12450a1e2",
    "hop_01_23": "71841c4313f49befa32c982fd5f149544f77497487bdcef2a54107e3cd8a2883",
    "hop_01_45": "2f528aaea7643a5f8798cdf91b01d1ea6119ae303078ac016c0cd49d57f9b4e9",
}


def test_estimator_pauli_sums_are_pinned():
    from su2lgt.observables import energy_loss_estimator

    spec = spec_for(3, (0,))
    got = {g.name: hashlib.sha256(
               g.as_pauli_sum(spec.n_qubits).to_text().encode()).hexdigest()
           for g in energy_loss_estimator(spec)}
    assert got == _SUM_SHA256


# (w, `_canon` key) -> boxes as (kind, sign, a), for every search the
# pipeline makes
_SEARCHES = {
    (4, (((10, 6, 1.0, 0.0), (10, 12, -1.0, 0.0)),
         ((5, 3, 1.0, 0.0), (5, 6, -1.0, 0.0)))):
        [("XX+", -1, 1)],
    (6, (((34, 30, -1.0, 0.0), (34, 60, 1.0, 0.0)),
         ((17, 15, -1.0, 0.0), (17, 30, 1.0, 0.0)))):
        [("XX+", 1, 1), ("XX+", 1, 3), ("XY-", 1, 2), ("XX+", -1, 0),
         ("XX+", -1, 4)],
    (10, (((514, 510, 1.0, 0.0), (514, 1020, -1.0, 0.0)),
          ((257, 255, 1.0, 0.0), (257, 510, -1.0, 0.0)))):
        [("XX+", 1, 1), ("XX+", -1, 7), ("XY-", -1, 0), ("XY-", -1, 2),
         ("XY-", 1, 8), ("XY-", 1, 6), ("XY-", -1, 1), ("XY-", 1, 3),
         ("XY-", 1, 5), ("XY-", 1, 4), ("XX+", -1, 2), ("XY-", 1, 7),
         ("XX+", -1, 6)],
    (8, (((130, 124, -1.0, 0.0), (130, 254, -1.0, 0.0)),
         ((65, 62, -1.0, 0.0), (65, 127, -1.0, 0.0)))):
        [("XY-", -1, 1), ("XY-", 1, 5), ("XY-", -1, 0), ("XY-", 1, 2),
         ("XY-", 1, 4), ("XY-", 1, 3), ("XX+", -1, 1), ("XY-", 1, 6),
         ("XX+", -1, 5)],
    (6, (((34, 28, -0.25, 0.0), (34, 62, -0.25, 0.0)),
         ((17, 14, -0.25, 0.0), (17, 31, -0.25, 0.0)))):
        [("XY-", 1, 1), ("XY-", 1, 3), ("XY-", 1, 2), ("XX+", -1, 0),
         ("XX+", -1, 4)],
    (4, (((10, 4, -0.25, 0.0), (10, 14, -0.25, 0.0)),
         ((5, 2, -0.25, 0.0), (5, 7, -0.25, 0.0)))):
        [("XX+", -1, 1)],
}


def test_box_searches_are_pinned(monkeypatch):
    search = circuits_module._search_reduction
    calls = {}

    def recording(key, w):
        calls[(w, key)] = search(key, w)
        return calls[(w, key)]

    monkeypatch.setattr(circuits_module, "_search_reduction", recording)
    pipeline_circuit(spec_for(3, (0,)))
    assert set(calls) == set(_SEARCHES)
    for (w, key), boxes in _SEARCHES.items():
        fresh = search.__wrapped__(key, w)  # past the cache
        assert [(b.kind, b.sign, b.a) for b in fresh] == boxes
        assert fresh == calls[(w, key)]
