"""States kept on their support: a state embedded on a sector holds only the
sector's indices and amplitudes, its full register is built bit for bit on
demand, and the sector paths read the same bits from it as from that
register."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lgt import LatticeSpec
from su2lgt.ansatz import build_pool
from su2lgt.circuits import Circuit, Gate
from su2lgt.dynamics import trotter_schedule
from su2lgt.hamiltonian import build_hamiltonian
from su2lgt.pauli import PauliString, PauliSum, Sector, StateVector
from su2lgt.spectra import sc_state

SRC = Path(__file__).resolve().parent.parent / "src"

# real and imaginary parts: exact zeros of both signs, or a finite value
_PART = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(-2.0, 2.0, allow_subnormal=False))


@st.composite
def sector_vectors(draw):
    """(n, sorted sector indices, amplitudes on them)."""
    n = draw(st.integers(1, 8))
    idx = sorted(draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=12)))
    v = [complex(draw(_PART), draw(_PART)) for _ in idx]
    return n, np.array(idx, dtype=np.int64), np.array(v, dtype=complex)


def _gates(n):
    one = st.builds(lambda kind, q, p: Gate(kind, (q,), p if kind[0] == "r" else None),
                    st.sampled_from(["h", "s", "sdg", "x", "z", "rx", "ry", "rz"]),
                    st.integers(0, n - 1), st.floats(-3.0, 3.0))
    if n == 1:
        return st.lists(one, max_size=8)
    two = st.builds(lambda kind, q, d: Gate(kind, (q, (q + d) % n)),
                    st.sampled_from(["cx", "cz"]), st.integers(0, n - 1),
                    st.integers(1, n - 1))
    return st.lists(st.one_of(one, two), max_size=8)


@settings(max_examples=60, deadline=None)
@given(sector_vectors())
def test_embed_builds_the_zero_filled_register_and_keeps_its_support(drawn):
    n, idx, v = drawn
    state = Sector(n, idx).embed(v)
    amps = np.zeros(1 << n, dtype=complex)
    amps[idx] = v
    assert state.amps.tobytes() == amps.tobytes()
    support, values = state.support()
    assert np.array_equal(support, np.flatnonzero(amps))
    assert values.tobytes() == amps[support].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_support_state_gives_the_bits_of_its_full_register(data):
    n, idx, v = data.draw(sector_vectors())
    state = Sector(n, idx).embed(v)
    full = StateVector(state.amps, normalized=False)
    # Sector.extract, on a drawn sector
    other = Sector(n, sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1),
                                                min_size=1))))
    assert other.extract(state).tobytes() == other.extract(full).tobytes()
    # Sector.closure_under, and extract on the closure
    terms = data.draw(st.lists(st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                                         st.floats(-2.0, 2.0)), min_size=1, max_size=4))
    op = PauliSum(n, [PauliString.from_label(label, c) for label, c in terms])
    if not state.support()[0].size:
        for s in (state, full):
            with pytest.raises(ValueError, match="zero state"):
                Sector.closure_under([op], s)
    else:
        a, b = Sector.closure_under([op], state), Sector.closure_under([op], full)
        assert a.indices.tobytes() == b.indices.tobytes()
        assert [vals.tobytes() for _, vals in a._swept] == [
            vals.tobytes() for _, vals in b._swept]
        assert a.extract(state).tobytes() == a.extract(full).tobytes()
    # Circuit.apply, on the support path and the whole-register path
    circ = Circuit(n, data.draw(_gates(n)), data.draw(st.sampled_from([0.0, 0.7])))
    assert circ.apply(state).amps.tobytes() == circ.apply(full).amps.tobytes()


def test_element_chunks_do_not_move_bits(monkeypatch):
    # each row of the sign table reduces on its own, so one row per chunk
    # and the whole sector in one chunk give the same elements
    spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))
    h = build_hamiltonian(spec).total
    l2 = LatticeSpec(L=2, heavy_positions=frozenset({0}))
    gens = [op.sum for op in build_pool(l2)] + [
        f.generator for f in trotter_schedule(l2, 2)]

    def bits(chunk):
        monkeypatch.setattr(Sector, "_CHUNK", chunk)
        swept = Sector.closure(h, sc_state(spec))
        out = []
        for sector in (swept, Sector(swept.n, swept.indices)):
            m = sector.restrict(h)
            out += [part.tobytes() for part in (m.rows, m.cols, m.re, m.im)
                    if part is not None]
        sector = Sector.closure_under(gens, sc_state(l2))
        for gen in gens:
            w, v, vh = sector.eigh(gen)
            out += [w.tobytes()] + [part.tobytes() for b in (v, vh)
                                    for part in (b.rows, b.cols, b.re, b.im)
                                    if part is not None]
        return out

    assert bits(1) == bits(1 << 40)


def _kept_mib(code: str) -> float:
    """MiB that tracemalloc still counts after `code` runs in a fresh
    interpreter, from a start set after the imports (scipy's too); code
    leaves the object it measures bound."""
    script = ("import gc, tracemalloc\n"
              "import scipy.linalg, scipy.sparse.linalg\n"
              "from su2lgt import LatticeSpec\n"
              "from su2lgt.dynamics import MotionSchedule, run_protocol\n"
              "from su2lgt.hamiltonian import build_hamiltonian\n"
              "from su2lgt.spectra import lanczos_ground, sc_state\n"
              "spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))\n"
              "tracemalloc.start()\n"
              "gc.collect()\n"
              "before = tracemalloc.get_traced_memory()[0]\n"
              f"{code}\n"
              "gc.collect()\n"
              "print((tracemalloc.get_traced_memory()[0] - before) / 2 ** 20)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.split()[-1])


def test_an_exact_protocol_keeps_no_full_register():
    # the evolve defaults at L = 3: 41 records on a 600-state sector; each
    # full register would be 4 MiB
    kept = _kept_mib("run = run_protocol(spec, MotionSchedule(events=(), "
                     "horizon=10.0, dt=0.25))\nassert len(run.records) == 41")
    assert kept < 4.0


def test_the_ground_state_holds_no_full_register():
    # 600 amplitudes and indices on the sector; the register would be 4 MiB
    kept = _kept_mib("h = build_hamiltonian(spec).total\n"
                     "start = sc_state(spec)\n"
                     "before = tracemalloc.get_traced_memory()[0]\n"
                     "e, psi = lanczos_ground(h, start)")
    assert kept < 1.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_overlap_norm_and_expectation_on_the_support(data):
    # kept on their supports or on the whole register, states give the
    # inner products of their full registers
    n, idx, v = data.draw(sector_vectors())
    jdx = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=12)))
    w = np.array([complex(data.draw(_PART), data.draw(_PART)) for _ in jdx])
    a, b = Sector(n, idx).embed(v), Sector(n, jdx).embed(w)
    full_a, full_b = (StateVector(s.amps, normalized=False) for s in (a, b))
    want = np.vdot(a.amps, b.amps)
    for x, y in [(a, b), (full_a, b), (a, full_b), (full_a, full_b)]:
        assert x.overlap(y) == pytest.approx(want, abs=1e-12)
        assert x.norm() == pytest.approx(np.linalg.norm(x.amps), abs=1e-12)
    terms = data.draw(st.lists(st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                                         st.floats(-2.0, 2.0)), min_size=1, max_size=4))
    op = PauliSum(n, [PauliString.from_label(label, c) for label, c in terms])
    want = np.vdot(a.amps, op.to_dense() @ a.amps).real
    for x in (a, full_a):
        assert op.expectation(x) == pytest.approx(want, abs=1e-12)


def test_overlap_and_expectation_build_no_full_register():
    # a fresh interpreter: on the L = 3 prepared state (488 support states)
    # infidelity_density and <Delta H_g> read the supports; through .amps
    # each built the 4 MiB register and traced 8.0 and 8.1 MiB peaks
    script = ("import tracemalloc\n"
              "from su2lgt import LatticeSpec\n"
              "from su2lgt.ansatz import infidelity_density, prepared_state\n"
              "from su2lgt.observables import delta_hg_operator\n"
              "from su2lgt.spectra import ground_state\n"
              "spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))\n"
              "state, target = prepared_state(spec), ground_state(spec)[1]\n"
              "op = delta_hg_operator(spec)\n"
              "tracemalloc.start()\n"
              "infidelity_density(state, target, 3)\n"
              "print(tracemalloc.get_traced_memory()[1] / 2 ** 20)\n"
              "tracemalloc.reset_peak()\n"
              "op.expectation(state)\n"
              "print(tracemalloc.get_traced_memory()[1] / 2 ** 20)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    overlap_mib, expectation_mib = map(float, proc.stdout.split())
    assert overlap_mib < 1.0      # 0.06 MiB when measured
    assert expectation_mib < 1.0  # 0.52 MiB when measured
