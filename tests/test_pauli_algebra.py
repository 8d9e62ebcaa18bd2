"""PauliSum algebra against two oracles: dense matrices, and a dict of terms
that accumulates and prunes by the rules the array form keeps bit for bit.

The dict rules: each key's sum starts from 0.0 (so a fresh -0.0 part becomes
+0.0), except that in a + b a key of a starts from a's coefficient as
stored; a product runs over both sums' terms in (x, z) order, self's terms
outer; sums at or below ZERO_TOL are dropped after every operation.
"""
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lgt import LatticeSpec
from su2lgt.circuits import clifford_conjugate, ghz_evolution_circuit
from su2lgt.dynamics import trotter_schedule
from su2lgt.hamiltonian import build_hamiltonian
from su2lgt.pauli import PauliString, PauliSum

TOL = PauliSum.ZERO_TOL


class DictSum:
    """The oracle: {(x, z): coeff}, with Python's complex arithmetic."""

    def __init__(self, n, terms=()):
        self.n, self.terms = n, {}
        for x, z, c in terms:
            self.terms[x, z] = self.terms.get((x, z), 0.0) + c
        self._prune()

    def _prune(self):
        self.terms = {k: c for k, c in self.terms.items() if abs(c) > TOL}
        return self

    def __add__(self, other):
        out = DictSum(self.n)
        out.terms = dict(self.terms)
        for k, c in other.terms.items():
            out.terms[k] = out.terms.get(k, 0.0) + c
        return out._prune()

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, s):
        out = DictSum(self.n)
        out.terms = {k: c * s for k, c in self.terms.items()}
        return out._prune()

    def __mul__(self, other):
        products = []
        for (x1, z1), c1 in sorted(self.terms.items()):
            for (x2, z2), c2 in sorted(other.terms.items()):
                x, z = x1 ^ x2, z1 ^ z2
                phase = 1j ** (((x1 & z1).bit_count() + (x2 & z2).bit_count()
                                - (x & z).bit_count()) % 4)
                if (z1 & x2).bit_count() % 2:
                    phase = -phase
                products.append((x, z, c1 * c2 * phase))
        return DictSum(self.n, products)

    def adjoint(self):
        out = DictSum(self.n)
        out.terms = {k: c.conjugate() for k, c in self.terms.items()}
        return out


def _bits(pairs):
    """(x, z, raw bits of the real part, raw bits of the imaginary part)."""
    return [(int(x), int(z), struct.pack("<dd", c.real, c.imag)) for x, z, c in pairs]


def _same(got: PauliSum, want: DictSum):
    assert got.n == want.n
    assert _bits((t.x, t.z, t.coeff) for t in got.terms()) == _bits(
        (x, z, c) for (x, z), c in sorted(want.terms.items()))


# parts that keep every sum exact, parts that round, and signed zeros; an
# exact cancellation comes from drawing a key twice with opposite parts
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.25, 1.0, -2.0, 0.0625]),
                   st.floats(-3.0, 3.0, allow_subnormal=False),
                   st.sampled_from([0.1, -0.7, 1.0 / 3.0, 1e-15, -4e-15]))
_COEFFS = st.builds(complex, _PARTS, _PARTS)


@st.composite
def _sums(draw, n):
    keys = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    terms = []
    for key, c in draw(st.lists(st.tuples(keys, _COEFFS), max_size=8)):
        terms.append((*key, c))
        if draw(st.booleans()):  # the same key again, cancelling it or not
            terms.append((*key, draw(st.sampled_from([-c, c, complex(-c.real, c.imag)]))))
    return terms


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 4))
    return n, draw(_sums(n)), draw(_sums(n)), draw(_COEFFS)


def _pair(n, terms):
    return (PauliSum(n, [PauliString(n, x, z, c) for x, z, c in terms]),
            DictSum(n, terms))


@given(_cases())
@settings(max_examples=200, deadline=None)
def test_algebra_keeps_the_bits_of_the_dict_rules(case):
    n, ta, tb, s = case
    a, da = _pair(n, ta)
    b, db = _pair(n, tb)
    _same(a, da)
    _same(b, db)
    _same(a + b, da + db)
    _same(a - b, da - db)
    _same(a * b, da * db)
    _same(s * a, da.scaled(s))
    _same(a.adjoint(), da.adjoint())
    # stored parts that a sum must not renormalize: -0.0 from a scalar
    _same(s * a + b, da.scaled(s) + db)
    _same(b + s * a, db + da.scaled(s))
    _same((a * b).adjoint() - s * b, (da * db).adjoint() - db.scaled(s))


@given(_cases())
@settings(max_examples=100, deadline=None)
def test_algebra_matches_dense_matrices(case):
    n, ta, tb, s = case
    a, b = _pair(n, ta)[0], _pair(n, tb)[0]
    da, db = a.to_dense(), b.to_dense()
    assert np.allclose((a + b).to_dense(), da + db, rtol=0, atol=1e-12)
    assert np.allclose((a - b).to_dense(), da - db, rtol=0, atol=1e-12)
    assert np.allclose((a * b).to_dense(), da @ db, rtol=0, atol=1e-12)
    assert np.allclose((s * a).to_dense(), s * da, rtol=0, atol=1e-12)
    assert np.allclose(a.adjoint().to_dense(), da.conj().T, rtol=0, atol=1e-12)


def test_sums_reject_a_register_size_mismatch():
    # a 2-qubit sum once came back, with the 3-qubit term's masks misread
    a = PauliSum(2, [PauliString.from_label("XZ")])
    b = PauliSum(3, [PauliString.from_label("ZZY")])
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: a * b):
        with pytest.raises(ValueError, match="register size mismatch"):
            op()


def test_sums_take_weak_references():
    # benchmark/spans.py marks the operators past their first matvec in a
    # WeakSet
    op = PauliSum(1, [PauliString.from_label("Z")])
    assert weakref.ref(op)() is op


def test_builders_make_no_pauli_string(monkeypatch):
    spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))
    ghz = ghz_evolution_circuit((0, 1, 2, 3), spec.n_qubits).gates
    op = build_hamiltonian(spec).kinetic

    def refuse(*args, **kwargs):
        raise AssertionError("a PauliString was made")

    monkeypatch.setattr(PauliString, "__init__", refuse)
    assert len(build_hamiltonian(spec).total) == 474
    assert len(trotter_schedule.__wrapped__(spec, 2)) > 0
    assert len(clifford_conjugate(ghz, op)) == len(op)
