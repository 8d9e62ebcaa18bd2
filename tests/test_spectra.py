import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2lgt import LatticeSpec
from su2lgt.hamiltonian import build_hamiltonian, charge_square, mass_offset
from su2lgt.pauli import PauliString, PauliSum, Sector, StateVector
from su2lgt.spectra import (LanczosError, _bounded_below, ground_state, hadron_mass,
                           lanczos_ground, sc_state)

# the seven sectors of the ground workload, the published ones of L <= 3
PAPER_SECTORS = [(1, ()), (1, (0,)), (2, ()), (2, (0,)), (3, ()), (3, (0,)),
                 (3, (0, 2))]


def _heavy_sector_indices(spec):
    """Basis states whose occupied heavy sites hold exactly one fermion and
    whose unoccupied heavy sites are empty (both color qubits |1>)."""
    n = spec.n_qubits
    keep = []
    for idx in range(1 << n):
        ok = True
        for x in range(spec.L):
            bits = [(idx >> (n - 1 - j)) & 1 for j in spec.qubits_of(3 * x)]
            if x in spec.heavy_positions:
                ok &= sum(bits) == 1
            else:
                ok &= sum(bits) == 2
        if ok:
            keep.append(idx)
    return keep


@pytest.mark.parametrize("L,heavy", [(1, ()), (1, (0,)), (2, (0,))])
def test_lanczos_matches_dense_diagonalization(L, heavy):
    spec = LatticeSpec(L=L, heavy_positions=frozenset(heavy))
    terms = build_hamiltonian(spec)
    h = terms.kinetic + terms.mass + terms.gauge + terms.penalty
    e, psi = ground_state(spec)
    sector = _heavy_sector_indices(spec)
    dense = np.linalg.eigvalsh(h.to_dense()[np.ix_(sector, sector)])
    assert e == pytest.approx(dense[0] + mass_offset(spec), abs=1e-9)
    # the returned vector is the corresponding eigenstate
    hv = h.apply(psi)
    assert np.max(np.abs(hv.amps - (e - mass_offset(spec)) * psi.amps)) < 1e-7


def test_lanczos_on_degenerate_diagonal_operator():
    from su2lgt.pauli import PauliString, PauliSum

    h = PauliSum(3, [PauliString.from_label("ZII", 1.0),
                     PauliString.from_label("III", -1.0)])
    rng = np.random.default_rng(5)
    v = rng.standard_normal(8)
    e, psi = lanczos_ground(h, StateVector(v / np.linalg.norm(v)))
    assert e == pytest.approx(-2.0, abs=1e-9)
    assert np.linalg.norm(h.apply(psi).amps - e * psi.amps) < 1e-10


def test_lanczos_on_one_state_sector_returns_that_state():
    # a basis state of a diagonal operator is its own sector
    from su2lgt.pauli import PauliString, PauliSum

    h = PauliSum(3, [PauliString.from_label("ZII", 0.7),
                     PauliString.from_label("IZZ", -0.3)])
    start = StateVector.basis(3, 0b101)
    e, psi = lanczos_ground(h, start)
    assert e == pytest.approx(-0.7 + 0.3, abs=1e-14)
    assert abs(np.vdot(start.amps, psi.amps)) == pytest.approx(1.0, abs=1e-14)
    assert np.count_nonzero(psi.amps) == 1


def test_eigensolver_failure_is_lanczos_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    spec = LatticeSpec(L=1, heavy_positions=frozenset({0}))
    with pytest.raises(LanczosError, match="did not converge"):
        lanczos_ground(build_hamiltonian(spec).total, sc_state(spec))


def _count_solves(monkeypatch, sizes=None):
    """Patch numpy's cholesky and eigh to log each call: ("cholesky", did
    it raise) or ("eigh", the matrix's size).  Each factored matrix's size
    also goes to sizes, when given."""
    calls, cholesky, eigh = [], np.linalg.cholesky, np.linalg.eigh

    def counted_cholesky(a):
        if sizes is not None:
            sizes.append(len(a))
        try:
            out = cholesky(a)
        except np.linalg.LinAlgError:
            calls.append(("cholesky", True))
            raise
        calls.append(("cholesky", False))
        return out

    def counted_eigh(a):
        calls.append(("eigh", len(a)))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return calls


def test_certificate_failure_falls_back_to_the_dense_eigh(monkeypatch):
    # (|00> + |11>)/sqrt(2) is the eigenstate of XX + ZZ at 2 in its
    # two-state sector; the lowest, at 0, is orthogonal to it, so Lanczos
    # stops at once on E = 2, the Cholesky certificate fails, and eigh runs
    h = PauliSum(2, [PauliString.from_label("XX"), PauliString.from_label("ZZ")])
    start = StateVector.on_basis(2, [0b00, 0b11], [2 ** -0.5, 2 ** -0.5])
    dense = Sector.closure(h, start).dense(h)
    evals, evecs = np.linalg.eigh(dense)
    calls = _count_solves(monkeypatch)
    e, psi = lanczos_ground(h, start)
    assert calls == [("eigh", 1), ("cholesky", True), ("eigh", 2)]
    assert e == evals[0] == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(psi.support()[1], evecs[:, 0])


def test_certificate_holds_no_dense_matrix():
    # the 690-state L = 3, n_Q = 2 sector: a passing certificate factors
    # one BFS level at a time (at most 176 states), the Lanczos basis grows
    # as its 120 rows fill and is gone by then, and the residual is a
    # sparse product, so the traced peak stays under one n x n array of
    # doubles (0.57 n^2 when measured; 2.25 while the certificate filled
    # the shifted H_S, 4.25 with an unshifted H_S and the basis beside it)
    import tracemalloc

    spec = LatticeSpec(L=3, heavy_positions=frozenset((0, 2)))
    h, start = build_hamiltonian(spec).total, sc_state(spec)
    size = len(Sector.closure(h, start))
    assert size == 690
    tracemalloc.start()
    try:
        e, psi = lanczos_ground(h, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * size * 8
    assert np.linalg.norm(h.apply(psi).amps - e * psi.amps) < 1e-10


def test_paper_sectors_pass_the_certificate(monkeypatch):
    # the seven sectors of the ground workload: Lanczos alone, no full eigh,
    # and one Cholesky factorization per BFS level, none larger than a level
    sizes = []
    calls = _count_solves(monkeypatch, sizes)
    for L, heavy in PAPER_SECTORS:
        spec = LatticeSpec(L=L, heavy_positions=frozenset(heavy))
        h = build_hamiltonian(spec).total
        sector = Sector.closure(h, sc_state(spec))
        levels = np.bincount(sector.levels)
        del calls[:], sizes[:]
        lanczos_ground(h, sc_state(spec))
        assert calls.count(("cholesky", False)) == levels.size
        assert ("cholesky", True) not in calls and ("eigh", len(sector)) not in calls
        assert max(sizes) == levels.max()


@functools.cache
def _paper_problem(L, heavy):
    """(the sector's SectorMatrix H_S, its levels, its dense H_S, the ground
    energy) of a published sector, without the mass offset."""
    spec = LatticeSpec(L=L, heavy_positions=frozenset(heavy))
    h = build_hamiltonian(spec).total
    sector = Sector.closure(h, sc_state(spec))
    return (sector.restrict(h), sector.levels, sector.dense(h),
            lanczos_ground(h, sc_state(spec))[0])


def _dense_certificate(dense, energy):
    """Whether the one dense Cholesky of H_S - (E - 1e-9 max(1, |E|)), which
    the block certificate replaces, exists (the same margin wherever H_S's
    largest absolute row sum is at least 1, as in every sector here)."""
    shift = energy - 1e-9 * max(1.0, abs(energy))
    try:
        np.linalg.cholesky(dense - shift * np.eye(len(dense)))
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("L,heavy", PAPER_SECTORS)
def test_followed_entries_join_adjacent_levels(L, heavy):
    # the closure's fronts are BFS levels, so every entry above ZERO_TOL
    # stays in one level or joins two adjacent ones: H_S is block
    # tridiagonal in level order
    hr, levels, _, _ = _paper_problem(L, heavy)
    big = np.abs(hr.vals) > PauliSum.ZERO_TOL
    assert np.abs(levels[hr.rows] - levels[hr.cols])[big].max() <= 1
    fronts = {(3, ()): [1, 10, 37, 80, 98, 70, 42, 28, 16, 10, 5, 2, 1],
              (3, (0,)): [2, 18, 68, 150, 174, 110, 52, 18, 6, 2],
              (3, (0, 2)): [4, 30, 102, 176, 160, 106, 58, 30, 16, 6, 2]}
    if (L, heavy) in fronts:
        assert np.bincount(levels).tolist() == fronts[L, heavy]


@pytest.mark.parametrize("L,heavy", PAPER_SECTORS)
def test_block_certificate_decides_as_the_dense_cholesky(L, heavy):
    hr, levels, dense, energy = _paper_problem(L, heavy)
    assert _bounded_below(hr, levels, energy) is _dense_certificate(dense, energy) is True
    above = energy + 1e-6
    assert _bounded_below(hr, levels, above) is _dense_certificate(dense, above) is False


def test_an_entry_that_skips_a_level_comes_off_the_shift():
    # from |00>: a controlled X reaches |01> (level 1), then a controlled X
    # and XX + YY reach |11> and |10> (level 2); the XX + YY element from
    # |00> to |11> is 0.3 - (0.1 + 0.2) = -5.6e-17, kept by restrict but
    # not followed, so it joins levels 0 and 2 and its size comes off the
    # certificate's shift
    h = PauliSum(2, [PauliString.from_label(label, c) for label, c in [
        ("IX", 0.5), ("ZX", 0.5), ("XI", 0.5), ("XZ", -0.5), ("XX", 0.3),
        ("YY", 0.1 + 0.2), ("ZI", 0.7)]])
    start = StateVector.basis(2, 0b00)
    sector = Sector.closure(h, start)
    hr, levels = sector.restrict(h), sector.levels
    assert levels.tolist() == [0, 1, 2, 2]
    skip = np.abs(levels[hr.rows] - levels[hr.cols]) > 1
    assert skip.any() and 0 < np.abs(hr.vals[skip]).max() < 1e-16
    dense = sector.dense(h)
    lowest = np.linalg.eigvalsh(dense)[0]
    for energy, passes in ((lowest, True), (lowest + 1e-6, False)):
        assert _bounded_below(hr, levels, energy) is _dense_certificate(dense, energy) is passes
    e, psi = lanczos_ground(h, start)
    assert e == pytest.approx(lowest, abs=1e-12)


def test_a_small_operator_is_certified_on_its_own_scale():
    # 1e-12 XX: (|00> + |11>)/sqrt(2) is its eigenstate at 1e-12 and the
    # lowest, at -1e-12, shares the sector.  Lanczos stops on 1e-12, and
    # a margin of 1e-9 would let the certificate pass it; scaled by the
    # operator's row sum, it fails, and eigh gives the lowest
    h = PauliSum(2, [PauliString.from_label("XX", 1e-12)])
    start = StateVector.on_basis(2, [0b00, 0b11], [2 ** -0.5, 2 ** -0.5])
    e, psi = lanczos_ground(h, start)
    assert e == pytest.approx(-1e-12, rel=1e-9)
    assert np.linalg.norm(h.apply(psi).amps - e * psi.amps) < 1e-24


@st.composite
def pauli_problems(draw):
    """(a Hermitian PauliSum of 1-6 qubits, a normalized start state on a
    few basis states)."""
    n = draw(st.integers(1, 6))
    terms = draw(st.lists(st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                                    st.floats(-2.0, 2.0)), min_size=1, max_size=8))
    h = PauliSum(n, [PauliString.from_label(label, c) for label, c in terms])
    idx = sorted(draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=4)))
    # equal weights often span a symmetry class without the lowest state
    amps = np.array([draw(st.one_of(st.sampled_from([1.0, -1.0, 1j]), st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False))) for _ in idx])
    if not np.linalg.norm(amps) > 1e-3:
        amps[0] = 1.0
    return h, StateVector.on_basis(n, idx, amps / np.linalg.norm(amps))


@settings(max_examples=80, deadline=None)
@given(pauli_problems())
def test_lanczos_ground_matches_the_dense_eigh(problem):
    h, start = problem
    e, psi = lanczos_ground(h, start)
    want = np.linalg.eigvalsh(Sector.closure(h, start).dense(h))[0]
    assert abs(e - want) <= 1e-12 * max(1.0, abs(want))
    assert np.linalg.norm(h.apply(psi).amps - e * psi.amps) < 1e-10


def test_sc_vacuum_is_charge_free_basis_state():
    spec = LatticeSpec(L=2)
    s = sc_state(spec)
    assert np.count_nonzero(s.amps) == 1
    for n in range(spec.n_staggered):
        assert charge_square(spec, n).expectation(s) == pytest.approx(
            0.0, abs=1e-12)
    terms = build_hamiltonian(spec)
    assert terms.mass.expectation(s) + mass_offset(spec) == pytest.approx(
        0.0, abs=1e-12)
    assert terms.gauge.expectation(s) == pytest.approx(0.0, abs=1e-12)


def test_sc_heavy_sector_screens_the_static_charge():
    # the heavy quark binds with a light quark on the same cell into a color
    # singlet: two amplitudes, no gauge energy, one light-quark mass
    spec = LatticeSpec(L=2, heavy_positions=frozenset({0}))
    s = sc_state(spec)
    assert np.count_nonzero(s.amps) == 2
    terms = build_hamiltonian(spec)
    assert terms.gauge.expectation(s) == pytest.approx(0.0, abs=1e-12)
    assert terms.penalty.expectation(s) == pytest.approx(0.0, abs=1e-12)
    assert terms.mass.expectation(s) + mass_offset(spec) == pytest.approx(
        spec.mq, abs=1e-12)


def test_hadron_mass_is_sector_energy_difference(ground_cache):
    from conftest import spec_for

    e1, _ = ground_cache(spec_for(1, (0,)))
    e0, _ = ground_cache(spec_for(1))
    assert hadron_mass(spec_for(1, (0,))) == pytest.approx(e1 - e0, abs=1e-9)


def test_ground_state_reproducible(ground_cache):
    from conftest import spec_for

    spec = spec_for(1)
    e1, psi1 = ground_state(spec)
    e2, psi2 = ground_state(spec)
    assert e1 == e2
    assert np.array_equal(psi1.amps, psi2.amps)
