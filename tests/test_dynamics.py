import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from su2lgt import dynamics
from su2lgt.dynamics import (MotionSchedule, ToyModelParams, _propagate, _SectorMeter,
                             _sector_expectations, dedx_estimate, evolve_exact, fswap_move,
                             gauge_pair_rounds, run_protocol,
                             toy_fswap_expectation, trotter_schedule,
                             trotter_step)
from su2lgt.hamiltonian import build_hamiltonian, mass_offset
from su2lgt.observables import z_profile
from su2lgt.pauli import PauliString, PauliSum, Sector, StateVector
from su2lgt.spectra import lanczos_ground, sc_state

from conftest import random_state, spec_for


def _full_h(spec, symmetric=True):
    t = build_hamiltonian(spec, symmetric_gauge=symmetric)
    return t.kinetic + t.mass + t.gauge


def test_evolve_exact_matches_dense_expm():
    spec = spec_for(1, (0,))
    h = _full_h(spec)
    rng = np.random.default_rng(7)
    v = random_state(spec.n_qubits, rng)
    out = evolve_exact(StateVector(v), h, 0.83)
    oracle = expm(-0.83j * h.to_dense()) @ v
    assert np.max(np.abs(out.amps - oracle)) < 1e-10


def test_evolve_exact_raises_when_energy_is_not_conserved(monkeypatch):
    from su2lgt.dynamics import KrylovError

    exact = dynamics._lanczos_step

    def drifting(hs, w, tau):
        out, step = exact(hs, w, tau)
        return out + 1e-4 * w[::-1], step

    monkeypatch.setattr(dynamics, "_lanczos_step", drifting)
    spec = spec_for(1, (0,))
    v = random_state(spec.n_qubits, np.random.default_rng(3))
    with pytest.raises(KrylovError):
        evolve_exact(StateVector(v), _full_h(spec), 0.5)


def test_evolve_exact_rejects_a_non_hermitian_operator():
    spec = spec_for(1, (0,))
    v = StateVector(random_state(spec.n_qubits, np.random.default_rng(3)))
    h = _full_h(spec) + PauliSum(spec.n_qubits, [
        PauliString.from_label("X" + "I" * (spec.n_qubits - 1), 0.5j)])
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_exact(v, h, 0.5)


@pytest.mark.parametrize("L", [2, 3])
def test_propagate_agrees_with_expm_multiply_on_an_interval_sector(L):
    # the sector of the ground state after a 0 -> 1 move, as run_protocol
    # propagates it: one time, and a grid that starts after 0
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    spec = spec_for(L, (0,))
    h = build_hamiltonian(spec).total
    moved = fswap_move(lanczos_ground(h, sc_state(spec))[1], spec, 0, 1)
    sector = Sector.closure(h, moved)
    hs, v = sector.restrict(h), sector.extract(moved)
    csr = sparse.csr_matrix(sector.dense(h))
    one = _propagate(hs, v, 2.5, 2.5, 1, 1e-11)
    assert np.abs(one - expm_multiply(-2.5j * csr, v)).max() < 1e-12
    grid = _propagate(hs, v, 0.5, 3.0, 6, 1e-11)
    oracle = expm_multiply(-1j * csr, v, start=0.5, stop=3.0, num=6, endpoint=True)
    assert np.abs(grid - oracle).max() < 1e-12


hermitian_sums = st.lists(st.tuples(st.text(alphabet="IXYZ", min_size=4, max_size=4),
                                    st.floats(-1.0, 1.0)), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(hermitian_sums, st.sets(st.integers(0, 15), min_size=1, max_size=4),
       st.sampled_from([0.0, 0.3, 2.0]), st.sampled_from([10, 40]), st.integers(0, 2**31 - 1))
@example([("ZIZI", 0.7), ("IIIZ", -0.2)], {6}, 2.0, 40, 0)  # a one-state sector
@example([("ZYYX", -0.9), ("IIIZ", 0.8), ("YYZY", 0.1), ("YZXZ", -1.0), ("XZYI", 0.5),
          ("ZIIZ", 0.1)], {1, 4, 6, 7}, 2.0, 10, 1)
def test_propagate_agrees_with_dense_expm(pairs, support, t, dim, seed):
    # a basis of 10 fills on the 12-state sector of the second example before
    # the estimate is met, so 16 of its 18 steps halve
    h = PauliSum(4, [PauliString.from_label(lab, c) for lab, c in pairs])
    amps = np.zeros(16, dtype=complex)
    amps[sorted(support)] = random_state(2, np.random.default_rng(seed))[:len(support)]
    state = StateVector(amps / np.linalg.norm(amps))
    sector = Sector.closure(h, state)
    v = sector.extract(state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_KRYLOV_DIM", dim)
        got = _propagate(sector.restrict(h), v, 0.0, t, 3, 1e-9)
    for ti, row in zip(np.linspace(0.0, t, 3), got):
        assert np.abs(row - expm(-1j * ti * sector.dense(h)) @ v).max() < 1e-11
    assert got[0].tobytes() == v.astype(complex).tobytes()


def test_propagate_from_an_eigenvector_breaks_down_exactly():
    # (|001> + sqrt 2 |010> + |100>)/2 is the 2 sqrt 2 eigenvector of the
    # hopping chain on its 3-state sector: the first residual is 0, so one
    # step of one product (and two for the drift check) is exact
    class Counted:
        def __init__(self, m):
            self.m, self.calls = m, 0

        def __matmul__(self, x):
            self.calls += 1
            return self.m @ x

    h = PauliSum(3, [PauliString.from_label(lab) for lab in ("XXI", "YYI", "IXX", "IYY")])
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 0.5, np.sqrt(0.5), 0.5
    state = StateVector(amps)
    sector = Sector.closure(h, state)
    hs, v = Counted(sector.restrict(h)), sector.extract(state)
    got = _propagate(hs, v, 7.0, 7.0, 1, 1e-11)[0]
    assert len(sector) == 3 and hs.calls == 3
    assert np.abs(got - np.exp(-14j * np.sqrt(2.0)) * v).max() < 1e-13


def test_trotter_step_is_unitary_and_trivial_at_zero():
    spec = spec_for(2, (0,))
    rng = np.random.default_rng(9)
    v = random_state(spec.n_qubits, rng)
    for order in (1, 2):
        out = trotter_step(StateVector(v), spec, 0.7, order=order)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        still = trotter_step(StateVector(v), spec, 0.0, order=order)
        assert np.max(np.abs(still.amps - v)) < 1e-12


@pytest.mark.parametrize("order,power", [(1, 2), (2, 3)])
def test_trotter_local_error_order(order, power):
    # a single step of size t has error O(t^(p+1)); halving t must reduce
    # the error by about 2^(p+1)
    spec = spec_for(2, (0,))
    h = _full_h(spec)
    rng = np.random.default_rng(13)
    v = random_state(spec.n_qubits, rng)

    def err(t):
        ex = evolve_exact(StateVector(v.copy()), h, t)
        tr = trotter_step(StateVector(v.copy()), spec, t, order=order)
        return np.linalg.norm(ex.amps - tr.amps)

    ratio = err(0.1) / err(0.05)
    assert np.log2(ratio) == pytest.approx(power, abs=0.15)


def test_gauge_pair_rounds_are_site_disjoint():
    pairs = {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0, (2, 4): 1.0}
    rounds = gauge_pair_rounds(pairs)
    assert sorted(p for r in rounds for p in r) == sorted(pairs)
    for r in rounds:
        sites = [s for p in r for s in p]
        assert len(sites) == len(set(sites))


def test_fswap_move_relocates_the_heavy_quark():
    spec = spec_for(2, (0,))
    from su2lgt.spectra import sc_state

    s = sc_state(spec)
    moved = fswap_move(s, spec, 0, 1)
    assert moved.norm() == pytest.approx(1.0, abs=1e-12)
    z = z_profile(moved)
    # occupied heavy site shows <Z> = 0 on its color pair, empty one -1
    assert z[0] == pytest.approx(-1.0, abs=1e-10)
    assert z[1] == pytest.approx(-1.0, abs=1e-10)
    assert z[6] == pytest.approx(0.0, abs=1e-10)
    assert z[7] == pytest.approx(0.0, abs=1e-10)
    # moving back restores the original state up to global phase
    back = fswap_move(moved, spec, 1, 0)
    overlap = np.vdot(back.amps, s.amps)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-10)


def test_run_protocol_conserves_energy_between_moves():
    spec = spec_for(2, (0,))
    schedule = MotionSchedule(events=((0.0, 0, 1),), horizon=2.0, dt=0.5)
    result = run_protocol(spec, schedule)
    totals = [r.energies["total"] for r in result.records]
    assert max(totals) - min(totals) < 1e-8
    # the move costs energy relative to the initial ground state
    assert totals[0] > result.initial_energy


def _chained_records(spec, schedule, state, evolver):
    """(t, state, energies, <Z>) at every record, the state advanced from
    record to record by evolve_exact or trotter_step (order 2), energies
    taken on each record's own sector and <Z> over the full register."""
    terms = build_hamiltonian(spec)
    pieces = {"kinetic": terms.kinetic, "mass": terms.mass,
              "gauge": terms.gauge, "penalty": terms.penalty}

    def advance(s, delta):
        if delta <= 1e-12:
            return s
        if evolver == "trotter":
            return trotter_step(s, spec, delta, order=2)
        return evolve_exact(s, terms.total, delta, tol=1e-9)

    events, t, out = list(schedule.events), 0.0, []
    for k in range(round(schedule.horizon / schedule.dt) + 1):
        t_k = k * schedule.dt
        while events and events[0][0] <= t_k + 1e-12:
            t_ev, x_from, x_to = events.pop(0)
            state = fswap_move(advance(state, t_ev - t), spec, x_from, x_to)
            t = t_ev
        state, t = advance(state, t_k - t), t_k
        energies = _sector_expectations(terms.total, state, pieces)
        energies["mass"] += mass_offset(spec)
        out.append((t, state, energies, z_profile(state)))
    return out


# moves on the time grid, off it, and two between one pair of records
_OFF_GRID = MotionSchedule(events=((0.0, 0, 1), (0.3, 1, 0), (1.2, 0, 1),
                                   (1.4, 1, 0), (2.0, 0, 1)), horizon=3.0, dt=0.5)
# the benchmark's motion workload
_MOTION = MotionSchedule(events=((0.0, 0, 1),), horizon=2.5, dt=2.5)


@pytest.mark.parametrize("L,schedule,evolver", [
    pytest.param(2, _OFF_GRID, "exact", id="2-schedule0"),
    pytest.param(3, _MOTION, "exact", id="3-schedule1"),
    pytest.param(2, _OFF_GRID, "trotter", id="2-schedule0-trotter"),
    pytest.param(3, _MOTION, "trotter", id="3-schedule1-trotter"),
])
def test_interval_records_match_chained_evolution(L, schedule, evolver):
    spec = spec_for(L, (0,))
    _, psi = lanczos_ground(build_hamiltonian(spec).total, sc_state(spec))
    run = run_protocol(spec, schedule, evolver=evolver, initial=psi,
                       krylov_tol=1e-9)
    chained = _chained_records(spec, schedule, psi, evolver)
    assert [r.t for r in run.records] == [t for t, _, _, _ in chained]
    for rec, (_, state, energies, z) in zip(run.records, chained):
        if evolver == "trotter":
            # the interval stepper gives the bits of the chained steps
            assert rec.state.amps.tobytes() == state.amps.tobytes()
        for name, value in energies.items():
            assert rec.energies[name] == pytest.approx(value, rel=0, abs=1e-12)
        assert np.max(np.abs(rec.z - z)) < 1e-12
        assert rec.energies["total"] == pytest.approx(
            sum(energies.values()), rel=0, abs=1e-12)


@pytest.mark.parametrize("evolver", ["exact", "trotter"])
def test_one_sector_closure_per_interval(monkeypatch, evolver):
    spec = spec_for(2, (0,))
    terms = build_hamiltonian(spec)
    h = terms.total
    _, psi = lanczos_ground(h, sc_state(spec))
    closures, decomposed = [], []
    closure_under, eigh = Sector.closure_under, Sector.eigh
    kinds = {h.to_text(): "start", terms.penalty.to_text(): "interval"}

    def counting_closures(cls, ops, state):
        # the starting energy closes under the total H, an interval under
        # the energy pieces, the penalty among them
        ops = list(ops)
        found = {kinds.get(op.to_text()) for op in ops if op.n == h.n} - {None}
        if found:
            closures.append(found)
        return closure_under(ops, state)

    def counting_decompositions(self, op):
        decomposed.append(id(op))
        return eigh(self, op)

    monkeypatch.setattr(Sector, "closure_under", classmethod(counting_closures))
    monkeypatch.setattr(Sector, "eigh", counting_decompositions)
    # three intervals: [0, 0.25) with 1 record, [0.25, 1) with 1, [1, 2] with 3
    schedule = MotionSchedule(events=((0.25, 0, 1), (1.0, 1, 0)), horizon=2.0,
                              dt=0.5)
    run = run_protocol(spec, schedule, evolver=evolver, initial=psi)
    assert len(run.records) == 5
    # one for the starting energy of the supplied state, one per interval
    assert closures == [{"start"}] + [{"interval"}] * 3
    if evolver == "trotter":
        # each distinct factor is decomposed once per interval, not per record
        factors = {id(f.generator) for f in trotter_schedule(spec, 2)}
        assert sorted(decomposed.count(key) for key in factors) == [3] * len(factors)


@pytest.mark.parametrize("evolver", ["exact", "trotter"])
def test_intervals_read_no_table_of_the_total_h(monkeypatch, evolver):
    # the interval sectors close under the pieces and the propagator adds
    # their matrices, so only the starting energy of the supplied state
    # reads the total H's terms: once for its closure, once for <H>
    spec = spec_for(2, (0,))
    h = build_hamiltonian(spec).total
    _, psi = lanczos_ground(h, sc_state(spec))
    tables, term_table = [], Sector._term_table

    def counting_tables(op):
        tables.append(op.to_text() == h.to_text())
        return term_table(op)

    monkeypatch.setattr(Sector, "_term_table", staticmethod(counting_tables))
    run_protocol(spec, _OFF_GRID, evolver=evolver, initial=psi)
    assert tables.count(True) == 2 and len(tables) > 2


def test_a_start_outside_the_penalty_kernel_evolves_by_the_full_h():
    # the ground state plus a random vector on its sector has weight on the
    # states that the penalty lifts, so each interval runs on H, not H - P;
    # the oracle evolves by np.linalg.eigh of H's dense matrix on each
    # interval's sector, with the move in between
    spec = spec_for(2, (0,))
    terms = build_hamiltonian(spec)
    h = terms.total
    _, psi = lanczos_ground(h, sc_state(spec))
    sector = Sector.closure(h, psi)
    rng = np.random.default_rng(5)
    v = sector.extract(psi) + 0.5 * (rng.standard_normal(len(sector))
                                    + 1j * rng.standard_normal(len(sector)))
    start = sector.embed(v / np.linalg.norm(v))
    penalty = sector.restrict(terms.penalty) @ sector.extract(start)
    assert np.linalg.norm(penalty) > 0.1

    def dense_evolve(state, t):
        on = Sector.closure(h, state)
        w, vecs = np.linalg.eigh(on.dense(h))
        return on, on.embed(vecs @ (np.exp(-1j * t * w) * (vecs.conj().T @ on.extract(state))))

    schedule = MotionSchedule(events=((0.5, 0, 1),), horizon=1.25, dt=0.25)
    run = run_protocol(spec, schedule, initial=start)
    moved = fswap_move(dense_evolve(start, 0.5)[1], spec, 0, 1)
    assert [r.t for r in run.records] == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    for rec in run.records:
        on, oracle = (dense_evolve(start, rec.t) if rec.t < 0.5
                      else dense_evolve(moved, rec.t - 0.5))
        want = on.extract(oracle)
        assert np.abs(on.extract(rec.state) - want).max() < 1e-12
        assert rec.state.norm() == pytest.approx(1.0, abs=1e-12)
        for name, op in terms.as_dict().items():
            value = on.expectation(op, want) + (mass_offset(spec) if name == "mass" else 0.0)
            assert rec.energies[name] == pytest.approx(value, rel=0, abs=1e-12)
        assert rec.energies["penalty"] > 0.1


def test_exact_propagation_products(monkeypatch, capsys):
    # the propagator runs on H - P for the penalty-free states of the motion
    # workload and dedx: 35 products and 664 here, 160 and 1 381 on H
    from su2lgt.cli import main

    products = []
    lanczos = dynamics.lanczos

    def counting(hs, q0, size):
        for item in lanczos(hs, q0, size):
            products.append(1)
            yield item

    monkeypatch.setattr(dynamics, "lanczos", counting)
    spec = spec_for(3, (0,))
    _, psi = lanczos_ground(build_hamiltonian(spec).total, sc_state(spec))
    run_protocol(spec, _MOTION, initial=psi, krylov_tol=1e-9)
    assert 0 < len(products) <= 40
    products.clear()
    assert main(["dedx", "--L", "3"]) == 0
    assert "dedx_x21" in capsys.readouterr().out
    assert 0 < len(products) <= 700


def test_trotter_records_stay_on_their_interval_sector(monkeypatch):
    # every factor of the step conserves the interval's sector, so each
    # record's state lies in it, and measuring it there gives the energies
    # and <Z> of the sector h reaches from the record's own state
    spec = spec_for(2, (0,))
    terms = build_hamiltonian(spec)
    pieces = {"kinetic": terms.kinetic, "mass": terms.mass,
              "gauge": terms.gauge, "penalty": terms.penalty}
    _, psi = lanczos_ground(terms.total, sc_state(spec))
    measured = []
    record = _SectorMeter.record

    def keeping(self, *args):
        rec = record(self, *args)
        measured.append((self.sector, rec))
        return rec

    monkeypatch.setattr(_SectorMeter, "record", keeping)
    run = run_protocol(spec, _OFF_GRID, evolver="trotter", initial=psi)
    assert [id(rec) for _, rec in measured] == [id(rec) for rec in run.records]
    for sector, rec in measured:
        outside = rec.state.amps.copy()
        outside[sector.indices] = 0
        assert not np.any(outside)
        energies = _sector_expectations(terms.total, rec.state, pieces)
        energies["mass"] += mass_offset(spec)
        for name, value in energies.items():
            assert rec.energies[name] == pytest.approx(value, rel=0, abs=1e-12)
        assert np.max(np.abs(rec.z - z_profile(rec.state))) < 1e-12


def test_dedx_estimate_plateau_arithmetic():
    spec = spec_for(2, (0,))
    schedule = MotionSchedule(events=((0.0, 0, 1),), horizon=1.0, dt=0.5)
    vac = run_protocol(spec, schedule)
    med = run_protocol(spec_for(2, (0, 1)), schedule)
    r = dedx_estimate(vac, med)
    assert r.vac_plateaus[0] == pytest.approx(0.0, abs=1e-12)
    assert r.med_plateaus[0] == pytest.approx(0.0, abs=1e-12)
    assert r.dedx[0] == pytest.approx(
        r.med_plateaus[1] - r.vac_plateaus[1], abs=1e-12)


def test_motion_schedule_validation():
    with pytest.raises(ValueError):
        MotionSchedule(events=((5.0, 0, 1),), horizon=1.0, dt=0.5)
    # records would stop at t = 9 and the move at 9.5 would never be applied
    with pytest.raises(ValueError):
        MotionSchedule(events=((9.5, 0, 1),), horizon=10.0, dt=3.0)
    assert MotionSchedule(events=(), horizon=10.0, dt=0.1).horizon == 10.0


@pytest.mark.parametrize("field,kwargs", [
    ("dt", dict(events=(), horizon=1.0, dt=float("inf"))),
    ("dt", dict(events=(), horizon=1.0, dt=float("nan"))),
    ("horizon", dict(events=(), horizon=float("inf"), dt=0.5)),
    ("horizon", dict(events=(), horizon=float("nan"), dt=0.5)),
    ("event time", dict(events=((float("nan"), 0, 1),), horizon=1.0, dt=0.5)),
    ("event time", dict(events=((float("inf"), 0, 1),), horizon=1.0, dt=0.5)),
])
def test_motion_schedule_rejects_non_finite_values(field, kwargs):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MotionSchedule(**kwargs)


def test_motion_schedule_limits_the_record_count():
    from su2lgt.dynamics import _MAX_RECORDS

    MotionSchedule(events=(), horizon=float(_MAX_RECORDS), dt=1.0)
    with pytest.raises(ValueError, match="10000000000 records"):
        MotionSchedule(events=(), horizon=10.0, dt=1e-9)


def test_toy_model_closed_form():
    # amplitude algebra in the two-state subspace gives
    # R = sin^2(phi/2) cos^2(theta/2) + cos^2(phi/2) sin^2(theta/2)
    #     + (1/2) sin(theta) sin(phi) cos(eta)
    rng = np.random.default_rng(21)
    for _ in range(50):
        theta, phi, eta, alpha = rng.uniform(0, 2 * np.pi, size=4)
        expected = (np.sin(phi / 2) ** 2 * np.cos(theta / 2) ** 2
                    + np.cos(phi / 2) ** 2 * np.sin(theta / 2) ** 2
                    + 0.5 * np.sin(theta) * np.sin(phi) * np.cos(eta))
        got = toy_fswap_expectation(ToyModelParams(theta, phi, eta, alpha))
        assert got == pytest.approx(expected, abs=1e-12)
