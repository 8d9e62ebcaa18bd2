"""
Heavy-quark motion, exact and Trotterized time evolution, the
energy-loss protocol, and the two-qubit FSWAP toy model.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonian import (build_hamiltonian, build_kinetic_parts, build_mass,
                          charge_cross, charge_square, mass_offset,
                          symmetric_boundary_sites)
from .lattice import LatticeSpec
from .pauli import (PauliString, PauliSum, Sector, StateVector, apply_chain,
                    exp_chain_apply, exp_sum_apply, lanczos)


# ---------------------------------------------------------------------------
# heavy-quark translation
# ---------------------------------------------------------------------------

def _fswap_generator(spec: LatticeSpec, x: int, c: int) -> PauliSum:
    """Generator of the fermionic swap of heavy color c between sites x, x+1.

    exp(-i (pi/4) G) with G = -(X Z^5 X) - (Y Z^5 Y) + Z_r + Z_l - 2I, the
    signs absorbing the five (-Z) factors along the Jordan-Wigner string.
    """
    jl = spec.fermion_index(3 * x, c)
    jr = spec.fermion_index(3 * (x + 1), c)
    string_sign = -1.0 if (jr - jl - 1) % 2 else 1.0
    zs = {k: "Z" for k in range(jl + 1, jr)}
    return PauliSum.from_products(spec.n_qubits, [
        ({jl: p, **zs, jr: p}, string_sign) for p in "XY"] + [
        ({jr: "Z"}, 1.0), ({jl: "Z"}, 1.0), ({}, -2.0)])


def move_bond(spec: LatticeSpec, x_from: int, x_to: int) -> int:
    """The left site of the bond a heavy-quark move from x_from to x_to
    crosses; a ValueError unless the two are adjacent sites of the lattice."""
    if abs(x_from - x_to) != 1:
        raise ValueError("heavy quarks move only between adjacent sites")
    if not (0 <= x_from < spec.L and 0 <= x_to < spec.L):
        raise ValueError("move outside the lattice")
    return min(x_from, x_to)


def fswap_move(state: StateVector, spec: LatticeSpec, x_from: int,
               x_to: int) -> StateVector:
    """Translate a heavy quark between adjacent spatial sites.

    Applies the theta=pi fermionic swap color by color.  If the destination
    site also hosts a heavy quark the two are exchanged (the stationary one
    is displaced).
    """
    x = move_bond(spec, x_from, x_to)
    return exp_chain_apply([(_fswap_generator(spec, x, c), np.pi / 4.0)
                            for c in range(spec.Nc)], state)


# ---------------------------------------------------------------------------
# exact evolution
# ---------------------------------------------------------------------------

class KrylovError(RuntimeError):
    """Exact propagation failed its energy-conservation check."""


# The Lanczos propagator's largest basis, and the error it allows a step,
# relative to the vector's norm (Saad's a-posteriori estimate).
_KRYLOV_DIM = 40
_KRYLOV_TOL = 1e-14


def _lanczos_step(hs, w: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """(exp(-i hs tau') w, tau') for a Hermitian hs: a Lanczos basis of hs
    from w, reorthogonalized in full, grows until Saad's estimate
    beta_m |e_m^T exp(-i tau T_m) e_1| is at most _KRYLOV_TOL (a breakdown,
    beta_m = 0, or a basis that spans the sector is exact).  When
    _KRYLOV_DIM vectors do not get there, tau' halves from tau on the same
    basis until they do, or until e_m^T exp(-i tau' T_m) e_1 is down to its
    rounding."""
    norm = np.linalg.norm(w)
    for q, alpha, beta in lanczos(hs, w / norm, min(_KRYLOV_DIM, w.size)):
        # eigh reads the lower triangle of T_m
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
        c = s @ (np.exp(-1j * tau * theta) * s[0])
        if len(q) == w.size or beta[-1] * abs(c[-1]) <= _KRYLOV_TOL:
            return norm * (c @ q), tau
    while beta[-1] * abs(c[-1]) > _KRYLOV_TOL and abs(c[-1]) > len(q) * np.finfo(float).eps:
        tau /= 2
        c = s @ (np.exp(-1j * tau * theta) * s[0])
    return norm * (c @ q), tau


def _propagate(hs, v: np.ndarray, start: float, stop: float, num: int,
               tol: float, dropped=None) -> np.ndarray:
    """exp(-i hs t) v for t = linspace(start, stop, num), one row each, for
    a Hermitian hs on a sector (a SectorMatrix): a Lanczos propagator (Park
    and Light, J. Chem. Phys. 85, 5870 (1986)) that marches from 0 through
    the times in Lanczos steps (_lanczos_step).  `dropped`, when given, is
    a Hermitian part of the generator that commutes with hs and was left
    out of the propagation (its kernel holds v, so the rows are also
    exp(-i (hs + dropped) t) v to t ||dropped v||); the energy is then
    <hs> + <dropped>.

    Raises KrylovError when the energy at any of the times differs from the
    energy of v by more than tol * max(1, |energy|).
    """
    def energy(x):
        e = np.vdot(x, hs @ x).real
        return e if dropped is None else e + np.vdot(x, dropped @ x).real

    times = np.linspace(start, stop, num)
    w, now = np.empty((num, v.size), dtype=complex), 0.0
    for k, t in enumerate(times):
        w[k] = v if k == 0 else w[k - 1]
        while now != t:
            w[k], step = _lanczos_step(hs, w[k], t - now)
            now = t if step == t - now else now + step
    before = energy(v)
    for t, wt in zip(times, w):
        after = energy(wt)
        if not abs(after - before) <= tol * max(1.0, abs(before)):
            raise KrylovError(f"<H> drifted from {before:.12g} to {after:.12g} "
                              f"over t = {t:g}")
    return w


def evolve_exact(state: StateVector, h: PauliSum, t: float,
                 tol: float = 1e-11) -> StateVector:
    """exp(-iHt)|state> for a Hermitian h, on the basis states that h
    reaches from the state's support (see Sector.closure), by the Lanczos
    propagator _propagate on the restricted operator.

    Raises ValueError for a non-Hermitian h, and KrylovError when <H>
    drifts by more than tol * max(1, |<H>|) over the propagation.
    """
    if not h.is_hermitian():
        raise ValueError("evolve_exact requires a Hermitian operator")
    sector = Sector.closure(h, state)
    return sector.embed(_propagate(sector.restrict(h), sector.extract(state),
                                   t, t, 1, tol)[0])


# ---------------------------------------------------------------------------
# Trotterized evolution
# ---------------------------------------------------------------------------

def gauge_pair_rounds(pairs) -> list[list[tuple[int, int]]]:
    """Rounds of site-disjoint charge pairs (greedy, ascending pair order).

    Generators within a round act on disjoint qubits and commute, so a
    gate-level realization can run each round in parallel."""
    rounds: list[list[tuple[int, int]]] = []
    for p in sorted(pairs):
        for r in rounds:
            if all(set(p).isdisjoint(q) for q in r):
                r.append(p)
                break
        else:
            rounds.append([p])
    return rounds


class TrotterFactor(NamedTuple):
    """exp(-i fraction t generator) inside a Trotter step of size t.  `kind`
    ("kinetic", "diagonal" or "pair") tells the circuit emitter how to
    synthesize it."""
    kind: str
    generator: PauliSum
    fraction: float


@functools.lru_cache(maxsize=8)
def trotter_schedule(spec: LatticeSpec, order: int = 2) -> tuple[TrotterFactor, ...]:
    """The ordered factors of one Trotter step of exp(-i t (H_k + H_m + H_g)),
    executed by trotter_step and emitted by circuits.trotter_circuit.

    Order 1 applies the inter-site then intra-site kinetic pieces before the
    mass + gauge factor; order 2 symmetrizes the kinetic halves around it.
    Each kinetic piece is a sum of commuting strings.  The gauge energy is
    taken in its symmetric form: the charge-square ZZ terms (with their
    identity constant) commute with everything else in the factor and come
    once at full angle; the single-Z mass terms come in halves around one
    Hermitian charge-pair generator per pair of sites, applied in the rounds
    of gauge_pair_rounds forward at half angle, the last round merged to
    full angle, then the earlier rounds in reverse.  The palindrome keeps
    the order-2 step exactly time-symmetric (third-order error per step)
    although the pair generators do not commute.  The global-neutrality
    penalty is omitted: it annihilates the color-singlet states evolved.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    intra, inter = build_kinetic_parts(spec)
    half_g2 = spec.g ** 2 / 2.0
    pair_weight: dict[tuple[int, int], float] = {}
    diag_sum = build_mass(spec)
    for b in range(spec.n_boundaries - 1):
        sites = symmetric_boundary_sites(spec, b)
        for i, n in enumerate(sites):
            diag_sum = diag_sum + half_g2 * charge_square(spec, n)
            for m in sites[i + 1:]:
                key = (n, m)
                pair_weight[key] = pair_weight.get(key, 0.0) + 2.0 * half_g2
    single = np.bitwise_count(diag_sum.x | diag_sum.z) == 1
    half_singles = TrotterFactor("diagonal", diag_sum[single], 0.5)

    def pair(p, fraction):
        return TrotterFactor("pair", pair_weight[p] * charge_cross(spec, *p), fraction)

    rounds = gauge_pair_rounds(pair_weight)
    pairs = [pair(p, 0.5) for r in rounds[:-1] for p in r]
    pairs += [pair(p, 1.0) for r in rounds[-1:] for p in r]
    pairs += [pair(p, 0.5) for r in reversed(rounds[:-1]) for p in reversed(r)]
    mass_gauge = [TrotterFactor("diagonal", diag_sum[~single], 1.0),
                  half_singles, *pairs, half_singles]
    if order == 1:
        return (TrotterFactor("kinetic", inter, 1.0),
                TrotterFactor("kinetic", intra, 1.0), *mass_gauge)
    kinetic = [TrotterFactor("kinetic", inter, 0.5), TrotterFactor("kinetic", intra, 0.5)]
    return (*kinetic, *mass_gauge, *reversed(kinetic))


def trotter_step(state: StateVector, spec: LatticeSpec, t: float,
                 order: int = 2) -> StateVector:
    """One Trotter step of exp(-i t (H_k + H_m + H_g)): the factors of
    trotter_schedule, each exponentiated exactly, as one chain on one sector
    (exp_chain_apply)."""
    return exp_chain_apply([(factor.generator, factor.fraction * t)
                            for factor in trotter_schedule(spec, order)], state)


# ---------------------------------------------------------------------------
# protocol driver
# ---------------------------------------------------------------------------

# The most records (steps of dt) a schedule may ask for; every CLI default,
# report section and test uses at most a few hundred.
_MAX_RECORDS = 100_000


@dataclass(frozen=True)
class MotionSchedule:
    """Timed sequence of single-site heavy-quark moves."""
    events: tuple[tuple[float, int, int], ...]  # (time, x_from, x_to)
    horizon: float
    dt: float

    def __post_init__(self):
        for name, value in [("dt", self.dt), ("horizon", self.horizon)] + [
                ("event time", t) for t, _, _ in self.events]:
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt <= 0 or self.horizon < 0:
            raise ValueError("need dt > 0 and horizon >= 0")
        ratio = self.horizon / self.dt  # inf when the quotient overflows
        if ratio > _MAX_RECORDS + 0.5:
            asked = f"{ratio:.0f}" if np.isfinite(ratio) else "over 1e308"
            raise ValueError(f"horizon {self.horizon:g} / dt {self.dt:g} asks for "
                             f"{asked} records; at most {_MAX_RECORDS} are allowed")
        steps = round(ratio)
        if abs(steps * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"horizon {self.horizon:g} is not a whole number "
                             f"of steps dt = {self.dt:g}")
        last = 0.0
        for t, x_from, x_to in self.events:
            if abs(x_from - x_to) != 1:
                raise ValueError("moves must be between adjacent sites")
            if t < last or t > self.horizon:
                raise ValueError("event times must be ordered within the horizon")
            last = t

    @property
    def event_times(self) -> tuple[float, ...]:
        return tuple(t for t, _, _ in self.events)


@dataclass
class ProtocolRecord:
    """The state at time t, kept on its interval's sector (Sector.embed:
    the sector's indices and amplitudes; state.amps builds the register),
    its energy pieces and <Z_j>."""
    t: float
    state: StateVector
    energies: dict[str, float]
    z: np.ndarray


@dataclass
class ProtocolResult:
    spec: LatticeSpec
    schedule: MotionSchedule
    records: list[ProtocolRecord]
    initial_energy: float

    def plateau_energies(self) -> list[float]:
        """Total energy before the first move and after each move."""
        out = [self.initial_energy]
        for t_ev in self.schedule.event_times:
            rec = next(r for r in self.records if r.t >= t_ev - 1e-12)
            out.append(rec.energies["total"])
        return out


def _sector_expectations(h: PauliSum, s: StateVector,
                         ops: dict[str, PauliSum]) -> dict[str, float]:
    """<s|op|s> for each named op, on the basis states h reaches from s."""
    sector = Sector.closure(h, s)
    v = sector.extract(s)
    return {name: sector.expectation(op, v) for name, op in ops.items()}


# P's kernel test for an interval's first state v: ||P v|| at most this
# times ||v||.  P commutes with H - P, so exp(-i (H - P) t) v is then
# exp(-iHt) v to t ||P v||: 1e-9 ||v|| over the CLI's default horizon, 10
_KERNEL_TOL = 1e-10


class _SectorMeter:
    """One interval between two moves, on the basis states that the energy
    pieces and every given Trotter factor reach from its first state
    (Sector.closure_under), which each of them conserves.  It holds the
    first state's amplitudes there (start), the pieces, every Z_j, and
    either each distinct factor's Sector.eigh or the exact propagator's
    generator: H - P (kinetic + mass + gauge) when the global-neutrality
    penalty P annihilates the start to _KERNEL_TOL, else H."""

    def __init__(self, pieces: dict[str, PauliSum], state: StateVector,
                 factors: tuple[TrotterFactor, ...], krylov_tol: float):
        generators = {id(f.generator): f.generator for f in factors}
        self.sector = Sector.closure_under([*pieces.values(), *generators.values()],
                                           state)
        self.factors, self.krylov_tol = factors, krylov_tol
        self.decompositions = {key: self.sector.eigh(g)
                               for key, g in generators.items()}
        self.pieces = {name: self.sector.restrict(op) for name, op in pieces.items()}
        self.start = self.sector.extract(state)
        if not factors:
            p = self.pieces["penalty"]
            rest = self.pieces["kinetic"] + self.pieces["mass"] + self.pieces["gauge"]
            if np.linalg.norm(p @ self.start) <= _KERNEL_TOL * np.linalg.norm(self.start):
                self.h, self.dropped = rest, p
            else:
                self.h, self.dropped = rest + p, None
        # qubit j is bit n-1-j of a basis index: Z_j = 1 - 2 * bit
        bits = self.sector.indices >> np.arange(state.n - 1, -1, -1)[:, None] & 1
        self.z_signs = 1.0 - 2.0 * bits

    def propagate(self, v: np.ndarray, start: float, stop: float,
                  num: int) -> np.ndarray:
        """_propagate on the sector by the interval's generator, its energy
        drift read on the full H."""
        return _propagate(self.h, v, start, stop, num, self.krylov_tol, self.dropped)

    def advance(self, v: np.ndarray, delta: float) -> np.ndarray:
        """v on the sector evolved by delta: exactly (propagate), or by one
        Trotter step.  An advance of at most 1e-12 is none."""
        if delta <= 1e-12:
            return v
        if not self.factors:
            return self.propagate(v, delta, delta, 1)[0]
        chain = [(f.generator, f.fraction * delta) for f in self.factors]
        return apply_chain(self.sector, chain, v, dict(self.decompositions))

    def record(self, t: float, v: np.ndarray, offset: float) -> ProtocolRecord:
        """The record at time t of the state with amplitudes v on the sector."""
        energies = {name: float(np.vdot(v, op @ v).real)
                    for name, op in self.pieces.items()}
        energies["mass"] += offset
        energies["total"] = (energies["kinetic"] + energies["mass"]
                             + energies["gauge"] + energies["penalty"])
        return ProtocolRecord(t=t, state=self.sector.embed(v), energies=energies,
                              z=self.z_signs @ np.abs(v) ** 2)


def run_protocol(spec: LatticeSpec, schedule: MotionSchedule,
                 evolver: str = "exact", order: int = 2,
                 initial: StateVector | None = None,
                 krylov_tol: float = 1e-11) -> ProtocolResult:
    """Interleave scheduled heavy-quark moves with time evolution.

    Starts from the interacting ground state of the given sector (or the
    supplied state) and records component energies and <Z_j> every dt.
    Reported energies include the identity constant dropped by the mass
    builder, matching the convention used for the exact spectra.

    Each interval between two moves runs and is measured on one sector
    (_SectorMeter): the exact evolver takes all of its records from one
    Lanczos march over their time grid (_propagate), and the Trotter
    evolver steps from record to record with each factor of
    trotter_schedule decomposed once.  The move itself is fswap_move.
    """
    if evolver not in ("exact", "trotter"):
        raise ValueError("evolver must be 'exact' or 'trotter'")
    from .spectra import lanczos_ground, sc_state

    terms = build_hamiltonian(spec)
    h = terms.total
    offset = mass_offset(spec)
    if initial is None:
        e0, state = lanczos_ground(h, sc_state(spec))
        e0_total = e0 + offset
    else:
        state = initial
        e0_total = _sector_expectations(h, state, {"total": h})["total"] + offset
    pieces = terms.as_dict()
    factors = trotter_schedule(spec, order) if evolver == "trotter" else ()

    records: list[ProtocolRecord] = []
    events = list(schedule.events)
    dt, n_steps = schedule.dt, int(round(schedule.horizon / schedule.dt))
    t, k = 0.0, 0
    while k <= n_steps:
        # records k, ..., end - 1 come before the next move
        end = k
        while end <= n_steps and not (events and events[0][0] <= end * dt + 1e-12):
            end += 1
        moving = end <= n_steps  # a move comes before record `end`
        t_move = events[0][0] if moving else t
        if end > k or t_move - t > 1e-12:
            meter = _SectorMeter(pieces, state, factors, krylov_tol)
            v = meter.start
            if factors:
                for j in range(k, end):
                    v, t = meter.advance(v, j * dt - t), j * dt
                    records.append(meter.record(t, v, offset))
            elif end > k:
                # times count on from k dt when the advance to it is none
                t0 = t if k * dt - t > 1e-12 else k * dt
                w = meter.propagate(v, k * dt - t0, (end - 1) * dt - t0, end - k)
                records += [meter.record(j * dt, wj, offset)
                            for j, wj in zip(range(k, end), w)]
                v, t = w[-1], (end - 1) * dt
            if moving:
                state = meter.sector.embed(meter.advance(v, t_move - t))
        if moving:
            t, x_from, x_to = events.pop(0)
            state = fswap_move(state, spec, x_from, x_to)
        k = end
    return ProtocolResult(spec=spec, schedule=schedule, records=records,
                          initial_energy=e0_total)


# ---------------------------------------------------------------------------
# dE/dx estimation
# ---------------------------------------------------------------------------

@dataclass
class DedxResult:
    vac_plateaus: list[float]   # relative to the pre-move ground energy
    med_plateaus: list[float]
    vac_steps: list[float]      # per-interval energy cost in the vacuum run
    med_steps: list[float]
    dedx: list[float]           # vacuum-subtracted per-interval estimate


def dedx_estimate(vac_run: ProtocolResult, med_run: ProtocolResult) -> DedxResult:
    """Per-interval dE/dx from a vacuum and an in-medium run.

    Both runs must share the same move schedule.  The estimate for each
    interval is the in-medium energy cost of the move minus the vacuum
    cost.
    """
    if vac_run.schedule.event_times != med_run.schedule.event_times:
        raise ValueError("runs use different move schedules")
    pv = vac_run.plateau_energies()
    pm = med_run.plateau_energies()
    vac_rel = [e - pv[0] for e in pv]
    med_rel = [e - pm[0] for e in pm]
    vac_steps = [vac_rel[i + 1] - vac_rel[i] for i in range(len(vac_rel) - 1)]
    med_steps = [med_rel[i + 1] - med_rel[i] for i in range(len(med_rel) - 1)]
    dedx = [m - v for m, v in zip(med_steps, vac_steps)]
    return DedxResult(vac_plateaus=vac_rel, med_plateaus=med_rel,
                      vac_steps=vac_steps, med_steps=med_steps, dedx=dedx)


# ---------------------------------------------------------------------------
# two-qubit FSWAP toy model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyModelParams:
    theta: float
    phi: float
    eta: float
    alpha: float = 0.0


def _toy_fswap(theta: float, state: StateVector) -> StateVector:
    """F(theta) = exp(-i theta/4 (YY + XX + IZ + ZI - 2I)) on two qubits."""
    gen = PauliSum(2, [
        PauliString.from_label("YY"),
        PauliString.from_label("XX"),
        PauliString.from_label("IZ"),
        PauliString.from_label("ZI"),
        PauliString.from_label("II", -2.0),
    ])
    return exp_sum_apply(gen, theta / 4.0, state)


def toy_fswap_expectation(p: ToyModelParams) -> float:
    """Heavy-quark position after an attempted continuous-angle move.

    Builds the two-qubit circuit F(phi) U F(theta) acting on the up-down
    state, with U = exp(i alpha/2) exp(i eta/2 Z) on the reduced space, and
    measures the position operator R = (2I + Z_2 - Z_1)/4.
    """
    state = StateVector.basis(2, 0b01)
    state = _toy_fswap(p.theta, state)
    phases = np.exp(0.5j * p.alpha) * np.exp(
        0.5j * p.eta * np.array([1.0, 1.0, -1.0, -1.0]))
    state = StateVector(phases * state.amps, normalized=False)
    state = _toy_fswap(p.phi, state)
    r_op = PauliSum(2, [
        PauliString.from_label("II", 0.5),
        PauliString.from_label("IZ", 0.25),
        PauliString.from_label("ZI", -0.25),
    ])
    return r_op.expectation(state)
