"""
Hamiltonian builders: kinetic, mass, chromo-electric and penalty pieces.

All pieces are built for general Nc through the charge-product expansions;
the Nc=2 charge operators are also exposed explicitly.  In axial gauge the
chromo-electric field at boundary b is the cumulative color charge

    E_b^(a) = sum_{n=0}^{b+1+floor(b/2)} Q_n^(a)

and the gauge energy is (g^2/2) sum_a sum_{b=0}^{2L-2} (E_b^(a))^2, with a
quadratic penalty (lambda^2/2) sum_a (E_{2L-1}^(a))^2 enforcing global color
neutrality.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import LatticeSpec
from .pauli import PauliSum


def _sigma(sign: int) -> tuple:
    """The one-qubit terms of sigma^+ (sign=+1) or sigma^- (sign=-1)."""
    return (("X", 0.5), ("Y", 0.5j * sign))


def sigma_pm(n_qubits: int, j: int, sign: int) -> PauliSum:
    """sigma^+ (sign=+1) or sigma^- (sign=-1) on qubit j: (X +- iY)/2."""
    return PauliSum.from_products(n_qubits, [({j: _sigma(sign)}, 1.0)])


@dataclass(frozen=True)
class ChargeOperator:
    n: int
    a: int
    sum: PauliSum


def charge_op(spec: LatticeSpec, n: int, a: int) -> ChargeOperator:
    """SU(2) charge generator Q_n^(a) on qubits (2n, 2n+1); Nc=2 only."""
    if spec.Nc != 2:
        raise ValueError("explicit generators only for Nc=2; use the product builders")
    if a not in (1, 2, 3):
        raise ValueError("generator index a must be 1, 2 or 3")
    nq = spec.n_qubits
    j0, j1 = spec.fermion_index(n, 0), spec.fermion_index(n, 1)
    up0dn1 = sigma_pm(nq, j0, +1) * sigma_pm(nq, j1, -1)
    dn0up1 = sigma_pm(nq, j0, -1) * sigma_pm(nq, j1, +1)
    if a == 1:
        q = 0.5 * (up0dn1 + dn0up1)
    elif a == 2:
        q = -0.5j * (up0dn1 - dn0up1)
    else:
        q = PauliSum.from_products(nq, [({j0: "Z"}, 0.25), ({j1: "Z"}, -0.25)])
    return ChargeOperator(n, a, q)


def _square_products(spec: LatticeSpec, n: int) -> list:
    """The (factors, coeff) products of sum_a Q_n^(a) Q_n^(a), general Nc."""
    Nc, qubits = spec.Nc, spec.qubits_of(n)
    return [({}, (Nc * Nc - 1) / 8.0)] + [
        ({qubits[c]: "Z", qubits[cp]: "Z"}, -(1.0 + 1.0 / Nc) / 4.0)
        for c in range(Nc - 1) for cp in range(c + 1, Nc)]


def _hop(i0: int, i1: int, sign: int, z="Z") -> dict:
    """The one-qubit factors of sigma^{sign}_{i0} (prod z between)
    sigma^{-sign}_{i1}."""
    return {i0: _sigma(sign), **{j: z for j in range(i0 + 1, i1)}, i1: _sigma(-sign)}


def _cross_products(spec: LatticeSpec, n: int, m: int, weight: float = 1.0) -> list:
    """The products of weight * sum_a Q_n^(a) Q_m^(a) for distinct staggered
    sites, general Nc: each hop-hop product and its adjoint at weight / 2,
    then the ZZ terms."""
    if n == m:
        raise ValueError("use charge_square for coincident sites")
    Nc, qn, qm = spec.Nc, spec.qubits_of(n), spec.qubits_of(m)
    return [({**_hop(qn[c], qn[cp], sign), **_hop(qm[c], qm[cp], -sign)}, weight * 0.5)
            for c in range(Nc - 1) for cp in range(c + 1, Nc) for sign in (+1, -1)] + [
        ({qn[c]: "Z", qm[cp]: "Z"}, weight * (((1.0 if c == cp else 0.0) - 1.0 / Nc) / 8.0))
        for c in range(Nc) for cp in range(Nc)]


def charge_square(spec: LatticeSpec, n: int) -> PauliSum:
    """sum_a Q_n^(a) Q_n^(a), expanded for general Nc."""
    return PauliSum.from_products(spec.n_qubits, _square_products(spec, n))


def charge_cross(spec: LatticeSpec, n: int, m: int) -> PauliSum:
    """sum_a Q_n^(a) Q_m^(a) for distinct staggered sites, general Nc."""
    return PauliSum.from_products(spec.n_qubits, _cross_products(spec, n, m))


def _charge_set_square(spec: LatticeSpec, sites: list[int]) -> PauliSum:
    """sum_a (sum_{n in sites} Q_n^(a))^2, fully expanded, in one merge."""
    products = []
    for i, n in enumerate(sites):
        products += _square_products(spec, n)
        for m in sites[i + 1:]:
            products += _cross_products(spec, n, m, 2.0)
    return PauliSum.from_products(spec.n_qubits, products)


def build_kinetic_parts(spec: LatticeSpec) -> tuple[PauliSum, PauliSum]:
    """(intra, inter) hopping pieces; heavy qubits appear only inside Z strings.

    The strings within each piece are mutually commuting, which the
    Trotterized evolution exploits.
    """
    Nc = spec.Nc

    def hops(n, width):
        # sigma^{+-} (-Z)^(width - 1) sigma^{-+} from each color of site n,
        # the hop and its adjoint at weight 1/2
        return [(_hop(i0, i0 + width, sign, (("Z", -1.0),)), 0.5)
                for i0 in spec.qubits_of(n) for sign in (+1, -1)]

    # quark -> antiquark on the same spatial site, Nc-1 (-Z)'s between;
    # antiquark -> next-site quark, 2Nc-1 (-Z)'s crossing the heavy pair
    intra = PauliSum.from_products(spec.n_qubits, [
        p for x in range(spec.L) for p in hops(3 * x + 1, Nc)])
    inter = PauliSum.from_products(spec.n_qubits, [
        p for x in range(spec.L - 1) for p in hops(3 * x + 2, 2 * Nc)])
    return intra, inter


def build_kinetic(spec: LatticeSpec) -> PauliSum:
    intra, inter = build_kinetic_parts(spec)
    return intra + inter


def build_mass(spec: LatticeSpec) -> PauliSum:
    """Staggered mass term with identity contributions dropped."""
    products = []
    for x in range(spec.L):
        for c in range(spec.Nc):
            if spec.mQ != 0.0:
                products.append(({spec.fermion_index(3 * x, c): "Z"}, spec.mQ / 2.0))
            products.append(({spec.fermion_index(3 * x + 1, c): "Z"}, spec.mq / 2.0))
            products.append(({spec.fermion_index(3 * x + 2, c): "Z"}, -(spec.mq / 2.0)))
    return PauliSum.from_products(spec.n_qubits, products)


def mass_offset(spec: LatticeSpec) -> float:
    """The identity constant dropped by build_mass."""
    return spec.L * spec.Nc * (spec.mQ / 2.0 + spec.mq)


def build_gauge_asym(spec: LatticeSpec) -> tuple[PauliSum, PauliSum]:
    """(gauge, penalty): fields accumulated left-to-right from x=0."""
    half_g2 = spec.g ** 2 / 2.0
    gauge = PauliSum.zero(spec.n_qubits)
    for b in range(spec.n_boundaries - 1):
        sites = list(range(spec.boundary_upper_staggered(b) + 1))
        gauge = gauge + half_g2 * _charge_set_square(spec, sites)
    penalty = (spec.penalty_strength / 2.0) * _charge_set_square(
        spec, list(range(spec.n_staggered)))
    return gauge, penalty


def build_gauge_sym(spec: LatticeSpec) -> PauliSum:
    """Gauge energy with each field taken from the nearer lattice end.

    In the color-singlet sector E_b may equally be written as minus the sum
    of the charges to its right; squaring removes the sign.  Each boundary
    uses whichever side involves fewer staggered charges (ties go left).
    """
    half_g2 = spec.g ** 2 / 2.0
    gauge = PauliSum.zero(spec.n_qubits)
    for b in range(spec.n_boundaries - 1):
        gauge = gauge + half_g2 * _charge_set_square(
            spec, symmetric_boundary_sites(spec, b))
    return gauge


def symmetric_boundary_sites(spec: LatticeSpec, b: int) -> list[int]:
    """Staggered sites whose charges build E_b in the symmetric convention."""
    n_stag = spec.n_staggered
    ub = spec.boundary_upper_staggered(b)
    if n_stag - 1 - ub < ub + 1:
        return list(range(ub + 1, n_stag))
    return list(range(ub + 1))


@dataclass(frozen=True)
class HamiltonianTerms:
    kinetic: PauliSum
    mass: PauliSum
    gauge: PauliSum
    penalty: PauliSum

    @property
    def total(self) -> PauliSum:
        return self.kinetic + self.mass + self.gauge + self.penalty

    def as_dict(self) -> dict[str, PauliSum]:
        return {"kinetic": self.kinetic, "mass": self.mass,
                "gauge": self.gauge, "penalty": self.penalty}


def build_hamiltonian(spec: LatticeSpec, symmetric_gauge: bool = False) -> HamiltonianTerms:
    gauge, penalty = build_gauge_asym(spec)
    if symmetric_gauge:
        gauge = build_gauge_sym(spec)
    return HamiltonianTerms(kinetic=build_kinetic(spec), mass=build_mass(spec),
                            gauge=gauge, penalty=penalty)
