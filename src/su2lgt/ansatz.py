"""
Hadronic operator pool and layered variational preparation.

Meson operators O_Md connect a light quark with a light antiquark through a
string of d^2+d+1 Z's; baryon operators O_Bd create a baryon-antibaryon
pair through 3d Z's (even d) or 3d-1 Z's (odd d).  X and Y act only on
light qubits; the Z strings pass through intervening heavy qubits.  All
operators are global color singlets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeSpec
from .pauli import PauliSum, Sector, StateVector, exp_chain_apply
from .reference import STAGED


@dataclass(frozen=True)
class PoolOperator:
    name: str
    kind: str           # "meson" | "baryon"
    d: int              # range label 0|1|2
    span: tuple[int, ...]  # spatial site(s) touched
    sum: PauliSum


# window start offset (within 6 qubits per site) and overall sign per range
_MESON_START = {0: 2, 1: 4, 2: 2}
_MESON_SIGN = {0: +1.0, 1: -1.0, 2: +1.0}
_BARYON_START = {0: 2, 1: 4, 2: 2}
_BARYON_PREF = {0: 4.0j, 1: -4.0j, 2: -4.0j}
_BARYON_NZ = {0: 0, 1: 2, 2: 6}


def meson_operator(spec: LatticeSpec, d: int, x: int) -> PauliSum:
    """O_Md starting on spatial site x (two color components)."""
    span = d * d + d + 2  # from the first X/Y to the second, d^2 + d + 1 Z's between
    products = []
    for j0 in (6 * x + _MESON_START[d] + c for c in range(2)):
        zs = {j: "Z" for j in range(j0 + 1, j0 + span)}
        products += [({j0: "X", **zs, j0 + span: "Y"}, _MESON_SIGN[d]),
                     ({j0: "Y", **zs, j0 + span: "X"}, -_MESON_SIGN[d])]
    return PauliSum.from_products(spec.n_qubits, products)


def baryon_operator(spec: LatticeSpec, d: int, x: int) -> PauliSum:
    """O_Bd starting on spatial site x: pref*(s+ s+ Z^k s- s- - h.c.)."""
    from .hamiltonian import _sigma

    j0 = 6 * x + _BARYON_START[d]
    k = _BARYON_NZ[d]
    term = PauliSum.from_products(spec.n_qubits, [({
        j0: _sigma(+1), j0 + 1: _sigma(+1), **{j: "Z" for j in range(j0 + 2, j0 + 2 + k)},
        j0 + 2 + k: _sigma(-1), j0 + 3 + k: _sigma(-1)}, 1.0)])
    return _BARYON_PREF[d] * (term - term.adjoint())


def _pool_member(spec: LatticeSpec, kind: str, d: int, x: int) -> PoolOperator:
    if kind == "meson":
        op = meson_operator(spec, d, x)
    else:
        op = baryon_operator(spec, d, x)
    span = (x,) if d == 0 else (x, x + 1)
    tag = "M" if kind == "meson" else "B"
    sup = f"({','.join(map(str, span))})" if len(span) > 1 else f"({x})"
    return PoolOperator(f"O_{tag}{d}^{sup}", kind, d, span, op)


def build_pool(spec: LatticeSpec) -> list[PoolOperator]:
    """The hadronic operator pool: mesons first, shorter range first."""
    L = spec.L
    ops: list[PoolOperator] = []
    for kind in ("meson", "baryon"):
        for d in (0, 1, 2):
            if d == 2 and L < 3:
                continue  # next-site-range operators need L >= 3
            n_pos = L if d == 0 else L - 1
            if kind == "baryon" and d == 2:
                n_pos = L - 2
            for x in range(n_pos):
                ops.append(_pool_member(spec, kind, d, x))
    return ops


def pool_by_name(spec: LatticeSpec) -> dict[str, PoolOperator]:
    return {op.name: op for op in build_pool(spec)}


# -- ansatz sequences -------------------------------------------------

@dataclass
class Layer:
    name: str
    generator: PauliSum
    theta: float = 0.0


@dataclass
class AnsatzSequence:
    """Ordered layers; the first layer is applied first to the start state."""

    layers: list[Layer]

    @property
    def angles(self) -> np.ndarray:
        return np.array([ly.theta for ly in self.layers])

    def with_angles(self, thetas) -> "AnsatzSequence":
        return AnsatzSequence([Layer(ly.name, ly.generator, float(t))
                               for ly, t in zip(self.layers, thetas, strict=True)])

    def apply(self, start: StateVector, upto: int | None = None) -> StateVector:
        """The first `upto` layers (all by default) applied to start, as one
        chain on one sector (exp_chain_apply)."""
        return exp_chain_apply([(ly.generator, ly.theta) for ly in self.layers[:upto]],
                               start)


def sequence_from_names(spec: LatticeSpec, names: list, angles=None) -> AnsatzSequence:
    """Build a sequence from pool-operator names; a list entry that is
    itself a list/tuple of names denotes a summed (single-angle) layer."""
    table = pool_by_name(spec)
    layers = []
    for entry in names:
        if isinstance(entry, (list, tuple)):
            gen = table[entry[0]].sum
            for nm in entry[1:]:
                gen = gen + table[nm].sum
            layers.append(Layer("+".join(entry), gen))
        else:
            layers.append(Layer(entry, table[entry].sum))
    if angles is not None:
        return AnsatzSequence(layers).with_angles(angles)
    return AnsatzSequence(layers)


def infidelity_density(var: StateVector, target: StateVector, L: int) -> float:
    return (1.0 - var.fidelity(target)) / L


# -- the ansatz sector ------------------------------------------------

class SectorPlan:
    """A sequence's layers on the basis states that its generators reach
    from a start state (Sector.closure_under, whatever the angles, so
    generators that cancel in their sum drop no state).  A layer is
    V (e^{-i theta w} * V^H psi), with G = V w V^H."""

    def __init__(self, seq: AnsatzSequence, start: StateVector):
        gens = [ly.generator for ly in seq.layers]
        self.sector = Sector.closure_under(gens, start)
        self.start = self.sector.extract(start)
        self.layers = [self.sector.eigh(gen) for gen in gens]

    def forward(self, thetas) -> tuple[np.ndarray, list, list]:
        """The final state on the sector, each layer's output in its
        eigenbasis, and each layer's phases e^{-i theta w}."""
        psi, rotated, phases = self.start, [], []
        for (w, v, vh), theta in zip(self.layers, thetas, strict=True):
            phases.append(np.exp(-1j * theta * w))
            rotated.append(phases[-1] * (vh @ psi))
            psi = v @ rotated[-1]
        return psi, rotated, phases

    def infidelity_and_grad(self, thetas, target: np.ndarray, L: int):
        """(1 - |<target|psi>|^2) / L and its gradient, for a target on the
        sector, by adjoint differentiation (Jones & Gacon, arXiv:2009.02823):
        the backward sweep pulls the target back through the later layers as
        lambda_j, and d<target|psi>/d theta_j = -i <lambda_j|G_j|psi_j>."""
        psi, rotated, phases = self.forward(thetas)
        amp = np.vdot(target, psi)
        lam, grad = target, np.empty(len(self.layers))
        for j in range(len(self.layers) - 1, -1, -1):
            w, v, vh = self.layers[j]
            mu = vh @ lam
            d_amp = -1j * np.vdot(mu, w * rotated[j])
            grad[j] = -2.0 * (np.conj(amp) * d_amp).real / L
            if j:
                lam = v @ (phases[j].conj() * mu)
        return float((1.0 - abs(amp) ** 2) / L), grad


# -- angle optimization -----------------------------------------------

class OptimizationError(RuntimeError):
    """No start of the optimizer ended at a finite value."""


def _bfgs(fun, x0: np.ndarray, gtol: float, maxiter: int) -> tuple[np.ndarray, float]:
    """Minimize fun(x) -> (value, gradient) from x0 by BFGS (Nocedal & Wright,
    Numerical Optimization, Alg. 6.1): the inverse-Hessian update from the
    identity, with a backtracking line search to the Armijo condition.  Stops
    when the largest gradient component is at most gtol, after maxiter
    iterations, or when no step along the search direction lowers the value
    (as scipy's BFGS does).  Returns the last accepted point and its value,
    which is not finite when the value at x0 is not."""
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    hinv = np.eye(x.size)
    for _ in range(maxiter):
        if not np.isfinite(f) or np.abs(g).max(initial=0.0) <= gtol:
            break
        p = -hinv @ g
        slope, step = g @ p, 1.0
        while step > 1e-12:
            f_new, g_new = fun(x + step * p)
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = step * p, g_new - g
        x, f, g = x + s, f_new, g_new
        sy = s @ y
        if sy > 0.0:  # the curvature condition keeps hinv positive definite
            hy = hinv @ y
            hinv += ((sy + y @ hy) * np.outer(s, s) / sy
                     - np.outer(hy, s) - np.outer(s, hy)) / sy
    return x, float(f)


def optimize_angles(seq: AnsatzSequence, start: StateVector, target: StateVector,
                    L: int, seed_angles=None, rng_seed: int = 0,
                    n_starts: int = 3, maxiter: int = 500) -> tuple[AnsatzSequence, float]:
    """Minimize the infidelity density over the layer angles.

    Quasi-Newton (BFGS, _bfgs) on the ansatz sector (`SectorPlan`) with the
    exact adjoint gradient; multi-start with the seed angles, zeros and a
    perturbed seed.  Raises OptimizationError when no start ends at a finite
    value.
    """
    plan = SectorPlan(seq, start)
    tgt = plan.sector.extract(target)
    k = len(seq.layers)
    seed = np.asarray(seed_angles, dtype=float) if seed_angles is not None else seq.angles
    starts = [seed, np.zeros(k)][:max(1, n_starts)]
    if n_starts >= 3:  # numpy.random loads only for the perturbed start
        starts.append(seed + np.random.default_rng(rng_seed).normal(0.0, 0.05, k))
    best_x, best_val = None, np.inf
    for x0 in starts:
        x, value = _bfgs(lambda th: plan.infidelity_and_grad(th, tgt, L), x0,
                         gtol=1e-8, maxiter=maxiter)
        if value < best_val:
            best_val, best_x = value, x
    if best_x is None:
        raise OptimizationError("optimizer produced no result")
    return seq.with_angles(best_x), best_val


# paper-level reference sequences at the canonical couplings: L = 1 here,
# L = 2 and 3 from the staged tables in `reference` at their final angles

L1_Q0_SEQUENCE = ["O_M0^(0)", "O_B0^(0)"]
L1_Q0_ANGLES = [0.267215, 0.05484]
L1_Q1_SEQUENCE = ["O_M0^(0)"]
L1_Q1_ANGLES = [0.26224]

L2_Q0_SEQUENCE = STAGED["L2", 0]["sequence"]
L2_Q0_ANGLES = STAGED["L2", 0]["angles"][-1]
L2_Q1_SEQUENCE = STAGED["L2", 1]["sequence"]
L2_Q1_ANGLES = STAGED["L2", 1]["angles"][-1]
L3_Q1_SEQUENCE = STAGED["L3", 1]["sequence"]
L3_Q1_ANGLES = STAGED["L3", 1]["angles"][-1]

# (L, n_Q) -> (sequence, final angles)
REFERENCE_SEQUENCES = {
    (1, 0): (L1_Q0_SEQUENCE, L1_Q0_ANGLES),
    (1, 1): (L1_Q1_SEQUENCE, L1_Q1_ANGLES),
    (2, 0): (L2_Q0_SEQUENCE, L2_Q0_ANGLES),
    (2, 1): (L2_Q1_SEQUENCE, L2_Q1_ANGLES),
    (3, 1): (L3_Q1_SEQUENCE, L3_Q1_ANGLES),
}


def prepared_state(spec: LatticeSpec) -> StateVector:
    """The strong-coupling state after the reference sequence of the spec's
    (L, n_Q) at its final angles."""
    from .spectra import sc_state

    names, angles = REFERENCE_SEQUENCES[spec.L, spec.n_Q]
    return sequence_from_names(spec, names, angles).apply(sc_state(spec))
