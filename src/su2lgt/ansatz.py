"""
Hadronic operator pool, layered variational preparation and Domain
Decomposition.

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
from .pauli import PauliString, PauliSum, StateVector, exp_sum_apply
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
    nq = spec.n_qubits
    nz = d * d + d + 1
    out = PauliSum.zero(nq)
    for c in range(2):
        j0 = 6 * x + _MESON_START[d] + c
        j1 = j0 + nz + 1
        zs = {j: "Z" for j in range(j0 + 1, j1)}
        out = out + PauliSum(nq, [
            PauliString.from_ops(nq, {j0: "X", **zs, j1: "Y"}, _MESON_SIGN[d]),
            PauliString.from_ops(nq, {j0: "Y", **zs, j1: "X"}, -_MESON_SIGN[d]),
        ])
    return out


def baryon_operator(spec: LatticeSpec, d: int, x: int) -> PauliSum:
    """O_Bd starting on spatial site x: pref*(s+ s+ Z^k s- s- - h.c.)."""
    from .hamiltonian import sigma_pm, z_op

    nq = spec.n_qubits
    j0 = 6 * x + _BARYON_START[d]
    k = _BARYON_NZ[d]
    term = sigma_pm(nq, j0, +1) * sigma_pm(nq, j0 + 1, +1)
    for j in range(j0 + 2, j0 + 2 + k):
        term = term * z_op(nq, j)
    term = term * sigma_pm(nq, j0 + 2 + k, -1) * sigma_pm(nq, j0 + 3 + k, -1)
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


# exp(-i*theta*gen)|state> for a pool generator
apply_generator_exp = exp_sum_apply


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
        state = start
        for ly in self.layers[:upto]:
            state = exp_sum_apply(ly.generator, ly.theta, state)
        return state


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


# -- angle optimization -----------------------------------------------

def _central_diff_grad(f, x, step=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


class OptimizationError(RuntimeError):
    def __init__(self, message, best_sequence=None, best_value=None):
        super().__init__(message)
        self.best_sequence = best_sequence
        self.best_value = best_value


def optimize_angles(seq: AnsatzSequence, start: StateVector, target: StateVector,
                    L: int, seed_angles=None, rng_seed: int = 0,
                    n_starts: int = 3, maxiter: int = 500) -> tuple[AnsatzSequence, float]:
    """Minimize the infidelity density over the layer angles.

    Quasi-Newton (BFGS) with central-difference gradients; multi-start with
    the seed angles, zeros and a perturbed seed.
    """
    from scipy.optimize import minimize

    def objective(thetas):
        return infidelity_density(seq.with_angles(thetas).apply(start), target, L)

    rng = np.random.default_rng(rng_seed)
    k = len(seq.layers)
    seed = np.asarray(seed_angles, dtype=float) if seed_angles is not None else seq.angles
    starts = [seed, np.zeros(k), seed + rng.normal(0.0, 0.05, k)][:max(1, n_starts)]
    best_x, best_val = None, np.inf
    for x0 in starts:
        res = minimize(objective, x0, jac=lambda x: _central_diff_grad(objective, x),
                       method="BFGS", options={"gtol": 1e-8, "maxiter": maxiter})
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    if best_x is None:
        raise OptimizationError("optimizer produced no result")
    return seq.with_angles(best_x), best_val


def adapt_optimize(pool: list[PoolOperator], start: StateVector, target: StateVector,
                   L: int, max_layers: int = 10, tol: float = 1e-4,
                   rng_seed: int = 0) -> tuple[AnsatzSequence, float]:
    """Greedy ADAPT selection: add the pool operator giving the largest
    objective decrease, then globally re-optimize all angles.  Ties are
    broken by pool order (mesons before baryons, shorter range first)."""
    seq = AnsatzSequence([])
    current = np.inf
    for _ in range(max_layers):
        best = None
        for op in pool:
            trial = AnsatzSequence(seq.layers + [Layer(op.name, op.sum)])
            trial_opt, val = optimize_angles(trial, start, target, L,
                                             seed_angles=list(seq.angles) + [0.0],
                                             rng_seed=rng_seed, n_starts=1)
            if best is None or val < best[1] - 1e-12:
                best = (trial_opt, val)
        if best is None or best[1] >= current - 1e-12:
            break
        seq, current = best
        if current < tol:
            break
    seq, current = optimize_angles(seq, start, target, L, rng_seed=rng_seed)
    return seq, current


# -- Domain Decomposition ---------------------------------------------

@dataclass
class DDecPlan:
    """Interleaved segment layers plus boundary healing layers.

    `stages` is the full-lattice layer order as pool-operator names (or
    name tuples for summed layers); `seed_angles` are the segment-optimized
    starting angles; `boundary` names the seam operators appended last.
    """
    stages: list
    seed_angles: list[float]
    boundary: list


def ddec_plan_l3(spec: LatticeSpec) -> DDecPlan:
    """L=3 with a heavy quark at x=0 as (L=2, Q at x=0) + (L=1 vacuum)."""
    from .spectra import ground_state, sc_state

    # segment 1: L=2 with the heavy quark at x=0
    spec2 = LatticeSpec(L=2, g=spec.g, mq=spec.mq, heavy_positions=frozenset({0}))
    seq2 = sequence_from_names(spec2, L2_Q1_SEQUENCE, L2_Q1_ANGLES)
    _, psi2 = ground_state(spec2)
    seq2, _ = optimize_angles(seq2, sc_state(spec2), psi2, 2, seed_angles=L2_Q1_ANGLES)

    # segment 2: L=1 vacuum
    spec1 = LatticeSpec(L=1, g=spec.g, mq=spec.mq)
    seq1 = sequence_from_names(spec1, L1_Q0_SEQUENCE, L1_Q0_ANGLES)
    _, psi1 = ground_state(spec1)
    seq1, _ = optimize_angles(seq1, sc_state(spec1), psi1, 1, seed_angles=L1_Q0_ANGLES)

    a2, a1 = list(seq2.angles), list(seq1.angles)
    # interleave: the two L=1 layers ride along with the first L=2 layers
    stages = ["O_M0^(0)", "O_M0^(2)", "O_M1^(0,1)", "O_B0^(2)",
              "O_M0^(1)", "O_B0^(1)", "O_B1^(0,1)", "O_M0^(0)"]
    seeds = [a2[0], a1[0], a2[1], a1[1], a2[2], a2[3], a2[4], a2[5]]
    return DDecPlan(stages=stages, seed_angles=seeds,
                    boundary=["O_M1^(1,2)", "O_M2^(1,2)"])


def ddec_prepare(plan: DDecPlan, spec: LatticeSpec, target: StateVector,
                 rng_seed: int = 0) -> tuple[AnsatzSequence, StateVector, list[float]]:
    """Run the staged DDec schedule: globally re-optimize the interleaved
    segment layers stage by stage, then append and optimize the boundary
    operators.  Returns (sequence, prepared state, infidelity trace)."""
    from .spectra import sc_state

    start = sc_state(spec)
    trace = []
    seq = AnsatzSequence([])
    seeds: list[float] = []
    for name, seed in zip(plan.stages, plan.seed_angles, strict=True):
        nxt = sequence_from_names(spec, [name]).layers[0]
        seq = AnsatzSequence(seq.layers + [nxt])
        seeds.append(seed)
        seq, val = optimize_angles(seq, start, target, spec.L, seed_angles=seeds,
                                   n_starts=1, maxiter=30)
        seeds = list(seq.angles)
        trace.append(val)
    for i, name in enumerate(plan.boundary):
        final = i == len(plan.boundary) - 1
        nxt = sequence_from_names(spec, [name]).layers[0]
        seq = AnsatzSequence(seq.layers + [nxt])
        seeds.append(0.0)
        seq, val = optimize_angles(seq, start, target, spec.L, seed_angles=seeds,
                                   rng_seed=rng_seed, n_starts=1,
                                   maxiter=150 if final else 30)
        seeds = list(seq.angles)
        trace.append(val)
    return seq, seq.apply(start), trace


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
