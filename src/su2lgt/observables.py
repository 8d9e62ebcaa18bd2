"""
Measured quantities: Z profiles, mutual information, 4-tangles, stabilizer
Renyi entropy, the GHZ-grouped energy-loss estimator, shot sampling, and
the mitigation post-processing math (ODR / ZNE / Hadamard test).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (_apply_on_support, _gather, clifford_conjugate,
                       ghz_evolution_circuit)
from .hamiltonian import charge_cross, charge_square
from .lattice import LatticeSpec
from .pauli import PauliSum, StateVector, _bit, _sorted_unique

_EIG_CLIP = 1e-14


# ---------------------------------------------------------------------------
# basic profiles and entanglement measures
# ---------------------------------------------------------------------------

def z_profile(state: StateVector, pair_average: bool = False) -> np.ndarray:
    """Per-qubit <Z_j>, the support's weight |c|^2 on bit j = 0 less that on
    bit j = 1; optionally averaged over (r, g) color pairs."""
    idx, vals = state.support()
    p = np.abs(vals) ** 2
    ones = (((idx >> (state.n - 1 - j)) & 1).astype(bool) for j in range(state.n))
    out = np.array([p[~one].sum() - p[one].sum() for one in ones])
    if pair_average:
        out = np.repeat(0.5 * (out[0::2] + out[1::2]), 2)
    return out


def _entropy(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    evals = np.clip(evals.real, _EIG_CLIP, None)
    return float(-(evals * np.log2(evals)).sum())


def _flavor_qubits(spec: LatticeSpec, x: int, flavor: str) -> list[int]:
    offset = {"quark": 1, "antiquark": 2}.get(flavor)
    if offset is None:
        raise ValueError("flavor must be 'quark' or 'antiquark'")
    return list(spec.qubits_of(3 * x + offset))


def _at(idx: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The amplitude at each basis index x of the state that holds vals at
    the sorted indices idx, and 0 off them."""
    pos = np.minimum(np.searchsorted(idx, x), idx.size - 1)
    return np.where(idx[pos] == x, vals[pos], 0.0)


def _reduced_density(n: int, keep: list[int], idx: np.ndarray,
                     vals: np.ndarray) -> np.ndarray:
    """Reduced density matrix over the kept qubits (in that order, the first
    most significant) of the state that holds vals at the indices idx."""
    m = _gather(n, keep, idx, vals)[1]
    return m @ m.conj().T


def mutual_information(state: StateVector, spec: LatticeSpec, x: int,
                       flavor: str = "quark") -> float:
    """I = S(heavy pair) + S(flavor pair at x) - S(joint), in bits."""
    if spec.n_Q != 1:
        raise ValueError("mutual_information expects exactly one heavy quark")
    x_q = next(iter(spec.heavy_positions))
    heavy = list(spec.qubits_of(3 * x_q))
    flav = _flavor_qubits(spec, x, flavor)
    idx, vals = state.support()
    s_h, s_f, s_hf = (_entropy(_reduced_density(state.n, keep, idx, vals))
                      for keep in (heavy, flav, heavy + flav))
    return s_h + s_f - s_hf


def four_tangle(state: StateVector, spec: LatticeSpec, x_q: int, x: int,
                flavor: str = "quark") -> float:
    """|<psi| Y_Qr Y_Qg Y_fr Y_fg |psi*>|^2, from the state's support: the
    Y string of mask m sends |s> to (-1)^{|s & m|} |s ^ m>."""
    qubits = list(spec.qubits_of(3 * x_q)) + _flavor_qubits(spec, x, flavor)
    m = sum(_bit(state.n, q) for q in qubits)
    idx, vals = state.support()
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & m) & 1)
    return float(abs(np.vdot(vals, signs * _at(idx, vals, idx ^ m).conj())) ** 2)


# ---------------------------------------------------------------------------
# stabilizer Renyi entropy M2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SreEstimate:
    value: float
    std_error: float
    method: str
    samples: int = 0


def _hadamard(m: int) -> np.ndarray:
    """The 2^m Sylvester-Hadamard matrix, W[a, b] = (-1)^{|a & b|}."""
    a = np.arange(1 << m)
    return 1.0 - 2.0 * (np.bitwise_count(a[:, None] & a) & 1)


def _sre_dense(amps: np.ndarray, n: int) -> float:
    """sum_P <P>^4 / 2^n over all Pauli strings.  For each X-mask x, the
    Walsh-Hadamard transform of conj(c_s) c_{s^x} over s gives every <P> with
    that mask; on the (2^hi, 2^lo) reshape it is the product W_hi G W_lo."""
    dim, lo = 1 << n, n // 2
    w_hi, w_lo = _hadamard(n - lo), _hadamard(lo)
    idx = np.arange(dim)
    total = 0.0
    block = max(1, (1 << 16) // dim)
    for x0 in range(0, dim, block):
        xs = np.arange(x0, min(x0 + block, dim))
        g = amps.conj() * amps[idx ^ xs[:, None]]
        sq = 0.0
        for part in (g.real, g.imag):
            f = w_hi @ (part.reshape(-1, 1 << lo) @ w_lo).reshape(xs.size, -1, 1 << lo)
            sq = sq + f * f
        total += float((sq * sq).sum())
    return total / dim


# the widest span of a support that the exact M2 transforms: the cost grows
# ~4^r, and r = 13 already takes seconds
_MAX_SPAN_RANK = 14


def _sre_exact(state: StateVector, tol: float = 1e-12) -> float:
    """sum_P <P>^4 / 2^n on the span of the support (amplitudes above tol).

    The support is a coset s0 ^ V.  Gaussian elimination of s ^ s0 over
    GF(2) gives V's rank r and each state's r-bit coordinates, an affine
    bit map that a CNOT network and an X string realize.  The sum does not
    change under Cliffords, factors over tensor products and is 1 on a
    basis state, so it is the dense transform of the r-qubit state.  Raises
    ValueError when r exceeds _MAX_SPAN_RANK.
    """
    supp, c = state.support()
    keep = np.abs(c) > tol
    supp, c = supp[keep], c[keep]
    rows = supp ^ supp[0]
    coords = np.zeros_like(rows)
    r = 0
    while (top := int(rows.max())):  # the pivot holds the highest bit left
        has = rows >= 1 << (top.bit_length() - 1)
        rows[has] ^= top
        coords[has] |= 1 << r
        r += 1
    if r > _MAX_SPAN_RANK:
        raise ValueError(f"the support spans GF(2) rank {r}, above the exact "
                         f"M2's cap of {_MAX_SPAN_RANK}; use method='sampled'")
    amps = np.zeros(1 << r, dtype=c.dtype)
    amps[coords] = c
    return _sre_dense(amps, r)


def _sre_sampled(state: StateVector, samples: int, seed,
                 tol: float = 1e-12) -> tuple[float, float]:
    """Monte-Carlo estimate of the 4-replica sum and a bootstrap error.

    Replicas are drawn from |c|^2 and reweighted, giving an unbiased
    estimate of the replica sum; the error is propagated to M2.
    """
    rng = np.random.default_rng(seed)
    supp, c = state.support()
    keep = np.abs(c) > tol
    supp, c = supp[keep], c[keep]
    p = np.abs(c) ** 2
    p = p / p.sum()
    draws = rng.choice(supp.size, size=(samples, 4), p=p)
    s = supp[draws]
    c1, c2, c3, c4 = (c[draws[:, k]] for k in range(4))
    t123 = _at(supp, c, s[:, 0] ^ s[:, 1] ^ s[:, 2])
    t124 = _at(supp, c, s[:, 0] ^ s[:, 1] ^ s[:, 3])
    t134 = _at(supp, c, s[:, 0] ^ s[:, 2] ^ s[:, 3])
    t234 = _at(supp, c, s[:, 1] ^ s[:, 2] ^ s[:, 3])
    weight = (np.abs(c1) * np.abs(c2) * np.abs(c3) * np.abs(c4)) ** 2
    terms = (c1 * c2 * c3 * t123 * np.conj(t124 * t134 * t234 * c4)).real / weight
    est = float(terms.mean())
    boots = np.empty(200)
    for b in range(boots.size):
        boots[b] = terms[rng.integers(0, samples, samples)].mean()
    return est, float(boots.std(ddof=1))


def sre_m2(state: StateVector, method: str = "exact", samples: int = 2000,
           seed=None) -> SreEstimate:
    """Stabilizer Renyi entropy M2 = -log2(sum_P <P>^4 / 2^n).

    The exact method sums over all Pauli strings by a Walsh-Hadamard
    transform on the span of the state's support, 2^r amplitudes for GF(2)
    rank r (`_sre_exact`); it samples nothing, and raises ValueError above
    rank _MAX_SPAN_RANK.  The sampled method draws replica quadruples with
    a bootstrap uncertainty.
    """
    if method == "exact":
        val = _sre_exact(state)
        m2 = float(-np.log2(max(val, _EIG_CLIP)))
        return SreEstimate(value=max(m2, 0.0), std_error=0.0, method="exact")
    if method == "sampled":
        est, err = _sre_sampled(state, samples, seed)
        m2 = float(-np.log2(max(est, _EIG_CLIP)))
        std = err / (max(est, _EIG_CLIP) * np.log(2.0))
        return SreEstimate(value=m2, std_error=std, method="sampled",
                           samples=samples)
    raise ValueError("method must be 'exact' or 'sampled'")


# ---------------------------------------------------------------------------
# GHZ-grouped energy-loss estimator
# ---------------------------------------------------------------------------

def ghz_evolution_unitary() -> np.ndarray:
    """Dense matrix of the evolution/measurement GHZ transformation, which
    diagonalizes sigma+ sigma- sigma- sigma+ + h.c. on qubits 0..3 (its
    adjoint maps the hop-hop terms to Z strings)."""
    return ghz_evolution_circuit((0, 1, 2, 3)).unitary()


@dataclass(frozen=True)
class EstimatorGroup:
    name: str
    qubits: tuple[int, ...]       # register qubits the basis change acts on
    paulis: tuple[str, ...]       # diagonal strings over those qubits ("IZZI")
    coeffs: tuple[float, ...]
    ghz: bool                     # apply the GHZ adjoint before measuring

    def evaluate(self, state: StateVector) -> float:
        """On the state's support: the GHZ adjoint on the group's wires, then
        per Z string of mask z the weights |c|^2 signed by parity(index & z)."""
        idx, vals = state.support()
        if self.ghz:
            idx, vals = _apply_on_support(state.n, list(self.qubits),
                                          ghz_evolution_unitary().conj().T, idx, vals)
        p = np.abs(vals) ** 2
        total = 0.0
        for label, coeff in zip(self.paulis, self.coeffs):
            z = sum(_bit(state.n, self.qubits[k])
                    for k, ch in enumerate(label) if ch == "Z")
            total += coeff * float(p @ (1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)))
        return total

    def as_pauli_sum(self, n: int) -> PauliSum:
        """O^dagger (C . P) O as an operator on the full register."""
        op = PauliSum.from_products(n, [(dict(zip(self.qubits, label)), coeff)
                                        for label, coeff in zip(self.paulis, self.coeffs)])
        if not self.ghz:
            return op
        return clifford_conjugate(ghz_evolution_circuit(self.qubits, n).gates, op)


def delta_hg_operator(spec: LatticeSpec) -> PauliSum:
    """Gauge-energy difference operator for the x=0 -> x=1 heavy move."""
    g2h = spec.g ** 2 / 2.0
    return g2h * (2.0 * charge_square(spec, 0)
                  + 4.0 * charge_cross(spec, 0, 1)
                  + 2.0 * charge_cross(spec, 0, 2))


def energy_loss_estimator(spec: LatticeSpec) -> tuple[EstimatorGroup, ...]:
    """The three measurement groups whose sum is the gauge-energy change."""
    if spec.Nc != 2:
        raise ValueError("estimator groups constructed for Nc=2")
    g2h = spec.g ** 2 / 2.0
    p1 = ("IIIIII", "ZZIIII", "ZIZIII", "ZIIZII", "IZZIII",
          "IZIZII", "ZIIIZI", "ZIIIIZ", "IZIIZI", "IZIIIZ")
    c1 = tuple(g2h / 8.0 * v for v in (6, -6, 2, -2, -2, 2, 1, -1, -1, 1))
    group1 = EstimatorGroup(
        name="diagonal", qubits=(0, 1, 2, 3, 4, 5),
        paulis=p1, coeffs=c1, ghz=False)
    p23 = ("ZZIZ", "IZZZ", "ZZZI", "IZII", "ZZZZ", "IZZI", "IZIZ", "ZZII")
    s23 = (-1, 1, -1, 1, -1, 1, 1, -1)
    group2 = EstimatorGroup(
        name="hop_01_23", qubits=(0, 1, 2, 3),
        paulis=p23, coeffs=tuple(g2h / 4.0 * s for s in s23), ghz=True)
    group3 = EstimatorGroup(
        name="hop_01_45", qubits=(0, 1, 4, 5),
        paulis=p23, coeffs=tuple(g2h / 8.0 * s for s in s23), ghz=True)
    return (group1, group2, group3)


def evaluate_energy_loss(groups, state: StateVector) -> tuple[list[float], float]:
    values = [g.evaluate(state) for g in groups]
    return values, float(sum(values))


# ---------------------------------------------------------------------------
# shot sampling and mitigation math
# ---------------------------------------------------------------------------

def shot_sample(state: StateVector, diagonal_paulis, n_shots: int,
                seed=None) -> list[tuple[float, float]]:
    """Empirical (mean, standard error) per diagonal string from sampled
    computational-basis bitstrings."""
    for ps in diagonal_paulis:
        if ps.x != 0:
            raise ValueError("shot_sample handles diagonal (Z/I) strings only")
    rng = np.random.default_rng(seed)
    idx, vals = state.support()
    p = np.abs(vals) ** 2
    p = p / p.sum()
    hits = idx[rng.choice(p.size, size=n_shots, p=p)]
    out = []
    for ps in diagonal_paulis:
        signs = 1.0 - 2.0 * (np.bitwise_count(hits & ps.z) & 1)
        vals = ps.coeff.real * signs
        out.append((float(vals.mean()),
                    float(vals.std(ddof=1) / np.sqrt(n_shots))))
    return out


def odr_rescale(meas_phys: float, meas_mit: float, pred_mit: float,
                cut: float = 0.005):
    """Operator-decoherence renormalization; None when below the cut."""
    if abs(meas_mit) < cut or abs(meas_phys) < cut:
        return None
    return meas_phys * pred_mit / meas_mit


def zne_extrapolate(values) -> tuple[float, float]:
    """Weighted linear fit of (noise_factor, estimate, error) to factor 0."""
    pts = list(values)
    if len({round(v[0], 12) for v in pts}) < 2:
        raise ValueError("ZNE needs at least two distinct noise factors")
    x = np.array([v[0] for v in pts], dtype=float)
    y = np.array([v[1] for v in pts], dtype=float)
    e = np.array([v[2] if len(v) > 2 and v[2] > 0 else 1.0 for v in pts])
    w = 1.0 / e ** 2
    design = np.vstack([np.ones_like(x), x]).T
    cov = np.linalg.inv(design.T @ (w[:, None] * design))
    beta = cov @ design.T @ (w * y)
    return float(beta[0]), float(np.sqrt(cov[0, 0]))


def depolarized(true_value: float, survival: float) -> float:
    """Global-depolarizing toy model: expectation damped by the survival
    probability, used to exercise the mitigation math without hardware."""
    return survival * true_value


# ---------------------------------------------------------------------------
# Hadamard test
# ---------------------------------------------------------------------------

def _trotter_groups(h: PauliSum):
    return [h[h.x == x] for x in _sorted_unique(h.x)]


def _apply_split_evolution(h: PauliSum, t: float, s: StateVector) -> StateVector:
    from .pauli import exp_chain_apply
    return exp_chain_apply([(g, t) for g in _trotter_groups(h)], s)


# the polynomial orders of the t -> 0 fit
_FIT_ORDERS = (1, 2, 3)


def hadamard_test_energy(state: StateVector, h, dt_grid,
                         evolver: str = "exact") -> tuple[float, float]:
    """<H> from ancilla-probability differences extrapolated to t -> 0.

    The one-ancilla circuit (H, S, controlled-U(t), H) gives P0 - P1 =
    -Im <psi|U(t) psi>, an inner product over the two supports, per grid
    time.  Fits polynomials in t to (P0 - P1)/t; returns the median intercept
    and the half-spread over fit orders and trailing subranges as the error.

    ``h`` is the measured operator; passing a LatticeSpec measures the
    gauge-energy difference operator for that lattice.
    """
    if isinstance(h, LatticeSpec):
        h = delta_hg_operator(h)
    ts = np.asarray(sorted(dt_grid), dtype=float)
    if ts.size < max(_FIT_ORDERS) + 2 or np.any(ts <= 0):
        raise ValueError("need a positive grid with more points than the fit order")
    ys, (idx, psi) = [], state.support()
    for t in ts:
        if evolver == "exact":
            from .dynamics import evolve_exact
            evolved = evolve_exact(state, h, t)
        elif evolver == "trotter":
            evolved = _apply_split_evolution(h, t, state)
        else:
            raise ValueError("evolver must be 'exact' or 'trotter'")
        at, phi = evolved.support()
        _, i, j = np.intersect1d(idx, at, assume_unique=True, return_indices=True)
        ys.append(-np.vdot(psi[i], phi[j]).imag / t)
    ys = np.array(ys)
    intercepts = []
    for order in _FIT_ORDERS:
        for start in range(0, ts.size - (order + 2)):
            coeffs = np.polynomial.polynomial.polyfit(ts[start:], ys[start:], order)
            intercepts.append(coeffs[0])
    intercepts = np.array(intercepts)
    center = float(np.median(intercepts))
    spread = float(0.5 * (intercepts.max() - intercepts.min()))
    return center, spread
