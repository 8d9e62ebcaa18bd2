"""
Strong-coupling states and exact ground states per charge sector.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import build_hamiltonian, mass_offset
from .lattice import LatticeSpec
from .pauli import PauliSum, Sector, StateVector, lanczos


# the largest sector whose ground state is solved as a dense matrix: above
# every sector at L <= 4 (at most 10 528 states, three heavy quarks at L = 4:
# 0.89 GB per n x n array; the certificate holds arrays of one or two BFS
# levels only, and the eigh fallback three n x n arrays, the dense H_S and
# LAPACK's two, 2.7 GB); an L = 5 sector holds about 10^5 states, tens of GB
MAX_DENSE_STATES = 12_000


class LanczosError(RuntimeError):
    """The ground-state solve failed or missed its residual tolerance."""


def sc_state(spec: LatticeSpec) -> StateVector:
    """Strong-coupling ground state for the sector encoded in the spec.

    Light sector: quark qubits |1>, antiquark qubits |0>.  An empty heavy
    site is |11>; an occupied one is the color-entangled two-term state
    (|01>_Q |10>_q - |10>_Q |01>_q)/sqrt(2) tensored with the local
    antiquark vacuum.  The state is kept on its 2^n_Q basis states.
    """
    if spec.Nc != 2:
        raise ValueError("SC state construction implemented for Nc=2")
    # the tensor product site by site, on its support: each amplitude is
    # the product of the sites' amplitudes in np.kron's order
    indices, amps = np.zeros(1, dtype=np.int64), np.ones(1)
    for x in range(spec.L):
        if x in spec.heavy_positions:
            site = {0b011000: 1.0 / np.sqrt(2.0), 0b100100: -1.0 / np.sqrt(2.0)}
        else:
            site = {0b111100: 1.0}
        indices = (indices[:, None] << 6 | list(site)).ravel()
        amps = np.multiply.outer(amps, list(site.values())).ravel()
    return StateVector.on_basis(spec.n_qubits, indices, amps)


def _dense(hr, size: int) -> np.ndarray:
    """The size x size array of the SectorMatrix hr, from its entries."""
    out = np.zeros((size, size), dtype=hr.re.dtype)
    out[hr.rows, hr.cols] = hr.vals
    return out


def _bounded_below(hr, levels: np.ndarray, energy: float) -> bool:
    """Whether the Cholesky factorization of H_S - sigma exists,
    sigma = E - 1e-9 max(min(1, r), |E|) with r the largest absolute row sum
    of H_S (at least its norm), that is, no eigenvalue of hr lies below E.
    It runs one level of the sector (Sector.levels) at a time.  In level
    order the followed entries make H_S block tridiagonal, diagonal blocks
    A_k and blocks B_k from level k to k + 1, so with S_0 = A_0 - sigma,
    L_k = chol(S_k) and W_k = L_k^-1 B_k^H, S_{k+1} = A_{k+1} - sigma -
    W_k^H W_k: the dense factorization without its zero blocks.  Entries
    that join levels two or more apart (at most PauliSum.ZERO_TOL, as the
    closure does not follow them) stay out of the blocks, and their largest
    absolute row sum, a bound on their norm, is added to sigma
    (Weyl's inequality), so a passing factorization still proves the bound
    for all of H_S.  Every array is of one or two levels' sizes
    (notes/decisions.md, "The certificate one level at a time")."""
    count = np.bincount(levels)
    local = np.empty_like(levels)
    local[np.argsort(levels, kind="stable")] = (
        np.arange(levels.size) - np.repeat(np.cumsum(count) - count, count))
    vals, at, to = hr.vals, levels[hr.cols], levels[hr.rows]
    weight = np.abs(vals)
    norm = np.bincount(hr.rows, weight).max(initial=0.0)
    skip = np.abs(to - at) > 1
    margin = np.bincount(hr.rows[skip], weight[skip]).max(initial=0.0)
    shift = energy - 1e-9 * max(min(1.0, norm), abs(energy)) + margin

    def block(row_level, col_level):
        """The entries from level col_level to level row_level, dense."""
        out = np.zeros((count[row_level], count[col_level]), dtype=hr.re.dtype)
        keep = (to == row_level) & (at == col_level)
        out[local[hr.rows[keep]], local[hr.cols[keep]]] = vals[keep]
        return out

    for k, size in enumerate(count):
        schur = block(k, k)
        schur.flat[::size + 1] -= shift
        if k:
            schur -= w.conj().T @ w
        try:
            factor = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            return False
        if k + 1 < count.size:
            w = np.linalg.solve(factor, block(k + 1, k).conj().T)
    return True


def lanczos_ground(h: PauliSum, start: StateVector,
                   tol: float = 1e-10) -> tuple[float, StateVector]:
    """Lowest eigenpair of h in the start vector's sector.

    The start vector selects the sector, the basis states that h reaches
    from its support (Sector.closure).  The Lanczos basis from the start
    (real when h and the start are) grows until the lowest Ritz pair's
    residual beta_m |s_m| is at most 1e-13, tested every 10 products.  A
    Cholesky factorization of H_S - (E - 1e-9 max(min(1, r), |E|)), r the
    largest absolute row sum of H_S, proves that no eigenvalue lies below
    E; it runs block by block over the closure's BFS levels
    (_bounded_below), filled from the sparse H_S's entries.  Where it
    fails, the start missed the lowest state's symmetry class, and
    np.linalg.eigh of a dense H_S built only then gives the pair.  The
    residual is a product with the sparse H_S, so a passing certificate
    holds no n x n array.  Raises LanczosError for a sector of more than
    MAX_DENSE_STATES states, when LAPACK does not converge, and unless
    ||H psi - E psi|| < tol.
    """
    sector = Sector.closure(h, start)
    if len(sector) > MAX_DENSE_STATES:
        raise LanczosError(f"the sector holds {len(sector)} states; the dense "
                           f"ground-state solve takes at most {MAX_DENSE_STATES}")
    hr, v = sector.restrict(h), sector.extract(start)
    v = v.real if hr.im is None and not v.imag.any() else v
    try:
        for q, alpha, beta in lanczos(hr, v / np.linalg.norm(v), v.size):
            if len(q) % 10 == 0 or len(q) == v.size or beta[-1] <= 1e-13:
                theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
                if len(q) == v.size or beta[-1] * abs(s[-1, 0]) <= 1e-13:
                    break
        energy, amps = float(theta[0]), s[:, 0] @ q
        del q  # the basis goes before the certificate's blocks come
        if not _bounded_below(hr, sector.levels, energy):
            evals, evecs = np.linalg.eigh(_dense(hr, v.size))
            energy, amps = float(evals[0]), evecs[:, 0]
    except np.linalg.LinAlgError as exc:
        raise LanczosError(f"the dense ground-state solve failed: {exc}")
    residual = float(np.linalg.norm(hr @ amps - energy * amps))
    if not residual < tol:
        raise LanczosError(f"ground-state residual {residual:.3e} is not below {tol:.1e}")
    return energy, sector.embed(amps)


def ground_state(spec: LatticeSpec, tol: float = 1e-10) -> tuple[float, StateVector]:
    """Interacting ground state of the sector encoded in the spec.

    The reported energy restores the identity constant dropped by the mass
    builder, matching the convention of the quoted component energies.
    """
    h = build_hamiltonian(spec).total
    e, psi = lanczos_ground(h, sc_state(spec), tol=tol)
    return e + mass_offset(spec), psi


def hadron_mass(spec: LatticeSpec) -> float:
    """Lambda_Q = E_1(n_Q=1) - E_0(n_Q=0) at fixed couplings."""
    if spec.n_Q != 1:
        raise ValueError("hadron_mass needs a spec with exactly one heavy quark")
    e1, _ = ground_state(spec)
    e0, _ = ground_state(spec.with_heavy())
    return e1 - e0
