"""
Strong-coupling states and exact/Lanczos ground states per charge sector.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import build_hamiltonian, mass_offset
from .lattice import LatticeSpec
from .pauli import PauliSum, Sector, StateVector


class LanczosError(RuntimeError):
    def __init__(self, message, energy=None, residual=None):
        super().__init__(message)
        self.energy = energy
        self.residual = residual


def sc_state(spec: LatticeSpec) -> StateVector:
    """Strong-coupling ground state for the sector encoded in the spec.

    Light sector: quark qubits |1>, antiquark qubits |0>.  An empty heavy
    site is |11>; an occupied one is the color-entangled two-term state
    (|01>_Q |10>_q - |10>_Q |01>_q)/sqrt(2) tensored with the local
    antiquark vacuum.
    """
    if spec.Nc != 2:
        raise ValueError("SC state construction implemented for Nc=2")
    amps = np.ones(1)
    for x in range(spec.L):
        if x in spec.heavy_positions:
            site = np.zeros(1 << 6)
            site[0b011000] = 1.0 / np.sqrt(2.0)
            site[0b100100] = -1.0 / np.sqrt(2.0)
        else:
            site = np.zeros(1 << 6)
            site[0b111100] = 1.0
        amps = np.kron(amps, site)
    return StateVector(amps.astype(complex))


def lanczos_ground(h: PauliSum, start: StateVector, tol: float = 1e-10,
                   max_iter: int = 400) -> tuple[float, StateVector]:
    """Lowest eigenpair by Lanczos with full reorthogonalization.

    The start vector selects the sector: it must have nonzero overlap with
    the target ground state.  The iteration runs on the basis states that h
    reaches from the start's support (see Sector.closure), which hold the
    whole Krylov space.  Residual ||H psi - E psi|| < tol on success.
    """
    from scipy.linalg import eigh_tridiagonal

    sector = Sector.closure(h, start)
    hs = sector.restrict(h)
    v = sector.extract(start)
    if np.abs(v.imag).max(initial=0.0) < 1e-15:
        v = v.real.copy()  # H is real in this basis; stay in real arithmetic
    v = v / np.linalg.norm(v)
    basis = np.empty((64, v.size), dtype=v.dtype)
    basis[0] = v
    alphas, betas = [], []
    best = (np.inf, np.inf)
    for k in range(max_iter):
        if k + 1 >= basis.shape[0]:
            basis = np.concatenate([basis, np.empty_like(basis)], axis=0)
        w = hs @ basis[k]
        alphas.append(float(np.vdot(basis[k], w).real))
        # full reorthogonalization (twice, for numerical safety)
        for _ in range(2):
            coefs = basis[:k + 1].conj() @ w
            w = w - basis[:k + 1].T @ coefs
        beta = float(np.linalg.norm(w))
        evals, evecs = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        energy = float(evals[0])
        resid = beta * abs(evecs[-1, 0])
        best = min(best, (resid, energy))
        if resid < tol or beta < 1e-14:
            amps = evecs[:, 0] @ basis[:k + 1]
            amps = amps / np.linalg.norm(amps)
            true_resid = np.linalg.norm(hs @ amps - energy * amps)
            if true_resid < max(tol, 100 * resid + 1e-12):
                return energy, sector.embed(amps)
        betas.append(beta)
        basis[k + 1] = w / beta
    raise LanczosError(f"Lanczos did not converge in {max_iter} iterations "
                       f"(best residual {best[0]:.3e})",
                       energy=best[1], residual=best[0])


def ground_state(spec: LatticeSpec, tol: float = 1e-10,
                 max_iter: int = 400) -> tuple[float, StateVector]:
    """Interacting ground state of the sector encoded in the spec.

    The reported energy restores the identity constant dropped by the mass
    builder, matching the convention of the quoted component energies.
    """
    h = build_hamiltonian(spec).total
    e, psi = lanczos_ground(h, sc_state(spec), tol=tol, max_iter=max_iter)
    return e + mass_offset(spec), psi


def hadron_mass(spec: LatticeSpec) -> float:
    """Lambda_Q = E_1(n_Q=1) - E_0(n_Q=0) at fixed couplings."""
    if spec.n_Q != 1:
        raise ValueError("hadron_mass needs a spec with exactly one heavy quark")
    e1, _ = ground_state(spec)
    e0, _ = ground_state(spec.with_heavy())
    return e1 - e0
