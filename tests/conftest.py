"""Shared oracle helpers: independent dense linear algebra built with numpy
only, against which the package's sparse implementations are checked."""
from __future__ import annotations

import functools

import numpy as np
import pytest

from su2lgt import LatticeSpec

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": PX, "Y": PY, "Z": PZ}


def kron_chain(mats):
    return functools.reduce(np.kron, mats)


def dense_label(label: str, coeff=1.0) -> np.ndarray:
    """Qubit 0 is the most significant bit, i.e. the leftmost kron factor."""
    return coeff * kron_chain([PAULI[ch] for ch in label])


def dense_sum(pairs, n: int) -> np.ndarray:
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for label, coeff in pairs:
        out += dense_label(label, coeff)
    return out


def random_state(n: int, rng) -> np.ndarray:
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def reduced_density(amps: np.ndarray, keep, n: int) -> np.ndarray:
    """Partial trace keeping the listed qubits (MSB convention), via
    axis reshuffling on the amplitude tensor."""
    keep = list(keep)
    drop = [j for j in range(n) if j not in keep]
    t = amps.reshape([2] * n).transpose(keep + drop)
    t = t.reshape(1 << len(keep), 1 << len(drop))
    return t @ t.conj().T


def apply_on_wires(u: np.ndarray, wires, amps: np.ndarray) -> np.ndarray:
    """u acting on the listed wires of the register amps (the first wire the
    most significant of u's index) and the identity elsewhere: the kron
    embedding u (x) 1 with the wires permuted to the front, applied through
    the register's qubit axes."""
    n, k = amps.size.bit_length() - 1, len(wires)
    t = np.moveaxis(amps.reshape((2,) * n), list(wires), range(k))
    t = (u @ t.reshape(1 << k, -1)).reshape(t.shape)
    return np.ascontiguousarray(np.moveaxis(t, range(k), list(wires))).reshape(-1)


_SPEC_CACHE: dict[tuple[int, tuple[int, ...]], object] = {}


def spec_for(L: int, heavy=()) -> LatticeSpec:
    return LatticeSpec(L=L, heavy_positions=frozenset(heavy))


@pytest.fixture(scope="session")
def ground_cache():
    """Session-wide cache of exact ground states keyed by lattice spec."""
    from su2lgt.spectra import ground_state

    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = ground_state(spec)
        return cache[spec]

    return get
