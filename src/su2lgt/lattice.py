"""
Index arithmetic and sector bookkeeping for the heavy/light staggered layout.

Each spatial site x hosts three staggered sites: n = 3x (heavy quark Q),
n = 3x+1 (light quark q) and n = 3x+2 (light antiquark qbar).  Each staggered
site carries Nc color components, mapped to qubits via i(n, c) = Nc*n + c.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

ROLE_HEAVY, ROLE_QUARK, ROLE_ANTIQUARK = "Q", "q", "qbar"


@dataclass(frozen=True)
class LatticeSpec:
    """Physical couplings, size, color count and heavy-quark placement."""

    L: int
    Nc: int = 2
    g: float = 1.0
    mq: float = 0.1
    mQ: float = 0.0
    lambda2: float | None = None  # penalty strength; default 20 g^2
    heavy_positions: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "heavy_positions", frozenset(self.heavy_positions))
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.Nc < 2:
            raise ValueError("Nc must be >= 2")
        for name in ("g", "mq", "mQ", "lambda2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.g <= 0:
            raise ValueError("g must be positive")
        if self.penalty_strength < 0:
            raise ValueError("lambda2 must be non-negative")
        if not self.heavy_positions <= set(range(self.L)):
            raise ValueError("heavy_positions must lie in {0..L-1}")
        if self.n_qubits > 63:  # a Pauli term's masks are int64
            raise ValueError(f"L = {self.L} needs {self.n_qubits} qubits; "
                             f"Pauli operators hold at most 63")

    # -- derived sizes ------------------------------------------------
    @property
    def n_staggered(self) -> int:
        return 3 * self.L

    @property
    def n_qubits(self) -> int:
        return 3 * self.Nc * self.L

    @property
    def n_boundaries(self) -> int:
        return 2 * self.L

    @property
    def n_Q(self) -> int:
        return len(self.heavy_positions)

    @property
    def penalty_strength(self) -> float:
        return 20.0 * self.g ** 2 if self.lambda2 is None else self.lambda2

    # -- index arithmetic ---------------------------------------------
    def fermion_index(self, n: int, c: int) -> int:
        """Qubit index i(n, c) = Nc*n + c."""
        if not 0 <= n < self.n_staggered:
            raise IndexError(f"staggered site {n} outside 0..{self.n_staggered - 1}")
        if not 0 <= c < self.Nc:
            raise IndexError(f"color {c} outside 0..{self.Nc - 1}")
        return self.Nc * n + c

    def boundary_upper_staggered(self, b: int) -> int:
        """Inclusive upper staggered index of the charge sum defining E_b."""
        if not 0 <= b < self.n_boundaries:
            raise IndexError(f"boundary {b} outside 0..{self.n_boundaries - 1}")
        return b + 1 + b // 2

    @staticmethod
    def role(n: int) -> str:
        return (ROLE_HEAVY, ROLE_QUARK, ROLE_ANTIQUARK)[n % 3]

    def staggered_sites(self, role: str) -> list[int]:
        return [n for n in range(self.n_staggered) if self.role(n) == role]

    def qubits_of(self, n: int) -> list[int]:
        return [self.fermion_index(n, c) for c in range(self.Nc)]

    def with_heavy(self, *positions: int) -> "LatticeSpec":
        return replace(self, heavy_positions=frozenset(positions))

