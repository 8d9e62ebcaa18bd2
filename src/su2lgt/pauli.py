"""
Sparse Pauli-string algebra and a matrix-free statevector engine.

Conventions
-----------
- Qubit 0 is the *leftmost* qubit in ket notation and the most significant
  bit of the basis-state integer, so printed kets read left-to-right.
- |0> is spin-up: Z|0> = +|0>, Z|1> = -|1>.
- A Pauli string is stored as two bitmasks (X-part, Z-part) plus a complex
  coefficient.  A qubit with both bits set carries Y.  The operator is

      coeff * i^{|x & z|} * X^x Z^z

  which equals coeff times the literal product of the per-qubit letters
  (using Y = i X Z).
"""
from __future__ import annotations

import numpy as np


def _bit(n_qubits: int, j: int) -> int:
    """Mask bit for qubit j (qubit 0 = most significant bit)."""
    return 1 << (n_qubits - 1 - j)


def _qubits(n_qubits: int, mask: int) -> list[int]:
    """The qubits whose bits mask sets, in ascending order."""
    return [j for j in range(n_qubits) if mask & _bit(n_qubits, j)]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a, by a sort and a neighbour mask:
    np.unique's hash path is slower on these int arrays, and its first call
    in a process imports numpy.ma."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


# the (X, Z) bits of each letter
_MASKS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

# i^k for k = 0..3, then -i^k: the bits of Python's 1j ** k and -(1j ** k)
_PHASES = np.array([1j ** k for k in range(4)] + [-(1j ** k) for k in range(4)])


def _masks(n_qubits: int, ops) -> tuple[int, int]:
    """The X- and Z-masks of the (qubit, letter) pairs ops."""
    x = z = 0
    for j, ch in ops:
        if not 0 <= j < n_qubits:
            raise IndexError(f"qubit {j} outside register of size {n_qubits}")
        if ch.upper() not in _MASKS:
            raise ValueError(f"bad Pauli letter {ch!r}")
        bx, bz = _MASKS[ch.upper()]
        x |= bx * _bit(n_qubits, j)
        z |= bz * _bit(n_qubits, j)
    return x, z


def _cmul(a, b) -> np.ndarray:
    """a * b elementwise as (ar br - ai bi) + i (ar bi + ai br) with each
    product rounded on its own, the bits of Python's complex product (numpy's
    complex multiply may fuse a product into the sum)."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class PauliString:
    """A single weighted Pauli string on a fixed register."""

    __slots__ = ("n", "x", "z", "coeff")

    def __init__(self, n: int, x: int = 0, z: int = 0, coeff: complex = 1.0):
        self.n = n
        self.x = x
        self.z = z
        self.coeff = complex(coeff)

    # -- constructors -------------------------------------------------
    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliString":
        """Build from a letter string like 'XIZY' (qubit 0 first)."""
        return cls(len(label), *_masks(len(label), enumerate(label)), coeff)

    @classmethod
    def from_ops(cls, n: int, ops: dict[int, str], coeff: complex = 1.0) -> "PauliString":
        """Build from {qubit: letter}; unlisted qubits are identity."""
        return cls(n, *_masks(n, ops.items()), coeff)

    # -- basic queries ------------------------------------------------
    def letter(self, j: int) -> str:
        b = _bit(self.n, j)
        return "IXZY"[bool(self.x & b) + 2 * bool(self.z & b)]

    def label(self) -> str:
        return "".join(self.letter(j) for j in range(self.n))

    def support(self) -> list[int]:
        return _qubits(self.n, self.x | self.z)

    def to_dense(self) -> np.ndarray:
        if self.n > 12:
            raise ValueError("dense matrix limited to 12 qubits")
        dim = 1 << self.n
        c = self.coeff * 1j ** ((self.x & self.z).bit_count() % 4)
        cols = np.arange(dim)
        rows = cols ^ self.x
        m = np.zeros((dim, dim), dtype=complex)
        m[rows, cols] = c * (1.0 - 2.0 * (np.bitwise_count(cols & self.z) & 1))
        return m

    def __repr__(self):
        return f"PauliString({self.coeff:+g} {self.label()})"


class PauliSum:
    """A sum of Pauli strings as the X-masks `x`, Z-masks `z` (int64) and
    coefficients `c` (complex) of its terms, sorted by (x, z), each key once
    and each coefficient above ZERO_TOL.  Equal keys are added in the order
    their terms come, each sum starting from 0.0 (a fresh -0.0 part becomes
    +0.0), except that in a + b a key of a starts from a's stored value."""

    ZERO_TOL = 1e-14

    def __init__(self, n: int, terms=()):
        terms = list(terms)
        if any(t.n != n for t in terms):
            raise ValueError("register size mismatch")
        self._merge(n, [t.x for t in terms], [t.z for t in terms],
                    [t.coeff for t in terms])

    def _merge(self, n, x, z, c, kept: int = 0):
        """Set self to the sum of the terms (x[i], z[i], c[i]) added in that
        order; the first `kept` terms have distinct keys, whose sums start
        from their coefficients as stored rather than from 0.0."""
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        c = np.asarray(c, dtype=complex)
        order = np.lexsort((z, x))
        xs, zs = x[order], z[order]
        first = np.ones(xs.size, dtype=bool)
        first[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
        slot = np.empty_like(order)
        slot[order] = np.cumsum(first) - 1
        total = np.zeros(int(first.sum()), dtype=complex)
        total[slot[:kept]] = c[:kept]
        np.add.at(total, slot[kept:], c[kept:])  # one term at a time, in order
        keep = np.abs(total) > self.ZERO_TOL
        self.n, self.x, self.z, self.c = n, xs[first][keep], zs[first][keep], total[keep]
        return self

    # -- constructors -------------------------------------------------
    @classmethod
    def from_arrays(cls, n: int, x, z, c) -> "PauliSum":
        """The sum of the terms with X-masks x, Z-masks z and coefficients c
        (a Y where both bits are set), equal keys added in the order given."""
        return cls.__new__(cls)._merge(n, x, z, c)

    @classmethod
    def from_products(cls, n: int, products) -> "PauliSum":
        """The sum, in one merge, of coeff times the tensor product of the
        one-qubit factors for each (factors, coeff) of products.  factors
        maps distinct qubits to a letter or to its (letter, coefficient)
        terms; each term of a product ORs the masks of one term per factor
        and multiplies coeff by their coefficients, in factor order."""
        terms = []
        for factors, coeff in products:
            product = [(0, 0, complex(coeff))]
            for j, letters in factors.items():
                if not 0 <= j < n:
                    raise IndexError(f"qubit {j} outside register of size {n}")
                b = _bit(n, j)
                if isinstance(letters, str):
                    letters = ((letters, 1.0),)
                product = [(x | b * _MASKS[ch][0], z | b * _MASKS[ch][1], c * w)
                           for x, z, c in product for ch, w in letters]
            terms += product
        return cls.from_arrays(n, *zip(*terms)) if terms else cls(n)

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    # -- views --------------------------------------------------------
    def terms(self):
        return [PauliString(self.n, x, z, c)
                for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.c.tolist())]

    def __len__(self):
        return self.x.size

    def __getitem__(self, keep) -> "PauliSum":
        """The terms that the boolean mask keep selects, as a sum."""
        out = PauliSum.__new__(PauliSum)
        out.n, out.x, out.z, out.c = self.n, self.x[keep], self.z[keep], self.c[keep]
        return out

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise ValueError("register size mismatch")
        return PauliSum.__new__(PauliSum)._merge(
            self.n, np.concatenate([self.x, other.x]), np.concatenate([self.z, other.z]),
            np.concatenate([self.c, other.c]), kept=len(self))

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n != other.n:
                raise ValueError("register size mismatch")
            # term by term, self's terms outer: X^x1 Z^z1 X^x2 Z^z2 is
            # (-1)^{|z1 & x2|} X^x Z^z, and the Y counts fix the power of i
            x = self.x[:, None] ^ other.x
            z = self.z[:, None] ^ other.z
            # (uint8 counts wrap modulo 256, a multiple of 4)
            power = (np.bitwise_count(self.x & self.z)[:, None]
                     + np.bitwise_count(other.x & other.z) - np.bitwise_count(x & z)) % 4
            power += 4 * (np.bitwise_count(self.z[:, None] & other.x) & 1)
            c = _cmul(_cmul(self.c[:, None], other.c), _PHASES[power])
            return PauliSum.from_arrays(self.n, x.ravel(), z.ravel(), c.ravel())
        c = _cmul(self.c, complex(other))
        keep = np.abs(c) > self.ZERO_TOL
        out = self[keep]
        out.c = c[keep]
        return out

    def __rmul__(self, scalar):
        return self * scalar

    def adjoint(self) -> "PauliSum":
        out = self[:]
        out.c = self.c.conj()
        return out

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.c.imag) <= tol))

    # -- statevector action -------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H @ v on a raw amplitude array: out[sigma ^ x] += <sigma ^ x| H
        |sigma> v[sigma] over the sigma where v is non-zero, with the
        elements of Sector._elements.  Each output entry adds its terms in
        order of sigma, from 0, as a sparse product with Sector.restrict's
        matrix does.  The output is real when v and every element are."""
        sigma = np.flatnonzero(v)
        return self._scatter(sigma, v[sigma], v.size)

    def _scatter(self, sigma: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
        """matvec of the register of `size` amplitudes that holds v at the
        sorted indices sigma, v non-zero, and 0 elsewhere."""
        table = Sector._term_table(self)
        vals = Sector._elements(table, sigma)
        if np.abs(vals.imag).max(initial=0.0) < 1e-15:
            vals = vals.real
        out = np.zeros(size, dtype=np.result_type(v.dtype, vals.dtype, float))
        np.add.at(out, sigma[:, None] ^ table[0], vals * v[:, None])
        return out

    def apply(self, state: "StateVector") -> "StateVector":
        """H|state>, on the whole register, from the state's support."""
        if state.n != self.n:
            raise ValueError("register size mismatch")
        return StateVector(self._scatter(*state.support(), 1 << self.n), normalized=False)

    def expectation(self, state: "StateVector") -> float:
        """<state|H|state> for Hermitian H; raises ValueError on an imaginary
        residual of 1e-10 or more."""
        if not self.is_hermitian(1e-10):
            raise ValueError("expectation requires a Hermitian PauliSum")
        if state.n != self.n:
            raise ValueError("register size mismatch")
        # the elements between two support states; the rest meet a zero
        idx, v = state.support()
        rows, keep, vals = Sector(self.n, idx)._table(self, closed=False)
        val = np.vdot(v[rows[keep]], vals[keep] * v[keep.nonzero()[0]])
        if abs(val.imag) >= 1e-10:
            raise ValueError(f"imaginary residual {val.imag:g} in expectation")
        return float(val.real)

    def to_dense(self) -> np.ndarray:
        if self.n > 12:
            raise ValueError("dense matrix limited to 12 qubits")
        idx = np.arange(1 << self.n)
        table = Sector._term_table(self)
        m = np.zeros((idx.size, idx.size), dtype=complex)
        m[idx[:, None] ^ table[0], idx[:, None]] = Sector._elements(table, idx)
        return m

    # -- text form ----------------------------------------------------
    def to_text(self) -> str:
        """One term per line: coefficient then letter-index tokens."""
        lines = []
        for t in self.terms():
            toks = [f"{t.letter(j)}{j}" for j in t.support()] or ["I"]
            c = t.coeff
            cs = f"{c.real:+.12g}" if abs(c.imag) < 1e-14 else f"({c.real:+.12g}{c.imag:+.12g}j)"
            lines.append(f"{cs} " + " ".join(toks))
        return "\n".join(lines)

    def __repr__(self):
        return f"PauliSum(n={self.n}, {len(self)} terms)"


class StateVector:
    """Complex amplitudes on a register of n qubits, kept at sorted basis
    indices: `values[k]` at `indices[k]` and 0 elsewhere.  A state on the
    whole register keeps `indices` None and all 2^n amplitudes in `values`.
    Normalized unless built with normalized=False."""

    __slots__ = ("n", "indices", "values")

    def __init__(self, amps, normalized: bool = True):
        amps = np.asarray(amps, dtype=complex)
        n = int(round(np.log2(amps.size)))
        if 1 << n != amps.size:
            raise ValueError("amplitude length must be a power of two")
        self.n, self.indices, self.values = n, None, amps
        if normalized:
            self._check_norm()

    @classmethod
    def on_basis(cls, n: int, indices, values, normalized: bool = True) -> "StateVector":
        """The state with amplitudes values at the sorted, distinct basis
        indices and 0 elsewhere (the values are copied)."""
        out = cls.__new__(cls)
        out.n = n
        out.indices = np.asarray(indices, dtype=np.int64)
        out.values = np.array(values, dtype=complex)
        if normalized:
            out._check_norm()
        return out

    def _check_norm(self):
        nrm = np.linalg.norm(self.values)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized (norm {nrm:g})")

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        if not 0 <= index < 1 << n:
            raise IndexError(f"basis state {index} outside register of size {n}")
        return cls.on_basis(n, [index], [1.0])

    @classmethod
    def from_ket(cls, ket: str) -> "StateVector":
        """'111100' -> the corresponding computational basis state."""
        return cls.basis(len(ket), int(ket, 2))

    @property
    def amps(self) -> np.ndarray:
        """All 2^n amplitudes; a state kept at indices builds them anew at
        each access, zero-filled and scattered."""
        if self.indices is None:
            return self.values
        amps = np.zeros(1 << self.n, dtype=complex)
        amps[self.indices] = self.values
        return amps

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted indices of the non-zero amplitudes (np.flatnonzero of
        amps) and their amplitudes."""
        at = np.flatnonzero(self.values)
        return (at if self.indices is None else self.indices[at]), self.values[at]

    def copy(self) -> "StateVector":
        if self.indices is None:
            return StateVector(self.values.copy(), normalized=False)
        return StateVector.on_basis(self.n, self.indices, self.values, normalized=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def overlap(self, other: "StateVector") -> complex:
        if other.n != self.n:
            raise ValueError("register size mismatch")
        (i, a), (j, b) = self.support(), other.support()
        _, at, bt = np.intersect1d(i, j, assume_unique=True, return_indices=True)
        return complex(np.vdot(a[at], b[bt]))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2

    def __repr__(self):
        return f"StateVector(n={self.n})"


# The most basis states one connected block may span in Sector.eigh, which
# diagonalizes each block densely.  The widest block any caller makes is 64
# states (the L = 3 intra-site kinetic Trotter factor).
_MAX_BLOCK = 256


class SectorMatrix:
    """A sparse matrix on a sector, kept entry by entry: entry e holds
    m = mr + i mi at (rows[e], cols[e]), and each row's entries come in
    column order.  The positions `ones` (Sector.eigh's one-state blocks)
    hold 1 on the diagonal and have no entries."""

    __slots__ = ("rows", "cols", "re", "im", "ones")

    def __init__(self, rows, cols, vals, ones):
        self.rows, self.cols, self.ones = rows, cols, ones
        # the two parts round their products apart, (mr xr - mi xi,
        # mr xi + mi xr), as a sparse product does
        self.re = vals.real.astype(complex) if vals.dtype.kind == "c" else vals
        self.im = 1j * vals.imag if vals.dtype.kind == "c" else None

    @property
    def vals(self) -> np.ndarray:
        """The entries' values, mr + i mi."""
        return self.re if self.im is None else self.re + self.im

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector x on the sector, complex unless x and the
        matrix are real.  add.at adds each row's terms one at a time, in
        column order, from 0: the sums of a CSR matrix product, bit for bit."""
        x = np.asarray(x, dtype=None if self.im is None else complex)
        at = x[self.cols]
        terms = self.re * at
        if self.im is not None:
            terms += self.im * at
        out = np.zeros_like(x)
        np.add.at(out, self.rows, terms)
        out[self.ones] = x[self.ones]
        return out

    def __add__(self, other: "SectorMatrix") -> "SectorMatrix":
        """The sum of two matrices on one sector without `ones` (as restrict
        gives them): the entries of both, those at one position added once,
        each row's in column order."""
        if self.ones.size or other.ones.size:
            raise ValueError("only matrices without one-state blocks add")
        rows = np.concatenate([self.rows, other.rows])
        cols = np.concatenate([self.cols, other.cols])
        vals = np.concatenate([self.vals, other.vals])
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        new = np.ones(rows.size, dtype=bool)
        new[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
        first = np.flatnonzero(new)
        rows, cols = rows[first], cols[first]
        vals = np.add.reduceat(vals, first) if first.size else vals
        keep = vals != 0
        return SectorMatrix(rows[keep], cols[keep], vals[keep], self.ones)


# the Lanczos basis's first rows: the ground solves converge in about a
# sixth of a sector's size, so the basis grows rather than taking size + 1
_BASIS_ROWS = 16


def lanczos(hs, q0: np.ndarray, size: int):
    """The Lanczos recurrence of a Hermitian hs from the unit vector q0, in
    q0's arithmetic, with two classical Gram-Schmidt passes against the
    whole basis.  After the m-th of at most size products it yields q[:m]
    and T_m's diagonal alpha and subdiagonal beta, beta[-1] the residual's.
    The basis starts with _BASIS_ROWS rows and doubles as they fill, up to
    size + 1; q[:m] is C-contiguous in every buffer, so the products keep
    their bits."""
    q = np.empty((min(_BASIS_ROWS, size + 1), q0.size), dtype=q0.dtype)
    q[0] = q0
    alpha, beta = [], []
    for m in range(1, size + 1):
        r = hs @ q[m - 1]
        coef = (q[:m] @ r.conj()).conj()
        r -= coef @ q[:m]
        r -= (q[:m] @ r.conj()).conj() @ q[:m]
        alpha.append(coef[-1].real)
        beta.append(np.linalg.norm(r))
        yield q[:m], alpha, beta
        if m == len(q):
            grown = np.empty((min(2 * m, size + 1), q0.size), dtype=q0.dtype)
            grown[:m] = q
            q = grown
        q[m] = r / beta[-1]


class Sector:
    """A sorted set of basis states that an operator maps into itself.

    `closure` collects the basis states reachable from a state's support
    through the operator's non-zero matrix elements; `dense` and `restrict`
    give an operator as a dense or a sparse matrix on those states,
    `expectation` its expectation value there, `eigh` eigendecomposes it,
    and `extract`/`embed` move amplitudes between a state and the sector.
    A sector built by `closure` keeps the matrix elements it swept, and the
    readers of the same operator reuse them.
    """

    _CHUNK = 1 << 17  # (state, term) entries per block of the sign table

    def __init__(self, n: int, indices):
        self.n = n
        self.indices = np.asarray(indices, dtype=np.int64)
        self._swept = []  # (op, its elements on the sector) from closure_under
        self._levels = None  # each state's closure_under front; None: one level

    def __len__(self):
        return self.indices.size

    @property
    def levels(self) -> np.ndarray:
        """Each state's level, the index of the closure_under front that
        reached it (level 0 is the start's support): a breadth-first level
        structure of the followed elements' graph.  A sector built from
        indices, or one that the start's support fills, is level 0."""
        if self._levels is None:
            return np.zeros(len(self), dtype=np.int64)
        return self._levels

    @staticmethod
    def _term_table(op: PauliSum):
        """op's terms, which come sorted by (X-mask, Z-mask): the distinct
        masks x_g, the index of each group's first term, and every term's
        Z-mask and phase c * i^{|x&z|}."""
        xs, starts = np.unique(op.x, return_index=True)
        return xs, starts, op.z, _cmul(op.c, _PHASES[np.bitwise_count(op.x & op.z) % 4])

    @staticmethod
    def _elements(table, sigma: np.ndarray) -> np.ndarray:
        """<sigma ^ x_g| op |sigma> for every sigma and group g: the sum of
        phase * (-1)^{|sigma&z|} over the group's terms."""
        _, starts, zs, phase = table
        if not zs.size or not sigma.size:
            return np.zeros((sigma.size, starts.size), dtype=complex)
        blocks, rows = [], max(1, Sector._CHUNK // zs.size)
        for lo in range(0, sigma.size, rows):
            odd = np.bitwise_count(sigma[lo:lo + rows, None] & zs) & 1
            blocks.append(np.add.reduceat(np.where(odd, -phase, phase), starts, axis=1))
        return np.concatenate(blocks)

    @classmethod
    def closure(cls, op: PauliSum, state: StateVector) -> "Sector":
        """The support of state and every basis state that op connects to it
        through a matrix element above PauliSum.ZERO_TOL."""
        return cls.closure_under([op], state)

    @classmethod
    def closure_under(cls, ops, state: StateVector) -> "Sector":
        """The support of state and every basis state that any product of
        the ops connects to it: each op's matrix elements above
        PauliSum.ZERO_TOL are followed on their own, so ops that cancel in
        their sum lose no state.  Each sweep of a front reaches the next
        front, so a followed element joins states of one level or of two
        adjacent levels (Sector.levels).  Unless the support is the whole
        register, the sector keeps each distinct op's elements, swept once
        per state."""
        ops = list({id(op): op for op in ops}.values())
        if any(op.n != state.n for op in ops):
            raise ValueError("register size mismatch")
        tables = [cls._term_table(op) for op in ops]
        front = reached = state.support()[0]
        if not front.size:
            raise ValueError("the zero state spans no sector")
        if front.size == 1 << state.n:  # nothing left to reach
            return cls(state.n, front)
        fronts, swept = [], []
        while front.size:
            vals = [cls._elements(table, front) for table in tables]
            fronts.append(front)
            swept.append(vals)
            hit = _sorted_unique(np.concatenate([np.empty(0, dtype=np.int64)] + [
                (front[:, None] ^ table[0])[np.abs(part) > PauliSum.ZERO_TOL]
                for table, part in zip(tables, vals)]))
            pos = np.searchsorted(reached, hit).clip(max=reached.size - 1)
            front = hit[reached[pos] != hit]
            reached = np.sort(np.concatenate([reached, front]))
        sector = cls(state.n, reached)
        at = [np.searchsorted(sector.indices, front) for front in fronts]
        if len(at) > 1:
            sector._levels = np.empty(len(sector), dtype=np.int64)
            for level, rows in enumerate(at):
                sector._levels[rows] = level
        for j, op in enumerate(ops):
            vals = swept[0][j]  # a lone front is the sector, in order
            if len(swept) > 1:
                vals = np.empty((len(sector), vals.shape[1]), dtype=complex)
                for rows, parts in zip(at, swept):
                    vals[rows] = parts[j]
            sector._swept.append((op, vals))
        return sector

    def extract(self, state: StateVector) -> np.ndarray:
        """The state's amplitudes on the sector's basis states, amps[indices]."""
        if state.indices is None:
            return state.values[self.indices]
        pos = np.searchsorted(state.indices, self.indices)
        hit = pos < state.indices.size
        hit[hit] = state.indices[pos[hit]] == self.indices[hit]
        out = np.zeros(len(self), dtype=complex)
        out[hit] = state.values[pos[hit]]
        return out

    def embed(self, v: np.ndarray) -> StateVector:
        """The state with amplitudes v on the sector, 0 elsewhere, kept at
        the sector's indices."""
        return StateVector.on_basis(self.n, self.indices, v, normalized=False)

    def _table(self, op: PauliSum, closed: bool = True):
        """op's elements on the sector as (rows, keep, vals): vals[j, g] =
        <sigma_j ^ x_g| op |sigma_j>, rows[j, g] the sector position of
        sigma_j ^ x_g (j itself where that state is outside), and keep
        marking the non-zero elements inside.  vals is real when every kept
        element is.  Unless closed is False, raises ValueError if an element
        above PauliSum.ZERO_TOL leads out of the sector."""
        if op.n != self.n:
            raise ValueError("register size mismatch")
        idx, dim = self.indices, self.indices.size
        table = self._term_table(op)
        vals = next((vals for swept, vals in self._swept if swept is op), None)
        if vals is None:
            vals = self._elements(table, idx)
        target = idx[:, None] ^ table[0]
        if dim == 1 << self.n:
            rows, inside = target, True
        else:
            rows = np.searchsorted(idx, target).clip(max=dim - 1)
            inside = idx[rows] == target
            if closed and np.any(~inside & (np.abs(vals) > PauliSum.ZERO_TOL)):
                raise ValueError("operator leads out of the sector")
            rows = np.where(inside, rows, np.arange(dim)[:, None])
        keep = inside & (vals != 0)
        if np.abs(vals.imag[keep]).max(initial=0.0) < 1e-15:
            vals = vals.real
        return rows, keep, vals

    def dense(self, op: PauliSum) -> np.ndarray:
        """P_S op P_S as a dense array on the sector, the matrix of restrict
        (real when op's elements are).  Raises ValueError if an element
        above PauliSum.ZERO_TOL leads out of the sector."""
        rows, keep, vals = self._table(op)
        out = np.zeros((len(self), len(self)), dtype=vals.dtype)
        cols, groups = keep.nonzero()
        out[rows[cols, groups], cols] = vals[cols, groups]
        return out

    def expectation(self, op: PauliSum, v: np.ndarray) -> float:
        """Re <v| op |v> for amplitudes v on the sector, summed over the
        element table.  Raises ValueError as restrict does."""
        rows, keep, vals = self._table(op)
        return float(np.vdot(v[rows[keep]], vals[keep] * v[keep.nonzero()[0]]).real)

    def restrict(self, op: PauliSum) -> SectorMatrix:
        """P_S op P_S as a SectorMatrix on the sector (real when op's
        elements are), whose product gives the bits of a CSR product.
        Raises ValueError if an element above PauliSum.ZERO_TOL leads out of
        the sector."""
        rows, keep, vals = self._table(op)
        # entries column by column, so each row's come in column order
        cols, groups = keep.nonzero()
        return SectorMatrix(rows[cols, groups], cols, vals[cols, groups],
                            np.empty(0, dtype=np.int64))

    def eigh(self, op: PauliSum):
        """Eigendecomposition P_S op P_S = V w V^H of a Hermitian op on the
        sector, one connected block of its graph at a time.  Each block
        lists its states in sector order and its eigenvalues at those
        positions of w.  A one-state block is its diagonal element; the
        blocks of each larger size are diagonalized as one batch, and blocks
        with equal matrices share one eigendecomposition.  Returns w and V
        and V^H as SectorMatrix.  Raises ValueError for an op that leads
        out of the sector (see restrict) or a block of more than _MAX_BLOCK
        states."""
        rows_of, keep, vals = self._table(op)
        own = np.arange(len(self))
        on_diagonal = keep & (rows_of == own[:, None])
        w = np.zeros(len(self))
        w[on_diagonal.nonzero()[0]] = vals[on_diagonal].real
        # label every state by the least sector position in its block: take
        # the least label over the undirected edges, then the label's own
        # label, until nothing moves (a state without edges keeps its own)
        edge = (keep | keep[rows_of, np.arange(keep.shape[1])]) & ~on_diagonal
        linked = np.flatnonzero(edge.any(axis=1))
        near = np.where(edge[linked], rows_of[linked], linked[:, None]).T.copy()
        label = own.copy()
        while True:
            least = label[linked]
            for column in near:
                np.minimum(least, label[column], out=least)
            moved = label.copy()
            moved[linked] = least
            moved[linked] = moved[least]
            if np.array_equal(moved, label):
                break
            label = moved
        order = np.argsort(label, kind="stable")
        size_at = np.bincount(label)[label[order]]
        if size_at.max() > _MAX_BLOCK:
            raise ValueError(f"a block of {size_at.max()} states exceeds the "
                             f"{_MAX_BLOCK} that Sector.eigh takes")
        # V's entries, block by block, row by row, column by column
        ones = order[size_at == 1]
        nnz = int(size_at.sum()) - ones.size
        rows, cols = np.empty(nnz, dtype=np.int64), np.empty(nnz, dtype=np.int64)
        vecs = np.empty(nnz, dtype=vals.dtype)
        block, local = np.empty_like(own), np.empty_like(own)
        end = 0
        for size in np.flatnonzero(np.bincount(size_at)[2:]) + 2:
            members = order[size_at == size].reshape(-1, size)
            span = slice(end, end + members.size * size)
            end = span.stop
            rows[span].reshape(-1, size, size)[:] = members[:, :, None]
            cols[span].reshape(-1, size, size)[:] = members[:, None, :]
            block[members] = np.arange(len(members))[:, None]
            local[members] = np.arange(size)
            at = members.ravel()
            on = keep[at]
            flat = (block[at][:, None] * size + local[rows_of[at]]) * size + local[at][:, None]
            mats = np.zeros((len(members), size, size), dtype=vals.dtype)
            mats.reshape(-1)[flat[on]] = vals[at][on]
            # blocks whose matrices are equal, bit for bit, share one eigh
            raw = mats.reshape(len(mats), -1).view(f"V{size * size * mats.itemsize}")
            _, first, which = np.unique(raw.ravel(), return_index=True,
                                        return_inverse=True)
            w_of, vec_of = np.linalg.eigh(mats[first])
            w[members] = w_of[which]
            vec_of.take(which, axis=0, out=vecs[span].reshape(-1, size, size))
        # V^H holds conj(V[r, c]) at (c, r); taken in V's entry order, each
        # of its rows still comes in column order
        return (w, SectorMatrix(rows, cols, vecs, ones),
                SectorMatrix(cols, rows, vecs.conj(), ones))


# -- operations on states ---------------------------------------------

def exp_chain_apply(chain, s: StateVector) -> StateVector:
    """exp(-i theta_m H_m) ... exp(-i theta_1 H_1)|s> exactly, for the
    (H_j, theta_j) of chain in the order they act, each H_j Hermitian and
    each theta_j finite.

    Runs apply_chain on the sector that the generators of non-zero angle
    reach from the support of s (Sector.closure_under), with the bits of
    one exp_sum_apply per generator, and returns the state kept on that
    sector.  Raises ValueError for a non-Hermitian
    generator, a non-finite angle or a block wider than Sector.eigh takes.
    """
    chain = list(chain)
    for h, theta in chain:
        if not h.is_hermitian():
            raise ValueError("exp_chain_apply requires a Hermitian generator")
        if not np.isfinite(theta):
            raise ValueError(f"exp_chain_apply requires a finite angle, not {theta}")
    chain = [(h, theta) for h, theta in chain if theta != 0.0]
    if not chain:
        return s
    sector = Sector.closure_under([h for h, _ in chain], s)
    return sector.embed(apply_chain(sector, chain, sector.extract(s), {}))


def apply_chain(sector: Sector, chain, psi: np.ndarray, kept: dict) -> np.ndarray:
    """psi on a sector that each H of chain conserves, stepped through
    V (e^{-i theta w} * V^H psi) for each (H, theta) in turn, H = V w V^H
    from kept[id(H)] (held until H's last step) or else Sector.eigh.  Exact
    zeros lose their sign: e^{-i theta w} * 0 can be -0 + 0i."""
    for j, (h, theta) in enumerate(chain):
        w, v, vh = kept.pop(id(h), None) or sector.eigh(h)
        if any(later is h for later, _ in chain[j + 1:]):
            kept[id(h)] = w, v, vh
        psi = v @ (np.exp(-1j * theta * w) * (vh @ psi))
    psi[psi == 0] = 0
    return psi


def exp_sum_apply(h: PauliSum, theta: float, s: StateVector) -> StateVector:
    """exp(-i*theta*H)|s> exactly, for a Hermitian H and a finite theta: the
    one-generator chain of exp_chain_apply, on the basis states that H
    reaches from the support of s.  Raises ValueError for a non-Hermitian
    H, a non-finite theta or a block wider than Sector.eigh takes.
    """
    return exp_chain_apply([(h, theta)], s)
