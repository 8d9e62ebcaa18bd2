"""
Gate-level circuits: IR, resource accounting, text emission, and synthesis
of every circuit template used by the simulation pipeline.

Multi-qubit rotations exp(-i*theta*(P1 +- P2)) on adjacent qubits are
emitted as two-CNOT "R-boxes"; longer string rotations are reduced to
R-boxes by conjugating with +-pi/2 boxes found by a deterministic beam
search (the reduction is exact Clifford conjugation, verified by unitary
equivalence in the tests).  Baryon operators and charge-pair generators go
through one Clifford-conjugated diagonal exponential: a GHZ-type Clifford
diagonalizes them, and the diagonal strings are emitted as a CNOT parity
walk of RZ rotations (a Gray cycle where the strings fill a cube).

Every Clifford conjugation of Pauli strings, by a gate or by a pi/2 box,
goes through one table per Clifford, read off its unitary at import: the
image of each string on the Clifford's wires and its sign.

All circuits track a global phase so that simulated statevectors match the
operator-level pipeline exactly, not only up to phase.
"""
from __future__ import annotations

import collections
import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .dynamics import TrotterFactor, trotter_schedule
from .lattice import LatticeSpec
from .pauli import PauliString, PauliSum, StateVector, _bit, _qubits

# ---------------------------------------------------------------------------
# circuit IR
# ---------------------------------------------------------------------------

_ONE_QUBIT = ("h", "s", "sdg", "x", "z", "rx", "ry", "rz")
_TWO_QUBIT = ("cx", "cz")
_PARAMETRIC = ("rx", "ry", "rz")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        if self.kind in _ONE_QUBIT:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} takes one qubit")
        elif self.kind in _TWO_QUBIT:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.kind} takes two distinct qubits")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (self.param is None) == (self.kind in _PARAMETRIC):
            raise ValueError(f"bad parameter for {self.kind}")

    def inverse(self) -> "Gate":
        if self.kind == "s":
            return Gate("sdg", self.qubits)
        if self.kind == "sdg":
            return Gate("s", self.qubits)
        if self.kind in _PARAMETRIC:
            return Gate(self.kind, self.qubits, -self.param)
        return self


_SQRT2 = math.sqrt(2.0)
_FIXED_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "s": np.diag([1.0, 1.0j]),
    "sdg": np.diag([1.0, -1.0j]),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]),
}
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
               dtype=complex)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def _gate_matrix(g: Gate) -> np.ndarray:
    if g.kind in _FIXED_1Q:
        return _FIXED_1Q[g.kind]
    if g.kind == "cx":
        return _CX
    if g.kind == "cz":
        return _CZ
    half = 0.5 * g.param
    c, s = math.cos(half), math.sin(half)
    if g.kind == "rz":
        return np.diag([c - 1j * s, c + 1j * s])
    if g.kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)  # rx


# Simulation fuses runs of consecutive gates into blocks on at most this many
# wires (gate fusion, Haener & Steiger, arXiv:1704.01127).  The 18-qubit
# pipeline is 95 blocks at width 4; notes/decisions.md has the timings of
# widths 1 to 6.
_FUSE_WIDTH = 4


def _apply_dense(blocks, psi: np.ndarray) -> np.ndarray:
    """Each (wires, matrix) block in turn on the tensor psi, whose first axes
    are the register's qubits (any axes after them ride along): one
    tensordot over the block's wires, the new axes moved back as a view."""
    for wires, u in blocks:
        k = len(wires)
        psi = np.tensordot(u.reshape((2,) * 2 * k), psi,
                           axes=(list(range(k, 2 * k)), wires))
        psi = np.moveaxis(psi, range(k), wires)
    return psi


def _dense_unitary(blocks, k: int) -> np.ndarray:
    """The 2^k x 2^k matrix of the blocks on k wires, each applied in turn
    to the identity (its rows' k qubits leading): O(4^k) work per block."""
    eye = np.eye(1 << k, dtype=complex).reshape((2,) * k + (1 << k,))
    return np.ascontiguousarray(_apply_dense(blocks, eye)).reshape(1 << k, 1 << k)


def _block_matrix(wires: list[int], gates, embedded: dict) -> np.ndarray:
    """The 2^k x 2^k matrix of gates on the k listed wires (the first the most
    significant): the product of each gate's embedding on the k wires, kept
    in `embedded` by (kind, param, local wires, k) for the caller's use."""
    k = len(wires)
    u = np.eye(1 << k, dtype=complex)
    for g in gates:
        local = [wires.index(q) for q in g.qubits]
        key = (g.kind, g.param, *local, k)
        e = embedded.get(key)
        if e is None:
            e = embedded[key] = _dense_unitary([(local, _gate_matrix(g))], k)
        u = e @ u
    return u


def _fused_blocks(gates) -> list[tuple[list[int], np.ndarray]]:
    """(wires, matrix) per block of consecutive gates, grouped greedily so
    that each block's wires number at most _FUSE_WIDTH."""
    runs: list[tuple[list[int], list[Gate]]] = []
    for g in gates:
        if runs:
            wires, members = runs[-1]
            new = [q for q in g.qubits if q not in wires]
            if len(wires) + len(new) <= _FUSE_WIDTH:
                wires += new
                members.append(g)
                continue
        runs.append((list(g.qubits), [g]))
    embedded: dict = {}
    return [(wires, _block_matrix(wires, members, embedded)) for wires, members in runs]


# Circuit.apply works on the support while it holds at most 2^n / this many
# states: there, gathering the touched groups costs less than a pass over
# the whole register (notes/decisions.md has the crossover).
_SPARSE_SHARE = 32


def _gather(n: int, wires: list[int], idx: np.ndarray, vals: np.ndarray) -> tuple:
    """The groups of the indices idx off the k wires (their bits there
    cleared), the (2^k x groups) matrix that holds vals at (bits on the
    wires, the first most significant; group), and each row's bits spread
    to the wires."""
    shifts, bits = n - 1 - np.array(wires), np.arange(len(wires) - 1, -1, -1)
    local = ((idx[:, None] >> shifts) & 1) @ (1 << bits)
    groups, column = np.unique(idx & ~int((1 << shifts).sum()), return_inverse=True)
    gathered = np.zeros((1 << len(wires), groups.size), dtype=complex)
    gathered[local, column] = vals
    return groups, gathered, ((np.arange(1 << len(wires))[:, None] >> bits) & 1) @ (1 << shifts)


def _apply_on_support(n: int, wires: list[int], u: np.ndarray, idx: np.ndarray,
                      vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's matrix u on the state with amplitudes vals at the basis
    indices idx: the 2^k-amplitude groups that idx touches on the block's k
    wires, gathered as the columns of one (2^k x groups) matrix, times u.
    Returns the indices and amplitudes of the outputs above eps times the
    largest output; the outputs dropped are rounding residue."""
    groups, gathered, offsets = _gather(n, wires, idx, vals)
    out = u @ gathered
    size = np.abs(out)
    keep = size > np.finfo(float).eps * size.max(initial=0.0)
    return (offsets[:, None] | groups)[keep], out[keep]


class Circuit:
    """Register size, time-ordered gate list and a tracked global phase."""

    def __init__(self, n_qubits: int, gates=(), phase: float = 0.0):
        self.n_qubits = int(n_qubits)
        self.gates: list[Gate] = list(gates)
        self.phase = float(phase)
        for g in self.gates:
            self._check(g)

    def _check(self, g: Gate):
        for q in g.qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} outside register of size {self.n_qubits}")

    def add(self, kind: str, *qubits: int, param: float | None = None) -> "Circuit":
        g = Gate(kind, tuple(qubits), param)
        self._check(g)
        self.gates.append(g)
        return self

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        return Circuit(self.n_qubits, self.gates + other.gates,
                       self.phase + other.phase)

    def __iadd__(self, other: "Circuit") -> "Circuit":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        self.gates.extend(other.gates)
        self.phase += other.phase
        return self

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and self.n_qubits == other.n_qubits
                and self.gates == other.gates and self.phase == other.phase)

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits, [g.inverse() for g in reversed(self.gates)],
                       -self.phase)

    def apply(self, state: StateVector) -> StateVector:
        """The state after the circuit, one fused block at a time.  While the
        support (the non-zero amplitudes) holds at most 2^n / _SPARSE_SHARE
        states, each block acts on the groups the support touches
        (_apply_on_support); a support that stays that small through the
        last block is returned on its sorted basis indices, and no 2^n
        register is built.  Past that share, the blocks left act on the
        whole register as one n-axis tensor, each block's new axes moved
        back as a view.  Either way the global phase multiplies the
        amplitudes in one scalar x array product, so `.amps` holds the same
        bits on both paths."""
        if state.n != self.n_qubits:
            raise ValueError("register size mismatch")
        n = self.n_qubits
        blocks = iter(_fused_blocks(self.gates))
        idx, vals = state.support()
        if _SPARSE_SHARE * idx.size <= 1 << n:
            for wires, u in blocks:
                idx, vals = _apply_on_support(n, wires, u, idx, vals)
                if _SPARSE_SHARE * idx.size > 1 << n:
                    break
            else:
                order = np.argsort(idx)
                vals = vals[order]
                if self.phase:
                    vals = np.exp(1j * self.phase) * vals
                return StateVector.on_basis(n, idx[order], vals, normalized=False)
            amps = np.zeros(1 << n, dtype=complex)
            amps[idx] = vals
        else:
            amps = state.amps
        psi = _apply_dense(blocks, amps.reshape((2,) * n))  # the blocks left
        amps = np.ascontiguousarray(psi).reshape(-1)
        if self.phase:
            amps = np.exp(1j * self.phase) * amps
        return StateVector(amps, normalized=False)

    def unitary(self) -> np.ndarray:
        if self.n_qubits > 12:
            raise ValueError("dense unitary limited to 12 qubits")
        u = _dense_unitary(_fused_blocks(self.gates), self.n_qubits)
        return np.exp(1j * self.phase) * u if self.phase else u

    def __repr__(self):
        return f"Circuit(n={self.n_qubits}, {len(self.gates)} gates)"


@dataclass(frozen=True)
class ResourceReport:
    two_qubit_count: int
    two_qubit_depth: int
    per_qubit: tuple[int, ...]


def count_resources(circuit: Circuit) -> ResourceReport:
    """Two-qubit count and depth by greedy ASAP layering.

    Each two-qubit gate starts in the earliest layer where both its qubits
    are free; single-qubit gates are free.
    """
    free = [0] * circuit.n_qubits
    per = [0] * circuit.n_qubits
    count = depth = 0
    for g in circuit.gates:
        if g.kind not in _TWO_QUBIT:
            continue
        a, b = g.qubits
        layer = max(free[a], free[b]) + 1
        free[a] = free[b] = layer
        depth = max(depth, layer)
        per[a] += 1
        per[b] += 1
        count += 1
    return ResourceReport(count, depth, tuple(per))


# ---------------------------------------------------------------------------
# text emission / parsing
# ---------------------------------------------------------------------------

class CircuitParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def emit_text(circuit: Circuit) -> str:
    """Minimal OpenQASM-2 subset; the global phase rides in a comment."""
    lines = ["OPENQASM 2.0;",
             'include "qelib1.inc";',
             f"// phase: {circuit.phase!r}",
             f"qreg q[{circuit.n_qubits}];"]
    for g in circuit.gates:
        head = g.kind if g.param is None else f"{g.kind}({g.param!r})"
        args = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{head} {args};")
    return "\n".join(lines) + "\n"


_GATE_RE = re.compile(r"^(\w+)(?:\(([^)]*)\))?\s+q\[(\d+)\](?:\s*,\s*q\[(\d+)\])?;$")


def parse_text(text: str) -> Circuit:
    lines = text.splitlines()
    n_qubits = None
    phase = 0.0
    gates: list[Gate] = []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("// phase:"):
            try:
                phase = float(line[len("// phase:"):].strip())
            except ValueError:
                raise CircuitParseError("bad phase value", i, len("// phase:") + 1)
            continue
        if line.startswith("//") or line.startswith("OPENQASM") or line.startswith("include"):
            continue
        if line.startswith("qreg"):
            m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
            if not m:
                raise CircuitParseError("malformed qreg declaration", i, 1)
            n_qubits = int(m.group(1))
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise CircuitParseError(f"unparseable statement {line!r}", i, 1)
        kind, param, qa, qb = m.group(1), m.group(2), m.group(3), m.group(4)
        if kind not in _ONE_QUBIT and kind not in _TWO_QUBIT:
            raise CircuitParseError(f"unknown gate {kind!r}", i, 1)
        if n_qubits is None:
            raise CircuitParseError("gate before qreg declaration", i, 1)
        try:
            pval = None if param is None else float(param)
        except ValueError:
            raise CircuitParseError(f"bad parameter {param!r}", i, len(kind) + 2)
        qubits = (int(qa),) if qb is None else (int(qa), int(qb))
        try:
            gates.append(Gate(kind, qubits, pval))
        except ValueError as exc:
            raise CircuitParseError(str(exc), i, 1)
    if n_qubits is None:
        raise CircuitParseError("missing qreg declaration", max(1, len(lines)), 1)
    return Circuit(n_qubits, gates, phase)


# ---------------------------------------------------------------------------
# R-boxes
# ---------------------------------------------------------------------------

# R^{XX}_pm(t) = exp(-i t/2 (XX pm YY)); R^{XY}_pm(t) = exp(-i t/2 (YX pm XY)).
# Each is two CNOTs around single-qubit Y rotations; phase-exact.
_RBOX_KINDS = ("XX+", "XX-", "XY+", "XY-")


def rbox(kind: str, theta: float, a: int, b: int,
         n_qubits: int | None = None) -> Circuit:
    """Two-CNOT block for the two-body double rotations; a is the first
    tensor factor of the defining generator."""
    if kind not in _RBOX_KINDS:
        raise ValueError(f"unknown R-box kind {kind!r}")
    if a == b:
        raise ValueError("R-box needs two distinct qubits")
    n = n_qubits if n_qubits is not None else max(a, b) + 1
    c = Circuit(n)
    xx = kind.startswith("XX")
    plus = kind.endswith("+")
    c.add("h", a)
    if xx:
        c.add("s", b)
    c.add("cx", a, b)
    if xx:
        c.add("ry", a, param=theta if plus else -theta)
        c.add("ry", b, param=theta)
    else:
        c.add("ry", a, param=-theta)
        c.add("ry", b, param=theta if plus else -theta)
    c.add("cx", a, b)
    c.add("h", a)
    if xx:
        c.add("sdg", b)
    return c


# generator factors (letters on the a/b wires) and relative sign per kind
_BOX_FACTORS = {
    "XX+": (("X", "X"), ("Y", "Y"), +1),
    "XX-": (("X", "X"), ("Y", "Y"), -1),
    "XY+": (("Y", "X"), ("X", "Y"), +1),
    "XY-": (("Y", "X"), ("X", "Y"), -1),
}


# ---------------------------------------------------------------------------
# Clifford conjugation of Pauli strings, through tables read off unitaries
# ---------------------------------------------------------------------------

def _clifford_table(u: np.ndarray) -> tuple:
    """U P U^dag for a Clifford U on k <= 2 wires, as a table from the index
    x << k | z of the string P (its masks on the k wires, the first the most
    significant) to (x', z', negated).  Each image is +-1 times one string:
    its overlap with that string has modulus 2^k, and with all others 0."""
    k = u.shape[0].bit_length() - 1
    strings = np.array([PauliString(k, *divmod(i, 1 << k)).to_dense()
                        for i in range(1 << 2 * k)])
    overlaps = np.einsum("qij,pij->pq", strings.conj(),
                         u @ strings @ u.conj().T).real
    return tuple((*divmod(int(j), 1 << k), bool(row[j] < 0))
                 for row, j in zip(overlaps, np.abs(overlaps).argmax(axis=1)))


def _conjugate(terms: tuple, table: tuple, wires, n: int) -> tuple:
    """U t U^dag for each (x, z, coeff) term t on n qubits, with U the
    Clifford whose `_clifford_table` is table, acting on wires."""
    bits = [_bit(n, q) for q in wires]
    on_wires = sum(bits)
    spread = [sum(b for j, b in enumerate(reversed(bits)) if m >> j & 1)
              for m in range(1 << len(bits))]
    out = []
    for x, z, c in terms:
        i = 0
        for mask in (x, z):
            for b in bits:
                i = i << 1 | bool(mask & b)
        nx, nz, negated = table[i]
        out.append((x & ~on_wires | spread[nx], z & ~on_wires | spread[nz],
                    -c if negated else c))
    return tuple(out)


_GATE_TABLES = {kind: _clifford_table(_gate_matrix(
                    Gate(kind, (0, 1) if kind in _TWO_QUBIT else (0,))))
                for kind in (*_FIXED_1Q, *_TWO_QUBIT)}

# the pi/2 boxes of the reduction below, by (kind, sign): exp(-i sign pi/4
# P1) exp(-i sign sigma pi/4 P2) on wires (a, a + 1)
_BOX_TABLES = {(kind, sign): _clifford_table(rbox(kind, sign * math.pi / 2.0,
                                                  0, 1).unitary())
               for kind in _RBOX_KINDS for sign in (1, -1)}


def clifford_conjugate(gates, op: PauliSum) -> PauliSum:
    """U op U^dag for U the product of the gates in circuit (time) order."""
    terms = tuple(zip(op.x.tolist(), op.z.tolist(), op.c.tolist()))
    for g in gates:
        if g.kind not in _GATE_TABLES:
            raise ValueError(f"gate {g.kind!r} is not Clifford")
        terms = _conjugate(terms, _GATE_TABLES[g.kind], g.qubits, op.n)
    return PauliSum.from_arrays(op.n, *zip(*terms)) if terms else PauliSum(op.n)


# ---------------------------------------------------------------------------
# string-rotation synthesis by pi/2-box reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class _Box:
    kind: str
    sign: int   # the box angle is sign * pi/2
    a: int      # b = a + 1

    @property
    def b(self) -> int:
        return self.a + 1


# Inside the synthesis a generator is a tuple of (x, z, coeff) terms on a
# w-qubit register: the masks and coefficient of PauliString, without the
# objects.

def _support_mask(gen: tuple) -> int:
    m = 0
    for x, z, *_ in gen:
        m |= x | z
    return m


def _classify_pair(gen: tuple, w: int):
    """(kind, base_coeff, (a, b)) if gen = base*(P1 + sigma*P2) on adjacent
    qubits in R-box form, else None."""
    if len(gen) != 2:
        return None
    m = _support_mask(gen)
    low = m & -m
    if m != 3 * low:  # exactly two adjacent qubits
        return None
    b = w - low.bit_length()
    a = b - 1
    by_letters = {}
    for x, z, c in gen:
        if abs(c.imag) > 1e-10:
            return None
        t = PauliString(w, x, z)
        by_letters[(t.letter(a), t.letter(b))] = c.real
    for kind, (l1, l2, sigma) in _BOX_FACTORS.items():
        if (by_letters.keys() == {l1, l2}
                and abs(by_letters[l2] - sigma * by_letters[l1]) < 1e-10):
            return (kind, by_letters[l1], (a, b))
    return None


class SynthesisError(RuntimeError):
    pass


def _canon(gens) -> tuple:
    return tuple(tuple(sorted((x, z, round(c.real, 10), round(c.imag, 10))
                              for x, z, c in g))
                 for g in gens)


_BEAM_WIDTH = 64


@functools.lru_cache(maxsize=256)
def _search_reduction(key: tuple, w: int) -> tuple[_Box, ...]:
    """Deterministic beam search for a pi/2-box sequence A such that every
    A gen A^dag is a two-qubit R-box generator, for the generators that
    `_canon` turned into `key`; minimizes the layered depth of the
    assembled A + rotations + A^dag block, then the box count.  Box
    conjugation only permutes and negates coefficients, so the search on
    the rounded coefficients of `key` finds the boxes of the exact ones,
    and a conjugated generator with its terms sorted is its own `_canon`.

    Each level expands every frontier node by every move at once, on terms
    packed into int64 as x << (w + c) | z << c | code, where code ranks the
    term's (re, im) among +- the key's coefficients (-0.0 counted as 0.0):
    integer order is the order of the (x, z, re, im) tuples, so a key's row
    of packed terms orders as the key does."""
    values = sorted({(s * re + 0.0, s * im + 0.0)
                     for g in key for _, _, re, im in g for s in (1, -1)})
    code = {v: i for i, v in enumerate(values)}
    c = max(len(values) - 1, 1).bit_length()
    if 2 * w + c > 63:
        raise ValueError(f"box search on {w} qubits does not fit 63-bit terms")
    cmask, wmask = (1 << c) - 1, (1 << w) - 1
    flip = np.array([i ^ code[-re + 0.0, -im + 0.0]
                     for i, (re, im) in enumerate(values)], dtype=np.int64)
    spans, lo = [], 0
    for g in key:
        spans.append((lo, lo + len(g)))
        lo += len(g)
    moves = [_Box(kind, sign, a) for a in range(w - 1)
             for kind in _RBOX_KINDS for sign in (1, -1)]
    # each move as an XOR on the packed term by its 16 window values, and
    # whether it negates the coefficient
    tables = np.array([_BOX_TABLES[b.kind, b.sign] for b in moves],
                      dtype=np.int64).reshape(len(moves), 16, 3)
    shift = np.array([w - 2 - b.a for b in moves], dtype=np.int64)[:, None]
    index = np.arange(16)
    delta = ((index >> 2 ^ tables[..., 0]) << (shift + w + c)
             | (index & 3 ^ tables[..., 1]) << (shift + c))
    negated = tables[..., 2].astype(bool)
    move_a = np.array([b.a for b in moves], dtype=np.int64)
    rows = np.arange(len(moves))[:, None]

    def sizes_of(terms: np.ndarray) -> np.ndarray:
        """Support size of each generator: (..., L) terms -> (..., G)."""
        xz = (terms >> (w + c) | terms >> c) & wmask
        masks = np.stack([np.bitwise_or.reduce(xz[..., lo:hi], axis=-1)
                          for lo, hi in spans], axis=-1)
        return sum(masks >> j & 1 for j in range(w))

    re_of, im_of = np.array(values).reshape(-1, 2).T
    letter = {name: i for i, name in enumerate("IXZY")}  # x bit + 2 z bit
    factors = [(4 * letter[l1[0]] + letter[l1[1]], 4 * letter[l2[0]] + letter[l2[1]],
                sigma) for l1, l2, sigma in _BOX_FACTORS.values()]
    powers = 1 << np.arange(w, dtype=np.int64)

    def box_pairs(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For (T, L) terms of two-term generators: whether every generator
        is an R-box pair (_classify_pair: two adjacent qubits, real
        coefficients, a _BOX_FACTORS relation), and the first qubit a."""
        terms = terms.reshape(len(terms), len(key), 2)
        x, z = terms >> (w + c), terms >> c & wmask
        m = (x | z)[..., 0] | (x | z)[..., 1]
        low = m & -m
        on_a, on_b = (low << 1)[..., None], low[..., None]
        letters = (4 * ((x & on_a != 0) + 2 * (z & on_a != 0))
                   + (x & on_b != 0) + 2 * (z & on_b != 0))
        re, im = re_of[terms & cmask], im_of[terms & cmask]
        matched = np.zeros(m.shape, dtype=bool)
        for p1, p2, sigma in factors:
            first = letters[..., 0] == p1
            hit = first & (letters[..., 1] == p2) | (letters[..., 0] == p2) & (letters[..., 1] == p1)
            c1 = np.where(first, re[..., 0], re[..., 1])
            c2 = np.where(first, re[..., 1], re[..., 0])
            matched |= hit & (np.abs(c2 - sigma * c1) < 1e-10)
        ok = (m == 3 * low) & (np.abs(im) <= 1e-10).all(axis=-1) & matched
        return ok.all(axis=-1), w - 2 - np.searchsorted(powers, low)

    best: tuple | None = None  # (layers, boxes_total, boxes)
    keys = np.array([[x << (w + c) | z << c | code[re + 0.0, im + 0.0]
                      for g in key for x, z, re, im in g]], dtype=np.int64)
    sizes = sizes_of(keys).reshape(1, len(key))
    depth = np.zeros(1, dtype=np.int64)
    free = np.zeros((1, w), dtype=np.int64)
    path = np.zeros((1, 0), dtype=np.int64)  # each node's moves, in order
    seen = {keys[0].tobytes()}
    two_terms = all(hi - lo == 2 for lo, hi in spans)
    while len(keys):
        live = np.ones(len(keys), dtype=bool)
        ends = np.flatnonzero((sizes == 2).all(axis=1)) if two_terms else []
        if len(ends):
            boxed, pair_a = box_pairs(keys[ends])
            ends, pair_a = ends[boxed], pair_a[boxed]
            live[ends] = False
        if len(ends):
            # layer each end's palindrome (its boxes, pairs, reversed boxes)
            # on from its free/depth, which hold the layering of its boxes
            at, layers, free_end = np.arange(len(ends)), depth[ends], free[ends]
            for a in (*pair_a.T, *move_a[path[ends, ::-1]].T):
                layer = np.maximum(free_end[at, a], free_end[at, a + 1]) + 1
                free_end[at, a] = free_end[at, a + 1] = layer
                layers = np.maximum(layers, layer)
            least = int(layers.min())
            for f in ends[layers == least].tolist():
                cand = (least, 2 * path.shape[1] + len(key),
                        tuple(moves[m] for m in path[f].tolist()))
                if best is None or cand < best:
                    best = cand
        keys, sizes, depth, free = keys[live], sizes[live], depth[live], free[live]
        path = path[live]
        # (F, M, L): every live node conjugated by every move
        terms = keys[:, None]
        window = (terms >> (shift + w + c) & 3) << 2 | terms >> (shift + c) & 3
        new = (terms ^ delta[rows, window]
               ^ negated[rows, window] * flip[terms & cmask])
        sizes2 = sizes_of(new)
        total2 = sizes2.sum(axis=-1)
        ok = ((total2 < sizes.sum(axis=-1)[:, None])
              & (sizes2 <= sizes[:, None]).all(axis=-1))
        fi, mi = np.nonzero(ok)  # frontier-then-move order
        cand_keys = new[fi, mi]
        for lo, hi in spans:
            cand_keys[:, lo:hi].sort(axis=1)
        layer = np.maximum(free[fi, move_a[mi]], free[fi, move_a[mi] + 1]) + 1
        depth2 = np.maximum(depth[fi], layer)
        total2 = total2[fi, mi]
        # per key the lowest depth, the first on a tie (total2 follows from
        # the key); then the winners by (total2, depth, key)
        order = np.lexsort((depth2, *cand_keys.T[::-1]))
        ranked = cand_keys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        won = order[first]
        won = won[np.lexsort((*cand_keys[won].T[::-1], depth2[won], total2[won]))]
        kept = []
        for j in won:
            row = cand_keys[j].tobytes()
            if row not in seen:
                seen.add(row)
                kept.append(j)
                if len(kept) == _BEAM_WIDTH:
                    break
        fk, mk = fi[kept], mi[kept]
        keys, sizes, depth = cand_keys[kept], sizes2[fk, mk], depth2[kept]
        free = free[fk]
        free[np.arange(len(kept)), move_a[mk]] = layer[kept]
        free[np.arange(len(kept)), move_a[mk] + 1] = layer[kept]
        path = np.column_stack((path[fk], mk))
    if best is None:
        raise SynthesisError("box reduction failed for the given generators")
    return best[2]


def _localize(gens: list[tuple], n: int) -> tuple[list[tuple], int, int]:
    mask = 0
    for g in gens:
        mask |= _support_mask(g)
    supp = _qubits(n, mask)
    off, w = supp[0], supp[-1] - supp[0] + 1
    shift = n - off - w
    local = [tuple((x >> shift, z >> shift, c) for x, z, c in g) for g in gens]
    return local, off, w


def _rotation_block(n: int, gens_lams: list[tuple[PauliSum, float]]) -> Circuit:
    """Circuit for prod_k exp(-i lam_k gen_k) where the generators pairwise
    commute; connected support components are synthesized independently."""
    circ = Circuit(n)
    gens = [tuple(zip(g.x.tolist(), g.z.tolist(), g.c.tolist())) for g, _ in gens_lams]
    remaining = list(range(len(gens_lams)))
    comps: list[list[int]] = []
    masks = [_support_mask(g) for g in gens]
    while remaining:
        comp = [remaining.pop(0)]
        mask = masks[comp[0]]
        changed = True
        while changed:
            changed = False
            for i in list(remaining):
                if masks[i] & mask:
                    comp.append(i)
                    mask |= masks[i]
                    remaining.remove(i)
                    changed = True
        comps.append(comp)
    for comp in comps:
        lams = [gens_lams[i][1] for i in comp]
        local, off, w = _localize([gens[i] for i in comp], n)
        boxes = _search_reduction(_canon(local), w)
        reduced = local
        for box in boxes:
            reduced = [_conjugate(g, _BOX_TABLES[box.kind, box.sign],
                                  (box.a, box.b), w) for g in reduced]
        for box in boxes:
            circ += rbox(box.kind, box.sign * math.pi / 2.0,
                         box.a + off, box.b + off, n)
        for g_red, lam in zip(reduced, lams):
            info = _classify_pair(g_red, w)
            if info is None:
                raise SynthesisError("reduced generator is not R-box expressible")
            kind, base, (a, b) = info
            circ += rbox(kind, 2.0 * lam * base, a + off, b + off, n)
        for box in reversed(boxes):
            circ += rbox(box.kind, -box.sign * math.pi / 2.0,
                         box.a + off, box.b + off, n)
    return circ


# ---------------------------------------------------------------------------
# GHZ transformations and the Clifford-conjugated parity walk
# ---------------------------------------------------------------------------

# state-preparation GHZ transformation G (baryon diagonalization): local
# wires 0..3, applied in circuit order.
_GHZ_PREP_LOCAL = (("h", 2), ("s", 2), ("cx", 2, 0), ("cx", 0, 3), ("cx", 2, 1))

# evolution GHZ transformation (charge hop-hop diagonalization and grouped
# measurement)
_GHZ_EVOL_LOCAL = (("h", 1), ("cx", 1, 2), ("cx", 2, 0), ("cx", 0, 3))

# CX-depth-2 Clifford that diagonalizes both the hop-hop and the ZZ parts of
# a full charge-pair generator at once
_PAIR_DIAG_LOCAL = (("h", 0), ("cx", 0, 1), ("cx", 0, 2), ("cx", 1, 3))


def _mapped_gates(local_gates, wires: tuple[int, ...]) -> list[Gate]:
    out = []
    for spec_ in local_gates:
        kind = spec_[0].lower()
        qubits = tuple(wires[i] for i in spec_[1:])
        out.append(Gate(kind, qubits))
    return out


def ghz_evolution_circuit(wires: tuple[int, int, int, int],
                          n_qubits: int | None = None) -> Circuit:
    """The Clifford used for hop-hop gauge terms and grouped measurement."""
    n = n_qubits if n_qubits is not None else max(wires) + 1
    return Circuit(n, _mapped_gates(_GHZ_EVOL_LOCAL, tuple(wires)))


def _gray_cycle(k: int) -> list[int]:
    return [i ^ (i >> 1) for i in range(1 << k)]


def _diagonal_walk(n: int, subsets: dict, lam: float, wires) -> Circuit:
    """exp(-i lam sum_s c_s Z_s) for diagonal strings via parity walks.

    Repeatedly picks the qubit covering the most remaining strings as the
    parity target, one on `wires` first, then the lowest.  The qubits that
    every string of its batch holds besides the target are folded onto it
    in ascending order; strings forming a full cube over the other qubits
    are walked on a Gray cycle, anything else by a greedy nearest-parity
    walk.  A batch ends by undoing the walked qubits still on the target,
    then the fold in descending order.
    """
    circ = Circuit(n)
    remaining = dict(subsets)
    while remaining:
        counts = collections.Counter(j for s in remaining for j in s)
        target = min(counts, key=lambda j: (-counts[j], j not in wires, j))
        batch = [s for s in remaining if target in s]
        shared = sorted(frozenset.intersection(*batch) - {target})
        base = frozenset([target, *shared])
        rest = sorted(frozenset.union(*batch) - base)
        k = len(rest)
        cube = [base | {rest[j] for j in range(k) if code >> j & 1}
                for code in _gray_cycle(k)]
        if len(batch) == 1 << k and set(cube) == set(batch):
            order = cube
        else:
            order = []
            cur = base
            pending = set(batch)
            while pending:
                nxt = min(pending, key=lambda s: (len(s ^ cur), sorted(s)))
                order.append(nxt)
                pending.discard(nxt)
                cur = nxt
        for j in shared:
            circ.add("cx", j, target)
        cur = base
        for s in order:
            for j in sorted(cur ^ s):
                circ.add("cx", j, target)
            cur = s
            circ.add("rz", target, param=2.0 * lam * remaining[s])
        for j in sorted(cur - base) + shared[::-1]:
            circ.add("cx", j, target)
        for s in batch:
            del remaining[s]
    return circ


def _diagonal_block(n: int, wires: tuple[int, ...], local_gates, op: PauliSum,
                    lam: float) -> Circuit:
    """exp(-i lam op) as G . (RZ parity walk) . G^dag with G the Clifford
    `local_gates` on `wires`; op must diagonalize under G^dag."""
    g_circ = Circuit(n, _mapped_gates(local_gates, tuple(wires)))
    phase = 0.0
    subsets: dict[frozenset, float] = {}
    diag = clifford_conjugate(g_circ.inverse().gates, op)
    for x, z, coeff in zip(diag.x.tolist(), diag.z.tolist(), diag.c.tolist()):
        if x != 0:
            raise SynthesisError("operator does not diagonalize under the Clifford")
        if abs(coeff.imag) > 1e-10:
            raise SynthesisError("non-Hermitian diagonal coefficient")
        if z:
            subsets[frozenset(_qubits(n, z))] = coeff.real
        else:
            phase += -lam * coeff.real
    circ = Circuit(n, phase=phase)
    circ += g_circ.inverse()
    circ += _diagonal_walk(n, subsets, lam, wires)
    circ += g_circ
    return circ


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------

def sc_prep_circuit(spec: LatticeSpec) -> Circuit:
    """Prepare the strong-coupling ground state from |0...0>.

    Vacuum sites are a single X layer; each heavy-quark site adds three
    CNOTs (total two-qubit depth 2) preparing its color-singlet doublet.
    """
    if spec.Nc != 2:
        raise ValueError("circuit templates are implemented for Nc=2")
    c = Circuit(spec.n_qubits)
    for x in range(spec.L):
        j = 6 * x
        if x in spec.heavy_positions:
            c.add("x", j)
            c.add("x", j + 3)
            c.add("h", j + 2)
            c.add("cx", j + 2, j + 1)
            c.add("cx", j + 1, j)
            c.add("cx", j + 2, j + 3)
            c.add("z", j)
        else:
            for q in range(j, j + 4):
                c.add("x", q)
    return c


# ---------------------------------------------------------------------------
# variational layer circuits
# ---------------------------------------------------------------------------

def _check_layer_site(spec: LatticeSpec, d: int, x: int, ds) -> None:
    """A layer O_d on site x (and x + 1 for d > 0) must lie on the lattice."""
    if d not in ds:
        raise ValueError(f"d = {d} is not one of " + ", ".join(map(str, ds)))
    if not 0 <= x <= spec.L - 1 - (d > 0):
        span = "x" if d == 0 else "x and x + 1"
        raise ValueError(f"d = {d} at x = {x}: sites {span} must lie in "
                         f"0..{spec.L - 1}")


def meson_circuit(spec: LatticeSpec, d: int, x: int, theta: float) -> Circuit:
    """exp(-i theta O_Md) starting at spatial site x."""
    from .ansatz import meson_operator

    _check_layer_site(spec, d, x, (0, 1, 2))
    op = meson_operator(spec, d, x)
    # grouped by the first qubit of each string, whose bit is the highest
    top = np.array([m.bit_length() for m in (op.x | op.z).tolist()])
    gens = [(op[top == b], theta) for b in sorted(set(top.tolist()), reverse=True)]
    return _rotation_block(spec.n_qubits, gens)


def baryon_circuit(spec: LatticeSpec, d: int, x: int, theta: float) -> Circuit:
    """exp(-i theta O_Bd) via the state-preparation GHZ conjugation."""
    from .ansatz import _BARYON_NZ, _BARYON_START, baryon_operator

    _check_layer_site(spec, d, x, (0, 1))
    op = baryon_operator(spec, d, x)
    j0 = 6 * x + _BARYON_START[d]
    k = _BARYON_NZ[d]
    active = (j0, j0 + 1, j0 + 2 + k, j0 + 3 + k)
    return _diagonal_block(spec.n_qubits, active, _GHZ_PREP_LOCAL, op, theta)


_LAYER_RE = re.compile(r"^O_([MB])(\d)\^\((\d+)(?:,\d+)*\)$")


def layer_circuit(spec: LatticeSpec, name: str, theta: float) -> Circuit:
    """Circuit for one ansatz layer named like the pool operators; summed
    layers ('A+B') share the angle."""
    circ = Circuit(spec.n_qubits)
    for part in name.split("+"):
        m = _LAYER_RE.match(part.strip())
        if not m:
            raise ValueError(f"unrecognized layer name {part!r}")
        kind, d, x = m.group(1), int(m.group(2)), int(m.group(3))
        if kind == "M":
            circ += meson_circuit(spec, d, x, theta)
        else:
            circ += baryon_circuit(spec, d, x, theta)
    return circ


def ansatz_circuit(spec: LatticeSpec, names=None, angles=None) -> Circuit:
    """The layered variational preparation; defaults to the L=3 reference
    sequence and angles."""
    from .ansatz import L3_Q1_ANGLES, L3_Q1_SEQUENCE

    if names is None:
        names = L3_Q1_SEQUENCE
        if angles is None:
            angles = L3_Q1_ANGLES
    if angles is None or len(angles) != len(names):
        raise ValueError("need one angle per layer")
    circ = Circuit(spec.n_qubits)
    for name, theta in zip(names, angles):
        circ += layer_circuit(spec, name, float(theta))
    return circ


# ---------------------------------------------------------------------------
# heavy-quark FSWAP
# ---------------------------------------------------------------------------

def fswap_circuit(spec: LatticeSpec, x_from: int, x_to: int) -> Circuit:
    """Translate a heavy quark between adjacent sites; equals
    dynamics.fswap_move including the global phase."""
    from .dynamics import _fswap_generator, move_bond

    x = move_bond(spec, x_from, x_to)
    n = spec.n_qubits
    lam = math.pi / 4.0
    string_gens: list[tuple[PauliSum, float]] = []
    circ = Circuit(n)
    for c in range(spec.Nc):
        gen = _fswap_generator(spec, x, c)
        string_gens.append((gen[gen.x != 0], lam))
        diag = gen[gen.x == 0]
        for z, coeff in zip(diag.z.tolist(), diag.c.real.tolist()):
            if z:
                (j,) = _qubits(n, z)
                circ.add("rz", j, param=2.0 * lam * coeff)
            else:
                circ.phase += -lam * coeff
    circ += _rotation_block(n, string_gens)
    return circ


# ---------------------------------------------------------------------------
# Trotterized evolution circuit
# ---------------------------------------------------------------------------

def _factor_circuit(n: int, factor: TrotterFactor, t: float) -> Circuit:
    """Gates for one dynamics.TrotterFactor of a step of size t."""
    lam = factor.fraction * t
    gen = factor.generator
    supports = gen.x | gen.z
    if factor.kind == "kinetic":
        # grouped by support, in the order of the supports' qubit lists
        masks = sorted(set(supports.tolist()), key=lambda m: _qubits(n, m))
        return _rotation_block(n, [(gen[supports == m], lam) for m in masks])
    if factor.kind == "pair":
        wires = tuple(_qubits(n, int(np.bitwise_or.reduce(supports))))
        return _diagonal_block(n, wires, _PAIR_DIAG_LOCAL, gen, lam)
    circ = Circuit(n)
    for x, z, coeff in zip(gen.x.tolist(), gen.z.tolist(), gen.c.real.tolist()):
        if x != 0:
            raise SynthesisError("unexpected off-diagonal term in the diagonal block")
        supp = _qubits(n, z)
        if not supp:
            circ.phase += -lam * coeff
        elif len(supp) == 1:
            circ.add("rz", supp[0], param=2.0 * lam * coeff)
        elif len(supp) == 2:
            circ.add("cx", *supp)
            circ.add("rz", supp[1], param=2.0 * lam * coeff)
            circ.add("cx", *supp)
        else:
            raise SynthesisError("diagonal gauge term beyond two qubits")
    return circ


def _mass_gauge_block(spec: LatticeSpec, theta: float) -> Circuit:
    """The mass + gauge factors of dynamics.trotter_schedule (every factor
    but the kinetic ones) for a step of size theta."""
    circ = Circuit(spec.n_qubits)
    for factor in trotter_schedule(spec, 1):
        if factor.kind != "kinetic":
            circ += _factor_circuit(spec.n_qubits, factor, theta)
    return circ


# trotter_circuit builds every step's gates up front: 100 steps at L = 3 take
# about 0.8 s and 45 MB on a 2-core box
_MAX_STEPS = 1000


def trotter_circuit(spec: LatticeSpec, t: float, order: int = 2,
                    steps: int = 1) -> Circuit:
    """Trotter steps of exp(-i t (H_k + H_m + H_g)): the factors of
    dynamics.trotter_schedule, repeated `steps` times with step size t.

    Adjacent kinetic factors with the same generator (for order 2, the
    inter-site halves of consecutive steps) are merged into one block.
    """
    schedule = trotter_schedule(spec, order)
    if steps < 1:
        raise ValueError("steps must be positive")
    if steps > _MAX_STEPS:
        raise ValueError(f"steps must be at most {_MAX_STEPS}")
    factors = []
    for f in schedule * steps:
        if factors and f.kind == "kinetic" and factors[-1].generator is f.generator:
            factors[-1] = f._replace(fraction=factors[-1].fraction + f.fraction)
        else:
            factors.append(f)
    circ = Circuit(spec.n_qubits)
    for f in factors:
        circ += _factor_circuit(spec.n_qubits, f, t)
    return circ


# ---------------------------------------------------------------------------
# measurement bases and the full pipeline
# ---------------------------------------------------------------------------

def measurement_basis_circuit(group, n_qubits: int | None = None) -> Circuit:
    """Basis change after which every string of the estimator group is
    diagonal: the adjoint GHZ transformation on the group's qubits (empty
    for already-diagonal groups)."""
    n = n_qubits if n_qubits is not None else max(group.qubits) + 1
    if not getattr(group, "ghz", False):
        return Circuit(n)
    return ghz_evolution_circuit(tuple(group.qubits), n).inverse()


def pipeline_circuit(spec: LatticeSpec | None = None, t: float = 1.0,
                     order: int = 2, steps: int = 1) -> Circuit:
    """SC preparation, variational layers, heavy-quark move and Trotterized
    evolution for the reference L=3 protocol."""
    if spec is None:
        spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))
    if spec.L != 3:
        raise ValueError(f"the pipeline's reference sequence is defined for "
                         f"L = 3, not L = {spec.L}")
    # the Trotter part first: it checks order and steps before any synthesis
    evolution = trotter_circuit(spec, t, order=order, steps=steps)
    circ = sc_prep_circuit(spec)
    circ += ansatz_circuit(spec)
    circ += fswap_circuit(spec, 0, 1)
    circ += evolution
    return circ
