"""Correctness checks for the benchmark workloads.

Every check compares a workload output with a number printed in the paper,
with a quantity the benchmark computes itself without the package, or with
a property the method must have.  The checkers take plain data (numbers and
amplitude arrays), so the negative controls in `selftest.py` can feed them
perturbed results.  Each checker returns a list of `Check`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# -- published values (the paper's tables, reference couplings) -------------

ENERGIES = {(1, 0): -0.6578, (1, 1): -0.1892, (2, 0): -1.5179, (2, 1): -1.162,
            (3, 0): -2.3994, (3, 1): -2.0806, (3, 2): -1.5485}
HADRON_MASSES = {1: 0.4685, 2: 0.3557, 3: 0.3188}
STAGE_INFIDELITY = {2: 0.2258, 4: 0.1557}        # L = 3, n_Q = 1
STAGE_M2 = {2: 1.519, 4: 1.993}
L2_FINAL_INFIDELITY = {0: 0.0007, 1: 0.003619}
MOTION_BASE = -2.0806
MOTION_PLATEAUS = (0.0, 0.5002, 0.8721)          # relative to the base energy
ESTIMATOR_GROUPS = (0.3314, -0.7951, -0.0421)
ESTIMATOR_TOTAL = -0.5058
TROTTER_Z_COLUMNS = (2, 4, 8, 10, 14, 16)
TROTTER_Z = (0.183, 0.348, -0.285, 0.541, -0.325, 0.537)
MAX_TWO_QUBIT_DEPTH = 184


@dataclass(frozen=True)
class Check:
    op: str        # the operation the check belongs to
    name: str
    ok: bool
    detail: str


def _within(op, name, value, ref, tol):
    err = abs(value - ref)
    return Check(op, name, bool(err <= tol),
                 f"{value:.10g} vs {ref:.10g}: |diff| {err:.3g} (tol {tol:g})")


def _at_most(op, name, value, limit):
    return Check(op, name, bool(value <= limit), f"{value:.6g} <= {limit:.6g}")


# -- quantities computed apart from the package -----------------------------

def z_expectations(amps: np.ndarray) -> np.ndarray:
    """<Z_j> for every qubit (qubit 0 is the most significant bit)."""
    p = np.abs(amps) ** 2
    n = int(round(np.log2(p.size)))
    out = np.empty(n)
    for j in range(n):
        halves = p.reshape(1 << j, 2, -1).sum(axis=(0, 2))
        out[j] = halves[0] - halves[1]
    return out


def infidelity_density(var: np.ndarray, target: np.ndarray, L: int) -> float:
    """(1 - |<var|target>|^2) / L for normalized amplitude arrays."""
    return float((1.0 - abs(np.vdot(var, target)) ** 2) / L)


def m2_from_definition(amps: np.ndarray) -> float:
    """M2 = -log2(sum_P <P>^4 / 2^n), summed over every Pauli string.

    P = i^(x.z) X^x Z^z has |<P>| = |sum_s conj(psi(s^x)) (-1)^(z.s) psi(s)|,
    which is zero unless x joins two support states; for each such x all
    2^n values of z are enumerated.  Amplitudes of 1e-10 or less add less
    than 1e-16 to the sum and are left out.
    """
    n = int(round(np.log2(amps.size)))
    supp = np.flatnonzero(np.abs(amps) > 1e-10)
    c = amps[supp]
    zs = np.arange(1 << n)
    total = 0.0
    for x in np.unique(supp[:, None] ^ supp[None, :]):
        partner = supp ^ x
        pos = np.searchsorted(supp, partner)
        pos[pos == supp.size] = 0
        ok = supp[pos] == partner
        s = supp[ok]
        h = np.conj(c[pos[ok]]) * c[ok]
        signs = 1.0 - 2.0 * (np.bitwise_count(zs[:, None] & s[None, :]) & 1)
        total += float((np.abs(signs @ h) ** 4).sum())
    return float(-np.log2(total / (1 << n)))


# -- ground -------------------------------------------------------------------

def check_ground(out: dict) -> list[Check]:
    """`out` holds, per sector key (L, n_Q): energy, residual and norm;
    per staged stage k: value, recomputed, seed_value and m2; per L = 2
    sector n_Q: infidelity, m2 and m2_definition."""
    checks = []
    for key, s in out["sectors"].items():
        op = f"ground_state L={key[0]} n_Q={key[1]}"
        checks.append(_within(op, "energy", s["energy"], ENERGIES[key], 5e-4))
        checks.append(_at_most(op, "eigen_residual", s["residual"], 1e-8))
        checks.append(_within(op, "norm", s["norm"], 1.0, 1e-12))
    for L, ref in HADRON_MASSES.items():
        mass = out["sectors"][(L, 1)]["energy"] - out["sectors"][(L, 0)]["energy"]
        checks.append(_within(f"ground_state L={L} n_Q=1", "hadron_mass",
                              mass, ref, 1e-3))
    for k, s in out["staged"].items():
        op = f"staged_preparation L=3 stage={k}"
        checks.append(_within(op, "reported_infidelity", s["value"],
                              s["recomputed"], 1e-12))
        checks.append(_at_most(op, "no_worse_than_seed", s["recomputed"],
                               s["seed_value"]))
        checks.append(_within(op, "infidelity", s["recomputed"],
                              STAGE_INFIDELITY[k], 1e-3))
        checks.append(_within(op, "m2", s["m2"], STAGE_M2[k], 0.05))
    for n_q, s in out["l2"].items():
        op = f"staged_preparation L=2 n_Q={n_q} final"
        checks.append(_at_most(op, "infidelity", s["infidelity"],
                               L2_FINAL_INFIDELITY[n_q] + 1e-3))
        checks.append(_within(op, "m2_definition", s["m2"],
                              s["m2_definition"], 1e-9))
    return checks


# -- motion -------------------------------------------------------------------

def conserved_quantities(amps: np.ndarray) -> tuple[float, float, float]:
    """Norm, sum_j <Z_j>, and red-minus-green sum <Z> (color = qubit parity)."""
    z = z_expectations(amps)
    return (float(np.linalg.norm(amps)), float(z.sum()),
            float(z[0::2].sum() - z[1::2].sum()))


def check_motion(out: dict) -> list[Check]:
    """`out` holds base (the ground-state energy), initial (the protocol's
    own energy before the first move), plateaus (after each move, relative
    to initial), totals {t: total energy} and invariants
    [(norm, sum_z, red_minus_green)] per record, the ground state's first."""
    op_gs, op = "ground_state L=3 n_Q=1", "protocol"
    checks = [_within(op_gs, "base_energy", out["base"], MOTION_BASE, 2e-3),
              _within(op, "initial_energy", out["initial"], MOTION_BASE, 2e-3)]
    for i, value in enumerate(out["plateaus"], start=1):
        checks.append(_within(op, f"plateau_{i}", value, MOTION_PLATEAUS[i], 2e-3))
    checks.append(_within(op, "energy_conserved_between_moves",
                          out["totals"][2.5], out["totals"][0.0], 1e-6))
    first = out["invariants"][0]
    for rec in out["invariants"][1:]:
        for i, name in enumerate(("norm", "sum_z", "red_minus_green_z")):
            checks.append(_within(op, f"conserved_{name}", rec[i], first[i], 1e-9))
    return checks


# -- circuit ------------------------------------------------------------------

def check_circuit(out: dict) -> list[Check]:
    """`out` holds the circuit and statevector amplitudes, the estimator
    groups, total and moved total, the two-qubit depth, and the circuit
    with its parsed text."""
    diff = float(np.max(np.abs(out["circuit_amps"] - out["statevector_amps"])))
    z = z_expectations(out["statevector_amps"])
    checks = [_at_most("pipeline", "amplitudes_agree", diff, 1e-9)]
    for col, ref in zip(TROTTER_Z_COLUMNS, TROTTER_Z):
        checks.append(_within("pipeline", f"trotter_z{col}", z[col], ref, 5e-3))
    for i, (value, ref) in enumerate(zip(out["groups"], ESTIMATOR_GROUPS)):
        checks.append(_within("estimator", f"group_{i}", value, ref, 5e-4))
    checks.append(_within("estimator", "total", out["total"], ESTIMATOR_TOTAL, 5e-4))
    checks.append(_at_most("estimator", "vanishes_after_move",
                           abs(out["total_moved"]), 1e-10))
    checks.append(_at_most("resources", "two_qubit_depth", out["depth"],
                           MAX_TWO_QUBIT_DEPTH))
    checks.append(Check("resources", "text_round_trip",
                        bool(out["parsed"] == out["circuit"]),
                        f"{len(out['circuit'].gates)} gates"))
    return checks


CHECKERS = {"ground": check_ground, "motion": check_motion,
            "circuit": check_circuit}
