"""Negative controls for the benchmark's checks (no L = 3 solve; a few seconds).

    PYTHONPATH=src python3 benchmark/selftest.py

For each workload it builds a result that passes every check, from the
published values and from small L <= 2 computations with the package, and
shows that it passes.  It then feeds the checker one perturbed result per
kind of check and shows that the targeted check fails on it.  Exit code 0
when every control behaves, 1 otherwise.
"""
from __future__ import annotations

import copy
import sys

import numpy as np

from su2lgt import ansatz, circuits, dynamics, observables, spectra
from su2lgt.lattice import LatticeSpec

import checks as C


def _product_state(z: dict[int, float], n: int = 18) -> np.ndarray:
    """Real product state with the given <Z_j> (others +1)."""
    amps = np.ones(1)
    for j in range(n):
        zj = z.get(j, 1.0)
        amps = np.kron(amps, [np.sqrt((1 + zj) / 2), np.sqrt((1 - zj) / 2)])
    return amps.astype(complex)


def ground_base() -> dict:
    spec = LatticeSpec(L=1)
    state = ansatz.sequence_from_names(spec, ["O_M0^(0)", "O_B0^(0)"],
                                       [0.267215, 0.05484]).apply(spectra.sc_state(spec))
    m2 = observables.sre_m2(state, method="exact").value
    return {
        "sectors": {k: {"energy": e, "residual": 0.0, "norm": 1.0}
                    for k, e in C.ENERGIES.items()},
        "staged": {k: {"value": v, "recomputed": v, "seed_value": v + 1e-6,
                       "m2": C.STAGE_M2[k]} for k, v in C.STAGE_INFIDELITY.items()},
        "l2": {n_q: {"infidelity": v, "m2": m2,
                     "m2_definition": C.m2_from_definition(state.amps)}
               for n_q, v in C.L2_FINAL_INFIDELITY.items()},
    }


def ground_controls():
    def setter(*path, add=0.0, value=None):
        def mutate(out):
            node = out
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value if value is not None else node[path[-1]] + add
        return mutate

    def both(*mutations):
        def mutate(out):
            for m in mutations:
                m(out)
        return mutate

    cases = []
    for key in C.ENERGIES:
        op = f"ground_state L={key[0]} n_Q={key[1]}"
        cases += [
            (f"energy {key} off by 1e-3", setter("sectors", key, "energy", add=1e-3),
             op, "energy"),
            (f"residual {key} 1e-7", setter("sectors", key, "residual", value=1e-7),
             op, "eigen_residual"),
            (f"norm {key} off by 1e-9", setter("sectors", key, "norm", add=1e-9),
             op, "norm"),
        ]
    for L in C.HADRON_MASSES:
        cases.append((f"hadron mass L={L} off by 2e-3",
                      setter("sectors", (L, 1), "energy", add=2e-3),
                      f"ground_state L={L} n_Q=1", "hadron_mass"))
    for k, v in C.STAGE_INFIDELITY.items():
        op = f"staged_preparation L=3 stage={k}"
        cases += [
            (f"stage {k} reported value off by 1e-9",
             setter("staged", k, "value", add=1e-9), op, "reported_infidelity"),
            (f"stage {k} worse than its seed angles",
             both(setter("staged", k, "value", value=v + 1e-4),
                  setter("staged", k, "recomputed", value=v + 1e-4)),
             op, "no_worse_than_seed"),
            (f"stage {k} infidelity off by 2e-3",
             both(setter("staged", k, "value", value=v - 2e-3),
                  setter("staged", k, "recomputed", value=v - 2e-3)),
             op, "infidelity"),
            (f"stage {k} M2 off by 0.1", setter("staged", k, "m2", add=0.1), op, "m2"),
        ]
    for n_q in C.L2_FINAL_INFIDELITY:
        op = f"staged_preparation L=2 n_Q={n_q} final"
        cases += [
            (f"L=2 n_Q={n_q} infidelity 2e-3 above the bound",
             setter("l2", n_q, "infidelity", add=2e-3), op, "infidelity"),
            (f"L=2 n_Q={n_q} M2 off by 0.1", setter("l2", n_q, "m2", add=0.1),
             op, "m2_definition"),
        ]
    return cases


def motion_base() -> dict:
    # a heavy-quark move at L = 2 conserves the same quantities as at L = 3
    spec = LatticeSpec(L=2, heavy_positions=frozenset({0}))
    before = spectra.sc_state(spec)
    after = dynamics.fswap_move(before, spec, 0, 1)
    return {
        "base": C.MOTION_BASE,
        "initial": C.MOTION_BASE,
        "plateaus": [C.MOTION_PLATEAUS[1]],
        "totals": {0.0: -1.5804, 2.5: -1.5804},
        "invariants": [C.conserved_quantities(s.amps) for s in (before, after)],
    }


def motion_controls():
    def plateau(out):
        out["plateaus"][0] += 5e-3

    def base(out):
        out["base"] += 3e-3

    def initial(out):
        out["initial"] += 3e-3

    def drift(out):
        out["totals"][2.5] += 1e-5

    def invariant(i):
        def mutate(out):
            rec = list(out["invariants"][1])
            rec[i] += 1e-8
            out["invariants"][1] = tuple(rec)
        return mutate

    cases = [("plateau off by 5e-3", plateau, "protocol", "plateau_1"),
             ("base energy off by 3e-3", base, "ground_state L=3 n_Q=1", "base_energy"),
             ("protocol's initial energy off by 3e-3", initial, "protocol",
              "initial_energy"),
             ("energy drifts 1e-5 between moves", drift, "protocol",
              "energy_conserved_between_moves")]
    for i, name in enumerate(("norm", "sum_z", "red_minus_green_z")):
        cases.append((f"{name} drifts 1e-8", invariant(i), "protocol",
                      f"conserved_{name}"))
    return cases


def circuit_base() -> dict:
    spec = LatticeSpec(L=1)
    names, angles = ["O_M0^(0)", "O_B0^(0)"], [0.267215, 0.05484]
    circ = circuits.sc_prep_circuit(spec) + circuits.ansatz_circuit(spec, names, angles)
    amps = _product_state(dict(zip(C.TROTTER_Z_COLUMNS, C.TROTTER_Z)))
    return {"circuit_amps": amps, "statevector_amps": amps.copy(),
            "groups": list(C.ESTIMATOR_GROUPS), "total": C.ESTIMATOR_TOTAL,
            "total_moved": 0.0, "depth": C.MAX_TWO_QUBIT_DEPTH, "circuit": circ,
            "parsed": circuits.parse_text(circuits.emit_text(circ))}


def circuit_controls():
    def amplitude(out):
        out["circuit_amps"][12345] += 1e-6

    def z_row(out):
        z = dict(zip(C.TROTTER_Z_COLUMNS, C.TROTTER_Z))
        z[8] += 1e-2
        out["statevector_amps"] = _product_state(z)
        out["circuit_amps"] = out["statevector_amps"].copy()

    def group(out):
        out["groups"][1] += 1e-3

    def total(out):
        out["total"] += 1e-3

    def moved(out):
        out["total_moved"] = 1e-9

    def depth(out):
        out["depth"] += 1

    def round_trip(out):
        text = circuits.emit_text(out["circuit"])
        first_rz = next(g for g in out["circuit"].gates if g.param is not None)
        bad = text.replace(f"({first_rz.param!r})", f"({first_rz.param + 1e-9!r})", 1)
        out["parsed"] = circuits.parse_text(bad)

    return [("amplitude error of 1e-6", amplitude, "pipeline", "amplitudes_agree"),
            ("<Z_8> off by 1e-2", z_row, "pipeline", "trotter_z8"),
            ("estimator group off by 1e-3", group, "estimator", "group_1"),
            ("estimator total off by 1e-3", total, "estimator", "total"),
            ("estimator after the move 1e-9", moved, "estimator", "vanishes_after_move"),
            ("two-qubit depth over the bound", depth, "resources", "two_qubit_depth"),
            ("circuit that does not round-trip", round_trip, "resources",
             "text_round_trip")]


def main() -> int:
    bad = 0
    for workload, base, controls in (("ground", ground_base, ground_controls),
                                     ("motion", motion_base, motion_controls),
                                     ("circuit", circuit_base, circuit_controls)):
        checker = C.CHECKERS[workload]
        out = base()
        failing = [c for c in checker(out) if not c.ok]
        print(f"{workload}: unperturbed result "
              f"{'passes' if not failing else 'FAILS: ' + str(failing)}")
        bad += bool(failing)
        for label, mutate, op, name in controls():
            perturbed = copy.deepcopy(out)
            mutate(perturbed)
            hit = [c for c in checker(perturbed) if (c.op, c.name) == (op, name)]
            detected = len(hit) == 1 and not hit[0].ok
            print(f"  {'detected' if detected else 'NOT DETECTED'}: {label} "
                  f"-> {op} / {name}")
            bad += not detected
    print("all controls behave" if not bad else f"{bad} controls misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
