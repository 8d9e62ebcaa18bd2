"""One round of one benchmark workload, in a fresh process.

    python3 benchmark/workload.py NAME --seed N [--trace SPANS.json]
    python3 benchmark/workload.py --warm-up

`benchmark/run.py` starts this with PYTHONPATH pointing at the checkout's
`src` and the BLAS thread count fixed.  The clock starts on the first line
below, before any import; the set-up mark falls when the objects the
workload solves with are built, and the clock stops when the last call into
the package returns.  The checks run after that.  The last line of standard
output is one JSON object with the round's metrics and check results.
"""
import resource
import time

T0 = time.perf_counter()


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


CPU0 = _cpu_s()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from su2lgt import (ansatz, circuits, dynamics, hamiltonian,  # noqa: E402
                    observables, spectra)
from su2lgt.lattice import LatticeSpec  # noqa: E402
from su2lgt.pauli import StateVector  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

# -- the paper's fixed configurations ------------------------------------------

SECTORS = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

L3_SEQUENCE = ["O_M0^(0)", "O_M0^(2)", "O_M1^(0,1)", "O_B0^(2)", "O_M0^(1)",
               "O_B0^(1)", "O_B1^(0,1)", "O_M0^(0)", "O_M1^(1,2)", "O_M2^(1,2)"]
L3_ANGLES = [0.3802, 0.2200, 0.2642, 0.0270, 0.1820,
             0.0196, 0.0407, -0.2000, 0.2314, -0.0995]
L3_STAGE_ANGLES = {2: [0.2270, 0.2687], 4: [0.2024, 0.2363, 0.2644, 0.0328]}
L2_FINAL = {
    0: (["O_M1^(0,1)", ("O_M0^(0)", "O_M0^(1)"), ("O_B0^(0)", "O_B0^(1)"),
         "O_M1^(0,1)", "O_B1^(0,1)"],
        [0.2316, 0.2790, 0.0637, -0.1691, 0.0289]),
    1: (["O_M0^(0)", "O_M1^(0,1)", "O_M0^(1)", "O_B0^(1)", "O_B1^(0,1)",
         "O_M0^(0)"],
        [0.3862, 0.2358, 0.2282, 0.03233, 0.02613, -0.1837]),
}
# Vacuum run of the dE/dx protocol: heavy quark moves 0 -> 1 at t = 0, then
# evolves exactly to t = 2.5 (the paper's second move at t = 5 is left out to
# keep a round under a minute).
MOTION = dynamics.MotionSchedule(events=((0.0, 0, 1),), horizon=2.5, dt=2.5)


def sector(L: int, n_q: int) -> LatticeSpec:
    """Reference couplings; heavy quarks at x = 0 (and x = L - 1 for n_Q = 2)."""
    return LatticeSpec(L=L, heavy_positions=frozenset(((), (0,), (0, L - 1))[n_q]))


def sector_op(key) -> str:
    return f"ground_state L={key[0]} n_Q={key[1]}"


class Round:
    """Clock marks and the operations attempted, with the error of each that raised."""

    def __init__(self, tracer: spans.Tracer | None = None):
        self.tracer = tracer
        self.ops: list[str] = []
        self.errors: dict[str, str] = {}

    def setup_done(self):
        self.setup_s = time.perf_counter() - T0

    def stop(self):
        self.wall_s = time.perf_counter() - T0
        self.cpu_s = _cpu_s() - CPU0
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.tracer.enabled = False    # the checks are not traced

    @contextlib.contextmanager
    def op(self, name: str):
        self.ops.append(name)
        try:
            yield
        except Exception:
            self.errors[name] = traceback.format_exc(limit=4)


# -- workloads: set-up, timed calls, and the plain data the checks read -------

def ground(seed: int, rnd: Round) -> dict:
    specs, ops = {}, {}
    for key in SECTORS:
        specs[key] = sector(*key)
        ops[key] = hamiltonian.build_hamiltonian(specs[key]).total
        ops[key].matvec(spectra.sc_state(specs[key]).amps)
    rnd.setup_done()

    solved, staged, finals = {}, {}, {}
    for key in SECTORS:
        with rnd.op(sector_op(key)):
            solved[key] = spectra.lanczos_ground(ops[key], spectra.sc_state(specs[key]))
    spec3 = specs[(3, 1)]
    start3 = spectra.sc_state(spec3)
    for k, seed_angles in L3_STAGE_ANGLES.items():
        with rnd.op(f"staged_preparation L=3 stage={k}"):
            seq = ansatz.sequence_from_names(spec3, L3_SEQUENCE[:k], seed_angles)
            best, value = ansatz.optimize_angles(
                seq, start3, solved[(3, 1)][1], spec3.L, seed_angles=seed_angles,
                n_starts=1, rng_seed=seed)
            state = best.apply(start3)
            staged[k] = (value, state, observables.sre_m2(state, method="exact").value)
    for n_q, (names, angles) in L2_FINAL.items():
        with rnd.op(f"staged_preparation L=2 n_Q={n_q} final"):
            spec = specs[(2, n_q)]
            state = ansatz.sequence_from_names(spec, names, angles).apply(
                spectra.sc_state(spec))
            finals[n_q] = (state, observables.sre_m2(state, method="exact").value)
    rnd.stop()

    out = {"sectors": {}, "staged": {}, "l2": {}}
    for key, (e, psi) in solved.items():
        amps = psi.amps
        out["sectors"][key] = {
            "energy": e + hamiltonian.mass_offset(specs[key]),
            "residual": float(np.linalg.norm(ops[key].matvec(amps) - e * amps)),
            "norm": float(np.linalg.norm(amps)),
        }
    for k, (value, state, m2) in staged.items():
        target3 = solved[(3, 1)][1].amps
        seeded = ansatz.sequence_from_names(spec3, L3_SEQUENCE[:k],
                                            L3_STAGE_ANGLES[k]).apply(start3)
        out["staged"][k] = {
            "value": value, "m2": m2,
            "recomputed": checks.infidelity_density(state.amps, target3, 3),
            "seed_value": checks.infidelity_density(seeded.amps, target3, 3),
        }
    for n_q, (state, m2) in finals.items():
        out["l2"][n_q] = {
            "infidelity": checks.infidelity_density(
                state.amps, solved[(2, n_q)][1].amps, 2),
            "m2": m2, "m2_definition": checks.m2_from_definition(state.amps),
        }
    return out


def motion(seed: int, rnd: Round) -> dict:
    spec = sector(3, 1)
    h = hamiltonian.build_hamiltonian(spec).total
    h.matvec(spectra.sc_state(spec).amps)
    rnd.setup_done()

    with rnd.op(sector_op((3, 1))):
        e, psi = spectra.lanczos_ground(h, spectra.sc_state(spec))
    with rnd.op("protocol"):
        run = dynamics.run_protocol(spec, MOTION, evolver="exact", initial=psi,
                                    krylov_tol=1e-9)
    rnd.stop()

    initial, *after_moves = run.plateau_energies()
    return {
        "base": e + hamiltonian.mass_offset(spec),
        "initial": initial,
        "plateaus": [p - initial for p in after_moves],
        "totals": {rec.t: rec.energies["total"] for rec in run.records},
        "invariants": [checks.conserved_quantities(s.amps)
                       for s in [psi] + [rec.state for rec in run.records]],
    }


def circuit(seed: int, rnd: Round) -> dict:
    spec = sector(3, 1)
    circ = circuits.pipeline_circuit(spec, t=1.0, order=2, steps=1)
    rnd.setup_done()

    with rnd.op("pipeline"):
        got = circ.apply(StateVector.basis(spec.n_qubits, 0))
        prepared = ansatz.sequence_from_names(spec, L3_SEQUENCE, L3_ANGLES).apply(
            spectra.sc_state(spec))
        moved = dynamics.fswap_move(prepared, spec, 0, 1)
        stepped = dynamics.trotter_step(moved, spec, 1.0, order=2)
    with rnd.op("estimator"):
        groups = observables.energy_loss_estimator(spec)
        values, total = observables.evaluate_energy_loss(groups, prepared)
        _, total_moved = observables.evaluate_energy_loss(groups, moved)
    with rnd.op("resources"):
        depth = circuits.count_resources(circ).two_qubit_depth
        parsed = circuits.parse_text(circuits.emit_text(circ))
    rnd.stop()

    return {"circuit_amps": got.amps, "statevector_amps": stepped.amps,
            "groups": values, "total": total, "total_moved": total_moved,
            "depth": depth, "circuit": circ, "parsed": parsed}


WORKLOADS = {"ground": ground, "motion": motion, "circuit": circuit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="SPANS_JSON")
    parser.add_argument("--warm-up", action="store_true",
                        help="import everything a round imports, then exit")
    args = parser.parse_args()
    if args.warm_up:
        return 0
    if args.workload is None:
        parser.error("a workload is required")

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    rnd = Round(tracer)
    results = []
    failures = {}
    try:
        out = WORKLOADS[args.workload](args.seed, rnd)
        results = checks.CHECKERS[args.workload](out)
    except Exception:
        traceback.print_exc()
        if not hasattr(rnd, "wall_s"):
            return 1        # set-up raised: no metric is valid
        # an operation that raised left data missing for the checks
        failures = {op: "its checks could not run" for op in rnd.ops}
    failures.update(rnd.errors)
    for c in results:
        if not c.ok and c.op not in failures:
            failures[c.op] = f"check {c.name} failed: {c.detail}"
    unknown = {c.op for c in results} - set(rnd.ops)
    if unknown:
        print(f"checks name unknown operations: {sorted(unknown)}", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "metrics": {"wall_s": rnd.wall_s, "cpu_s": rnd.cpu_s,
                    "setup_s": rnd.setup_s, "peak_rss_mb": rnd.peak_rss_mb},
        "attempted": len(rnd.ops),
        "failed": len(failures),
        "failures": failures,
        "checks": [[c.op, c.name, c.ok, c.detail] for c in results],
    }
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer.spans)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
