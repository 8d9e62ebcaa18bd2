"""
Command-line driver for the SU(2) heavy-quark energy-loss toolkit.

Subcommands
-----------
hamiltonian   term-by-term dump of the lattice Hamiltonian pieces
groundstate   exact sector ground-state energy and component energies
prepare       staged variational preparation, infidelity and Z profiles
evolve        time evolution with scheduled heavy-quark moves (CSV series)
dedx          vacuum/in-medium motion protocol and dE/dx estimates
observables   estimator groups, entanglement, 4-tangle series, magic
circuit       circuit synthesis, resource reports, text emission
report        replay of the reference-value suite with a pass/fail table

Configuration precedence is flags > config file (--config, JSON) >
defaults; the defaults are the canonical couplings g=1.0, m_q=0.1.  A
config file's values are parsed as the command-line text of the options
they name, so argparse checks every option, whichever the source.
Identical configuration and seed produce byte-identical outputs.  Exit
codes: 0 success, 1 configuration error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .lattice import LatticeSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class CliError(Exception):
    """Configuration/usage error: exit code 1."""


class NumericalError(Exception):
    """Numerical failure: exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors exit 1 and which keeps each option it
    declares by its dest name (`options`), so that a config file's keys can
    be read as the same options."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)
        self.options.pop("help", None)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise CliError(f"{message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

# --config, shared by every subcommand; main reads it before the command's
# own options are parsed
_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", help="JSON object of option values, keyed by "
                     "option name (x_from for --x-from); flags given on the "
                     "command line win")


def _config_argv(options: dict, path: str) -> list:
    """The options set by the JSON object in the file at path, as the
    command-line text a user would type: a flag for a JSON true, and
    --option=value for a number or a string.  Keys that name no option of
    the command, and null values, are skipped; argparse checks the rest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON
        raise CliError(f"cannot read config file {path}: {exc}")
    if not isinstance(config, dict):
        raise CliError("config file must contain a JSON object")
    argv = []
    for key, val in config.items():
        action = options.get(key)
        if action is None or val is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # a store_true flag
            if not isinstance(val, bool):
                raise CliError(f"{flag} must be true or false, not {val!r}")
            argv += [flag] if val else []
            continue
        number = action.type in (int, float)
        kinds = (int, float, str) if number else str
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise CliError(f"{flag} must be {'a number or ' * number}a string, "
                           f"not {val!r}")
        if action.type is int and isinstance(val, float) and val.is_integer():
            val = int(val)  # {"L": 3.0}
        argv.append(f"{flag}={val}")
    return argv


def _seed(args: argparse.Namespace) -> int:
    """--seed for a random generator, which needs a non-negative integer."""
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, not {args.seed}")
    return args.seed


def _spec_from(args: argparse.Namespace) -> LatticeSpec:
    if args.heavy is not None:  # "" places no heavy quark
        try:
            positions = tuple(map(int, args.heavy.split(","))) if args.heavy else ()
        except ValueError:
            raise CliError(f"--heavy: cannot read {args.heavy!r}")
        for i, x in enumerate(positions):
            if x in positions[:i]:
                raise CliError(f"--heavy lists position {x} more than once")
    elif args.nq == 0:
        positions = ()
    elif args.nq == 1:
        positions = (0,)
    elif args.nq == 2:
        if args.L < 2:
            raise CliError(f"--nq 2 puts heavy quarks at x = 0 and x = L - 1, "
                           f"which needs L >= 2, not {args.L}")
        positions = (0, args.L - 1)
    else:
        raise CliError("--nq must be 0, 1 or 2 (use --heavy for other layouts)")
    try:
        return LatticeSpec(L=args.L, g=args.g, mq=args.mq, mQ=args.mQ,
                           lambda2=args.lambda2,
                           heavy_positions=frozenset(positions))
    except ValueError as exc:
        raise CliError(str(exc))


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _fmt(v):
    if isinstance(v, float):  # numpy floats too; print them as plain floats
        return repr(round(float(v), 12) + 0.0)  # + 0.0: -0.0 prints as 0.0
    return v


def _sequence_for(spec: LatticeSpec):
    """Reference operator sequence and final angles for the sector."""
    from .ansatz import REFERENCE_SEQUENCES

    key = (spec.L, spec.n_Q)
    if key not in REFERENCE_SEQUENCES:
        raise CliError(f"no reference sequence for L={spec.L}, n_Q={spec.n_Q}")
    names, angles = REFERENCE_SEQUENCES[key]
    return list(names), list(angles)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_hamiltonian(args: argparse.Namespace) -> int:
    from .hamiltonian import build_hamiltonian

    spec = _spec_from(args)
    terms = build_hamiltonian(spec, symmetric_gauge=args.symmetric_gauge)
    pieces = {}
    for name, op in terms.as_dict().items():
        entry = {"n_terms": len(op)}
        if args.terms:
            entry["terms"] = op.to_text().splitlines()
        pieces[name] = entry
    payload = {"L": spec.L, "n_qubits": spec.n_qubits,
               "heavy": sorted(spec.heavy_positions),
               "couplings": {"g": spec.g, "mq": spec.mq, "mQ": spec.mQ,
                             "lambda2": spec.penalty_strength},
               "pieces": pieces}
    _write(args, _json(payload))
    return EXIT_OK


def cmd_groundstate(args: argparse.Namespace) -> int:
    from .dynamics import _sector_expectations
    from .hamiltonian import build_hamiltonian, mass_offset
    from .spectra import ground_state, hadron_mass

    spec = _spec_from(args)
    energy, psi = ground_state(spec)
    terms = build_hamiltonian(spec)
    components = _sector_expectations(terms.total, psi, terms.as_dict())
    components["mass"] += mass_offset(spec)
    payload = {
        "L": spec.L, "n_Q": spec.n_Q, "heavy": sorted(spec.heavy_positions),
        "energy": energy,
        "components": components,
    }
    if args.hadron_mass and spec.n_Q == 1:
        payload["hadron_mass"] = hadron_mass(spec)
    _write(args, _json(payload))
    return EXIT_OK


def cmd_prepare(args: argparse.Namespace) -> int:
    from .ansatz import infidelity_density, optimize_angles, sequence_from_names
    from .observables import z_profile
    from .spectra import ground_state, sc_state

    spec = _spec_from(args)
    names, angles = _sequence_for(spec)
    energy, target = ground_state(spec)
    start = sc_state(spec)
    seq = sequence_from_names(spec, names, angles)
    if args.optimize:
        seq, _ = optimize_angles(seq, start, target, spec.L,
                                 seed_angles=angles, n_starts=1,
                                 rng_seed=_seed(args))
    var = seq.apply(start)
    payload = {
        "L": spec.L, "n_Q": spec.n_Q,
        "sequence": [layer.name for layer in seq.layers],
        "angles": [layer.theta for layer in seq.layers],
        "infidelity_density": infidelity_density(var, target, spec.L),
        "z_profile": [float(z) for z in z_profile(var)],
    }
    if args.csv_z:
        rows = [["sc"] + [float(z) for z in z_profile(start)]]
        for k in range(1, len(seq.layers) + 1):
            partial = seq.apply(start, upto=k)
            rows.append([f"layer-{k}"] + [float(z) for z in z_profile(partial)])
        rows.append(["exact"] + [float(z) for z in z_profile(target)])
        text = _csv(["state"] + [f"z{j}" for j in range(spec.n_qubits)], rows)
        with open(args.csv_z, "w", encoding="utf-8") as fh:
            fh.write(text)
    _write(args, _json(payload))
    return EXIT_OK


def _parse_moves(raw: str):
    """'0-1@0,1-2@5' -> ((0.0, 0, 1), (5.0, 1, 2))."""
    events = []
    if raw:
        for tok in raw.split(","):
            try:
                move, at = tok.split("@")
                x_from, x_to = move.split("-")
                events.append((float(at), int(x_from), int(x_to)))
            except ValueError:
                raise CliError(f"bad move token {tok!r}; expected FROM-TO@TIME")
    return tuple(events)


def _check_move(spec: LatticeSpec, x_from: int, x_to: int) -> None:
    """A move that leaves the sites 0..L-1 is a numerical failure."""
    if not (0 <= x_from < spec.L and 0 <= x_to < spec.L):
        raise NumericalError(f"move {x_from}-{x_to} leaves the lattice "
                             f"0..{spec.L - 1}")


def _schedule(spec: LatticeSpec, events, horizon: float, dt: float):
    """A MotionSchedule on the lattice of spec; a schedule it rejects, or a
    move that leaves the sites 0..L-1, is a numerical failure."""
    from .dynamics import MotionSchedule

    for _, x_from, x_to in events:
        _check_move(spec, x_from, x_to)
    try:
        return MotionSchedule(events=events, horizon=horizon, dt=dt)
    except ValueError as exc:
        raise NumericalError(str(exc))


def cmd_evolve(args: argparse.Namespace) -> int:
    from .dynamics import run_protocol

    spec = _spec_from(args)
    schedule = _schedule(spec, _parse_moves(args.moves), horizon=args.horizon,
                         dt=args.dt)
    run = run_protocol(spec, schedule, evolver=args.evolver, order=args.order)
    header = ["t", "kinetic", "mass", "gauge", "penalty", "total"]
    if args.csv_z:
        header += [f"z{j}" for j in range(spec.n_qubits)]
    rows = []
    for rec in run.records:
        row = [rec.t] + [rec.energies[k] for k in header[1:6]]
        if args.csv_z:
            row += [float(z) for z in rec.z]
        rows.append(row)
    _write(args, _csv(header, rows))
    return EXIT_OK


def cmd_dedx(args: argparse.Namespace) -> int:
    from .dynamics import dedx_estimate, run_protocol
    from .reference import MOTION

    spec = _spec_from(args)
    t0, t1 = MOTION["move_times"]
    schedule = _schedule(spec, ((t0, 0, 1), (t1, 1, 2)), horizon=args.horizon,
                         dt=args.dt)
    vac_spec = spec.with_heavy(0)
    med_spec = spec.with_heavy(0, spec.L - 1)
    runs = {}
    if args.schedule in ("vacuum", "vac-med-default"):
        runs["vacuum"] = run_protocol(vac_spec, schedule, evolver=args.evolver)
    if args.schedule in ("medium", "vac-med-default"):
        runs["medium"] = run_protocol(med_spec, schedule, evolver=args.evolver)
    rows = []
    for name, run in runs.items():
        base = run.plateau_energies()[0]
        for i, e in enumerate(run.plateau_energies()):
            rows.append([f"plateau_{name}_{i}", e - base])
        rows.append([f"base_energy_{name}", base])
    if len(runs) == 2:
        result = dedx_estimate(runs["vacuum"], runs["medium"])
        for i, v in enumerate(result.dedx):
            rows.append([f"dedx_x{i + 1}{i}", v])
    _write(args, _csv(["quantity", "value"], rows))
    if args.timeseries:
        header = ["t"] + [f"total_{name}" for name in runs]
        series = []
        for i, rec in enumerate(next(iter(runs.values())).records):
            series.append([rec.t] + [r.records[i].energies["total"]
                                     for r in runs.values()])
        with open(args.timeseries, "w", encoding="utf-8") as fh:
            fh.write(_csv(header, series))
    return EXIT_OK


def cmd_observables(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    handlers = {"estimator": _obs_estimator, "entanglement": _obs_entanglement,
                "tangles": _obs_tangles, "magic": _obs_magic}
    return handlers[args.what](args, spec)


def _obs_estimator(args: argparse.Namespace, spec: LatticeSpec) -> int:
    from .ansatz import prepared_state
    from .dynamics import fswap_move
    from .observables import energy_loss_estimator, evaluate_energy_loss

    _sequence_for(spec)  # exit 1 for a sector without a reference sequence
    _check_move(spec, 0, 1)
    state = prepared_state(spec)
    groups = energy_loss_estimator(spec)
    values, total = evaluate_energy_loss(groups, state)
    moved = fswap_move(state, spec, 0, 1)
    _, total_moved = evaluate_energy_loss(groups, moved)
    payload = {
        "groups": {g.name: v for g, v in zip(groups, values)},
        "total": total,
        "total_after_move": total_moved,
    }
    _write(args, _json(payload))
    return EXIT_OK


def _obs_entanglement(args: argparse.Namespace, spec: LatticeSpec) -> int:
    from .observables import four_tangle, mutual_information
    from .spectra import ground_state

    if spec.n_Q != 1:
        raise CliError("--what entanglement needs exactly one heavy quark")
    _, psi = ground_state(spec)
    x_q = min(spec.heavy_positions)
    payload = {}
    for flavor in ("quark", "antiquark"):
        payload[f"mutual_information_{flavor}"] = [
            mutual_information(psi, spec, x, flavor) for x in range(spec.L)]
        payload[f"four_tangle_{flavor}"] = [
            four_tangle(psi, spec, x_q, x, flavor) for x in range(spec.L)]
    _write(args, _json(payload))
    return EXIT_OK


def _obs_tangles(args: argparse.Namespace, spec: LatticeSpec) -> int:
    from .dynamics import run_protocol
    from .observables import four_tangle

    schedule = _schedule(spec, ((0.0, 0, 1),), horizon=args.horizon, dt=args.dt)
    run = run_protocol(spec, schedule, evolver=args.evolver)
    x_q = 1  # position after the move
    header = (["t"] + [f"tau4q_x{x}" for x in range(spec.L)]
              + [f"tau4qbar_x{x}" for x in range(spec.L)])
    rows = []
    for rec in run.records:
        rows.append([rec.t]
                    + [four_tangle(rec.state, spec, x_q, x, "quark")
                       for x in range(spec.L)]
                    + [four_tangle(rec.state, spec, x_q, x, "antiquark")
                       for x in range(spec.L)])
    _write(args, _csv(header, rows))
    return EXIT_OK


def _obs_magic(args: argparse.Namespace, spec: LatticeSpec) -> int:
    from .ansatz import optimize_angles, sequence_from_names
    from .observables import sre_m2
    from .reference import STAGED
    from .spectra import ground_state, sc_state

    key = (f"L{spec.L}", spec.n_Q)
    if key not in STAGED:
        raise CliError(f"no staged reference sequence for L={spec.L}, n_Q={spec.n_Q}")
    staged = STAGED[key]
    stages = staged.get("stages", list(range(1, len(staged["angles"]) + 1)))
    _, target = ground_state(spec)
    start = sc_state(spec)
    samples = args.samples
    if samples < 0:
        raise CliError(f"--samples must be non-negative, not {samples}")
    seed = _seed(args) if args.optimize or samples else 0
    rows = []
    for k, seed_angles in zip(stages, staged["angles"]):
        seq = sequence_from_names(spec, staged["sequence"][:k], seed_angles)
        if args.optimize:
            seq, _ = optimize_angles(seq, start, target, spec.L,
                                     seed_angles=seed_angles, n_starts=1,
                                     rng_seed=seed)
        state = seq.apply(start)
        exact = sre_m2(state, method="exact")
        row = [k, exact.value]
        if samples:
            est = sre_m2(state, method="sampled", samples=samples, seed=seed)
            row += [est.value, est.std_error]
        rows.append(row)
    header = ["stage", "m2_exact"] + (["m2_sampled", "m2_err"] if samples else [])
    _write(args, _csv(header, rows))
    return EXIT_OK


def cmd_circuit(args: argparse.Namespace) -> int:
    from . import circuits

    spec = _spec_from(args)
    template, t, order, steps = args.template, args.t, args.order, args.steps
    for flag, value in (("--theta", args.theta), ("--t", t)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, not {value}")
    try:
        if template == "scprep":
            circ = circuits.sc_prep_circuit(spec)
        elif template == "meson":
            circ = circuits.meson_circuit(spec, args.d, args.x, args.theta)
        elif template == "baryon":
            circ = circuits.baryon_circuit(spec, args.d, args.x, args.theta)
        elif template == "fswap":
            circ = circuits.fswap_circuit(spec, args.x_from, args.x_to)
        elif template == "trotter":
            circ = circuits.trotter_circuit(spec, t, order=order, steps=steps)
        elif template == "measure":
            from .observables import energy_loss_estimator

            groups = {g.name: g for g in energy_loss_estimator(spec)}
            if args.group not in groups:
                raise CliError(f"--group must be one of {sorted(groups)}")
            circ = circuits.measurement_basis_circuit(groups[args.group],
                                                      spec.n_qubits)
        else:  # pipeline
            circ = circuits.pipeline_circuit(spec, t=t, order=order, steps=steps)
    except (ValueError, LookupError) as exc:  # the template's own input checks
        raise CliError(f"{template} template: {exc}")
    report = circuits.count_resources(circ)
    payload = {
        "template": template,
        "n_qubits": circ.n_qubits,
        "n_gates": len(circ.gates),
        "two_qubit_count": report.two_qubit_count,
        "two_qubit_depth": report.two_qubit_depth,
        "per_qubit": list(report.per_qubit),
    }
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(circuits.emit_text(circ))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(_json(payload))
    if args.csv_perqubit:
        rows = [[j, c] for j, c in enumerate(report.per_qubit)]
        with open(args.csv_perqubit, "w", encoding="utf-8") as fh:
            fh.write(_csv(["qubit", "two_qubit_count"], rows))
    _write(args, _json(payload))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from .report import REPORT_SECTIONS, run_report

    raw = args.sections
    sections = [s for s in raw.split(",") if s] if raw else list(REPORT_SECTIONS)
    if not sections:
        raise CliError(f"--sections names no section: {raw!r}")
    for s in sections:
        if s not in REPORT_SECTIONS:
            raise CliError(f"unknown section {s!r}; available: "
                           + ", ".join(REPORT_SECTIONS))
    # only the magic section draws random numbers (optimizer starts, samples)
    seed = _seed(args) if "magic" in sections else args.seed
    checks = run_report(sections, seed=seed)
    width = max(len(c.name) for c in checks) + 2
    lines = []
    n_fail = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        n_fail += 0 if c.passed else 1
        lines.append(f"{c.name:<{width}} {status}  value={_fmt(c.value)} "
                     f"target={_fmt(c.target)} tol={_fmt(c.tol)}")
    lines.append(f"{len(checks)} checks, {n_fail} failures")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        payload = [{"name": c.name, "value": c.value, "target": c.target,
                    "tol": c.tol, "passed": c.passed} for c in checks]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_json(payload))
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(p: _Parser, lattice: bool = True) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", type=str, default=None,
                   help="output path (default: standard output)")
    if lattice:
        p.add_argument("--L", type=int, default=3)
        p.add_argument("--g", type=float, default=1.0)
        p.add_argument("--mq", type=float, default=0.1)
        p.add_argument("--mQ", type=float, default=0.0)
        p.add_argument("--lambda2", type=float, default=None,
                       help="penalty strength (default 20 g^2)")
        p.add_argument("--nq", type=int, default=1,
                       help="number of heavy quarks (0, 1 at x=0, 2 at x=0 and L-1)")
        p.add_argument("--heavy", type=str, default=None,
                       help="comma-separated heavy-quark positions, overrides --nq; "
                            "an empty value places none")


def _add_schedule(p: _Parser, dt: float, horizon: float = 10.0) -> None:
    p.add_argument("--horizon", type=float, default=horizon)
    p.add_argument("--dt", type=float, default=dt)
    p.add_argument("--evolver", type=str, default="exact",
                   choices=("exact", "trotter"))


_ORDER = {"type": int, "default": 2, "choices": (1, 2),
          "help": "product-formula order"}


def _build_parser() -> tuple[_Parser, dict]:
    """The su2lgt parser and its subcommand parsers by name."""
    from .reference import MOTION

    parser = _Parser(prog="su2lgt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def command(name, func, lattice=True):
        p = sub.add_parser(name, parents=[_CONFIG])
        _add_common(p, lattice)
        p.set_defaults(func=func)
        return p

    p = command("hamiltonian", cmd_hamiltonian)
    p.add_argument("--symmetric-gauge", dest="symmetric_gauge",
                   action="store_true")
    p.add_argument("--terms", action="store_true",
                   help="include the full term lists")

    p = command("groundstate", cmd_groundstate)
    p.add_argument("--hadron-mass", dest="hadron_mass", action="store_true")

    p = command("prepare", cmd_prepare)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--csv-z", dest="csv_z", type=str, default=None,
                   help="write the per-layer Z-profile table to this CSV file")

    p = command("evolve", cmd_evolve)
    p.add_argument("--moves", type=str, default="",
                   help="heavy-quark moves, e.g. 0-1@0,1-2@5")
    _add_schedule(p, dt=0.25)
    p.add_argument("--order", **_ORDER)
    p.add_argument("--csv-z", dest="csv_z", action="store_true",
                   help="include per-qubit Z columns")

    p = command("dedx", cmd_dedx)
    p.add_argument("--schedule", type=str, default="vac-med-default",
                   choices=("vacuum", "medium", "vac-med-default"))
    _add_schedule(p, dt=0.5, horizon=MOTION["horizon"])
    p.add_argument("--timeseries", type=str, default=None,
                   help="also write the energy-vs-time series to this CSV file")

    p = command("observables", cmd_observables)
    p.add_argument("--what", type=str, default="estimator",
                   choices=("estimator", "entanglement", "tangles", "magic"))
    _add_schedule(p, dt=0.5)
    p.add_argument("--samples", type=int, default=0,
                   help="sampled-magic sample count (0 = exact only)")
    p.add_argument("--optimize", action="store_true")

    p = command("circuit", cmd_circuit)
    p.add_argument("--template", type=str, required=True,
                   choices=("scprep", "meson", "baryon", "fswap", "trotter",
                            "measure", "pipeline"))
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--x-from", dest="x_from", type=int, default=0)
    p.add_argument("--x-to", dest="x_to", type=int, default=1)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--order", **_ORDER)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--group", type=str, default="hop_01_23")
    p.add_argument("--emit", type=str, default=None,
                   help="write the circuit text to this file")
    p.add_argument("--report", type=str, default=None,
                   help="write the resource report to this JSON file")
    p.add_argument("--csv-perqubit", dest="csv_perqubit", type=str,
                   default=None)

    p = command("report", cmd_report, lattice=False)
    p.add_argument("--sections", type=str, default=None,
                   help="comma-separated section list (default: all)")

    return parser, sub.choices


def main(argv=None) -> int:
    from .circuits import SynthesisError
    from .dynamics import KrylovError
    from .spectra import LanczosError

    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:
            # a config file's options go before the command line's own, so
            # that an explicit flag wins (argparse keeps the last value)
            path = _CONFIG.parse_known_args(argv[1:])[0].config
            if path is not None:
                argv[1:1] = _config_argv(commands[argv[0]].options, path)
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(parser.format_usage())
        return args.func(args)
    except (CliError, OSError) as exc:  # OSError: an unreadable or unwritable path
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (NumericalError, LanczosError, KrylovError, SynthesisError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
