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
defaults; the defaults are the canonical couplings g=1.0, m_q=0.1.
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

import numpy as np

from .lattice import LatticeSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class CliError(Exception):
    """Configuration/usage error: exit code 1."""


class NumericalError(Exception):
    """Numerical failure: exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise CliError(f"{message}\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_LATTICE_DEFAULTS = {"L": 3, "g": 1.0, "mq": 0.1, "mQ": 0.0,
                     "lambda2": None, "nq": 1, "heavy": None}
# options whose value names an output file (prepare's --csv-z too; evolve's
# --csv-z is a flag)
_PATHS = ("out", "emit", "report", "csv_perqubit", "timeseries")
# flags, which a config file sets with a JSON boolean (evolve's --csv-z too)
_FLAGS = ("symmetric_gauge", "terms", "hadron_mass", "optimize")


def _add_common(p: _Parser, lattice: bool = True) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with default option values")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p.add_argument("--out", type=str, default=None,
                   help="output path (default: standard output)")
    if lattice:
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--g", type=float, default=None)
        p.add_argument("--mq", type=float, default=None)
        p.add_argument("--mQ", type=float, default=None)
        p.add_argument("--lambda2", type=float, default=None)
        p.add_argument("--nq", type=int, default=None,
                       help="number of heavy quarks (0, 1 at x=0, 2 at x=0 and L-1)")
        p.add_argument("--heavy", type=str, default=None,
                       help="comma-separated heavy-quark positions, overrides --nq")


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_LATTICE_DEFAULTS)
    cfg.update({"seed": 0, "out": None})
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {path}: {exc}")
        if not isinstance(loaded, dict):
            raise CliError("config file must contain a JSON object")
        cfg.update(loaded)
    paths = _PATHS + (("csv_z",) if args.command == "prepare" else ())
    flags = _FLAGS + (("csv_z",) if args.command == "evolve" else ())
    for keys, kind, what in ((paths, str, "a file path"), (flags, bool, "true or false")):
        for key in keys:
            val = cfg.get(key)
            if hasattr(args, key) and val is not None and not isinstance(val, kind):
                raise CliError(f"--{key.replace('_', '-')} must be {what}, not {val!r}")
    for key, val in vars(args).items():
        if key in ("config", "func"):
            continue
        if val is not None:
            cfg[key] = val
        else:
            cfg.setdefault(key, None)
    return cfg


def _opt(cfg: dict, key: str, default, kind=str, choices=None):
    """cfg[key] converted by kind, or default when it is unset (None).  A
    value that kind cannot convert exactly (a boolean for a number, a
    non-string for a string), or one outside choices, is a configuration
    error."""
    val = cfg.get(key)
    if val is None:
        return default
    flag = "--" + key.replace("_", "-")
    if isinstance(val, bool) or (kind is str and not isinstance(val, str)):
        raise CliError(f"{flag}: cannot read {val!r}")
    try:
        out = kind(val)
    except (TypeError, ValueError):
        raise CliError(f"{flag}: cannot read {val!r}")
    if isinstance(val, float) and out != val:  # 1.5 for an integer option
        raise CliError(f"{flag}: cannot read {val!r}")
    if choices is not None and out not in choices:
        raise CliError(f"{flag} must be one of " + ", ".join(map(str, choices)))
    return out


def _seed(cfg: dict) -> int:
    """--seed for a random generator, which needs a non-negative integer."""
    seed = _opt(cfg, "seed", 0, int)
    if seed < 0:
        raise CliError(f"--seed must be non-negative, not {seed}")
    return seed


def _spec_from(cfg: dict) -> LatticeSpec:
    try:
        L = _opt(cfg, "L", None, int)
        for key in ("g", "mq", "mQ", "lambda2"):
            if isinstance(cfg.get(key), bool):
                raise CliError(f"--{key}: cannot read {cfg[key]!r}")
        if cfg.get("heavy"):
            raw = cfg["heavy"]
            try:
                positions = tuple(int(tok) for tok in str(raw).split(",")
                                  if tok != "")
            except ValueError:
                raise CliError(f"--heavy: cannot read {raw!r}")
            for i, x in enumerate(positions):
                if x in positions[:i]:
                    raise CliError(f"--heavy lists position {x} more than once")
        else:
            nq = _opt(cfg, "nq", 0, int)
            if nq == 0:
                positions = ()
            elif nq == 1:
                positions = (0,)
            elif nq == 2:
                if L is not None and L < 2:
                    raise CliError(f"--nq 2 puts heavy quarks at x = 0 and x = L - 1, "
                                   f"which needs L >= 2, not {L}")
                positions = (0, L - 1)
            else:
                raise CliError("--nq must be 0, 1 or 2 (use --heavy for other layouts)")
        return LatticeSpec(L=L, g=float(cfg["g"]), mq=float(cfg["mq"]),
                           mQ=float(cfg["mQ"]),
                           lambda2=cfg.get("lambda2"),
                           heavy_positions=frozenset(positions))
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc))


def _write(cfg: dict, text: str) -> None:
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
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
        return repr(round(float(v), 12))
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

def cmd_hamiltonian(cfg: dict) -> int:
    from .hamiltonian import build_hamiltonian

    spec = _spec_from(cfg)
    terms = build_hamiltonian(spec, symmetric_gauge=bool(cfg.get("symmetric_gauge")))
    pieces = {}
    for name, op in terms.as_dict().items():
        entry = {"n_terms": len(op)}
        if cfg.get("terms"):
            entry["terms"] = op.to_text().splitlines()
        pieces[name] = entry
    payload = {"L": spec.L, "n_qubits": spec.n_qubits,
               "heavy": sorted(spec.heavy_positions),
               "couplings": {"g": spec.g, "mq": spec.mq, "mQ": spec.mQ,
                             "lambda2": spec.penalty_strength},
               "pieces": pieces}
    _write(cfg, _json(payload))
    return EXIT_OK


def cmd_groundstate(cfg: dict) -> int:
    from .dynamics import _sector_expectations
    from .hamiltonian import build_hamiltonian, mass_offset
    from .spectra import ground_state, hadron_mass

    spec = _spec_from(cfg)
    energy, psi = ground_state(spec)
    terms = build_hamiltonian(spec)
    components = _sector_expectations(terms.total, psi, terms.as_dict())
    components["mass"] += mass_offset(spec)
    payload = {
        "L": spec.L, "n_Q": spec.n_Q, "heavy": sorted(spec.heavy_positions),
        "energy": energy,
        "components": components,
    }
    if cfg.get("hadron_mass") and spec.n_Q == 1:
        payload["hadron_mass"] = hadron_mass(spec)
    _write(cfg, _json(payload))
    return EXIT_OK


def cmd_prepare(cfg: dict) -> int:
    from .ansatz import infidelity_density, optimize_angles, sequence_from_names
    from .observables import z_profile
    from .spectra import ground_state, sc_state

    spec = _spec_from(cfg)
    names, angles = _sequence_for(spec)
    energy, target = ground_state(spec)
    start = sc_state(spec)
    seq = sequence_from_names(spec, names, angles)
    if cfg.get("optimize"):
        seq, _ = optimize_angles(seq, start, target, spec.L,
                                 seed_angles=angles, n_starts=1,
                                 rng_seed=_seed(cfg))
    var = seq.apply(start)
    payload = {
        "L": spec.L, "n_Q": spec.n_Q,
        "sequence": [layer.name for layer in seq.layers],
        "angles": [layer.theta for layer in seq.layers],
        "infidelity_density": infidelity_density(var, target, spec.L),
        "z_profile": [float(z) for z in z_profile(var)],
    }
    if cfg.get("csv_z"):
        rows = [["sc"] + [float(z) for z in z_profile(start)]]
        for k in range(1, len(seq.layers) + 1):
            partial = seq.apply(start, upto=k)
            rows.append([f"layer-{k}"] + [float(z) for z in z_profile(partial)])
        rows.append(["exact"] + [float(z) for z in z_profile(target)])
        text = _csv(["state"] + [f"z{j}" for j in range(spec.n_qubits)], rows)
        with open(cfg["csv_z"], "w", encoding="utf-8") as fh:
            fh.write(text)
    _write(cfg, _json(payload))
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


_EVOLVERS = ("exact", "trotter")


def cmd_evolve(cfg: dict) -> int:
    from .dynamics import run_protocol

    spec = _spec_from(cfg)
    evolver = _opt(cfg, "evolver", "exact", choices=_EVOLVERS)
    order = _opt(cfg, "order", 2, int, choices=(1, 2))
    schedule = _schedule(spec, _parse_moves(_opt(cfg, "moves", "")),
                         horizon=_opt(cfg, "horizon", 10.0, float),
                         dt=_opt(cfg, "dt", 0.25, float))
    run = run_protocol(spec, schedule, evolver=evolver, order=order)
    header = ["t", "kinetic", "mass", "gauge", "penalty", "total"]
    if cfg.get("csv_z"):
        header += [f"z{j}" for j in range(spec.n_qubits)]
    rows = []
    for rec in run.records:
        row = [rec.t] + [rec.energies[k] for k in header[1:6]]
        if cfg.get("csv_z"):
            row += [float(z) for z in rec.z]
        rows.append(row)
    _write(cfg, _csv(header, rows))
    return EXIT_OK


def cmd_dedx(cfg: dict) -> int:
    from .dynamics import dedx_estimate, run_protocol
    from .reference import MOTION

    spec = _spec_from(cfg)
    schedule_name = _opt(cfg, "schedule", "vac-med-default",
                         choices=("vacuum", "medium", "vac-med-default"))
    evolver = _opt(cfg, "evolver", "exact", choices=_EVOLVERS)
    t0, t1 = MOTION["move_times"]
    schedule = _schedule(spec, ((t0, 0, 1), (t1, 1, 2)),
                         horizon=_opt(cfg, "horizon", MOTION["horizon"], float),
                         dt=_opt(cfg, "dt", 0.5, float))
    vac_spec = spec.with_heavy(0)
    med_spec = spec.with_heavy(0, spec.L - 1)
    runs = {}
    if schedule_name in ("vacuum", "vac-med-default"):
        runs["vacuum"] = run_protocol(vac_spec, schedule, evolver=evolver)
    if schedule_name in ("medium", "vac-med-default"):
        runs["medium"] = run_protocol(med_spec, schedule, evolver=evolver)
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
    _write(cfg, _csv(["quantity", "value"], rows))
    if cfg.get("timeseries"):
        header = ["t"] + [f"total_{name}" for name in runs]
        series = []
        for i, rec in enumerate(next(iter(runs.values())).records):
            series.append([rec.t] + [r.records[i].energies["total"]
                                     for r in runs.values()])
        with open(cfg["timeseries"], "w", encoding="utf-8") as fh:
            fh.write(_csv(header, series))
    return EXIT_OK


def cmd_observables(cfg: dict) -> int:
    spec = _spec_from(cfg)
    handlers = {"estimator": _obs_estimator, "entanglement": _obs_entanglement,
                "tangles": _obs_tangles, "magic": _obs_magic}
    return handlers[_opt(cfg, "what", "estimator", choices=tuple(handlers))](cfg, spec)


def _obs_estimator(cfg: dict, spec: LatticeSpec) -> int:
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
    _write(cfg, _json(payload))
    return EXIT_OK


def _obs_entanglement(cfg: dict, spec: LatticeSpec) -> int:
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
    _write(cfg, _json(payload))
    return EXIT_OK


def _obs_tangles(cfg: dict, spec: LatticeSpec) -> int:
    from .dynamics import run_protocol
    from .observables import four_tangle

    evolver = _opt(cfg, "evolver", "exact", choices=_EVOLVERS)
    schedule = _schedule(spec, ((0.0, 0, 1),),
                         horizon=_opt(cfg, "horizon", 10.0, float),
                         dt=_opt(cfg, "dt", 0.5, float))
    run = run_protocol(spec, schedule, evolver=evolver)
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
    _write(cfg, _csv(header, rows))
    return EXIT_OK


def _obs_magic(cfg: dict, spec: LatticeSpec) -> int:
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
    samples = _opt(cfg, "samples", 0, int)
    if samples < 0:
        raise CliError(f"--samples must be non-negative, not {samples}")
    seed = _seed(cfg) if cfg.get("optimize") or samples else 0
    rows = []
    for k, seed_angles in zip(stages, staged["angles"]):
        seq = sequence_from_names(spec, staged["sequence"][:k], seed_angles)
        if cfg.get("optimize"):
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
    _write(cfg, _csv(header, rows))
    return EXIT_OK


def cmd_circuit(cfg: dict) -> int:
    from . import circuits

    spec = _spec_from(cfg)
    template = cfg.get("template")
    theta = _opt(cfg, "theta", 0.1, float)
    x = _opt(cfg, "x", 0, int)
    d = _opt(cfg, "d", 0, int)
    t = _opt(cfg, "t", 1.0, float)
    order = _opt(cfg, "order", 2, int, choices=(1, 2))
    steps = _opt(cfg, "steps", 1, int)
    for flag, value in (("--theta", theta), ("--t", t)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, not {value}")
    try:
        if template == "scprep":
            circ = circuits.sc_prep_circuit(spec)
        elif template == "meson":
            circ = circuits.meson_circuit(spec, d, x, theta)
        elif template == "baryon":
            circ = circuits.baryon_circuit(spec, d, x, theta)
        elif template == "fswap":
            circ = circuits.fswap_circuit(spec, _opt(cfg, "x_from", 0, int),
                                          _opt(cfg, "x_to", 1, int))
        elif template == "trotter":
            circ = circuits.trotter_circuit(spec, t, order=order, steps=steps)
        elif template == "measure":
            from .observables import energy_loss_estimator

            groups = {g.name: g for g in energy_loss_estimator(spec)}
            name = _opt(cfg, "group", "hop_01_23")
            if name not in groups:
                raise CliError(f"--group must be one of {sorted(groups)}")
            circ = circuits.measurement_basis_circuit(groups[name], spec.n_qubits)
        elif template == "pipeline":
            circ = circuits.pipeline_circuit(spec, t=t, order=order, steps=steps)
        else:
            raise CliError("--template must be scprep, meson, baryon, fswap, "
                           "trotter, measure or pipeline")
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
    if cfg.get("emit"):
        with open(cfg["emit"], "w", encoding="utf-8") as fh:
            fh.write(circuits.emit_text(circ))
    if cfg.get("report"):
        with open(cfg["report"], "w", encoding="utf-8") as fh:
            fh.write(_json(payload))
    if cfg.get("csv_perqubit"):
        rows = [[j, c] for j, c in enumerate(report.per_qubit)]
        with open(cfg["csv_perqubit"], "w", encoding="utf-8") as fh:
            fh.write(_csv(["qubit", "two_qubit_count"], rows))
    _write(cfg, _json(payload))
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    from .report import REPORT_SECTIONS, run_report

    raw = _opt(cfg, "sections", "")
    sections = [s for s in raw.split(",") if s] if raw else list(REPORT_SECTIONS)
    if not sections:
        raise CliError(f"--sections names no section: {raw!r}")
    for s in sections:
        if s not in REPORT_SECTIONS:
            raise CliError(f"unknown section {s!r}; available: "
                           + ", ".join(REPORT_SECTIONS))
    # only the magic section draws random numbers (optimizer starts, samples)
    seed = _seed(cfg) if "magic" in sections else _opt(cfg, "seed", 0, int)
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
    if cfg.get("out"):
        payload = [{"name": c.name, "value": c.value, "target": c.target,
                    "tol": c.tol, "passed": c.passed} for c in checks]
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(_json(payload))
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="su2lgt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("hamiltonian")
    _add_common(p)
    p.add_argument("--symmetric-gauge", dest="symmetric_gauge",
                   action="store_true", default=None)
    p.add_argument("--terms", action="store_true", default=None,
                   help="include the full term lists")
    p.set_defaults(func=cmd_hamiltonian)

    p = sub.add_parser("groundstate")
    _add_common(p)
    p.add_argument("--hadron-mass", dest="hadron_mass", action="store_true",
                   default=None)
    p.set_defaults(func=cmd_groundstate)

    p = sub.add_parser("prepare")
    _add_common(p)
    p.add_argument("--optimize", action="store_true", default=None)
    p.add_argument("--csv-z", dest="csv_z", type=str, default=None,
                   help="write the per-layer Z-profile table to this CSV file")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("evolve")
    _add_common(p)
    p.add_argument("--moves", type=str, default=None,
                   help="heavy-quark moves, e.g. 0-1@0,1-2@5")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--evolver", choices=_EVOLVERS, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--csv-z", dest="csv_z", action="store_true", default=None,
                   help="include per-qubit Z columns")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("dedx")
    _add_common(p)
    p.add_argument("--schedule", type=str, default=None,
                   choices=("vacuum", "medium", "vac-med-default"))
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--evolver", choices=_EVOLVERS, default=None)
    p.add_argument("--timeseries", type=str, default=None,
                   help="also write the energy-vs-time series to this CSV file")
    p.set_defaults(func=cmd_dedx)

    p = sub.add_parser("observables")
    _add_common(p)
    p.add_argument("--what", type=str, default=None,
                   choices=("estimator", "entanglement", "tangles", "magic"))
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--evolver", choices=_EVOLVERS, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="sampled-magic sample count (0 = exact only)")
    p.add_argument("--optimize", action="store_true", default=None)
    p.set_defaults(func=cmd_observables)

    p = sub.add_parser("circuit")
    _add_common(p)
    p.add_argument("--template", type=str, default=None,
                   choices=("scprep", "meson", "baryon", "fswap", "trotter",
                            "measure", "pipeline"))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--x-from", dest="x_from", type=int, default=None)
    p.add_argument("--x-to", dest="x_to", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--group", type=str, default=None)
    p.add_argument("--emit", type=str, default=None,
                   help="write the circuit text to this file")
    p.add_argument("--report", type=str, default=None,
                   help="write the resource report to this JSON file")
    p.add_argument("--csv-perqubit", dest="csv_perqubit", type=str,
                   default=None)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("report")
    _add_common(p, lattice=False)
    p.add_argument("--sections", type=str, default=None,
                   help="comma-separated section list (default: all)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    from .circuits import SynthesisError
    from .dynamics import KrylovError
    from .spectra import LanczosError

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise CliError(parser.format_usage())
        cfg = _merge_config(args)
        if cfg.get("template") is None and args.command == "circuit":
            raise CliError("circuit requires --template")
        return args.func(cfg)
    except (CliError, OSError) as exc:  # OSError: an unreadable or unwritable path
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (NumericalError, LanczosError, KrylovError, SynthesisError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
