"""Span recording around the package's public functions, from outside it.

`Tracer.install()` wraps each traced name where its callers look it up: the
class attribute for methods, and for functions the global of every loaded
`su2lgt` module that binds the same object (`build_hamiltonian`, for one,
is imported by name into `spectra` and `dynamics`).  Each call records a
span (name, start, end, parent) in memory; `layer_metrics` turns the spans
into the per-layer metrics.  No file of the package changes.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import weakref

# (defining module, attribute path, span name)
TRACED = (
    ("su2lgt.hamiltonian", "build_hamiltonian", "hamiltonian.build"),
    ("su2lgt.pauli", "PauliSum.matvec", "pauli.matvec"),
    ("su2lgt.pauli", "PauliSum.expectation", "pauli.expectation"),
    ("su2lgt.spectra", "lanczos_ground", "spectra.lanczos"),
    ("su2lgt.ansatz", "optimize_angles", "ansatz.optimize"),
    ("su2lgt.ansatz", "AnsatzSequence.apply", "ansatz.apply"),
    ("su2lgt.dynamics", "run_protocol", "dynamics.run_protocol"),
    ("su2lgt.dynamics", "evolve_exact", "dynamics.evolve_exact"),
    ("su2lgt.dynamics", "fswap_move", "dynamics.fswap_move"),
    ("su2lgt.dynamics", "trotter_step", "dynamics.trotter_step"),
    ("su2lgt.observables", "sre_m2", "observables.sre_m2"),
    ("su2lgt.observables", "evaluate_energy_loss", "observables.estimator"),
    ("su2lgt.circuits", "pipeline_circuit", "circuits.synthesis"),
    ("su2lgt.circuits", "Circuit.apply", "circuits.apply"),
    ("su2lgt.circuits", "count_resources", "circuits.count_resources"),
)


class Tracer:
    """In-memory spans; `enabled` is cleared before the checks run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = True
        self._stack: list[int] = []
        self._compiled = weakref.WeakSet()   # operators past their first matvec

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None}
            if name == "pauli.matvec" and args[0] not in tracer._compiled:
                span["name"] = "pauli.first_matvec"
                tracer._compiled.add(args[0])
            if name == "circuits.apply":
                span["gates"] = len(args[0].gates)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if name == "circuits.synthesis":
                span["gates"] = len(result.gates)
            elif name == "circuits.count_resources":
                span["two_qubit_count"] = result.two_qubit_count
                span["two_qubit_depth"] = result.two_qubit_depth
            return result

        return traced

    def install(self) -> None:
        import su2lgt

        for info in pkgutil.iter_modules(su2lgt.__path__):
            importlib.import_module(f"su2lgt.{info.name}")
        modules = [m for k, m in sys.modules.items()
                   if k == "su2lgt" or k.startswith("su2lgt.")]
        for mod_name, path, span_name in TRACED:
            owner = sys.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(getattr(cls, attr), span_name))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(orig, span_name)
            for mod in modules:
                if getattr(mod, path, None) is orig:
                    setattr(mod, path, wrapped)


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    `*_s` values are inclusive span times, `*_self_s` subtract the time of
    child spans, and counts are span counts (`pauli.matvec_calls` excludes
    the first call on each operator, which is the lazy compile).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _duration(s)

    def named(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total(*names):
        return sum(_duration(spans[i]) for i in named(*names))

    def under(i, ancestor):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == ancestor:
                return True
            p = spans[p]["parent"]
        return False

    def count_under(names, ancestor):
        return sum(1 for i in named(*names) if under(i, ancestor))

    def self_time(name):
        return sum(_duration(spans[i]) - child_time[i] for i in named(name))

    matvecs = ("pauli.first_matvec", "pauli.matvec")
    resources = [spans[i] for i in named("circuits.count_resources")]
    return {
        "hamiltonian.build_calls": len(named("hamiltonian.build")),
        "hamiltonian.build_s": total("hamiltonian.build"),
        "pauli.first_matvec_s": total("pauli.first_matvec"),
        "pauli.matvec_calls": len(named("pauli.matvec")),
        "pauli.matvec_s": total("pauli.matvec"),
        "pauli.expectation_calls": len(named("pauli.expectation")),
        "pauli.expectation_s": total("pauli.expectation"),
        "spectra.lanczos_calls": len(named("spectra.lanczos")),
        "spectra.lanczos_s": total("spectra.lanczos"),
        "spectra.lanczos_matvecs": count_under(matvecs, "spectra.lanczos"),
        "spectra.lanczos_self_s": self_time("spectra.lanczos"),
        "ansatz.optimize_s": total("ansatz.optimize"),
        "ansatz.objective_evals": count_under(("ansatz.apply",), "ansatz.optimize"),
        "ansatz.apply_calls": len(named("ansatz.apply")),
        "ansatz.apply_s": total("ansatz.apply"),
        "dynamics.run_protocol_s": total("dynamics.run_protocol"),
        "dynamics.evolve_exact_calls": len(named("dynamics.evolve_exact")),
        "dynamics.evolve_exact_s": total("dynamics.evolve_exact"),
        "dynamics.krylov_matvecs": count_under(matvecs, "dynamics.evolve_exact"),
        "dynamics.evolve_exact_self_s": self_time("dynamics.evolve_exact"),
        "dynamics.fswap_move_calls": len(named("dynamics.fswap_move")),
        "dynamics.fswap_move_s": total("dynamics.fswap_move"),
        "dynamics.trotter_step_calls": len(named("dynamics.trotter_step")),
        "dynamics.trotter_step_s": total("dynamics.trotter_step"),
        "observables.sre_m2_calls": len(named("observables.sre_m2")),
        "observables.sre_m2_s": total("observables.sre_m2"),
        "observables.estimator_s": total("observables.estimator"),
        "circuits.synthesis_s": total("circuits.synthesis"),
        "circuits.gates": sum(spans[i].get("gates", 0)
                              for i in named("circuits.synthesis")),
        "circuits.two_qubit_count": sum(s["two_qubit_count"] for s in resources),
        "circuits.two_qubit_depth": max((s["two_qubit_depth"] for s in resources),
                                        default=0),
        "circuits.apply_s": total("circuits.apply"),
        "circuits.apply_gates": sum(spans[i]["gates"] for i in named("circuits.apply")),
    }
