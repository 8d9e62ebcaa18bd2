import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from su2lgt import LatticeSpec
from su2lgt.ansatz import (AnsatzSequence, Layer, OptimizationError, SectorPlan, _bfgs,
                           build_pool, infidelity_density, optimize_angles,
                           pool_by_name, sequence_from_names)
from su2lgt.pauli import StateVector, exp_sum_apply
from su2lgt.reference import STAGED
from su2lgt.spectra import ground_state, sc_state

from conftest import apply_on_wires, random_state, spec_for


def test_pool_contents_l3():
    spec = spec_for(3, (0,))
    pool = build_pool(spec)
    names = [p.name for p in pool]
    assert len(names) == len(set(names)) == 13
    # meson operators at every distance/site, baryon ones where the heavy
    # quark can participate
    assert "O_M0^(0)" in names and "O_M2^(0,1)" in names
    assert "O_B0^(1)" in names and "O_B1^(0,1)" in names
    for p in pool:
        assert p.sum.is_hermitian()


@pytest.mark.parametrize("name", ["O_M0^(0)", "O_M1^(0,1)", "O_B0^(1)",
                                  "O_B1^(0,1)", "O_M2^(1,2)"])
def test_generator_exp_matches_expm(name):
    spec = spec_for(3, (0,))
    gen = pool_by_name(spec)[name].sum
    rng = np.random.default_rng(3)
    v = random_state(spec.n_qubits, rng)
    theta = 0.4217
    out = exp_sum_apply(gen, theta, StateVector(v, normalized=False))
    # oracle on the generator's support only
    sup = sorted({j for t in gen.terms() for j in t.support()})
    sub = np.zeros((1 << len(sup),) * 2, dtype=complex)
    for t in gen.terms():
        from conftest import dense_label
        label = "".join(t.letter(j) for j in sup)
        sub += t.coeff * dense_label(label)
    u = expm(-1j * theta * sub)
    oracle = apply_on_wires(u, sup, v)
    assert np.max(np.abs(out.amps - oracle)) < 1e-10


def test_sequence_roundtrip_and_apply():
    spec = spec_for(2, (0,))
    names = ["O_M0^(0)", "O_M1^(0,1)"]
    angles = [0.3, -0.2]
    seq = sequence_from_names(spec, names, angles)
    assert [l.name for l in seq.layers] == names
    assert seq.angles == pytest.approx(angles)
    s = sc_state(spec)
    step = exp_sum_apply(pool_by_name(spec)["O_M0^(0)"].sum, 0.3, s)
    step = exp_sum_apply(pool_by_name(spec)["O_M1^(0,1)"].sum, -0.2, step)
    assert np.max(np.abs(seq.apply(s).amps - step.amps)) < 1e-12
    seq2 = seq.with_angles([0.0, 0.0])
    assert np.max(np.abs(seq2.apply(s).amps - s.amps)) < 1e-12


def test_infidelity_density_definition():
    # (1 - F) / L for fidelity F between variational and target states
    a = StateVector(np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
    b = StateVector.basis(2, 0)
    assert infidelity_density(a, b, 2) == pytest.approx(0.25)
    assert infidelity_density(a, a, 3) == pytest.approx(0.0, abs=1e-12)


def test_optimize_angles_improves_infidelity(ground_cache):
    spec = spec_for(1, (0,))
    _, psi = ground_cache(spec)
    start = sc_state(spec)
    seq = sequence_from_names(spec, ["O_M0^(0)"], [0.0])
    before = infidelity_density(seq.apply(start), psi, 1)
    opt, achieved = optimize_angles(seq, start, psi, 1, n_starts=1)
    after = infidelity_density(opt.apply(start), psi, 1)
    assert achieved == pytest.approx(after, abs=1e-12)
    assert after < before


# -- the ansatz sector and the adjoint gradient ---------------------------

def _staged(L: int, n_q: int, k: int | None = None):
    """The staged reference sequence of (L, n_Q) up to layer k at its
    final angles, the strong-coupling start and the exact ground state."""
    spec = spec_for(L, (0,) if n_q else ())
    staged = STAGED[f"L{L}", n_q]
    k = len(staged["sequence"]) if k is None else k
    angles = staged["angles"][-1][:k]
    seq = sequence_from_names(spec, staged["sequence"][:k], angles)
    return seq, sc_state(spec), ground_state(spec)[1]


@pytest.mark.parametrize("L,n_q,k", [(2, 0, None), (2, 1, None), (3, 1, 4)])
def test_adjoint_gradient_matches_central_differences(L, n_q, k):
    seq, start, target = _staged(L, n_q, k)
    plan = SectorPlan(seq, start)
    tgt = plan.sector.extract(target)
    x = seq.angles + 0.05
    _, grad = plan.infidelity_and_grad(x, tgt, L)
    step = 1e-5
    for j, e in enumerate(np.eye(x.size)):
        fd = (plan.infidelity_and_grad(x + step * e, tgt, L)[0]
              - plan.infidelity_and_grad(x - step * e, tgt, L)[0]) / (2 * step)
        assert abs(grad[j] - fd) <= 1e-7, (j, grad[j], fd)


@functools.lru_cache(maxsize=1)
def _l2_q1_plan():
    seq, start, target = _staged(2, 1)
    return seq, start, target, SectorPlan(seq, start)


@settings(max_examples=40, deadline=None)
@given(thetas=st.lists(st.floats(-np.pi, np.pi), min_size=len(STAGED["L2", 1]["sequence"]),
                       max_size=len(STAGED["L2", 1]["sequence"])))
def test_sector_objective_equals_full_register_infidelity(thetas):
    seq, start, target, plan = _l2_q1_plan()
    value, _ = plan.infidelity_and_grad(np.array(thetas), plan.sector.extract(target), 2)
    full = infidelity_density(seq.with_angles(thetas).apply(start), target, 2)
    assert abs(value - full) <= 1e-12
    evolved = plan.sector.embed(plan.forward(thetas)[0]).amps
    assert np.max(np.abs(evolved - seq.with_angles(thetas).apply(start).amps)) <= 1e-12


def test_generators_that_cancel_in_their_sum_keep_their_states():
    # the two layers cancel in their sum, whose closure is the start's
    # support alone; the plan's sector follows each layer on its own
    spec = spec_for(1)
    gen = pool_by_name(spec)["O_M0^(0)"].sum
    seq = AnsatzSequence([Layer("a", gen, 0.1), Layer("b", -1.0 * gen, 0.2)])
    start = sc_state(spec)
    plan = SectorPlan(seq, start)
    assert len(plan.sector) > np.count_nonzero(start.amps)
    applied = seq.apply(start)
    assert np.array_equal(plan.sector.embed(plan.forward(seq.angles)[0]).amps,
                          applied.amps)
    opt, value = optimize_angles(seq, start, applied, 1, n_starts=1)
    assert abs(value - infidelity_density(opt.apply(start), applied, 1)) <= 1e-12
    assert value <= 1e-12


@pytest.mark.parametrize("L,n_q,k", [(2, 0, None), (2, 1, None), (3, 1, 4)])
def test_optimized_value_equals_full_register_recompute(L, n_q, k):
    seq, start, target = _staged(L, n_q, k)
    opt, value = optimize_angles(seq, start, target, L, n_starts=1)
    assert abs(value - infidelity_density(opt.apply(start), target, L)) <= 1e-12
    assert value <= infidelity_density(seq.apply(start), target, L) + 1e-15


def _rosenbrock(x):
    value = np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return value, grad


def _bfgs_problems():
    """(name, fun, x0) for the staged L = 2 and L = 3 objectives, from the
    final angles and from zeros, and for Rosenbrock functions."""
    for L, n_q, k in [(2, 0, None), (2, 1, None), (3, 1, 4), (3, 1, 10)]:
        seq, start, target = _staged(L, n_q, k)
        plan = SectorPlan(seq, start)
        tgt = plan.sector.extract(target)
        fun = functools.partial(lambda th, p, t, L: p.infidelity_and_grad(th, t, L),
                                p=plan, t=tgt, L=L)
        yield f"L{L} n_Q {n_q} k {k}", fun, seq.angles
        yield f"L{L} n_Q {n_q} k {k} zeros", fun, np.zeros(len(seq.layers))
    yield "Rosenbrock 2", _rosenbrock, np.array([-1.2, 1.0])
    yield "Rosenbrock 3", _rosenbrock, np.array([2.0, -1.0, 0.5])
    yield "Rosenbrock 4", _rosenbrock, np.zeros(4)


def test_bfgs_agrees_with_scipy_bfgs():
    from scipy.optimize import minimize

    for name, fun, x0 in _bfgs_problems():
        x, value = _bfgs(fun, x0, gtol=1e-8, maxiter=500)
        ref = minimize(fun, x0, jac=True, method="BFGS",
                       options={"gtol": 1e-8, "maxiter": 500})
        assert abs(value - ref.fun) <= 1e-12, name
        assert np.max(np.abs(x - ref.x)) <= 1e-6, name
        assert np.max(np.abs(fun(x)[1])) <= 1e-8, name


def test_bfgs_stops_at_a_non_finite_start():
    x0 = np.array([0.3, -0.2])
    x, value = _bfgs(lambda x: (np.nan, np.full(2, np.nan)), x0, gtol=1e-8, maxiter=50)
    assert np.isnan(value) and np.array_equal(x, x0)


def test_optimizer_with_no_finite_start_raises(monkeypatch):
    seq, start, target = _staged(2, 1)
    def not_finite(self, thetas, target, L):
        return np.nan, np.full(len(thetas), np.nan)

    monkeypatch.setattr(SectorPlan, "infidelity_and_grad", not_finite)
    with pytest.raises(OptimizationError):
        optimize_angles(seq, start, target, 2, n_starts=3)
