"""The reachable-sector state space: closure under the matrix elements of H,
restriction against the dense operator, and the exact solvers running on it
without a full-register compile."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2lgt import LatticeSpec
from su2lgt.dynamics import (MotionSchedule, _fswap_generator, evolve_exact,
                             run_protocol, trotter_schedule)
from su2lgt.hamiltonian import build_hamiltonian
from su2lgt.pauli import (PauliString, PauliSum, Sector, StateVector, exp_chain_apply,
                          exp_sum_apply)
from su2lgt.reference import ENERGIES
from su2lgt.spectra import lanczos_ground, sc_state

from conftest import dense_sum, random_state


def _published_spec(L, n_q):
    return LatticeSpec(L=L, heavy_positions=frozenset({0: (), 1: (0,),
                                                       2: (0, L - 1)}[n_q]))


@pytest.mark.parametrize("L,n_q", sorted(k for k in ENERGIES if k[0] <= 2))
def test_published_sector_is_closed_under_h(L, n_q):
    spec = _published_spec(L, n_q)
    h = build_hamiltonian(spec).total
    sector = Sector.closure(h, sc_state(spec))
    # the columns of H at the sector's states, from matvec
    dim = 1 << spec.n_qubits
    columns = np.array([h.matvec(np.eye(1, dim, s)[0]) for s in sector.indices]).T
    outside = np.setdiff1d(np.arange(dim), sector.indices)
    assert np.abs(columns[outside]).max() == 0.0
    assert np.allclose(sector.dense(h), columns[sector.indices], atol=1e-13)


def test_l3_matvec_of_the_ground_state_stays_on_its_sector():
    spec = _published_spec(3, 1)
    h = build_hamiltonian(spec).total
    sector = Sector.closure(h, sc_state(spec))
    _, psi = lanczos_ground(h, sc_state(spec))
    out = h.matvec(psi.amps)
    assert out[sector.indices].tobytes() == (
        sector.restrict(h) @ sector.extract(psi)).tobytes()
    outside = np.ones(out.size, dtype=bool)
    outside[sector.indices] = False
    assert not out[outside].any()


@pytest.mark.parametrize("L,n_q", sorted(k for k in ENERGIES if k[0] <= 2))
def test_matvec_on_the_sector_gives_the_bits_of_the_restriction(L, n_q):
    # matvec and restrict read the same elements, and each output entry adds
    # its terms in the order of a sparse product, so the full-register matvec
    # of a sector state is the restricted product, embedded, bit for bit
    spec = _published_spec(L, n_q)
    pieces = build_hamiltonian(spec)
    h = pieces.total
    start = sc_state(spec)
    ground = lanczos_ground(h, start)[1]
    for name, v in (("strong coupling", start), ("ground", ground)):
        sector = Sector.closure(h, v)
        for piece, op in [("total", h)] + list(pieces.as_dict().items()):
            restricted = sector.embed(sector.restrict(op) @ sector.extract(v)).amps
            assert op.matvec(v.amps).tobytes() == restricted.tobytes(), (name, piece)


def test_l3_sector_sizes():
    sizes = [len(Sector.closure(build_hamiltonian(spec).total, sc_state(spec)))
             for spec in (_published_spec(3, n_q) for n_q in (0, 1, 2))]
    assert sizes == [400, 600, 690]


def test_closure_follows_matrix_elements_not_masks():
    # XX and YY share their X-mask; their <11|.|00> elements cancel, so
    # XX + YY conserves the number of ones and never reaches |11> from |00>
    h = PauliSum(2, [PauliString.from_label("XX"), PauliString.from_label("YY")])
    assert Sector.closure(h, StateVector.from_ket("00")).indices.tolist() == [0]
    assert Sector.closure(h, StateVector.from_ket("01")).indices.tolist() == [1, 2]
    assert Sector.closure(PauliSum(2, [PauliString.from_label("XX")]),
                          StateVector.from_ket("00")).indices.tolist() == [0, 3]


def test_restrict_rejects_an_operator_that_leaves_the_sector():
    h = PauliSum(2, [PauliString.from_label("XX"), PauliString.from_label("YY")])
    sector = Sector.closure(h, StateVector.from_ket("01"))
    with pytest.raises(ValueError):
        sector.restrict(PauliSum(2, [PauliString.from_label("XI")]))


def test_operator_without_terms_restricts_to_zero():
    # e.g. the penalty piece when its strength is 0
    sector = Sector.closure(PauliSum.zero(2), StateVector.from_ket("01"))
    assert sector.indices.tolist() == [1]
    assert _dense(sector.restrict(PauliSum.zero(2)), 1).tolist() == [[0.0]]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.text(alphabet="IXYZ", min_size=3, max_size=3),
                          st.floats(-2.0, 2.0)), min_size=1, max_size=5),
       st.integers(0, 7))
def test_restrict_matches_dense_on_the_closure(pairs, start):
    h = PauliSum(3, [PauliString.from_label(lab, c) for lab, c in pairs])
    sector = Sector.closure(h, StateVector.basis(3, start))
    dense = dense_sum(pairs, 3)
    assert start in sector.indices
    assert np.allclose(_dense(sector.restrict(h), len(sector)),
                       dense[np.ix_(sector.indices, sector.indices)], atol=1e-12)


def _dense(b, dim):
    """A SectorMatrix as a dense matrix, from its entries and one-state blocks."""
    m = np.zeros((dim, dim), dtype=complex)
    m[b.rows, b.cols] = b.vals
    m[b.ones, b.ones] = 1.0
    return m


def _state_on(support):
    amps = np.zeros(8, dtype=complex)
    amps[sorted(support)] = 1.0
    return StateVector(amps, normalized=False)


terms3 = st.lists(st.tuples(st.text(alphabet="IXYZ", min_size=3, max_size=3),
                            st.floats(-2.0, 2.0)), min_size=1, max_size=5)
supports = st.sets(st.integers(0, 7), min_size=1)


@settings(max_examples=25, deadline=None)
@given(terms3, supports)
@example([("XYZ", 0.7), ("YXI", -0.3)], {5})                  # Y terms: complex elements
@example([("ZZI", 0.5), ("IZZ", -1.2), ("ZII", 0.3)], {0, 3, 6})  # one-state blocks only
@example([("XII", 1.0), ("IIZ", 0.25)], set(range(8)))       # repeated block matrices
def test_eigh_diagonalizes_the_restriction(pairs, support):
    h = PauliSum(3, [PauliString.from_label(lab, c) for lab, c in pairs])
    sector = Sector.closure(h, _state_on(support))
    w, v, vh = sector.eigh(h)
    v, vh = _dense(v, len(sector)), _dense(vh, len(sector))
    assert np.array_equal(vh, v.conj().T)
    assert np.allclose(vh @ v, np.eye(len(sector)), atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ vh, sector.dense(h), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(terms3, supports, st.integers(0, 2**31 - 1))
@example([("XYZ", 0.7), ("YXI", -0.3)], {5}, 0)
@example([("XII", 1.0), ("IIZ", 0.25)], set(range(8)), 0)
def test_block_product_gives_the_bits_of_a_sparse_product(pairs, support, seed):
    # each row adds its terms one at a time in column order, as scipy's CSR
    # product does, so V, V^H and the restriction give the bits of a CSR
    # product
    from scipy import sparse

    h = PauliSum(3, [PauliString.from_label(lab, c) for lab, c in pairs])
    sector = Sector.closure(h, _state_on(support))
    x = random_state(3, np.random.default_rng(seed))[:len(sector)]
    for b in sector.eigh(h)[1:]:
        dense = _dense(b, len(sector))
        if not dense.imag.any():
            dense = dense.real
        kept = sparse.csr_matrix((dense[b.rows, b.cols], (b.rows, b.cols)),
                                 shape=dense.shape)
        ones = sparse.csr_matrix((np.ones(b.ones.size), (b.ones, b.ones)),
                                 shape=dense.shape)
        assert (b @ x).tobytes() == ((kept + ones) @ x).tobytes()
    assert (sector.restrict(h) @ x).tobytes() == (
        sparse.csr_matrix(sector.dense(h)) @ x).tobytes()


@settings(max_examples=25, deadline=None)
@given(terms3, terms3, supports, st.integers(0, 2**31 - 1))
@example([("XYZ", 0.7), ("ZII", 0.3)], [("XYZ", -0.7), ("IZI", 1.0)], {5}, 0)  # cancels
@example([("XXI", 0.5)], [("YXI", -0.3)], {0, 3}, 1)  # real plus complex
def test_sum_of_restrictions_is_the_restriction_of_the_sum(a, b, support, seed):
    # the sum keeps one entry per position, each row's in column order, so
    # its product gives the bits of a CSR product of the summed matrix
    from scipy import sparse

    ha, hb = (PauliSum(3, [PauliString.from_label(lab, c) for lab, c in pairs])
              for pairs in (a, b))
    sector = Sector.closure_under([ha, hb], _state_on(support))
    total = sector.restrict(ha) + sector.restrict(hb)
    dense = sector.dense(ha) + sector.dense(hb)
    assert np.array_equal(_dense(total, len(sector)), dense)
    assert np.all(total.re + (0 if total.im is None else total.im) != 0)
    assert np.all(np.diff(total.cols * len(sector) + total.rows) > 0)
    x = random_state(3, np.random.default_rng(seed))[:len(sector)]
    assert (total @ x).tobytes() == (sparse.csr_matrix(dense) @ x).tobytes()


def test_sum_refuses_one_state_blocks():
    # a diagonal op's eigenvectors are one-state blocks, kept as `ones`
    h = PauliSum(3, [PauliString.from_label("ZZI", 0.5)])
    sector = Sector.closure(h, _state_on({0, 3, 6}))
    v = sector.eigh(h)[1]
    assert v.ones.size == 3
    with pytest.raises(ValueError, match="one-state blocks"):
        sector.restrict(h) + v


def test_eigh_rejects_a_block_wider_than_its_limit():
    # the L = 3 total H reaches 600 states from one basis state, all in one
    # block; on a random 12-qubit state the L = 2 H's widest block is 104
    spec = _published_spec(3, 1)
    h = build_hamiltonian(spec).total
    with pytest.raises(ValueError, match="block of 600 states"):
        exp_sum_apply(h, 0.1, sc_state(spec))
    l2 = _published_spec(2, 1)
    v = StateVector(random_state(l2.n_qubits, np.random.default_rng(5)))
    assert exp_sum_apply(build_hamiltonian(l2).total, 0.1, v).norm() == (
        pytest.approx(1.0, abs=1e-12))


def test_exp_sum_apply_stays_inside_the_closure():
    # the L = 3 reference layers from the strong-coupling state, both FSWAP
    # colours of the 0 -> 1 move, then each factor of an order-2 Trotter step
    from su2lgt.ansatz import REFERENCE_SEQUENCES, sequence_from_names

    spec = _published_spec(3, 1)
    steps = [(ly.name, ly.generator, ly.theta) for ly in
             sequence_from_names(spec, *REFERENCE_SEQUENCES[3, 1]).layers]
    steps += [(f"fswap c={c}", _fswap_generator(spec, 0, c), np.pi / 4.0)
              for c in range(spec.Nc)]
    steps += [(f"trotter {k} {f.kind}", f.generator, f.fraction)
              for k, f in enumerate(trotter_schedule(spec, 2))]
    state = sc_state(spec)
    for name, gen, theta in steps:
        out = exp_sum_apply(gen, theta, state)
        outside = np.ones(out.amps.size, dtype=bool)
        outside[Sector.closure(gen, state).indices] = False
        assert not np.any(out.amps[outside]), name
        assert out.norm() == pytest.approx(1.0, abs=1e-12), name
        state = out


def _generator_steps(spec):
    """(name, generator, angle) for every reference layer, both FSWAP colours
    of the 0 -> 1 move (L >= 2) and every order-2 Trotter factor."""
    from su2lgt.ansatz import REFERENCE_SEQUENCES, sequence_from_names

    steps = [(ly.name, ly.generator, ly.theta) for ly in sequence_from_names(
        spec, *REFERENCE_SEQUENCES[spec.L, spec.n_Q]).layers]
    if spec.L >= 2:
        steps += [(f"fswap c={c}", _fswap_generator(spec, 0, c), np.pi / 4.0)
                  for c in range(spec.Nc)]
    return steps + [(f"trotter {k} {f.kind}", f.generator, f.fraction)
                    for k, f in enumerate(trotter_schedule(spec, 2))]


@pytest.mark.parametrize("L", [1, 2])
def test_exp_sum_apply_matches_expm_of_the_restriction(L):
    # a seeded state on the whole register at L = 1, the prepared state at L = 2
    from scipy.linalg import expm

    from su2lgt.ansatz import prepared_state

    spec = _published_spec(L, 1)
    state = (StateVector(random_state(spec.n_qubits, np.random.default_rng(11)))
             if L == 1 else prepared_state(spec))
    for name, gen, theta in _generator_steps(spec):
        sector = Sector.closure(gen, state)
        oracle = expm(-1j * theta * sector.dense(gen)) @ sector.extract(state)
        got = exp_sum_apply(gen, theta, state)
        assert np.abs(got.amps[sector.indices] - oracle).max() < 1e-12, name


def _one_call_per_generator(chain, state):
    for gen, theta in chain:
        state = exp_sum_apply(gen, theta, state)
    return state


def _chain_cases():
    """(name, chain function, the same chain as (generator, angle) pairs,
    start) for the reference sequence of every heavy layout at L = 1 and 2
    (the published sequence of the layout's L; full, cut short by upto and
    with zero angles), the FSWAP move at L = 2 and orders 1 and 2 of the
    Trotter step on the prepared and moved states; at L = 3 the same on
    the published layout."""
    from su2lgt.ansatz import REFERENCE_SEQUENCES, sequence_from_names
    from su2lgt.dynamics import fswap_move, trotter_step

    layouts = [(1, ()), (1, (0,)), (2, ()), (2, (0,)), (2, (1,)), (2, (0, 1)),
               (3, (0,))]
    for L, heavy in layouts:
        spec = LatticeSpec(L=L, heavy_positions=frozenset(heavy))
        seq = sequence_from_names(spec, *REFERENCE_SEQUENCES[L, 1])
        tag = f"L={L} heavy={heavy}"

        def layers(s, upto=None):
            return [(ly.generator, ly.theta) for ly in s.layers[:upto]]

        zeroed = seq.with_angles(np.where(np.arange(len(seq.layers)) % 2, 0.0,
                                          seq.angles))
        yield f"{tag} sequence", seq.apply, layers(seq), sc_state(spec)
        yield f"{tag} upto", lambda s, q=seq: q.apply(s, upto=1), layers(seq, 1), sc_state(spec)
        yield f"{tag} zero angles", zeroed.apply, layers(zeroed), sc_state(spec)
        states = {"prepared": seq.apply(sc_state(spec))}
        if L >= 2:
            moves = [(_fswap_generator(spec, 0, c), np.pi / 4.0) for c in range(spec.Nc)]
            yield (f"{tag} fswap", lambda s, sp=spec: fswap_move(s, sp, 0, 1), moves,
                   states["prepared"])
            states["moved"] = fswap_move(states["prepared"], spec, 0, 1)
        for order in (1, 2):
            factors = [(f.generator, f.fraction * 0.7) for f in trotter_schedule(spec, order)]
            for name, state in states.items():
                yield (f"{tag} trotter order {order} on {name}",
                       lambda s, sp=spec, o=order: trotter_step(s, sp, 0.7, order=o),
                       factors, state)


def test_chains_give_the_bits_of_one_call_per_generator():
    # each chain runs on one sector closed under all of its generators; the
    # loop closes, decomposes and embeds once per generator
    cases = list(_chain_cases())
    assert len(cases) == 50
    for name, chain, pairs, start in cases:
        got = chain(start).amps
        assert got.tobytes() == _one_call_per_generator(pairs, start).amps.tobytes(), name


def test_a_state_no_step_fills_holds_a_plain_zero():
    # X0 reaches |11> from |01>, which no step fills; the last step meets
    # |11> alone with phase e^{3i}, whose product with 0 is -0 + 0i
    def gen(*pairs):
        return PauliSum(2, [PauliString.from_label(label, c) for label, c in pairs])

    chain = [(gen(("XI", 1.0)), 0.3), (gen(("IX", 1.0), ("ZX", 1.0)), 0.4),
             (gen(("ZI", 1.0)), 3.0)]
    start = StateVector.from_ket("00")
    got = exp_chain_apply(chain, start)
    assert got.amps[0b11] == 0
    assert got.amps.tobytes() == _one_call_per_generator(chain, start).amps.tobytes()


def test_chains_reject_what_one_call_rejects():
    from su2lgt.ansatz import AnsatzSequence, Layer

    gen = PauliSum(2, [PauliString.from_label("XX"), PauliString.from_label("YY")])
    bad = PauliSum(2, [PauliString.from_label("XZ"), PauliString.from_label("YY", 0.5j)])
    start = StateVector.from_ket("01")
    with pytest.raises(ValueError, match="Hermitian"):
        AnsatzSequence([Layer("a", gen, 0.3), Layer("b", bad, 0.2)]).apply(start)
    with pytest.raises(ValueError, match="finite angle"):
        AnsatzSequence([Layer("a", gen, 0.3), Layer("b", gen, np.nan)]).apply(start)
    # a generator the chain skips (angle 0) is still checked, as one call checks it
    with pytest.raises(ValueError, match="Hermitian"):
        AnsatzSequence([Layer("a", bad, 0.0)]).apply(start)


def test_extract_embed_roundtrip_and_full_support():
    rng = np.random.default_rng(3)
    spec = LatticeSpec(L=1, heavy_positions=frozenset({0}))
    h = build_hamiltonian(spec).total
    v = StateVector(random_state(spec.n_qubits, rng))
    sector = Sector.closure(h, v)
    assert len(sector) == 1 << spec.n_qubits
    assert np.array_equal(sector.embed(sector.extract(v)).amps, v.amps)


def test_exact_paths_never_compile_the_full_register(monkeypatch):
    def refuse(self, *args):
        raise AssertionError(f"a {self.n}-qubit PauliSum acted on the full register")

    # matvec, apply and expectation go through _scatter
    monkeypatch.setattr(PauliSum, "_scatter", refuse)
    monkeypatch.setattr(PauliSum, "matvec", refuse)
    monkeypatch.setattr(PauliSum, "to_dense", refuse)
    spec = LatticeSpec(L=2, heavy_positions=frozenset({0}))
    h = build_hamiltonian(spec).total
    _, psi = lanczos_ground(h, sc_state(spec))
    moved = evolve_exact(psi, h, 0.5)
    assert moved.norm() == pytest.approx(1.0, abs=1e-10)
    run = run_protocol(spec, MotionSchedule(events=((0.0, 0, 1),), horizon=1.0,
                                            dt=0.5), initial=psi)
    assert [r.t for r in run.records] == [0.0, 0.5, 1.0]
