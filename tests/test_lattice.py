import pytest

from su2lgt import LatticeSpec


def test_sizes_and_indexing():
    spec = LatticeSpec(L=3, heavy_positions=frozenset({0}))
    assert spec.n_staggered == 9
    assert spec.n_qubits == 18
    # qubit index is Nc * n + c for staggered site n and color c
    for n in range(9):
        for c in range(2):
            assert spec.fermion_index(n, c) == 2 * n + c


def test_staggered_roles():
    spec = LatticeSpec(L=2)
    assert spec.staggered_sites("Q") == [0, 3]
    assert spec.staggered_sites("q") == [1, 4]
    assert spec.staggered_sites("qbar") == [2, 5]
    assert LatticeSpec.role(0) == "Q"
    assert LatticeSpec.role(1) == "q"
    assert LatticeSpec.role(2) == "qbar"


def test_heavy_qubits():
    spec = LatticeSpec(L=3, heavy_positions=frozenset({0, 2}))
    assert spec.qubits_of(4) == [8, 9]
    assert spec.n_Q == 2


def test_default_couplings():
    spec = LatticeSpec(L=2)
    assert spec.g == 1.0
    assert spec.mq == pytest.approx(0.1)
    assert spec.mQ == 0.0
    assert spec.penalty_strength == pytest.approx(20.0 * spec.g**2)
    assert LatticeSpec(L=2, g=0.5).penalty_strength == pytest.approx(5.0)
    assert LatticeSpec(L=2, lambda2=7.5).penalty_strength == pytest.approx(7.5)


def test_validation_errors():
    with pytest.raises(ValueError):
        LatticeSpec(L=0)
    with pytest.raises(ValueError):
        LatticeSpec(L=2, g=-1.0)
    with pytest.raises(ValueError):
        LatticeSpec(L=2, lambda2=-1.0)
    with pytest.raises(ValueError):
        LatticeSpec(L=2, heavy_positions=frozenset({5}))
    # a Pauli term's masks are int64: 10 sites (60 qubits) fit, 11 do not
    assert LatticeSpec(L=10).n_qubits == 60
    with pytest.raises(ValueError, match="at most 63"):
        LatticeSpec(L=11)


def test_with_heavy():
    spec = LatticeSpec(L=3).with_heavy(0, 2)
    assert spec.heavy_positions == frozenset({0, 2})
    assert spec.with_heavy().heavy_positions == frozenset()
