"""Every operator the package builds, pinned bit for bit.

Each operator's terms are hashed in canonical (x, z) order: the two masks and
the raw bits of the real and imaginary parts of the coefficient, signed zeros
included.  Its `to_text()` is hashed on its own.  The digests were taken from
the dict-of-terms implementation that the array form replaced.
"""
import hashlib
import struct

from su2lgt.ansatz import build_pool
from su2lgt.dynamics import _fswap_generator, trotter_schedule
from su2lgt.hamiltonian import build_gauge_sym, build_hamiltonian
from su2lgt.lattice import LatticeSpec
from su2lgt.observables import delta_hg_operator, energy_loss_estimator


def _specs():
    """L <= 3 and every placement of at most two heavy quarks, at a dyadic
    and a non-dyadic g; plus Nc = 3 at L = 1, whose charge algebra is not
    dyadic."""
    for g in (1.0, 0.7):
        for L in (1, 2, 3):
            for heavy in ([()] + [(x,) for x in range(L)]
                          + [(x, y) for x in range(L) for y in range(x + 1, L)]):
                yield LatticeSpec(L=L, g=g, heavy_positions=frozenset(heavy))
        yield LatticeSpec(L=1, Nc=3, g=g, heavy_positions=frozenset({0}))


def _corpus():
    """(family, operator) for every operator of the corpus, in a fixed order."""
    for spec in _specs():
        terms = build_hamiltonian(spec)
        for op in terms.as_dict().values():
            yield "hamiltonian", op
        yield "hamiltonian", terms.total
        yield "gauge_sym", build_gauge_sym(spec)
        if spec.Nc != 2:
            continue
        for order in (1, 2):
            for factor in trotter_schedule(spec, order):
                yield "trotter", factor.generator
        if spec.L >= 3 and spec.heavy_positions == {0}:
            yield "delta_hg", delta_hg_operator(spec)
            for group in energy_loss_estimator(spec):
                yield "estimator", group.as_pauli_sum(spec.n_qubits)
        if not spec.heavy_positions and spec.g == 1.0:
            for member in build_pool(spec):
                yield "pool", member.sum
            for x in range(spec.L - 1):
                for c in range(spec.Nc):
                    yield "fswap", _fswap_generator(spec, x, c)


def _digests():
    bits, text = {}, {}
    for family, op in _corpus():
        b = bits.setdefault(family, hashlib.sha256())
        t = text.setdefault(family, hashlib.sha256())
        b.update(struct.pack("<q", op.n))
        for term in op.terms():
            b.update(struct.pack("<qqdd", term.x, term.z, term.coeff.real,
                                 term.coeff.imag))
        b.update(b"|")
        t.update(op.to_text().encode() + b"|")
    return ({k: v.hexdigest() for k, v in bits.items()},
            {k: v.hexdigest() for k, v in text.items()})


_BITS_SHA256 = {
    "delta_hg": "484e6a98685cea50e11fb8ac863a5b024de3764349f08f2c72e94437693d1ed8",
    "estimator": "86ddb8a1e6f5a4a8f87be6f9c6e78186184473f9e134ef70ab8064cc7c8589be",
    "fswap": "fa9b4479fb21c46b2d129c62d5f9354430319dcdb88d8e85107edebbeb228403",
    "gauge_sym": "1f0e404f0d870759a1a0b6ebb9e762bccf74c12f570a1988ed3f87080d1178dd",
    "hamiltonian": "cd62fd4eb46dc3880d3a39b7793871cd4570e982272ac557f1ddafe1b32d3be5",
    "pool": "3a048064419a6c0baf43d41b1cd1bd0409a7d4c7c37c7b9520afcc078f14098a",
    "trotter": "67a70df4b94a768387268d8599ee4443864692137f30f2e7c351dfb5108f7c64",
}

_TEXT_SHA256 = {
    "delta_hg": "54294a799cbaad49c7286d43db22eca130f3036044e961a464ca845418a927ed",
    "estimator": "3a2ff1ff9340417abcc7bc3e00850b3cf69370051c866d10e8463d4d8d56587b",
    "fswap": "2a74f6f63397ae4b81e7463b84209221788a6e51bc48fdca08a6d2b8e85c56dd",
    "gauge_sym": "c72f582f9a0d0ac00ea8109edf31de406356a86a106f465aba12ceed3acb4ff5",
    "hamiltonian": "91472a3d137b7a11ab5535d094f08d0b46676203fa05e76cd28538c23d405f65",
    "pool": "60be1e380c49f663385bd9be6a266841e4d93184b49662c0357700182552d243",
    "trotter": "32bfe0b0241df243aeeead528590439553cde2eaeceb7cb7266af03370303fec",
}


def test_every_operator_keeps_its_bits():
    bits, text = _digests()
    assert bits == _BITS_SHA256
    assert text == _TEXT_SHA256
