"""Unit tests for the stabilizer codes and their error bookkeeping."""

import numpy as np
import pytest

from dcqd import pauli
from dcqd.codes import (
    CodeConstructionError,
    StabilizerCode,
    UnsupportedCodeError,
    build_s0,
    build_s1,
    build_s422,
    codeword_state,
    located_error_table,
    syndrome_basis,
    syndrome_of_error,
)
from dcqd.pauli import commutes, parse_pauli, single_site
from oracles import located_hamming_bound, qec_condition_matrix, to_matrix

S1_GENERATORS = ("IIXXXX", "IIZZZZ", "XIXXII", "ZIZIZI", "IXIXIX", "IZIIZZ")
S1_SUPPORT = {
    "000000", "001111", "010101", "011010",
    "100011", "101100", "110110", "111001",
}


def test_s0_generators_frozen():
    code = build_s0()
    assert tuple(str(g) for g in code.generators) == ("XIXI", "IXIX", "ZIZI", "IZIZ")
    assert code.n == 4 and code.r == 4 and code.k == 0
    assert code.n_principal == 2
    assert code.ancilla_sites == range(3, 5)
    assert code.detection_prefix == 0


def test_s422_generators_frozen():
    code = build_s422()
    assert tuple(str(g) for g in code.generators) == ("XXXX", "ZZZZ")
    assert code.n == 4 and code.k == 2
    assert tuple(str(g) for g in code.logical_x) == ("XXII", "IXIX")
    assert tuple(str(g) for g in code.logical_z) == ("ZIZI", "IIZZ")
    for lx, lz in zip(code.logical_x, code.logical_z):
        assert not commutes(lx, lz)
    assert commutes(code.logical_x[0], code.logical_z[1])
    assert commutes(code.logical_x[1], code.logical_z[0])


def test_s1_generators_frozen():
    code = build_s1()
    assert tuple(str(g) for g in code.generators) == S1_GENERATORS
    assert code.n == 6 and code.r == 6 and code.k == 0
    assert code.n_principal == 2
    assert code.ancilla_sites == range(3, 7)
    assert code.detection_prefix == 2


def test_s1_equals_explicit_concatenation():
    from dcqd.codes import concatenate_ancilla

    direct = concatenate_ancilla(build_s0(), build_s422())
    assert tuple(str(g) for g in direct.generators) == S1_GENERATORS
    assert direct.detection_prefix == 2


def test_generator_validation():
    with pytest.raises(CodeConstructionError):
        StabilizerCode(
            label="bad",
            n=2,
            generators=(parse_pauli("XI"), parse_pauli("ZI")),
            n_principal=1,
        )
    with pytest.raises(CodeConstructionError):
        StabilizerCode(
            label="dep",
            n=2,
            generators=(parse_pauli("XX"), parse_pauli("XX")),
            n_principal=1,
        )


@pytest.mark.parametrize("n_principal", [-1, 3])
def test_principal_block_must_fit_the_register(n_principal):
    with pytest.raises(CodeConstructionError, match="n_principal"):
        StabilizerCode(label="bad", n=2, generators=(parse_pauli("XX"),), n_principal=n_principal)


@pytest.mark.parametrize(
    "letters",
    [
        # YYYY is the product XXXX ZZZZ up to phase
        ("XXXX", "ZZZZ", "YYYY"),
        # no two are equal and no pair multiplies to a third, but
        # XXII IXXI IIXX = XIIX
        ("XXII", "IXXI", "IIXX", "XIIX"),
    ],
    ids=["pair-product", "three-term-product"],
)
def test_dependent_generators_are_rejected(letters):
    # every pair commutes, so only the independence check can refuse them
    with pytest.raises(CodeConstructionError, match="not independent"):
        StabilizerCode(
            label="dep",
            n=4,
            generators=tuple(parse_pauli(s) for s in letters),
            n_principal=0,
        )


def test_s0_codeword_support():
    v = codeword_state(build_s0())
    nz = {format(i, "04b"): v[i] for i in range(16) if abs(v[i]) > 1e-12}
    assert set(nz) == {"0000", "0101", "1010", "1111"}
    for amp in nz.values():
        assert abs(amp - 0.5) < 1e-12


def test_s1_codeword_support_and_amplitude():
    v = codeword_state(build_s1())
    nz = {format(i, "06b"): v[i] for i in range(64) if abs(v[i]) > 1e-12}
    assert set(nz) == S1_SUPPORT
    target = 1 / np.sqrt(8)
    for amp in nz.values():
        assert abs(amp - target) < 1e-10


def test_codeword_is_stabilized():
    for code in (build_s0(), build_s1()):
        v = codeword_state(code)
        for g in code.generators:
            assert np.allclose(to_matrix(g) @ v, v, atol=1e-12)


def test_codeword_is_cached_and_read_only():
    v = codeword_state(build_s1())
    assert codeword_state(build_s1()) is v
    with pytest.raises(ValueError):
        v[0] = 0.0


def test_codeword_requires_k0():
    with pytest.raises(UnsupportedCodeError):
        codeword_state(build_s422())


def test_syndrome_examples():
    s1 = build_s1()
    cases = {
        "XIIIII": "000100",
        "IXIIII": "000001",
        "XXIIII": "000101",
        "XYIIII": "000111",
        "ZZIIII": "001010",
        "ZXIIII": "001001",
        "IIXIII": "010100",
    }
    for text, syn in cases.items():
        assert format(syndrome_of_error(s1, parse_pauli(text)), "06b") == syn
    # ancilla X on site 3 trips the first detection-prefix bit pair
    anc = syndrome_of_error(s1, single_site(6, 3, "X"))
    assert s1.detector_bits(anc) != 0


def test_located_table_rows_distinct_and_prefix_clean():
    s1 = build_s1()
    rows = located_error_table(s1)
    assert len(rows) == 16
    assert [idx for idx, _, _ in rows] == list(range(16))
    syns = [s for _, _, s in rows]
    assert len(set(syns)) == 16
    assert all(0 <= syn < 2 ** s1.r for syn in syns)
    assert all(s1.detector_bits(syn) == 0 for syn in syns)
    assert located_error_table(s1) is rows


def test_located_table_s0_uses_every_syndrome():
    rows = located_error_table(build_s0())
    ints = {syn for _, _, syn in rows}
    assert ints == set(range(16))


def test_syndrome_basis_rows_carry_their_syndrome_signs():
    # g_j b_s = (-1)^(bit j of s) b_s, the first generator the most
    # significant bit, checked on the dense generator matrices
    for code in (build_s0(), build_s1()):
        basis = syndrome_basis(code)
        assert basis.shape == (2 ** code.r, 2 ** code.n)
        for j, g in enumerate(code.generators):
            signs = 1 - 2 * ((np.arange(2 ** code.r) >> (code.r - 1 - j)) & 1)
            assert np.allclose(basis @ to_matrix(g).T, signs[:, None] * basis, atol=1e-12)


def test_syndrome_basis_needs_k0_and_shares_the_codeword():
    with pytest.raises(UnsupportedCodeError):
        syndrome_basis(build_s422())
    for code in (build_s0(), build_s1()):
        basis = syndrome_basis(code)
        assert syndrome_basis(code) is basis
        assert codeword_state(code).tobytes() == basis[0].tobytes()
        with pytest.raises(ValueError):
            basis[1, 0] = 0.0


def test_qec_condition_located_errors_orthogonal():
    for code in (build_s0(), build_s1()):
        gram = qec_condition_matrix(code)
        assert np.allclose(gram, np.eye(16), atol=1e-10)


def test_hamming_bound_values():
    s0 = located_hamming_bound(n_principal=2, k=0, n=4)
    assert s0.satisfied and s0.saturated
    assert s0.lhs == 16 and s0.rhs == 16 and s0.margin == 0
    s1 = located_hamming_bound(n_principal=2, k=0, n=6)
    assert s1.satisfied and not s1.saturated
    assert s1.lhs == 16 and s1.rhs == 64 and s1.margin == 48


def test_generators_commute_pairwise():
    for code in (build_s0(), build_s422(), build_s1()):
        gens = code.generators
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                assert commutes(gens[a], gens[b])
