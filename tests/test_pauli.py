"""Unit tests for the symplectic Pauli layer.

The multiplication, commutation, and tensor rules are checked against an
independent dense-matrix oracle: every algebraic identity asserted here
is re-derived from literal 2^n x 2^n numpy matrices.
"""

import numpy as np
import pytest

import dcqd.pauli as pl

LETTERS = "IXYZ"


def random_pauli(rng, n):
    x = tuple(int(b) for b in rng.integers(0, 2, n))
    z = tuple(int(b) for b in rng.integers(0, 2, n))
    return pl.PauliOperator(n, x, z, int(rng.integers(0, 4)))


def test_identity_letters_and_matrix():
    op = pl.identity(3)
    assert op.letters == "III"
    assert op.phase == 0
    assert np.array_equal(pl.to_matrix(op), np.eye(8))


def test_single_site_letters():
    op = pl.single_site(4, 2, "Y")
    assert op.letters == "IYII"
    assert len(pl.support(op)) == 1


def test_parse_format_round_trip(rng):
    for _ in range(200):
        op = random_pauli(rng, int(rng.integers(1, 6)))
        assert pl.parse_pauli(str(op)) == op


def test_parse_plain_and_prefixed():
    assert pl.parse_pauli("XIZY").letters == "XIZY"
    assert pl.parse_pauli("-iXX").phase == 3
    assert pl.parse_pauli("+iZ").phase == 1
    assert pl.parse_pauli("-Y").phase == 2


def test_parse_rejects_bad_letter_with_position():
    with pytest.raises(pl.PauliParseError) as err:
        pl.parse_pauli("XIQZ")
    assert err.value.position == 3


def test_parse_rejects_empty_body():
    with pytest.raises(pl.PauliParseError):
        pl.parse_pauli("-i")


def test_single_site_product_table():
    # frozen table: XY = iZ, XZ = -iY, YX = -iZ, YZ = iX, ZX = iY, ZY = -iX
    cases = [
        ("X", "Y", "Z", 1),
        ("X", "Z", "Y", 3),
        ("Y", "X", "Z", 3),
        ("Y", "Z", "X", 1),
        ("Z", "X", "Y", 1),
        ("Z", "Y", "X", 3),
        ("X", "X", "I", 0),
        ("Y", "Y", "I", 0),
        ("Z", "Z", "I", 0),
    ]
    for a, b, want, phase in cases:
        prod = pl.multiply(pl.single_site(1, 1, a), pl.single_site(1, 1, b))
        assert prod.letters == want
        assert prod.phase == phase


def test_multiply_matches_matrix_oracle(rng):
    for _ in range(150):
        n = int(rng.integers(1, 5))
        a = random_pauli(rng, n)
        b = random_pauli(rng, n)
        prod = pl.multiply(a, b)
        direct = pl.to_matrix(a) @ pl.to_matrix(b)
        assert np.allclose(pl.to_matrix(prod), direct, atol=1e-12)


def test_multiply_dimension_mismatch():
    with pytest.raises(pl.DimensionMismatchError):
        pl.multiply(pl.identity(2), pl.identity(3))


def test_commutes_matches_matrix_oracle(rng):
    for _ in range(150):
        n = int(rng.integers(1, 5))
        a = random_pauli(rng, n)
        b = random_pauli(rng, n)
        ma, mb = pl.to_matrix(a), pl.to_matrix(b)
        assert pl.commutes(a, b) == bool(np.allclose(ma @ mb, mb @ ma, atol=1e-12))


def test_tensor_matches_kron(rng):
    for _ in range(80):
        a = random_pauli(rng, int(rng.integers(1, 4)))
        b = random_pauli(rng, int(rng.integers(1, 4)))
        t = pl.tensor(a, b)
        assert t.n == a.n + b.n
        assert np.allclose(pl.to_matrix(t), np.kron(pl.to_matrix(a), pl.to_matrix(b)), atol=1e-12)


def test_site_one_is_most_significant():
    # X on site 1 of two sites flips the HIGH-order qubit
    m = pl.to_matrix(pl.single_site(2, 1, "X"))
    vec = np.zeros(4)
    vec[0b00] = 1.0
    assert np.argmax(np.abs(m @ vec)) == 0b10


def test_weight_and_support():
    op = pl.parse_pauli("XIYZ")
    assert len(pl.support(op)) == 3
    assert pl.support(op) == frozenset({1, 3, 4})


def test_phase_prefix_formatting():
    op = pl.parse_pauli("iXY")
    assert str(op) == "iXY"
    assert str(pl.parse_pauli("-XY")) == "-XY"
    assert str(pl.parse_pauli("-iXY")) == "-iXY"


def test_to_matrix_size_guard():
    big = pl.identity(pl.MAX_DENSE_QUBITS + 1)
    with pytest.raises(pl.MatrixSizeError):
        pl.to_matrix(big)


def test_symplectic_vector_layout():
    op = pl.parse_pauli("XZ")
    vec = op.symplectic()
    assert list(vec) == [1, 0, 0, 1]
