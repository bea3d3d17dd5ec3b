"""Unit tests for the symplectic Pauli layer.

The multiplication, commutation, and tensor rules are checked against an
independent dense-matrix oracle: every algebraic identity asserted here
is re-derived from literal 2^n x 2^n numpy matrices.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dcqd.pauli as pl
from oracles import MAX_DENSE_QUBITS, MatrixSizeError, to_matrix

LETTERS = "IXYZ"


def random_pauli(rng, n):
    x = tuple(int(b) for b in rng.integers(0, 2, n))
    z = tuple(int(b) for b in rng.integers(0, 2, n))
    return pl.PauliOperator(n, x, z, int(rng.integers(0, 4)))


def test_identity_letters_and_matrix():
    op = pl.identity(3)
    assert op.letters == "III"
    assert op.phase == 0
    assert np.array_equal(to_matrix(op), np.eye(8))


def test_single_site_letters():
    op = pl.single_site(4, 2, "Y")
    assert op.letters == "IYII"


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
    # every 1- and 2-qubit pair with every phase, then random draws up to
    # n = 4; the entries are 0, +-1 and +-i, so the products are exact
    pairs = []
    for n in (1, 2):
        bits = list(product((0, 1), repeat=n))
        ops = [pl.PauliOperator(n, x, z, phase) for x in bits for z in bits for phase in range(4)]
        pairs += product(ops, repeat=2)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        pairs.append((random_pauli(rng, n), random_pauli(rng, n)))
    for a, b in pairs:
        assert np.array_equal(to_matrix(pl.multiply(a, b)), to_matrix(a) @ to_matrix(b))


def test_multiply_dimension_mismatch():
    with pytest.raises(pl.DimensionMismatchError):
        pl.multiply(pl.identity(2), pl.identity(3))


def test_commutes_matches_matrix_oracle(rng):
    for _ in range(150):
        n = int(rng.integers(1, 5))
        a = random_pauli(rng, n)
        b = random_pauli(rng, n)
        ma, mb = to_matrix(a), to_matrix(b)
        assert pl.commutes(a, b) == bool(np.allclose(ma @ mb, mb @ ma, atol=1e-12))


def test_tensor_matches_kron(rng):
    for _ in range(80):
        a = random_pauli(rng, int(rng.integers(1, 4)))
        b = random_pauli(rng, int(rng.integers(1, 4)))
        t = pl.tensor(a, b)
        assert t.n == a.n + b.n
        assert np.allclose(to_matrix(t), np.kron(to_matrix(a), to_matrix(b)), atol=1e-12)


def test_site_one_is_most_significant():
    # X on site 1 of two sites flips the HIGH-order qubit
    m = to_matrix(pl.single_site(2, 1, "X"))
    vec = np.zeros(4)
    vec[0b00] = 1.0
    assert np.argmax(np.abs(m @ vec)) == 0b10


def test_phase_prefix_formatting():
    op = pl.parse_pauli("iXY")
    assert str(op) == "iXY"
    assert str(pl.parse_pauli("-XY")) == "-XY"
    assert str(pl.parse_pauli("-iXY")) == "-iXY"


def test_to_matrix_size_guard():
    big = pl.identity(MAX_DENSE_QUBITS + 1)
    with pytest.raises(MatrixSizeError):
        to_matrix(big)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text(LETTERS, min_size=1, max_size=6), st.integers(0, 3))
def test_monomial_is_the_dense_matrix(letters, phase):
    # the same bytes in column perm[i] of row i, and exact zeros elsewhere
    body = pl.parse_pauli(letters)
    op = pl.PauliOperator(body.n, body.x, body.z, phase)
    dense = to_matrix(op)
    perm, coef = pl.monomial(op)
    rows = np.arange(len(dense))
    assert dense[rows, perm].tobytes() == coef.tobytes()
    off = np.ones(dense.shape, dtype=bool)
    off[rows, perm] = False
    assert not dense[off].any() and coef.all()


def test_pauli_matrices_are_read_only():
    from dcqd.analysis import apply_single_qubit_block
    from dcqd.channels import depolarizing, theoretical_chi_ad

    rho = np.diag([1.0, 0.0]).astype(np.complex128)

    def readers():
        channel = depolarizing(0.1, 1, 1)
        block = apply_single_qubit_block(theoretical_chi_ad(0.4), rho)
        return to_matrix(pl.parse_pauli("X")), channel.perm, channel.coef, block

    before = readers()
    for matrix in pl.PAULI_MATRICES.values():
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1
    for old, new in zip(before, readers()):
        assert np.array_equal(old, new)
    assert np.array_equal(before[0], [[0, 1], [1, 0]])
