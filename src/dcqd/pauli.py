"""Pauli operators in symplectic (binary) form.

An n-qubit Pauli operator is stored as two length-n bit vectors ``x`` and
``z`` plus a phase exponent ``e``, with the operator equal to

    i**e * L_1 (x) L_2 (x) ... (x) L_n

where the letter on each site is fixed by the bit pair (x_q, z_q):
(0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z.  The letter Y means the
Hermitian Pauli matrix, not the product XZ: the letter with bits (x, z)
is i**(x*z) X**x Z**z, which is how ``multiply`` reads it.

Sites are numbered 1..n in every public API.  Site 1 is the leftmost
letter in string form and the most significant tensor factor in matrix
form.  Internal tuples are 0-indexed; the offset never leaks out.

Two Paulis commute iff the symplectic inner product

    sum_q a.x[q] * b.z[q] + a.z[q] * b.x[q]   (mod 2)

vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "PauliOperator",
    "PauliParseError",
    "DimensionMismatchError",
    "PAULI_MATRICES",
    "identity",
    "single_site",
    "parse_pauli",
    "multiply",
    "commutes",
    "tensor",
    "monomial",
]

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
# shared by every reader, so a write here would corrupt them all
for _matrix in PAULI_MATRICES.values():
    _matrix.setflags(write=False)


class PauliParseError(ValueError):
    """Raised for malformed operator strings; carries the 1-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class PauliOperator:
    """Immutable n-qubit Pauli with an explicit i**phase prefactor."""

    n: int
    x: tuple
    z: tuple
    phase: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one site, got n={self.n}")
        if len(self.x) != self.n or len(self.z) != self.n:
            raise DimensionMismatchError(
                f"bit vectors must have length {self.n}, got {len(self.x)} and {len(self.z)}"
            )
        if any(b not in (0, 1) for b in self.x) or any(b not in (0, 1) for b in self.z):
            raise ValueError("bit vectors must contain only 0 and 1")
        object.__setattr__(self, "x", tuple(int(b) for b in self.x))
        object.__setattr__(self, "z", tuple(int(b) for b in self.z))
        object.__setattr__(self, "phase", int(self.phase) % 4)

    @property
    def letters(self) -> str:
        return "".join(_BITS_LETTER[(xb, zb)] for xb, zb in zip(self.x, self.z))

    def __str__(self) -> str:
        """Canonical string: phase prefix from {'', 'i', '-', '-i'} plus letters."""
        return _PHASE_PREFIX[self.phase] + self.letters

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, (0,) * n, (0,) * n, 0)


def single_site(n: int, site: int, letter: str, phase: int = 0) -> PauliOperator:
    """One non-identity letter at a 1-based site, identities elsewhere."""
    if letter not in _LETTER_BITS:
        raise ValueError(f"unknown letter {letter!r}")
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    x = [0] * n
    z = [0] * n
    x[site - 1], z[site - 1] = _LETTER_BITS[letter]
    return PauliOperator(n, tuple(x), tuple(z), phase)


def parse_pauli(text: str) -> PauliOperator:
    """Parse a string like ``-iXYZI`` into an operator.

    Accepted phase prefixes: '', '+', '-', 'i', '+i', '-i'.  The rest of
    the string must be letters from IXYZ.  Errors report the 1-based
    character position in the original string.
    """
    s = text.strip()
    if not s:
        raise PauliParseError("empty operator string", 1)
    phase = 0
    offset = 0
    for prefix, exp in (("-i", 3), ("+i", 1), ("-", 2), ("+", 0), ("i", 1)):
        if s.startswith(prefix) and len(s) > len(prefix):
            phase = exp
            offset = len(prefix)
            break
    body = s[offset:]
    if not body:
        raise PauliParseError("no letters after phase prefix", offset + 1)
    x, z = [], []
    for k, ch in enumerate(body):
        if ch not in _LETTER_BITS:
            raise PauliParseError(f"invalid letter {ch!r}", offset + k + 1)
        xb, zb = _LETTER_BITS[ch]
        x.append(xb)
        z.append(zb)
    return PauliOperator(len(body), tuple(x), tuple(z), phase)


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product a*b with exact phase tracking."""
    if a.n != b.n:
        raise DimensionMismatchError(f"cannot multiply operators on {a.n} and {b.n} sites")
    x = tuple(x1 ^ x2 for x1, x2 in zip(a.x, b.x))
    z = tuple(z1 ^ z2 for z1, z2 in zip(a.z, b.z))
    # per site, i^(x1 z1) X^x1 Z^z1 * i^(x2 z2) X^x2 Z^z2 = i^(x1 z1 + x2 z2 + 2 z1 x2) X^x3 Z^z3,
    # since Z^z1 X^x2 = (-1)^(z1 x2) X^x2 Z^z1, and X^x3 Z^z3 = i^(-x3 z3) times the letter
    phase = a.phase + b.phase + sum(
        x1 * z1 + x2 * z2 - x3 * z3 + 2 * z1 * x2
        for x1, z1, x2, z2, x3, z3 in zip(a.x, a.z, b.x, b.z, x, z)
    )
    return PauliOperator(a.n, x, z, phase % 4)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    if a.n != b.n:
        raise DimensionMismatchError(f"cannot compare operators on {a.n} and {b.n} sites")
    acc = 0
    for q in range(a.n):
        acc ^= (a.x[q] & b.z[q]) ^ (a.z[q] & b.x[q])
    return acc == 0


def tensor(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Tensor product with a on the left (lower site numbers)."""
    return PauliOperator(a.n + b.n, a.x + b.x, a.z + b.z, (a.phase + b.phase) % 4)


def monomial(op: PauliOperator) -> tuple:
    """(perm, coef) with op[i, perm[i]] = coef[i] the one nonzero entry of
    row i, site 1 the most significant factor; coef multiplies the
    letters' entries in the order a dense Kronecker product does."""
    x_mask = int("".join(map(str, op.x)), 2)
    rows = (PAULI_MATRICES[ch][[0, 1], [xb, 1 - xb]] for ch, xb in zip(op.letters, op.x))
    return np.arange(2 ** op.n) ^ x_mask, (1j ** op.phase) * reduce(np.kron, rows)
