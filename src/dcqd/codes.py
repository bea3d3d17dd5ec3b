"""Stabilizer codes for ancilla-filtered process characterization.

Three codes are built here:

* ``build_s0``: the four-qubit probe code whose two principal qubits are
  each Bell-paired with an ancilla qubit.  All sixteen of its syndromes
  are consumed by principal-side (located) errors, so it has no room to
  flag ancilla faults.
* ``build_s422``: the [[4,2,2]] error-detecting code used as the inner
  layer protecting the ancilla pair.
* ``concatenate_ancilla``: replaces the ancilla pair of an outer code by
  logical qubits of an inner code, producing the six-qubit filter code
  whose first two syndrome bits witness ancilla faults.

Sites are 1-based.  A syndrome is a plain int with one bit per
generator, 1 where the error anticommutes with it and the first
generator most significant, so it prints as "010100" with
``f"{syn:06b}"`` and indexes histogram columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import pauli
from .pauli import PauliOperator, identity, multiply, commutes, tensor, parse_pauli
from .process_matrix import BASIS_LABELS

__all__ = [
    "StabilizerCode",
    "CodeConstructionError",
    "UnsupportedCodeError",
    "build_s0",
    "build_s422",
    "build_s1",
    "concatenate_ancilla",
    "syndrome_basis",
    "codeword_state",
    "syndrome_of_error",
    "located_error_table",
]


class CodeConstructionError(ValueError):
    pass


class UnsupportedCodeError(ValueError):
    pass


@dataclass(frozen=True)
class StabilizerCode:
    """Stabilizer code whose first ``n_principal`` sites are the principal
    block and whose remaining sites are the ancilla block.

    ``detection_prefix`` counts leading generators whose syndrome bits
    must vanish for a measurement round to be accepted; it is nonzero
    only for concatenated codes where those generators watch the ancilla.
    """

    label: str
    n: int
    generators: tuple
    n_principal: int
    logical_x: tuple = ()
    logical_z: tuple = ()
    detection_prefix: int = 0

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "logical_x", tuple(self.logical_x))
        object.__setattr__(self, "logical_z", tuple(self.logical_z))
        for g in gens:
            if g.n != self.n:
                raise CodeConstructionError(
                    f"generator {g} acts on {g.n} sites, code has {self.n}"
                )
            if g.phase != 0:
                raise CodeConstructionError(f"generator {g} must carry phase +1")
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                if not commutes(gens[a], gens[b]):
                    raise CodeConstructionError(
                        f"generators {gens[a]} and {gens[b]} anticommute"
                    )
        rows = np.array([g.symplectic() for g in gens], dtype=np.uint8)
        if gens and len(_gf2_eliminate(rows, rows.shape[1])) != len(gens):
            raise CodeConstructionError("generators are not independent over GF(2)")
        if not 0 <= self.n_principal <= self.n:
            raise CodeConstructionError(f"n_principal={self.n_principal} outside 0..{self.n}")
        if not 0 <= self.detection_prefix <= len(gens):
            raise CodeConstructionError("detection prefix out of range")

    @property
    def ancilla_sites(self) -> range:
        return range(self.n_principal + 1, self.n + 1)

    @property
    def r(self) -> int:
        return len(self.generators)

    @property
    def k(self) -> int:
        return self.n - self.r

    def detector_bits(self, syndrome):
        """The detector-prefix bits of a syndrome int (or integer array);
        zero means the round is accepted."""
        return syndrome >> (self.r - self.detection_prefix)


def _gf2_eliminate(m: np.ndarray, cols: int) -> list:
    """Reduce the first ``cols`` columns of ``m`` to reduced row echelon
    form over GF(2), in place, and return the pivot columns."""
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, m.shape[0]) if m[r, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        pivots.append(col)
    return pivots


def build_s0() -> StabilizerCode:
    """Four-qubit probe code: principal qubits 1,2 Bell-paired with 3,4."""
    gens = tuple(parse_pauli(s) for s in ("XIXI", "IXIX", "ZIZI", "IZIZ"))
    return StabilizerCode(
        label="s0",
        n=4,
        generators=gens,
        n_principal=2,
    )


def build_s422() -> StabilizerCode:
    """[[4,2,2]] detection code with standard logical operators."""
    gens = (parse_pauli("XXXX"), parse_pauli("ZZZZ"))
    return StabilizerCode(
        label="s422",
        n=4,
        generators=gens,
        n_principal=0,
        logical_x=(parse_pauli("XXII"), parse_pauli("IXIX")),
        logical_z=(parse_pauli("ZIZI"), parse_pauli("IIZZ")),
    )


def _map_outer_generator(g: PauliOperator, n_principal: int, inner: StabilizerCode) -> PauliOperator:
    """Rewrite an outer generator with each ancilla letter, i^(xz) X^x Z^z
    for bits (x, z), replaced by i^(xz) Xbar^x Zbar^z on its logical qubit
    of the inner code."""
    ancilla = tuple(zip(g.x[n_principal:], g.z[n_principal:]))
    mapped = PauliOperator(inner.n, (0,) * inner.n, (0,) * inner.n, sum(xb * zb for xb, zb in ancilla))
    for (xb, zb), logical_x, logical_z in zip(ancilla, inner.logical_x, inner.logical_z):
        if xb:
            mapped = multiply(mapped, logical_x)
        if zb:
            mapped = multiply(mapped, logical_z)
    if n_principal:
        mapped = tensor(PauliOperator(n_principal, g.x[:n_principal], g.z[:n_principal]), mapped)
    if mapped.phase != 0:
        raise CodeConstructionError(f"mapped generator {mapped} acquired a phase")
    return mapped


def concatenate_ancilla(outer: StabilizerCode, inner: StabilizerCode) -> StabilizerCode:
    """Concatenate an inner code into the ancilla block of an outer code.

    The new register keeps the outer principal qubits in place and
    replaces each outer ancilla qubit by one logical qubit of the inner
    code.  Generators come out as: the inner stabilizers first (these are
    the ancilla-fault detectors), then the mapped outer generators
    grouped per principal qubit with the X-type one before the Z-type
    one.
    """
    n_principal = outer.n_principal
    n_outer_anc = len(outer.ancilla_sites)
    if inner.k != n_outer_anc:
        raise CodeConstructionError(
            f"inner code encodes {inner.k} qubits but outer ancilla has {n_outer_anc}"
        )
    if len(inner.logical_x) != inner.k or len(inner.logical_z) != inner.k:
        raise CodeConstructionError("inner code must provide all logical operators")

    detectors = tuple(
        tensor(identity(n_principal), g) if n_principal else g for g in inner.generators
    )

    def sort_key(g: PauliOperator):
        principal_support = sorted(s for s in pauli.support(g) if s <= n_principal)
        first = principal_support[0] if principal_support else n_principal + 1
        has_x = any(g.x[s - 1] for s in principal_support)
        return (first, 0 if has_x else 1)

    mapped = [
        _map_outer_generator(g, n_principal, inner)
        for g in sorted(outer.generators, key=sort_key)
    ]
    return StabilizerCode(
        label="s1",
        n=n_principal + inner.n,
        generators=detectors + tuple(mapped),
        n_principal=n_principal,
        detection_prefix=len(detectors),
    )


@lru_cache(maxsize=4)
def build_s1() -> StabilizerCode:
    """Six-qubit filter code: the probe code with its ancilla pair
    protected by the [[4,2,2]] layer."""
    return concatenate_ancilla(build_s0(), build_s422())


@lru_cache(maxsize=8)
def syndrome_basis(code: StabilizerCode) -> np.ndarray:
    """Joint eigenbasis of the generators of a k=0 code, read-only.

    Row s is the heaviest column of the rank-one prod_j (1 +- g_j)/2,
    minus where generator j's bit of s is set, normalized so its first
    nonvanishing amplitude is real positive.  Each factor acts in monomial
    form on exact dyadic entries; + 0.0 gives zeros a dense product's +0.0.
    """
    if code.k != 0:
        raise UnsupportedCodeError(f"code {code.label} has k={code.k}, no unique codeword")
    monomials = [pauli.monomial(g) for g in code.generators]

    def heaviest_columns(proj, level):
        if level == code.r:
            return [proj[:, np.argmax(np.linalg.norm(proj, axis=0))]]
        perm, coef = monomials[level]
        image = proj[:, perm] * coef[perm]
        branches = (proj + image, proj - image)
        return [col for p in branches for col in heaviest_columns(p / 2.0 + 0.0, level + 1)]

    basis = np.stack(heaviest_columns(np.eye(2 ** code.n, dtype=np.complex128), 0))
    basis = basis / np.linalg.norm(basis, axis=1, keepdims=True)
    amp = basis[np.arange(len(basis)), np.argmax(np.abs(basis) > 1e-8, axis=1)]
    basis = basis * (np.abs(amp) / amp)[:, None]
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=8)
def codeword_state(code: StabilizerCode) -> np.ndarray:
    """The unique codeword of a k=0 code: row 0 of :func:`syndrome_basis`."""
    return syndrome_basis(code)[0]


def syndrome_of_error(code: StabilizerCode, error: PauliOperator) -> int:
    """One bit per generator, 1 if the error anticommutes with it, the
    first generator most significant."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} sites, code has {code.n}")
    syn = 0
    for g in code.generators:
        syn = (syn << 1) | int(not commutes(error, g))
    return syn


@lru_cache(maxsize=8)
def located_error_table(code: StabilizerCode) -> tuple:
    """The sixteen principal-qubit errors and their syndromes, in the
    canonical basis order of ``process_matrix.BASIS_LABELS``.

    Returns a tuple of (index, operator, syndrome).  Syndromes are
    pairwise distinct for both supported codes, which is what makes the
    principal error identifiable from the measurement record.
    """
    if code.n_principal != 2:
        raise UnsupportedCodeError("located errors are defined for two principal sites")
    if code.k != 0:
        raise UnsupportedCodeError("located error table needs a k=0 code")
    rows = []
    for idx, label in enumerate(BASIS_LABELS):
        op = tensor(parse_pauli(label), identity(code.n - 2))
        rows.append((idx, op, syndrome_of_error(code, op)))
    if len({syn for _, _, syn in rows}) != len(rows):
        raise CodeConstructionError("located syndromes are not pairwise distinct")
    return tuple(rows)
