"""Kraus-form noise channels on the full register, in monomial form.

Every Kraus operator here (amplitude damping, Pauli noise, Pauli
unitaries and their products) has at most one nonzero entry per row, so
a channel of m operators on n qubits is two ``(m, 2^n)`` arrays with
``K_a[i, perm[a, i]] = coef[a, i]`` and zeros elsewhere, and no two
nonzero rows of one operator read the same column.  Composing channels
is index arithmetic on the arrays; each entry of such a product has a
single nonzero term, so the results are bit-identical to dense matrix
products.  Applying a channel gathers m * nnz(rho) terms and is
bit-identical to the dense sum of K_a rho K_a^dag (see ``apply``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .pauli import PauliOperator, monomial, single_site
from .process_matrix import BASIS_INDEX, ProcessMatrix
from .states import ContractViolationError, DensityMatrix

__all__ = [
    "QuantumChannel",
    "amplitude_damping",
    "depolarizing",
    "identity_channel",
    "pauli_unitary_channel",
    "compose",
    "channel_from_spec",
    "apply",
    "theoretical_chi_ad",
]

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class QuantumChannel:
    """Operator a maps basis column ``perm[a, i]`` to row i with weight ``coef[a, i]``."""

    n: int
    perm: np.ndarray
    coef: np.ndarray
    label: str

    def __post_init__(self):
        dim = 2 ** self.n
        perm = np.array(self.perm, dtype=np.intp)
        coef = np.array(self.coef, dtype=np.complex128)
        if perm.ndim != 2 or perm.shape != coef.shape or perm.shape[1] != dim or not len(perm):
            raise ContractViolationError(
                f"perm {perm.shape} and coef {coef.shape} must both be (m, {dim})"
            )
        if perm.min() < 0 or perm.max() >= dim:
            raise ContractViolationError(f"perm entries must lie in 0..{dim - 1}")
        # sum_a K_a^dag K_a is diagonal for these operators: entry j sums
        # |coef|^2 over the rows that map column j
        weight = np.bincount(perm.ravel(), (coef.real ** 2 + coef.imag ** 2).ravel(), dim)
        if np.max(np.abs(weight - 1.0)) > COMPLETENESS_TOL:
            raise ContractViolationError(f"channel {self.label!r} is not trace preserving")
        # apply gathers through one reader per (operator, column)
        if np.bincount(_flat_columns(perm)[coef != 0]).max() > 1:
            raise ContractViolationError(
                f"channel {self.label!r} has two nonzero rows of one operator reading one column"
            )
        perm.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "coef", coef)

    @property
    def kraus(self) -> np.ndarray:
        """One weight row per Kraus operator: ``len`` counts the operators."""
        return self.coef


def _flat_columns(perm: np.ndarray) -> np.ndarray:
    """``a * dim + perm[a, i]``: operator a's column, unique across operators."""
    m, dim = perm.shape
    return perm + np.arange(0, m * dim, dim)[:, None]


def _on_site(perm, coef, site: int, n: int, label: str) -> QuantumChannel:
    """Channel applying 2x2 factors at a 1-based site, site 1 most significant.

    ``perm`` and ``coef`` are (m, 2) tables in monomial form: factor a
    maps column ``perm[a, i]`` to row i with weight ``coef[a, i]``.
    """
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    perm = np.asarray(perm, dtype=np.intp)
    coef = np.asarray(coef, dtype=np.complex128)
    shift = n - site
    rows = np.arange(2 ** n)
    bit = (rows >> shift) & 1
    return QuantumChannel(
        n=n,
        perm=(rows & ~(1 << shift)) | (perm[:, bit] << shift),
        coef=coef[:, bit],
        label=label,
    )


def amplitude_damping(gamma: float, site: int, n: int) -> QuantumChannel:
    """Energy relaxation with decay probability gamma on one site.

    Kraus pair: K0 = diag(1, sqrt(1-gamma)) and K1 = sqrt(gamma) |0><1|,
    that is K0 = (1 + sqrt(1-gamma))/2 * I + (1 - sqrt(1-gamma))/2 * Z
    and K1 = sqrt(gamma) (X + iY)/2.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    coef = ((1.0, sqrt(1.0 - gamma)), (sqrt(gamma), 0.0))
    return _on_site(((0, 1), (1, 0)), coef, site, n, f"AD(gamma={gamma:g}, site={site})")


def depolarizing(p: float, site: int, n: int) -> QuantumChannel:
    """Uniform Pauli noise: keep with 1-p, else X, Y or Z with p/3 each."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    weights = (sqrt(1.0 - p),) + (sqrt(p / 3.0),) * 3
    factors = [monomial(single_site(1, 1, letter)) for letter in "IXYZ"]
    return _on_site(
        [perm for perm, _ in factors],
        [w * coef for w, (_, coef) in zip(weights, factors)],
        site,
        n,
        f"DP(p={p:g}, site={site})",
    )


def identity_channel(n: int) -> QuantumChannel:
    dim = 2 ** n
    return QuantumChannel(
        n=n,
        perm=np.arange(dim)[None, :],
        coef=np.ones((1, dim), dtype=np.complex128),
        label="id",
    )


def pauli_unitary_channel(op: PauliOperator) -> QuantumChannel:
    """Deterministic application of one Pauli, for fault injection."""
    perm, coef = (arr[None] for arr in monomial(op))
    return QuantumChannel(n=op.n, perm=perm, coef=coef, label=f"unitary({op})")


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """Channel applying ``inner`` first, then ``outer``; outer-major products outer_a @ inner_b."""
    if outer.n != inner.n:
        raise ValueError(f"cannot compose channels on {outer.n} and {inner.n} qubits")
    dim = 2 ** outer.n
    perm = inner.perm[:, outer.perm].swapaxes(0, 1)
    coef = outer.coef[:, None, :] * inner.coef[:, outer.perm].swapaxes(0, 1)
    return QuantumChannel(
        n=outer.n,
        perm=perm.reshape(-1, dim),
        coef=coef.reshape(-1, dim),
        label=f"{outer.label}*{inner.label}",
    )


def channel_from_spec(entries, n: int) -> QuantumChannel:
    """Build a composite channel from a list of dicts.

    Each entry has keys ``type`` (amplitude_damping | depolarizing),
    ``site`` and ``parameter``.  Entries apply in listed order: the first
    one acts on the state first.
    """
    builders = {"amplitude_damping": amplitude_damping, "depolarizing": depolarizing}
    channel = identity_channel(n)
    for entry in entries:
        kind = entry["type"]
        if kind not in builders:
            raise ValueError(f"unknown channel type {kind!r}")
        step = builders[kind](float(entry["parameter"]), int(entry["site"]), n)
        channel = compose(step, channel)
    return channel


def apply(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_a K_a rho K_a^dag, gathered over the nonzero entries of rho.

    Each operator's nonzero rows read distinct columns (the one-reader
    contract of ``QuantumChannel``), so ``reader[a, col]`` names the one
    nonzero row i of operator a with ``perm[a, i] == col``, or -1.  A nonzero
    rho[u, v] then sends ``(coef[a, i] * rho[u, v]) * conj(coef[a, j])``
    to (i, j) for i = reader[a, u] and j = reader[a, v].  The terms are
    laid out in operator order and summed per target by ``np.bincount``,
    which adds in input order from +0.0: the sum over every operator in
    turn, less its exact-zero terms.  A skipped term is +-0, and a
    partial sum started at +0.0 is never -0.0, so leaving it out changes
    no bit.

    The cost is m * nnz(rho) terms for m operators.  Every caller in the
    package passes the codeword probe ``protocol.prepare_probe``: 32,768
    terms for s1 (64 of 4,096 entries nonzero, 512 operators) and 512
    for s0.  A dense state costs dim^2 terms per operator; on a random
    full-rank 6-qubit state under the s1 channel that is 154 ms against
    23 ms for one dense 64x64 gather per operator (2-core host).
    """
    if channel.n != rho.n:
        raise ValueError(f"channel on {channel.n} qubits, state on {rho.n}")
    dim = rho.dim
    live = channel.coef != 0
    # reader holds flat (operator, row) indices a * dim + i, so it indexes coef
    reader = np.full(live.size, -1, dtype=np.intp)
    reader[_flat_columns(channel.perm)[live]] = np.flatnonzero(live)
    reader = reader.reshape(live.shape)
    coef = channel.coef.ravel()
    u, v = np.nonzero(rho.data)
    rows, cols = reader[:, u], reader[:, v]
    # a boolean mask reads row-major: operator order, then rho's entry order
    hit = (rows >= 0) & (cols >= 0)
    rows, cols = rows[hit], cols[hit]
    vals = np.broadcast_to(rho.data[u, v], hit.shape)[hit]
    terms = (coef[rows] * vals) * coef[cols].conj()
    # dim is a power of two: the mask takes i and j out of a * dim + i
    target = (rows & (dim - 1)) * dim + (cols & (dim - 1))
    out = np.empty((dim, dim), dtype=np.complex128)
    out.real = np.bincount(target, terms.real, dim * dim).reshape(dim, dim)
    out.imag = np.bincount(target, terms.imag, dim * dim).reshape(dim, dim)
    return DensityMatrix(rho.n, out)


def theoretical_chi_ad(gamma: float) -> ProcessMatrix:
    """Closed-form process matrix of amplitude damping on qubit 1.

    With a = (1 + sqrt(1-gamma))/2 and b = (1 - sqrt(1-gamma))/2 the only
    nonzero elements sit in the {II, XI, YI, ZI} block:

        chi_II,II = a^2        chi_ZI,ZI = b^2      chi_II,ZI = chi_ZI,II = gamma/4
        chi_XI,XI = chi_YI,YI = gamma/4
        chi_YI,XI = +i gamma/4 = conj(chi_XI,YI)

    since a*b = gamma/4.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    a = (1.0 + sqrt(1.0 - gamma)) / 2.0
    b = (1.0 - sqrt(1.0 - gamma)) / 2.0
    chi = np.zeros((16, 16), dtype=np.complex128)
    ii, xi, yi, zi = (BASIS_INDEX[s] for s in ("II", "XI", "YI", "ZI"))
    chi[ii, ii] = a * a
    chi[zi, zi] = b * b
    chi[ii, zi] = chi[zi, ii] = a * b
    chi[xi, xi] = chi[yi, yi] = gamma / 4.0
    chi[xi, yi] = -1j * gamma / 4.0
    chi[yi, xi] = 1j * gamma / 4.0
    return ProcessMatrix(chi)
