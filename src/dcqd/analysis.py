"""Fidelity scoring and ancilla-failure statistics.

Two jobs live here:

* scoring a reconstructed process matrix against the closed-form
  amplitude-damping answer, via state fidelity of the channel outputs on
  a fixed input;
* quantifying how often ancilla depolarizing noise corrupts the syndrome
  record, both by exhaustive enumeration of all ancilla Pauli errors
  (exact rational coefficients) and by Monte-Carlo simulation.

The Monte-Carlo part never touches density matrices: a Pauli error has a
deterministic syndrome, so every shot falls into one of four classes
(no error, detected, stabilizer, impostor) whose probabilities follow
from the enumeration's per-weight tallies, and each grid point draws one
multinomial over those classes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .channels import theoretical_chi_ad
from .codes import StabilizerCode, build_s1, syndrome_of_error
from .pauli import PAULI_MATRICES, PauliOperator
from .process_matrix import ProcessMatrix
from .rng import sample_counts
from .states import InvalidStateError

__all__ = [
    "FidelityResult",
    "FailureOracle",
    "FailureRateReport",
    "ChiDistance",
    "apply_single_qubit_block",
    "channel_fidelity_vs_theory",
    "binomial_weight_probability",
    "failure_oracle",
    "failure_rate_experiment",
    "loglog_slope",
    "chi_distance_report",
]

FIDELITY_EIG_TOL = 1e-9
SEVERE_NEGATIVE_EIG = 1e-3
_SWEEP_STREAM_TAG = 0x4641494C

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class FidelityResult:
    value: float
    input_state: str
    compared: tuple


def _clamped_psd(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalue-clamped PSD version of a Hermitian matrix.

    Eigenvalues in [-tol, 0) are set to zero; anything lower raises.
    """
    herm = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    if vals[0] < -tol:
        raise InvalidStateError(f"eigenvalue {vals[0]} below -{tol}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _fidelity_core(a: np.ndarray, b: np.ndarray) -> float:
    """Trace norm of sqrt(a) sqrt(b) for PSD matrices.

    Equals the trace of the square root of sqrt(a) b sqrt(a), symmetric
    in its arguments, and well defined even when one argument carries
    less than unit trace.
    """
    overlap = _psd_sqrt(a) @ _psd_sqrt(b)
    return float(np.linalg.norm(overlap, ord="nuc"))


def apply_single_qubit_block(chi: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Evaluate the single-qubit-block map sum_mn chi_mn s_m rho s_n^dag.

    The block is the 4x4 corner of chi: the first four basis labels carry
    I, X, Y, Z on qubit one and the identity on qubit two.  The result is
    Hermitian by construction but not trace normalized: mass that the
    estimate assigns to two-qubit operator directions is simply absent,
    and that trace deficit is the point of the score.
    """
    block = chi.data[:4, :4]
    mat = np.asarray(rho, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 input, got {mat.shape}")
    paulis = np.stack([PAULI_MATRICES[letter] for letter in "IXYZ"])
    out = np.einsum("mn,mij,jk,nlk->il", block, paulis, mat, paulis.conj())
    return (out + out.conj().T) / 2.0


def channel_fidelity_vs_theory(chi_hat: ProcessMatrix, gamma: float) -> FidelityResult:
    """Fidelity of the estimated channel against the damping closed form.

    Both single-qubit-block maps act on |0><0| and the outputs are
    compared by the trace-norm fidelity.  The estimated output has its
    negative eigenvalues clamped to zero (a dip below -1e-3 warns) and
    keeps a trace deficit, so both syndrome-record corruption inside the
    block and mass scattered outside it lower the score.  Excess trace,
    which finite-shot noise and the clamping can produce, is scaled
    away: by Cauchy-Schwarz the score then never exceeds one.
    """
    rho_in = np.diag([1.0, 0.0]).astype(np.complex128)
    raw = apply_single_qubit_block(chi_hat, rho_in)
    vals, vecs = np.linalg.eigh(raw)
    if vals[0] < -SEVERE_NEGATIVE_EIG:
        warnings.warn(
            f"clamping severely negative output eigenvalue {vals[0]:.3e}; "
            "the estimate is dominated by sampling noise",
            stacklevel=2,
        )
    cleaned = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    cleaned = cleaned / max(1.0, cleaned.trace().real)
    reference = apply_single_qubit_block(theoretical_chi_ad(gamma), rho_in)
    value = _fidelity_core(cleaned, _clamped_psd(reference, FIDELITY_EIG_TOL))
    return FidelityResult(
        value=value,
        input_state="|0><0|",
        compared=("estimated", f"amplitude_damping(gamma={gamma})"),
    )


def binomial_weight_probability(p: float, j: int, sites: int) -> float:
    """Probability that exactly j of the sites draw a non-identity letter."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not 0 <= j <= sites:
        raise ValueError(f"weight {j} out of range 0..{sites}")
    return math.comb(sites, j) * p**j * (1.0 - p) ** (sites - j)


@dataclass(frozen=True)
class FailureOracle:
    """Exhaustive classification of every ancilla-supported Pauli error.

    ``tallies[w - 1]`` is the (detected, stabilizer, impostor) count of
    the weight-w errors; each non-identity error is exactly one of:

    * detected: some detector-prefix syndrome bit fires, so filtering
      removes the shot;
    * stabilizer: the all-zero syndrome, indistinguishable from no error
      (these act trivially on the probe state);
    * impostor: a clean prefix with a nonzero syndrome, which counterfeits
      a located error and corrupts the estimate.

    Every other fact is read off that table.
    """

    code_label: str
    tallies: tuple

    @property
    def ancilla_size(self) -> int:
        return len(self.tallies)

    @property
    def failure_coefficients(self) -> tuple:
        """Exact fraction of weight-w errors that slip past the filter
        (impostor plus stabilizer: any undetected non-identity error)."""
        return tuple(Fraction(s + i, d + s + i) for d, s, i in self.tallies)

    @property
    def corrupting_coefficients(self) -> tuple:
        """Exact fraction of weight-w errors that change the accepted
        record (impostors only)."""
        return tuple(Fraction(i, d + s + i) for d, s, i in self.tallies)

    def analytic_failure_rate(self, p: float) -> float:
        return sum(
            float(c) * binomial_weight_probability(p, w + 1, self.ancilla_size)
            for w, c in enumerate(self.failure_coefficients)
        )

    def class_probabilities(self, p: float) -> np.ndarray:
        """Probabilities of (no error, detected, stabilizer, impostor).

        A weight-w ancilla pattern has probability (p/3)^w (1-p)^(a-w),
        so each class's mass sums that over its per-weight tally.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"depolarizing strength {p} outside [0, 1]")
        a = self.ancilla_size
        weights = np.arange(1, a + 1)
        pattern = (p / 3.0) ** weights * (1.0 - p) ** (a - weights)
        tallies = np.array(self.tallies, dtype=np.float64)
        return np.concatenate(([(1.0 - p) ** a], pattern @ tallies))


def _ancilla_operator(code: StabilizerCode, sites: tuple, letters: tuple) -> PauliOperator:
    x = [0] * code.n
    z = [0] * code.n
    for site, letter in zip(sites, letters):
        if letter == "I":
            continue
        xb, zb = _LETTER_BITS[letter]
        x[site - 1] = xb
        z[site - 1] = zb
    return PauliOperator(code.n, tuple(x), tuple(z), 0)


def failure_oracle(code: StabilizerCode | None = None) -> FailureOracle:
    """Classify all 4^a - 1 non-identity ancilla Paulis of ``code``."""
    if code is None:
        code = build_s1()
    sites = tuple(sorted(code.ancilla_sites))
    tallies = [[0, 0, 0] for _ in sites]
    for letters in product("IXYZ", repeat=len(sites)):
        weight = sum(1 for c in letters if c != "I")
        if weight == 0:
            continue
        syn = syndrome_of_error(code, _ancilla_operator(code, sites, letters))
        if code.detector_bits(syn):
            tallies[weight - 1][0] += 1
        elif syn == 0:
            tallies[weight - 1][1] += 1
        else:
            tallies[weight - 1][2] += 1
    return FailureOracle(code.label, tuple(tuple(row) for row in tallies))


@dataclass(frozen=True)
class FailureRateReport:
    """Monte-Carlo failure statistics at one depolarizing strength.

    ``delta_p1`` is tallied directly as the fraction of shots whose drawn
    error was not the identity yet produced the all-zero syndrome.  Its
    expectation equals p_identity_syndrome - p_identity_operator, and the
    direct count is used because the subtraction form inherits the
    sampling noise of the dominant identity mass.  ``p_F`` is
    ``p_00 + delta_p1`` by construction.
    """

    p: float
    p_identity_syndrome: float
    p_identity_operator: float
    delta_p1: float
    p_00: float
    p_F: float
    analytic_p_F: float
    shots: int

    def __post_init__(self):
        for name in ("p", "p_identity_syndrome", "p_identity_operator", "delta_p1", "p_00", "p_F"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"{name}={v} outside [0, 1]")


def failure_rate_experiment(
    p_values,
    shots: int,
    seed: int,
    code: StabilizerCode | None = None,
) -> tuple:
    """Sample ancilla-only depolarizing noise and tally syndrome outcomes.

    The principal sites stay noiseless, so the only randomness is the
    letter drawn on each ancilla site: identity with probability 1 - p,
    otherwise X, Y, Z with probability p/3 each.  Each shot's syndrome
    class is fixed by its pattern, so the shots of one grid point are one
    multinomial over the four classes of ``FailureOracle.class_probabilities``,
    drawn from its own deterministic stream derived from (seed, point
    index).
    """
    if code is None:
        code = build_s1()
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    oracle = failure_oracle(code)
    reports = []
    for index, p in enumerate(p_values):
        counts = sample_counts(oracle.class_probabilities(p), shots, seed, _SWEEP_STREAM_TAG, index)
        clean, _, stabilizer, impostor = (int(c) for c in counts)
        delta = stabilizer / shots
        p_00 = impostor / shots
        reports.append(
            FailureRateReport(
                p=float(p),
                p_identity_syndrome=(clean + stabilizer) / shots,
                p_identity_operator=(1.0 - p) ** oracle.ancilla_size,
                delta_p1=delta,
                p_00=p_00,
                p_F=p_00 + delta,
                analytic_p_F=oracle.analytic_failure_rate(p),
                shots=shots,
            )
        )
    return tuple(reports)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-d arrays with at least 2 points")
    if (x <= 0).any() or (y <= 0).any():
        raise ValueError("log-log fit requires strictly positive values")
    lx = np.log(x)
    ly = np.log(y)
    lx -= lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


@dataclass(frozen=True)
class ChiDistance:
    difference: np.ndarray
    max_abs: float

    def __post_init__(self):
        arr = np.array(self.difference, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "difference", arr)


def chi_distance_report(chi_a: ProcessMatrix, chi_b: ProcessMatrix) -> ChiDistance:
    """Elementwise complex difference and its largest magnitude."""
    diff = chi_a.data - chi_b.data
    return ChiDistance(difference=diff, max_abs=float(np.max(np.abs(diff))))
