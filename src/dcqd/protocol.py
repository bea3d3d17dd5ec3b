"""Process characterization through code syndrome measurements.

One experiment is a set of measurement settings on the same probe state
(the codeword), each setting consisting of an optional preprocessing
step on the principal qubits followed by measurement of every stabilizer
generator:

* the plain setting estimates the chi diagonal: the relative frequency
  of located syndrome i among accepted shots converges to chi_ii;
* the coherence-rotation setting for basis operator F_j applies
  U_j = (1 + i F_j)/sqrt(2); with phi F_J = F_i F_j the syndrome-i rate
  equals (chi_ii + chi_JJ)/2 - Im(phi chi_Ji), which isolates the
  imaginary part of the off-diagonal element;
* the coherence-projection setting measures the observable F_j with
  projectors (1 +- F_j)/2 and records the sign; the difference of the
  joint rates p(+, i) - p(-, i) equals Re(phi chi_Ji).

Dividing out phi and averaging each element with the conjugate of its
mirror yields the Hermitian estimate.

Backends: ``exact`` evaluates every outcome probability as a trace
against the syndrome eigenbasis (no randomness); ``sampling`` draws the
requested number of shots per setting from that same distribution, which
is statistically identical to collapsing the state one generator at a
time (the generators commute, so the joint outcome law factorizes
through the syndrome projectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import channels as channels_mod
from . import pauli
from .codes import (
    StabilizerCode,
    build_s0,
    build_s1,
    codeword_state,
    located_error_table,
    syndrome_basis,
)
from .config import SCENARIOS, ConfigError, ExperimentConfig
from .process_matrix import BASIS_LABELS, BASIS_INDEX, ProcessMatrix, basis_paulis
from .rng import sample_counts
from .states import DensityMatrix

__all__ = [
    "PreprocessingKind",
    "PreprocessingOp",
    "SyndromeHistogram",
    "CharacterizationResult",
    "IncompleteDataError",
    "standard_settings",
    "prepare_probe",
    "syndrome_basis",
    "setting_distribution",
    "run_setting",
    "resolve_scenario",
    "characterize",
    "estimate_offdiagonal",
]

NEGATIVE_PROB_TOL = 1e-9


class IncompleteDataError(ValueError):
    """A setting has no accepted events to estimate from."""


class PreprocessingKind(Enum):
    IDENTITY = "identity"
    COHERENCE_UNITARY = "coherence_unitary"
    COHERENCE_PROJECTIVE = "coherence_projective"


@dataclass(frozen=True)
class PreprocessingOp:
    kind: PreprocessingKind
    f_index: int = 0

    def __post_init__(self):
        if self.kind is PreprocessingKind.IDENTITY:
            if self.f_index != 0:
                raise ValueError("identity setting carries no basis index")
        elif not 1 <= self.f_index <= 15:
            raise ValueError(f"basis index must lie in 1..15, got {self.f_index}")

    @property
    def label(self) -> str:
        if self.kind is PreprocessingKind.IDENTITY:
            return "I"
        tag = "U" if self.kind is PreprocessingKind.COHERENCE_UNITARY else "P"
        return f"{tag}{BASIS_LABELS[self.f_index]}"

    @property
    def setting_key(self) -> int:
        """Distinct integer per setting, part of the random-stream scope."""
        if self.kind is PreprocessingKind.IDENTITY:
            return 0
        if self.kind is PreprocessingKind.COHERENCE_UNITARY:
            return self.f_index
        return 16 + self.f_index


def standard_settings() -> tuple:
    """The 31 settings of a full characterization run."""
    ops = [PreprocessingOp(PreprocessingKind.IDENTITY)]
    ops += [PreprocessingOp(PreprocessingKind.COHERENCE_UNITARY, j) for j in range(1, 16)]
    ops += [PreprocessingOp(PreprocessingKind.COHERENCE_PROJECTIVE, j) for j in range(1, 16)]
    return tuple(ops)


@dataclass(frozen=True)
class SyndromeHistogram:
    """Outcome tallies of one setting.

    ``counts`` has one row per preprocessing outcome (a single row of
    zeros-key 0 for settings without a recorded outcome, rows +1 and -1
    for projective settings) and one column per syndrome integer, first
    generator bit most significant.  In the exact backend the entries
    are probabilities and ``total`` is 1.
    """

    setting: PreprocessingOp
    outcomes: tuple
    counts: np.ndarray
    total: float
    accepted: float

    def __post_init__(self):
        arr = np.array(self.counts, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if arr.ndim != 2 or arr.shape[0] != len(self.outcomes):
            raise ValueError("counts must have one row per outcome")

    def to_jsonable(self) -> dict:
        keys = _json_keys(self.outcomes, self.counts.shape[1])
        table = {
            keys[cell]: v if v != int(v) else int(v)
            for cell, v in enumerate(self.counts.ravel().tolist())
            if v
        }
        return {
            "setting": self.setting.label,
            "total": self.total if self.total != int(self.total) else int(self.total),
            "accepted": self.accepted if self.accepted != int(self.accepted) else int(self.accepted),
            "counts": table,
        }


@lru_cache(maxsize=8)
def _json_keys(outcomes: tuple, columns: int) -> tuple:
    """JSON key of every histogram cell, row-major: the syndrome's bits,
    prefixed by ``+1|`` or ``-1|`` on projective rows."""
    length = int(np.log2(columns))
    bits = [format(s, f"0{length}b") for s in range(columns)]
    return tuple(b if outcome == 0 else f"{outcome:+d}|{b}" for outcome in outcomes for b in bits)


@dataclass(frozen=True)
class CharacterizationResult:
    chi: ProcessMatrix
    histograms: tuple


def prepare_probe(code: StabilizerCode) -> DensityMatrix:
    """The codeword density matrix (maximally entangled across the
    principal/ancilla split for the supported codes)."""
    v = codeword_state(code)
    return DensityMatrix(code.n, np.outer(v, v.conj()))


@lru_cache(maxsize=8)
def _located_monomials(code: StabilizerCode) -> tuple:
    """Stacks perm and coef of the sixteen located operators in basis
    order: F_j[i, perm[j, i]] = coef[j, i]."""
    pairs = [pauli.monomial(op) for _, op, _ in located_error_table(code)]
    stacks = tuple(np.stack(arrs) for arrs in zip(*pairs))
    for arr in stacks:
        arr.setflags(write=False)
    return stacks


@lru_cache(maxsize=8)
def _syndrome_frame(code: StabilizerCode) -> tuple:
    """Gather plan of the quadratic forms <b_s| M |b_s> over the nonzero
    block of every syndrome-basis row.

    Each row is a Pauli image of the codeword up to a unit factor, so
    every row has the same number m of nonzero entries (4 for s0, 8 for
    s1).  The plan is term-major, shape (m*m, rows): column s holds row
    s's terms (j, k) in row-major order, as the flat index j*dim + k
    into the matrix, conj(b_j) and b_k.
    """
    basis = syndrome_basis(code)
    n_rows, dim = basis.shape
    cols = np.array([np.flatnonzero(row) for row in basis])
    m = cols.shape[1]
    picked = basis[np.arange(n_rows)[:, None], cols]
    index = (cols[:, :, None] * dim + cols[:, None, :]).reshape(n_rows, m * m)
    left = np.repeat(picked.conj(), m, axis=1)
    right = np.tile(picked, (1, m))
    frame = tuple(np.ascontiguousarray(arr.T) for arr in (index, left, right))
    for arr in frame:
        arr.setflags(write=False)
    return frame


def _syndrome_probs(matrix: np.ndarray, code: StabilizerCode) -> np.ndarray:
    """Real parts of <b_s| M |b_s> for every syndrome row s.

    Bit for bit the dense sum over all (j, k) in row-major order: that
    sum adds the terms (conj(b_j) M_jk) b_k one after another from zero,
    the terms outside the row's block are exact zeros, and the reduction
    over the frame's leading axis adds them one after another too.  They
    can differ only in the sign of an all-zero sum, and the clip at zero
    maps -0.0 to the dense sum's +0.0.
    """
    index, left, right = _syndrome_frame(code)
    probs = np.add.reduce((left * matrix.reshape(-1)[index]) * right, axis=0).real
    low = probs.min()
    if low < -NEGATIVE_PROB_TOL:
        raise ValueError(f"syndrome probability {low} below -1e-9")
    return np.clip(probs, 0.0, None)


@lru_cache(maxsize=8)
def _projective_plan(code: StabilizerCode) -> tuple:
    """The distinct flat entries (j, k) the syndrome frame reads (rows of
    one support coset share them) and, per basis index F_j, the flat
    positions of rho at (j, k), (j, pi k), (pi j, k) and (pi j, pi k),
    h[j] and h[pi k], where row j of F_j holds 2 h[j] in column pi(j)."""
    entries = np.flatnonzero(np.bincount(_syndrome_frame(code)[0].ravel()))
    pi, coef = _located_monomials(code)
    dim = pi.shape[1]
    half = coef / 2.0
    j, k = np.divmod(entries, dim)
    pj, pk = pi[:, j], pi[:, k]
    gather = np.stack(np.broadcast_arrays(j * dim + k, j * dim + pk, pj * dim + k, pj * dim + pk), axis=1)
    plan = (entries, gather, half[:, j], np.take_along_axis(half, pk, axis=1))
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _projective_probs(state: np.ndarray, f_index: int, code: StabilizerCode) -> np.ndarray:
    """Syndrome rows of (1 +- F) rho (1 +- F)/4, signs + then -, with no
    dense product.

    Every entry of (1 +- F)/2 is 0, 1, +-1/2 or +-i/2, so each product a
    dense kernel forms with it is exact (while rho has no subnormal
    entry), and each entry of the sandwich is the one rounding of a sum
    of two exact terms, whatever the kernel: M[j, k] = L[j, k]/2 +
    L[j, pi k] h[pi k] with L[j, k] = rho[j, k]/2 + h[j] rho[pi j, k].
    The closing + 0.0 gives an all-zero sum the kernel's +0.0.
    """
    entries, gather, h_row, h_col = _projective_plan(code)
    rho = state.reshape(-1)[gather[f_index]]
    half_rho = 0.5 * rho[:2]
    h_rho = h_row[f_index] * rho[2:]
    plus, minus = half_rho + h_rho, half_rho - h_rho
    h = h_col[f_index]
    rows = []
    for values in (0.5 * plus[0] + plus[1] * h + 0.0, 0.5 * minus[0] - minus[1] * h + 0.0):
        matrix = np.zeros(state.size, dtype=np.complex128)
        matrix[entries] = values
        rows.append(_syndrome_probs(matrix, code))
    return np.stack(rows)


def setting_distribution(
    rho_after_channel: DensityMatrix, op: PreprocessingOp, code: StabilizerCode
):
    """Exact outcome distribution of one setting.

    Returns (outcomes, probs) with probs of shape (len(outcomes), 2^r).
    For projective settings the rows are the unnormalized joint
    distributions of sign and syndrome; everything sums to one.
    """
    state = rho_after_channel.data
    if op.kind is PreprocessingKind.IDENTITY:
        return (0,), _syndrome_probs(state, code)[None, :]
    if op.kind is PreprocessingKind.COHERENCE_PROJECTIVE:
        return (1, -1), _projective_probs(state, op.f_index, code)
    # (1 + i F)/sqrt(2); entries off F's pattern keep the identity's +0.0
    perm, coef = (arr[op.f_index] for arr in _located_monomials(code))
    u = np.eye(len(perm), dtype=np.complex128)
    u[np.arange(len(perm)), perm] += 1j * coef
    u /= np.sqrt(2.0)
    return (0,), _syndrome_probs(u @ state @ u.conj().T, code)[None, :]


def _accepted_mass(counts: np.ndarray, code: StabilizerCode) -> float:
    """Mass of the syndromes whose ancilla-detector bits are all clear.

    Codes without detector generators (detection_prefix == 0) accept
    everything; they have no way to flag ancilla faults.
    """
    mask = code.detector_bits(np.arange(counts.shape[1])) == 0
    return float(counts[:, mask].sum())


def run_setting(
    code: StabilizerCode,
    channel: channels_mod.QuantumChannel,
    op: PreprocessingOp,
    shots: int,
    seed: int,
    backend: str = "sampling",
    rho_after_channel: DensityMatrix | None = None,
) -> SyndromeHistogram:
    """Histogram of one setting under either backend."""
    if rho_after_channel is None:
        rho_after_channel = channels_mod.apply(channel, prepare_probe(code))
    outcomes, probs = setting_distribution(rho_after_channel, op, code)
    if backend == "exact":
        counts = probs.astype(np.float64)
        total = 1.0
    elif backend == "sampling":
        flat = sample_counts(probs.reshape(-1), shots, seed, op.setting_key)
        counts = flat.reshape(probs.shape).astype(np.float64)
        total = float(shots)
    else:
        raise ConfigError(f"unknown backend {backend!r}")
    return SyndromeHistogram(
        setting=op,
        outcomes=outcomes,
        counts=counts,
        total=total,
        accepted=_accepted_mass(counts, code),
    )


@lru_cache(maxsize=1)
def _product_tables():
    """J and phi with F_i F_j = phi_J F_J over the 16-element basis."""
    ops = basis_paulis()
    j_table = np.zeros((16, 16), dtype=np.int64)
    phi_table = np.zeros((16, 16), dtype=np.complex128)
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            prod = pauli.multiply(a, b)
            j_table[i, j] = BASIS_INDEX[prod.letters]
            phi_table[i, j] = 1j ** prod.phase
    j_table.setflags(write=False)
    phi_table.setflags(write=False)
    return j_table, phi_table


def estimate_offdiagonal(hists: tuple, code: StabilizerCode) -> ProcessMatrix:
    """The Hermitian chi estimate from the 31 histograms of one run.

    ``hists`` holds one histogram per setting in :func:`standard_settings`
    order: the plain setting is ``hists[0]``, the rotation U_j is
    ``hists[j]`` and the projection P_j is ``hists[15 + j]``.  Every rate
    is a count at a located syndrome over the setting's accepted shots.
    The plain setting gives the diagonal; the U_j/P_j pair gives
    raw[J, i] with phi F_J = F_i F_j, and the fifteen pairs reach every
    off-diagonal entry once.  Averaging raw with its conjugate transpose
    makes the estimate Hermitian.  The accepted syndromes of both
    supported codes are exactly the sixteen located ones, so the
    diagonal sums to one by construction.
    """
    if tuple(h.setting for h in hists) != standard_settings():
        raise ValueError("expected one histogram per setting in standard_settings() order")
    empty = [h.setting.label for h in hists if h.accepted <= 0]
    if empty:
        raise IncompleteDataError(f"no accepted events in setting {', '.join(empty)}")
    syn = [s for _, _, s in located_error_table(code)]
    j_table, phi_table = _product_tables()
    # row j - 1, column i: the F_j pair's entry raw[J, i]
    big_j = j_table[:, 1:].T
    rotated = np.stack([h.counts[0, syn] / h.accepted for h in hists[1:16]])
    signed = np.stack([(h.counts[0, syn] - h.counts[1, syn]) / h.accepted for h in hists[16:]])
    diag = hists[0].counts[0, syn] / hists[0].accepted
    imag = (diag + diag[big_j]) / 2.0 - rotated
    raw = np.diag(diag.astype(np.complex128))
    raw[big_j, np.arange(16)] = phi_table[:, 1:].T.conj() * (signed + 1j * imag)
    return ProcessMatrix((raw + raw.conj().T) / 2.0)


def resolve_scenario(config: ExperimentConfig):
    """Map a scenario name to (code, channel): damping on site 1, then
    depolarizing ``p`` on each ancilla where ``SCENARIOS`` says so."""
    code_label, noisy = SCENARIOS[config.scenario]
    code = build_s0() if code_label == "s0" else build_s1()
    entries = [{"type": "amplitude_damping", "site": 1, "parameter": config.gamma}]
    if noisy and config.p > 0.0:
        for site in code.ancilla_sites:
            entries.append({"type": "depolarizing", "site": site, "parameter": config.p})
    return code, channels_mod.channel_from_spec(entries, code.n)


def characterize(config: ExperimentConfig) -> CharacterizationResult:
    """Full 31-setting run followed by chi reconstruction."""
    code, channel = resolve_scenario(config)
    rho_e = channels_mod.apply(channel, prepare_probe(code))
    hists = tuple(
        run_setting(code, channel, op, config.shots, config.seed, config.backend, rho_e)
        for op in standard_settings()
    )
    return CharacterizationResult(chi=estimate_offdiagonal(hists, code), histograms=hists)
