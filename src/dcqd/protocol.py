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
    destabilizers,
    codeword_state,
    located_error_table,
)
from .config import ConfigError, ExperimentConfig
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
    "preprocessing_unitary",
    "syndrome_basis",
    "setting_distribution",
    "run_setting",
    "resolve_scenario",
    "characterize",
    "partial_characterize",
    "estimate_diagonal",
    "estimate_offdiagonal",
]

NEGATIVE_PROB_TOL = 1e-9


class IncompleteDataError(ValueError):
    """Estimation was asked for elements whose settings were never run."""


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
        length = int(np.log2(self.counts.shape[1]))
        table = {}
        for row, outcome in enumerate(self.outcomes):
            for s in range(self.counts.shape[1]):
                v = self.counts[row, s]
                if v == 0.0:
                    continue
                bits = format(s, f"0{length}b")
                key = bits if outcome == 0 else f"{outcome:+d}|{bits}"
                table[key] = v if v != int(v) else int(v)
        return {
            "setting": self.setting.label,
            "total": self.total if self.total != int(self.total) else int(self.total),
            "accepted": self.accepted if self.accepted != int(self.accepted) else int(self.accepted),
            "counts": table,
        }


@dataclass(frozen=True)
class CharacterizationResult:
    chi: ProcessMatrix
    histograms: tuple
    config: ExperimentConfig

    def histogram(self, label: str) -> SyndromeHistogram:
        for h in self.histograms:
            if h.setting.label == label:
                return h
        raise KeyError(label)

    @property
    def accepted_fraction(self) -> dict:
        return {
            h.setting.label: (h.accepted / h.total if h.total else 0.0)
            for h in self.histograms
        }


def prepare_probe(code: StabilizerCode) -> DensityMatrix:
    """The codeword density matrix (maximally entangled across the
    principal/ancilla split for the supported codes)."""
    v = codeword_state(code)
    return DensityMatrix(code.n, np.outer(v, v.conj()))


@lru_cache(maxsize=8)
def _located_matrices_embedded(code: StabilizerCode) -> np.ndarray:
    mats = np.stack([pauli.to_matrix(op) for _, op, _ in located_error_table(code)])
    mats.setflags(write=False)
    return mats


def preprocessing_unitary(code: StabilizerCode, f_index: int) -> np.ndarray:
    """U_j = (1 + i F_j)/sqrt(2) on the full register."""
    if not 1 <= f_index <= 15:
        raise ValueError(f"basis index must lie in 1..15, got {f_index}")
    f = _located_matrices_embedded(code)[f_index]
    dim = f.shape[0]
    return (np.eye(dim, dtype=np.complex128) + 1j * f) / np.sqrt(2.0)


@lru_cache(maxsize=8)
def syndrome_basis(code: StabilizerCode) -> np.ndarray:
    """Joint eigenbasis of the generators, one row per syndrome integer.

    Row s is a representative-error image R_s |codeword>, where R_s is
    the product of destabilizers for the set bits of s.  For k=0 codes
    every syndrome space is one-dimensional, so these rows form a
    complete orthonormal basis and outcome probabilities are plain
    quadratic forms against them.
    """
    psi = codeword_state(code)
    dvec = [d.symplectic() for d in destabilizers(code)]
    rows = []
    for s in range(2 ** code.r):
        v = np.zeros(2 * code.n, dtype=np.uint8)
        for j in range(code.r):
            if (s >> (code.r - 1 - j)) & 1:
                v ^= dvec[j]
        rep = pauli.PauliOperator(code.n, tuple(v[: code.n]), tuple(v[code.n :]), 0)
        rows.append(pauli.to_matrix(rep) @ psi)
    basis = np.stack(rows)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=8)
def _syndrome_frame(code: StabilizerCode) -> tuple:
    """Gather plan of the quadratic forms <b_s| M |b_s> over the nonzero
    block of every syndrome-basis row.

    Each row R_s|codeword> is a Pauli image of the codeword, so every row
    has the same number m of nonzero entries (4 for s0, 8 for s1).  Row s
    keeps its m*m terms (j, k) in row-major order: the flat index
    j*dim + k into the matrix, conj(b_j) and b_k.
    """
    basis = syndrome_basis(code)
    n_rows, dim = basis.shape
    cols = np.array([np.flatnonzero(row) for row in basis])
    m = cols.shape[1]
    picked = basis[np.arange(n_rows)[:, None], cols]
    index = (cols[:, :, None] * dim + cols[:, None, :]).reshape(n_rows, m * m)
    left = np.repeat(picked.conj(), m, axis=1)
    right = np.tile(picked, (1, m))
    for arr in (index, left, right):
        arr.setflags(write=False)
    return index, left, right


def _syndrome_probs(matrix: np.ndarray, code: StabilizerCode) -> np.ndarray:
    """Real parts of <b_s| M |b_s> for every syndrome row s.

    Bit for bit the dense sum over all (j, k) in row-major order: that
    sum adds the terms (conj(b_j) M_jk) b_k one after another from zero,
    and the terms outside the row's block are exact zeros, so the
    sequential cumsum over the block alone gives the same sums.  They can
    differ only in the sign of an all-zero sum, and the clip at zero
    maps -0.0 to the dense sum's +0.0.
    """
    index, left, right = _syndrome_frame(code)
    terms = (left * matrix.reshape(-1)[index]) * right
    probs = np.cumsum(terms, axis=1)[:, -1].real
    low = probs.min()
    if low < -NEGATIVE_PROB_TOL:
        raise ValueError(f"syndrome probability {low} below -1e-9")
    return np.clip(probs, 0.0, None)


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
    if op.kind is PreprocessingKind.COHERENCE_UNITARY:
        u = preprocessing_unitary(code, op.f_index)
        return (0,), _syndrome_probs(u @ state @ u.conj().T, code)[None, :]
    f = _located_matrices_embedded(code)[op.f_index]
    eye = np.eye(f.shape[0], dtype=np.complex128)
    rows = []
    for sign in (1, -1):
        proj = (eye + sign * f) / 2.0
        rows.append(_syndrome_probs(proj @ state @ proj, code))
    return (1, -1), np.stack(rows)


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


def estimate_diagonal(hist: SyndromeHistogram, code: StabilizerCode) -> np.ndarray:
    """chi_ii as the accepted-shot relative frequency of located syndrome i.

    The accepted syndromes of both supported codes are exactly the
    sixteen located ones, so the entries sum to one by construction.
    """
    if hist.accepted <= 0:
        raise IncompleteDataError("no accepted events to estimate from")
    syn = [s for _, _, s in located_error_table(code)]
    return hist.counts[0, syn] / hist.accepted


def _raw_estimate(
    h_identity: SyndromeHistogram,
    h_unitary: dict,
    h_projective: dict,
    code: StabilizerCode,
) -> np.ndarray:
    """Unsymmetrized chi estimate from whichever settings are given.

    The plain setting fills the diagonal.  The rotation/projection pair
    for F_j fills the sixteen entries raw[J, i] with phi F_J = F_i F_j;
    entries that no given pair reaches stay zero.
    """
    diag = estimate_diagonal(h_identity, code)
    syn = [s for _, _, s in located_error_table(code)]
    j_table, phi_table = _product_tables()
    raw = np.zeros((16, 16), dtype=np.complex128)
    np.fill_diagonal(raw, diag)
    for j in sorted(h_unitary):
        hu = h_unitary[j]
        hp = h_projective[j]
        if hu.accepted <= 0 or hp.accepted <= 0:
            raise IncompleteDataError(f"no accepted events in setting {BASIS_LABELS[j]}")
        for i in range(16):
            big_j = int(j_table[i, j])
            phi = phi_table[i, j]
            p_rot = hu.counts[0, syn[i]] / hu.accepted
            imag = (diag[i] + diag[big_j]) / 2.0 - p_rot
            real = (hp.counts[0, syn[i]] - hp.counts[1, syn[i]]) / hp.accepted
            raw[big_j, i] = np.conj(phi) * (real + 1j * imag)
    return raw


def estimate_offdiagonal(
    h_identity: SyndromeHistogram,
    h_unitary: dict,
    h_projective: dict,
    code: StabilizerCode,
) -> ProcessMatrix:
    """Assemble the full Hermitian chi estimate from all 31 histograms.

    ``h_unitary`` and ``h_projective`` map the basis index j to the
    corresponding setting histogram.  Raises IncompleteDataError naming
    any missing setting.
    """
    missing = [f"U{BASIS_LABELS[j]}" for j in range(1, 16) if j not in h_unitary]
    missing += [f"P{BASIS_LABELS[j]}" for j in range(1, 16) if j not in h_projective]
    if missing:
        raise IncompleteDataError(f"missing settings: {', '.join(missing)}")
    raw = _raw_estimate(h_identity, h_unitary, h_projective, code)
    return ProcessMatrix((raw + raw.conj().T) / 2.0)


def resolve_scenario(config: ExperimentConfig):
    """Map a scenario name to (code, channel).

    clean     four-qubit probe code, damping only
    s0_noisy  four-qubit probe code, damping plus ancilla depolarizing
    s1_noisy  six-qubit filter code, damping plus ancilla depolarizing
    s1_clean  six-qubit filter code, damping only
    """
    table = {
        "clean": ("s0", 0.0),
        "s0_noisy": ("s0", config.p),
        "s1_noisy": ("s1", config.p),
        "s1_clean": ("s1", 0.0),
    }
    code_label, p_eff = table[config.scenario]
    code = build_s0() if code_label == "s0" else build_s1()
    entries = [{"type": "amplitude_damping", "site": 1, "parameter": config.gamma}]
    if p_eff > 0.0:
        for site in sorted(code.ancilla_sites):
            entries.append({"type": "depolarizing", "site": site, "parameter": p_eff})
    return code, channels_mod.channel_from_spec(entries, code.n)


def _run_settings(config: ExperimentConfig, ops) -> tuple:
    """(code, histograms) of the given settings in the config's scenario."""
    code, channel = resolve_scenario(config)
    rho_e = channels_mod.apply(channel, prepare_probe(code))
    hists = tuple(
        run_setting(
            code,
            channel,
            op,
            shots=config.shots,
            seed=config.seed,
            backend=config.backend,
            rho_after_channel=rho_e,
        )
        for op in ops
    )
    return code, hists


def _by_index(hists, kind: PreprocessingKind) -> dict:
    return {h.setting.f_index: h for h in hists if h.setting.kind is kind}


def characterize(config: ExperimentConfig) -> CharacterizationResult:
    """Full 31-setting run followed by chi reconstruction."""
    code, hists = _run_settings(config, standard_settings())
    chi = estimate_offdiagonal(
        hists[0],
        _by_index(hists, PreprocessingKind.COHERENCE_UNITARY),
        _by_index(hists, PreprocessingKind.COHERENCE_PROJECTIVE),
        code,
    )
    return CharacterizationResult(chi=chi, histograms=hists, config=config)


def partial_characterize(config: ExperimentConfig, elements) -> dict:
    """Estimate only the requested chi elements.

    Runs the plain setting always (the diagonal feeds every estimator)
    plus the one rotation/projection pair per requested off-diagonal
    element.  Requesting only diagonal elements therefore runs exactly
    one setting.  Elements are read off the same raw estimate that
    :func:`characterize` symmetrizes, so both agree bit for bit.
    """
    pairs = [(int(m), int(n)) for m, n in elements]
    for m, n in pairs:
        if not (0 <= m < 16 and 0 <= n < 16):
            raise ValueError(f"element ({m}, {n}) out of range")
    j_table, _ = _product_tables()
    ops = [PreprocessingOp(PreprocessingKind.IDENTITY)]
    for j in sorted({int(j_table[m, n]) for m, n in pairs if m != n}):
        ops.append(PreprocessingOp(PreprocessingKind.COHERENCE_UNITARY, j))
        ops.append(PreprocessingOp(PreprocessingKind.COHERENCE_PROJECTIVE, j))
    code, hists = _run_settings(config, ops)
    raw = _raw_estimate(
        hists[0],
        _by_index(hists, PreprocessingKind.COHERENCE_UNITARY),
        _by_index(hists, PreprocessingKind.COHERENCE_PROJECTIVE),
        code,
    )
    return {(m, n): complex((raw[m, n] + np.conj(raw[n, m])) / 2.0) for m, n in pairs}
