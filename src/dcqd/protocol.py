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
    codeword,
    destabilizers,
    codeword_state,
    located_error_table,
    located_syndrome_index,
)
from .config import ConfigError, ExperimentConfig
from .process_matrix import BASIS_LABELS, BASIS_INDEX, ProcessMatrix, basis_paulis
from .rng import scoped_generator
from .states import DensityMatrix

__all__ = [
    "PreprocessingKind",
    "PreprocessingOp",
    "SyndromeHistogram",
    "CharacterizationResult",
    "IncompleteDataError",
    "standard_settings",
    "prepare_probe",
    "located_embedded",
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
    return codeword(code)


@lru_cache(maxsize=8)
def located_embedded(code: StabilizerCode) -> tuple:
    """The 16 basis operators acting on the principal pair of ``code``."""
    return tuple(op for _, op, _ in located_error_table(code))


@lru_cache(maxsize=8)
def _located_matrices_embedded(code: StabilizerCode) -> np.ndarray:
    mats = np.stack([pauli.to_matrix(op) for op in located_embedded(code)])
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


def _syndrome_probs(matrix: np.ndarray, basis: np.ndarray) -> np.ndarray:
    probs = np.einsum("sj,jk,sk->s", basis.conj(), matrix, basis).real
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
    basis = syndrome_basis(code)
    state = rho_after_channel.data
    if op.kind is PreprocessingKind.IDENTITY:
        return (0,), _syndrome_probs(state, basis)[None, :]
    if op.kind is PreprocessingKind.COHERENCE_UNITARY:
        u = preprocessing_unitary(code, op.f_index)
        return (0,), _syndrome_probs(u @ state @ u.conj().T, basis)[None, :]
    f = _located_matrices_embedded(code)[op.f_index]
    eye = np.eye(f.shape[0], dtype=np.complex128)
    rows = []
    for sign in (1, -1):
        proj = (eye + sign * f) / 2.0
        rows.append(_syndrome_probs(proj @ state @ proj, basis))
    return (1, -1), np.stack(rows)


def _sample_flat(flat_probs: np.ndarray, shots: int, seed: int, setting_key: int) -> np.ndarray:
    """Counts of ``shots`` categorical draws: one multinomial per setting.

    Only the bins with positive mass enter the draw.  The last bin of a
    multinomial takes whatever the others leave, so a trailing zero bin
    could otherwise pick up a shot through rounding in the conditional
    ratios; this way a zero-probability outcome is never counted.
    """
    support = np.flatnonzero(flat_probs)
    mass = flat_probs[support]
    counts = np.zeros(flat_probs.size, dtype=np.int64)
    counts[support] = scoped_generator(seed, setting_key).multinomial(shots, mass / mass.sum())
    return counts


def _accepted_mass(counts: np.ndarray, code: StabilizerCode) -> float:
    """Mass of the syndromes whose ancilla-detector bits are all clear.

    Codes without detector generators (detection_prefix == 0) accept
    everything; they have no way to flag ancilla faults.
    """
    n_syn = counts.shape[1]
    shift = code.r - code.detection_prefix
    syn = np.arange(n_syn)
    mask = (syn >> shift) == 0
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
        flat = _sample_flat(probs.reshape(-1), shots, seed, op.setting_key)
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


def _located_syndrome_ints(code: StabilizerCode) -> list:
    decode = located_syndrome_index(code)
    out = [0] * 16
    for syn, idx in decode.items():
        out[idx] = syn.to_int()
    return out


def estimate_diagonal(hist: SyndromeHistogram, code: StabilizerCode) -> np.ndarray:
    """chi_ii as the accepted-shot relative frequency of located syndrome i.

    The accepted syndromes of both supported codes are exactly the
    sixteen located ones, so the entries sum to one by construction.
    """
    if hist.accepted <= 0:
        raise IncompleteDataError("no accepted events to estimate from")
    syn_ints = _located_syndrome_ints(code)
    return np.array([hist.counts[0, s] for s in syn_ints]) / hist.accepted


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
    syn_ints = _located_syndrome_ints(code)
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
            p_rot = hu.counts[0, syn_ints[i]] / hu.accepted
            imag = (diag[i] + diag[big_j]) / 2.0 - p_rot
            real = (hp.counts[0, syn_ints[i]] - hp.counts[1, syn_ints[i]]) / hp.accepted
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
    if config.scenario not in table:
        raise ConfigError(f"scenario {config.scenario!r} does not describe a characterization run")
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
