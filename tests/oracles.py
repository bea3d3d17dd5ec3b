"""Independent reference implementations that only the tests use.

* a shot-by-shot simulator that collapses the state one generator at a
  time, which must agree in law with the syndrome-basis distributions of
  :mod:`dcqd.protocol`;
* the dense matrix of a Pauli operator, which the monomial form of
  :func:`dcqd.pauli.monomial` must reproduce bit for bit;
* small dense-state helpers (basis states, unitaries, measurement,
  expectation values, partial trace, state fidelity by eigendecomposed
  square roots and a nuclear norm);
* the fidelity score by LAPACK, which the closed form of
  :func:`dcqd.analysis.channel_fidelity_vs_theory` must match;
* the dense Kraus matrices of a channel and the dense sum of K rho K^dag;
* the dense einsum of every syndrome-row quadratic form, which the
  row-block gather of :func:`dcqd.protocol.setting_distribution` must
  reproduce bit for bit;
* the cell-by-cell JSON form of a syndrome histogram, which the cached
  key table of :func:`dcqd.cli._histogram_doc` must reproduce exactly;
* the operator-sum evaluation of a process matrix, the chi of a set of
  two-qubit Kraus operators by projection on the Pauli basis, and the
  chi estimate by one element at a time, which the array form of
  :func:`dcqd.protocol.estimate_offdiagonal` must reproduce bit for bit;
* the per-weight classification of ancilla Pauli errors by XOR of
  single-letter syndrome words, which checks the enumeration oracle the
  failure sweep draws from;
* the paper's code certificates: the located-error counting bound and
  the Knill-Laflamme Gram matrix on the codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import comb

import numpy as np

from dcqd import channels as channels_mod
from dcqd import pauli
from dcqd.analysis import apply_single_qubit_block
from dcqd.channels import theoretical_chi_ad
from dcqd.codes import (
    StabilizerCode,
    codeword_state,
    located_error_table,
    syndrome_of_error,
)
from dcqd.pauli import PAULI_MATRICES, PauliOperator, single_site
from dcqd.process_matrix import BASIS_INDEX, ProcessMatrix, basis_paulis
from dcqd.protocol import PreprocessingKind, PreprocessingOp, syndrome_basis
from dcqd.rng import scoped_generator
from dcqd.states import ContractViolationError, DensityMatrix, InvalidStateError

UNITARITY_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10
# Selecting a measurement branch this improbable means the caller's uniform
# variate mechanism is broken, not that the event happened.
IMPOSSIBLE_BRANCH_TOL = 1e-12


MAX_DENSE_QUBITS = 8
FIDELITY_EIG_TOL = 1e-9


class ImpossibleOutcomeError(RuntimeError):
    """A measurement branch with (numerically) zero probability was selected."""


class MatrixSizeError(ValueError):
    pass


# ---------------------------------------------------------------- dense Paulis


def to_matrix(op: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix with site 1 as the most significant factor."""
    if op.n > MAX_DENSE_QUBITS:
        raise MatrixSizeError(f"refusing dense matrix for n={op.n} (limit {MAX_DENSE_QUBITS})")
    mat = reduce(np.kron, (PAULI_MATRICES[ch] for ch in op.letters))
    return (1j ** op.phase) * mat


# ---------------------------------------------------------------- states


def basis_state(n: int, index) -> DensityMatrix:
    """Computational basis state given as an int or a bitstring like '010'."""
    if isinstance(index, str):
        if len(index) != n or any(c not in "01" for c in index):
            raise ValueError(f"bitstring {index!r} does not describe {n} qubits")
        index = int(index, 2)
    v = np.zeros(2 ** n, dtype=np.complex128)
    v[index] = 1.0
    return DensityMatrix(n, np.outer(v, v.conj()))


def apply_unitary(rho: DensityMatrix, unitary: np.ndarray) -> DensityMatrix:
    u = np.asarray(unitary, dtype=np.complex128)
    if u.shape != (rho.dim, rho.dim):
        raise ContractViolationError(f"unitary shape {u.shape} does not match dim {rho.dim}")
    if np.max(np.abs(u @ u.conj().T - np.eye(rho.dim))) > UNITARITY_TOL:
        raise ContractViolationError("matrix is not unitary within 1e-10")
    return DensityMatrix(rho.n, u @ rho.data @ u.conj().T)


@dataclass(frozen=True)
class MeasurementRecord:
    generator_index: int
    outcome: int
    probability: float


def measure_generator(
    rho: DensityMatrix,
    observable: PauliOperator,
    rand: float,
    generator_index: int = 0,
):
    """Projective measurement of a Hermitian Pauli observable.

    The +1 branch is taken when ``rand`` falls below the Born probability
    p_plus = Tr[(1 + G) rho] / 2, so a caller that feeds uniform variates
    reproduces Born statistics.  Returns the record and the renormalized
    post-measurement state.

    Raises:
        ContractViolationError: observable is not Hermitian (phase not +-1)
            or acts on a different register size.
        ImpossibleOutcomeError: the selected branch has probability below
            1e-12, which indicates a broken variate source.
    """
    if observable.n != rho.n:
        raise ContractViolationError(
            f"observable on {observable.n} sites, state on {rho.n}"
        )
    if observable.phase not in (0, 2):
        raise ContractViolationError("observable phase must be +1 or -1 (Hermitian)")
    if not 0.0 <= rand < 1.0:
        raise ValueError(f"rand must lie in [0, 1), got {rand}")
    g = to_matrix(observable)
    expect = np.trace(g @ rho.data)
    if abs(expect.imag) > IMAG_RESIDUE_TOL:
        raise ContractViolationError(f"expectation has imaginary residue {expect.imag}")
    p_plus = min(max((1.0 + expect.real) / 2.0, 0.0), 1.0)
    outcome = 1 if rand < p_plus else -1
    p_sel = p_plus if outcome == 1 else 1.0 - p_plus
    if p_sel < IMPOSSIBLE_BRANCH_TOL:
        raise ImpossibleOutcomeError(
            f"selected outcome {outcome:+d} with probability {p_sel}"
        )
    proj = (np.eye(rho.dim) + outcome * g) / 2.0
    post = proj @ rho.data @ proj / p_sel
    record = MeasurementRecord(generator_index, outcome, float(p_sel))
    return record, DensityMatrix(rho.n, post)


def expectation(rho: DensityMatrix, observable) -> float:
    """Tr[O rho] as a real number; complains if the residue is physical."""
    if isinstance(observable, PauliOperator):
        obs = to_matrix(observable)
    else:
        obs = np.asarray(observable, dtype=np.complex128)
    val = np.trace(obs @ rho.data)
    if abs(val.imag) > IMAG_RESIDUE_TOL:
        raise ContractViolationError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out everything except the given 1-based sites.

    The result keeps the surviving sites in ascending order.
    """
    keep_sites = sorted(set(int(s) for s in keep))
    if not keep_sites:
        raise ValueError("must keep at least one site")
    if keep_sites[0] < 1 or keep_sites[-1] > rho.n:
        raise ValueError(f"keep sites {keep_sites} out of range 1..{rho.n}")
    drop = [s for s in range(1, rho.n + 1) if s not in keep_sites]
    arr = rho.data.reshape((2,) * (2 * rho.n))
    remaining = rho.n
    for site in sorted(drop, reverse=True):
        arr = np.trace(arr, axis1=site - 1, axis2=remaining + site - 1)
        remaining -= 1
    d = 2 ** len(keep_sites)
    return DensityMatrix(len(keep_sites), arr.reshape(d, d))


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


def fidelity(rho, sigma) -> float:
    """State fidelity: the trace norm of sqrt(rho) sqrt(sigma).

    Takes density matrices or plain arrays of equal shape.  Inputs may
    carry eigenvalues as low as -1e-9 (clamped, trace renormalized);
    anything more negative raises InvalidStateError.
    """
    a, b = (np.asarray(getattr(x, "data", x), dtype=np.complex128) for x in (rho, sigma))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    mats = []
    for state in (a, b):
        clean = _clamped_psd(state, FIDELITY_EIG_TOL)
        mats.append(clean / clean.trace().real)
    return _fidelity_core(mats[0], mats[1])


def eigh_channel_fidelity(chi_hat: ProcessMatrix, gamma: float) -> float:
    """The score of :func:`dcqd.analysis.channel_fidelity_vs_theory` by
    LAPACK: both outputs on |0><0| from the single-qubit block, the
    estimate's negative eigenvalues clamped by ``eigh`` and its excess
    trace scaled away, the reference clamped as a state, and the
    trace-norm fidelity of their square roots."""
    rho_in = np.diag([1.0, 0.0]).astype(np.complex128)
    vals, vecs = np.linalg.eigh(apply_single_qubit_block(chi_hat, rho_in))
    cleaned = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    cleaned = cleaned / max(1.0, cleaned.trace().real)
    reference = apply_single_qubit_block(theoretical_chi_ad(gamma), rho_in)
    return _fidelity_core(cleaned, _clamped_psd(reference, FIDELITY_EIG_TOL))


# ---------------------------------------------------------------- dense channels


def dense_kraus(channel: channels_mod.QuantumChannel) -> np.ndarray:
    """The channel's Kraus operators as a stack of dense 2^n x 2^n matrices."""
    m, dim = channel.perm.shape
    ops = np.zeros((m, dim, dim), dtype=np.complex128)
    ops[np.arange(m)[:, None], np.arange(dim), channel.perm] = channel.coef
    return ops


def apply_channel(rho: DensityMatrix, kraus) -> DensityMatrix:
    """Apply sum_a K_a rho K_a^dag after checking Kraus completeness."""
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    if not ops:
        raise ContractViolationError("empty Kraus list")
    acc = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for k in ops:
        if k.shape != (rho.dim, rho.dim):
            raise ContractViolationError(f"Kraus shape {k.shape} does not match dim {rho.dim}")
        acc += k.conj().T @ k
    if np.max(np.abs(acc - np.eye(rho.dim))) > channels_mod.COMPLETENESS_TOL:
        raise ContractViolationError("Kraus operators do not sum to identity within 1e-10")
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for k in ops:
        out += k @ rho.data @ k.conj().T
    return DensityMatrix(rho.n, out)


# ---------------------------------------------------------------- setting distributions


def dense_syndrome_probs(matrix: np.ndarray, code: StabilizerCode) -> np.ndarray:
    """<b_s| M |b_s> for every syndrome row by one dense einsum over all
    (j, k), clipped at zero."""
    basis = syndrome_basis(code)
    probs = np.einsum("sj,jk,sk->s", basis.conj(), matrix, basis).real
    return np.clip(probs, 0.0, None)


def preprocessing_unitary(code: StabilizerCode, f_index: int) -> np.ndarray:
    """U_j = (1 + i F_j)/sqrt(2) on the full register."""
    f = to_matrix(located_error_table(code)[f_index][1])
    return (np.eye(f.shape[0], dtype=np.complex128) + 1j * f) / np.sqrt(2.0)


def dense_setting_distribution(rho: DensityMatrix, op: PreprocessingOp, code: StabilizerCode):
    """(outcomes, probs) of one setting, as
    :func:`dcqd.protocol.setting_distribution` returns them, from the
    dense einsum."""
    state = rho.data
    if op.kind is PreprocessingKind.IDENTITY:
        return (0,), dense_syndrome_probs(state, code)[None, :]
    if op.kind is PreprocessingKind.COHERENCE_UNITARY:
        u = preprocessing_unitary(code, op.f_index)
        return (0,), dense_syndrome_probs(u @ state @ u.conj().T, code)[None, :]
    f = to_matrix(located_error_table(code)[op.f_index][1])
    eye = np.eye(f.shape[0], dtype=np.complex128)
    rows = []
    for sign in (1, -1):
        proj = (eye + sign * f) / 2.0
        rows.append(dense_syndrome_probs(proj @ state @ proj, code))
    return (1, -1), np.stack(rows)


def loop_histogram_doc(hist) -> dict:
    """``cli._histogram_doc`` by one format call per cell."""
    length = int(np.log2(hist.counts.shape[1]))
    table = {}
    for row, outcome in enumerate(hist.outcomes):
        for s in range(hist.counts.shape[1]):
            v = hist.counts[row, s]
            if v == 0.0:
                continue
            bits = format(s, f"0{length}b")
            key = bits if outcome == 0 else f"{outcome:+d}|{bits}"
            table[key] = v if v != int(v) else int(v)
    return {
        "setting": hist.setting.label,
        "total": hist.total if hist.total != int(hist.total) else int(hist.total),
        "accepted": hist.accepted if hist.accepted != int(hist.accepted) else int(hist.accepted),
        "counts": table,
    }


# ---------------------------------------------------------------- process matrices


@lru_cache(maxsize=1)
def basis_matrices() -> np.ndarray:
    """Stacked dense forms of the 16 basis operators, shape (16, 4, 4)."""
    mats = np.stack([to_matrix(op) for op in basis_paulis()])
    mats.setflags(write=False)
    return mats


def apply_process(chi: ProcessMatrix, rho) -> np.ndarray:
    """Evaluate sum_mn chi_mn F_m rho F_n^dag on a 4x4 input."""
    mat = rho.data if hasattr(rho, "data") else np.asarray(rho, dtype=np.complex128)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 input, got {mat.shape}")
    f = basis_matrices()
    return np.einsum("mn,mij,jk,nlk->il", chi.data, f, mat, f.conj())


def kraus_chi(kraus) -> np.ndarray:
    """chi_mn = sum_a c_am conj(c_an) of 4x4 Kraus operators K_a, with
    c_am = tr(F_m^dag K_a)/4, so that the channel is
    sum_mn chi_mn F_m rho F_n^dag."""
    c = np.einsum("mji,aji->am", basis_matrices().conj(), np.asarray(kraus)) / 4.0
    return c.T @ c.conj()


def loop_chi_estimate(hists, code: StabilizerCode) -> np.ndarray:
    """The chi estimate of 31 histograms in standard_settings() order.

    The plain setting's accepted rate of located syndrome i is chi_ii.
    For each F_j and each i, with phi F_J = F_i F_j, the U_j rate of
    syndrome i gives Im(phi chi_Ji) and the P_j sign difference gives
    Re(phi chi_Ji); the result is averaged with its conjugate transpose.
    """
    syn = [s for _, _, s in located_error_table(code)]
    ops = basis_paulis()
    diag = hists[0].counts[0, syn] / hists[0].accepted
    raw = np.zeros((16, 16), dtype=np.complex128)
    np.fill_diagonal(raw, diag)
    for j in range(1, 16):
        hu, hp = hists[j], hists[15 + j]
        for i in range(16):
            prod = pauli.multiply(ops[i], ops[j])
            big_j = BASIS_INDEX[prod.letters]
            p_rot = hu.counts[0, syn[i]] / hu.accepted
            imag = (diag[i] + diag[big_j]) / 2.0 - p_rot
            real = (hp.counts[0, syn[i]] - hp.counts[1, syn[i]]) / hp.accepted
            raw[big_j, i] = np.conj(1j ** prod.phase) * (real + 1j * imag)
    return (raw + raw.conj().T) / 2.0


# ---------------------------------------------------------------- collapse simulator


class UniformStream:
    """Sequential uniform variates for a single simulated shot."""

    def __init__(self, generator: np.random.Generator):
        self._generator = generator

    def next_uniform(self) -> float:
        return float(self._generator.random())


def shot_stream(seed: int, setting_key: int, shot_index: int) -> UniformStream:
    # offset the scope so shot streams never collide with setting streams
    return UniformStream(scoped_generator(seed, setting_key, shot_index, 0x5A5A5A5A))


@dataclass(frozen=True)
class ShotRecord:
    setting: PreprocessingOp
    projective_outcome: int | None
    syndrome: int


def run_shot(
    probe: DensityMatrix,
    channel: channels_mod.QuantumChannel,
    op: PreprocessingOp,
    code: StabilizerCode,
    stream: UniformStream,
) -> ShotRecord:
    """Single-shot simulation with explicit state collapse.

    Applies the channel, then the preprocessing step, then measures the
    generators in order, consuming one uniform variate per projective
    event.  Equivalent in law to sampling from
    :func:`dcqd.protocol.setting_distribution`.
    """
    rho = channels_mod.apply(channel, probe)
    outcome = None
    if op.kind is PreprocessingKind.COHERENCE_UNITARY:
        rho = apply_unitary(rho, preprocessing_unitary(code, op.f_index))
    elif op.kind is PreprocessingKind.COHERENCE_PROJECTIVE:
        record, rho = measure_generator(
            rho, located_error_table(code)[op.f_index][1], stream.next_uniform(), generator_index=-1
        )
        outcome = record.outcome
    syndrome = 0
    for gi, g in enumerate(code.generators):
        record, rho = measure_generator(rho, g, stream.next_uniform(), generator_index=gi)
        syndrome = (syndrome << 1) | int(record.outcome != 1)
    return ShotRecord(setting=op, projective_outcome=outcome, syndrome=syndrome)


# ---------------------------------------------------------------- ancilla failures


def ancilla_syndrome_words(code: StabilizerCode) -> np.ndarray:
    """Syndrome integers of single-letter ancilla errors, shape (a, 3)."""
    return np.array(
        [
            [syndrome_of_error(code, single_site(code.n, site, letter)) for letter in "XYZ"]
            for site in sorted(code.ancilla_sites)
        ],
        dtype=np.int64,
    )


def xor_failure_tallies(code: StabilizerCode) -> dict:
    """Per-weight (detected, stabilizer, impostor) counts by syndrome XOR.

    Syndromes are linear in the error, so each of the 4^a - 1 non-identity
    ancilla patterns has the XOR of its letters' single-site words.  A
    pattern is detected when a detector-prefix bit (the leading, most
    significant bits) is set, a stabilizer when the syndrome is zero, and
    an impostor otherwise.
    """
    words = ancilla_syndrome_words(code)
    shift = code.r - code.detection_prefix
    tallies = {w: [0, 0, 0] for w in range(1, len(words) + 1)}
    for letters in product(range(4), repeat=len(words)):
        weight = sum(1 for letter in letters if letter)
        if weight == 0:
            continue
        syn = 0
        for site_words, letter in zip(words, letters):
            if letter:
                syn ^= int(site_words[letter - 1])
        if syn >> shift:
            tallies[weight][0] += 1
        elif syn == 0:
            tallies[weight][1] += 1
        else:
            tallies[weight][2] += 1
    return {w: tuple(t) for w, t in tallies.items()}


# ---------------------------------------------------------------- code certificates


def qec_condition_matrix(code: StabilizerCode, errors=None) -> np.ndarray:
    """Gram matrix C_ab = <0| E_a^dag E_b |0> on the codeword.

    Identity on the located set certifies that all sixteen principal
    errors are perfectly distinguishable; off-diagonal unit entries
    reveal degenerate pairs.
    """
    if errors is None:
        errors = [op for _, op, _ in located_error_table(code)]
    psi = codeword_state(code)
    images = np.stack([to_matrix(e) @ psi for e in errors])
    return images.conj() @ images.T


@dataclass(frozen=True)
class HammingBoundResult:
    satisfied: bool
    saturated: bool
    lhs: int
    rhs: int
    margin: int


def located_hamming_bound(n_principal: int, k: int, n: int) -> HammingBoundResult:
    """Counting bound for distinguishing every located error.

    sum_{j=0}^{n_p} C(n_p, j) 3^j 2^k <= 2^n: each of the 3^j C(n_p, j)
    principal error patterns needs its own syndrome subspace of dimension
    2^k.  Equality means every syndrome is spoken for.
    """
    lhs = sum(comb(n_principal, j) * 3 ** j for j in range(n_principal + 1)) * 2 ** k
    rhs = 2 ** n
    return HammingBoundResult(
        satisfied=lhs <= rhs,
        saturated=lhs == rhs,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
    )
