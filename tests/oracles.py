"""Independent reference implementations that only the tests use.

* a shot-by-shot simulator that collapses the state one generator at a
  time, which must agree in law with the syndrome-basis distributions of
  :mod:`dcqd.protocol`;
* small dense-state helpers (basis states, unitaries, measurement,
  expectation values, partial trace, state fidelity);
* the operator-sum evaluation of a process matrix;
* the paper's code certificates: the located-error counting bound and
  the Knill-Laflamme Gram matrix on the codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from dcqd import channels as channels_mod
from dcqd import pauli
from dcqd.analysis import FIDELITY_EIG_TOL, _clamped_psd, _fidelity_core
from dcqd.codes import Syndrome, StabilizerCode, codeword_state, located_error_table
from dcqd.pauli import PauliOperator, to_matrix
from dcqd.process_matrix import ProcessMatrix, basis_paulis
from dcqd.protocol import (
    PreprocessingKind,
    PreprocessingOp,
    located_embedded,
    preprocessing_unitary,
)
from dcqd.rng import scoped_generator
from dcqd.states import ContractViolationError, DensityMatrix

UNITARITY_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10
# Selecting a measurement branch this improbable means the caller's uniform
# variate mechanism is broken, not that the event happened.
IMPOSSIBLE_BRANCH_TOL = 1e-12


class ImpossibleOutcomeError(RuntimeError):
    """A measurement branch with (numerically) zero probability was selected."""


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
    syndrome: Syndrome


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
            rho, located_embedded(code)[op.f_index], stream.next_uniform(), generator_index=-1
        )
        outcome = record.outcome
    bits = []
    for gi, g in enumerate(code.generators):
        record, rho = measure_generator(rho, g, stream.next_uniform(), generator_index=gi)
        bits.append(0 if record.outcome == 1 else 1)
    return ShotRecord(setting=op, projective_outcome=outcome, syndrome=Syndrome(tuple(bits)))


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
    images = np.stack([pauli.to_matrix(e) @ psi for e in errors])
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
