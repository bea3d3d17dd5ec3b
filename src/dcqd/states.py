"""Dense density-matrix engine for small registers.

States are exact 2^n x 2^n complex matrices; nothing here is stochastic.
Construction checks hermiticity, unit trace (1e-10) and positive
semidefiniteness (eigenvalues above -1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensityMatrix",
    "ContractViolationError",
    "InvalidStateError",
    "apply_channel",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-10


class ContractViolationError(ValueError):
    """An operator handed to the engine fails its mathematical contract."""


class InvalidStateError(ValueError):
    """A matrix is not a valid density matrix within tolerance."""


@dataclass(frozen=True)
class DensityMatrix:
    n: int
    data: np.ndarray

    def __post_init__(self):
        d = 2 ** self.n
        arr = np.array(self.data, dtype=np.complex128)
        if arr.shape != (d, d):
            raise InvalidStateError(f"expected shape {(d, d)}, got {arr.shape}")
        if np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
            raise InvalidStateError("matrix is not Hermitian within 1e-10")
        tr = arr.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace {tr} deviates from 1 beyond 1e-10")
        lo = float(np.linalg.eigvalsh(arr)[0])
        if lo < -PSD_TOL:
            raise InvalidStateError(f"negative eigenvalue {lo} below -1e-9")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return 2 ** self.n


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
    if np.max(np.abs(acc - np.eye(rho.dim))) > COMPLETENESS_TOL:
        raise ContractViolationError("Kraus operators do not sum to identity within 1e-10")
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    for k in ops:
        out += k @ rho.data @ k.conj().T
    return DensityMatrix(rho.n, out)
