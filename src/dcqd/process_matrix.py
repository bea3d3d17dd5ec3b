"""Process matrices over the fixed two-qubit operator basis.

Any channel on the two principal qubits expands as

    E(rho) = sum_{m,n} chi_mn F_m rho F_n^dag

over the 16 Hermitian Pauli products F_m.  The basis order is fixed
everywhere in this package: identity first, then single-site letters on
qubit 1, then on qubit 2, then the nine two-site products row-major:

    II XI YI ZI IX IY IZ XX XY XZ YX YY YZ ZX ZY ZZ

This is also the row order of the located-error reference table, so a
process-matrix index doubles as a located-error index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import parse_pauli

__all__ = [
    "BASIS_LABELS",
    "BASIS_INDEX",
    "basis_paulis",
    "ProcessMatrix",
]

BASIS_LABELS = (
    "II", "XI", "YI", "ZI", "IX", "IY", "IZ",
    "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ",
)
BASIS_INDEX = {label: k for k, label in enumerate(BASIS_LABELS)}

HERMITICITY_TOL = 1e-10


@lru_cache(maxsize=1)
def basis_paulis() -> tuple:
    """The 16 two-qubit basis operators, phase +1, in canonical order."""
    return tuple(parse_pauli(label) for label in BASIS_LABELS)


@dataclass(frozen=True)
class ProcessMatrix:
    """Hermitian 16x16 chi matrix over the canonical basis."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.complex128)
        if arr.shape != (16, 16):
            raise ValueError(f"expected shape (16, 16), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("chi matrix entries must be finite")
        if np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
            raise ValueError("chi matrix must be Hermitian within 1e-10")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
