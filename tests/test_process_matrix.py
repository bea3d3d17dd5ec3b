"""Unit tests for the operator basis and process-matrix container."""

import numpy as np
import pytest

from dcqd.process_matrix import BASIS_INDEX, BASIS_LABELS, ProcessMatrix, basis_paulis
from oracles import apply_process, basis_matrices, dense_kraus

CANONICAL = (
    "II", "XI", "YI", "ZI", "IX", "IY", "IZ",
    "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ",
)


def test_label_order_is_frozen():
    assert BASIS_LABELS == CANONICAL
    assert all(BASIS_INDEX[label] == i for i, label in enumerate(CANONICAL))


def test_basis_paulis_match_labels():
    for label, op in zip(BASIS_LABELS, basis_paulis()):
        assert op.letters == label
        assert op.phase == 0


def test_basis_matrices_hermitian_unitary_traceless():
    mats = basis_matrices()
    assert mats.shape == (16, 4, 4)
    for i, m in enumerate(mats):
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(4))
        if i > 0:
            assert abs(np.trace(m)) < 1e-12


def test_basis_orthogonality():
    mats = basis_matrices()
    gram = np.einsum("aij,bji->ab", mats, mats) / 4.0
    assert np.allclose(gram, np.eye(16), atol=1e-12)


def test_process_matrix_requires_hermitian():
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        ProcessMatrix(bad)
    # a NaN compares false with every bound, so the closed-form score
    # would turn it into a NaN fidelity
    for value in (np.nan, np.inf):
        bad = np.zeros((16, 16), dtype=complex)
        bad[2, 2] = value
        with pytest.raises(ValueError, match="finite"):
            ProcessMatrix(bad)


def test_process_matrix_entry_by_label_and_index():
    data = np.zeros((16, 16), dtype=complex)
    data[0, 0] = 1.0
    data[1, 3] = 0.5j
    data[3, 1] = -0.5j
    chi = ProcessMatrix(data)
    assert chi.data[BASIS_INDEX["II"], BASIS_INDEX["II"]] == 1.0
    assert chi.data[BASIS_INDEX["XI"], BASIS_INDEX["ZI"]] == 0.5j
    assert chi.data[3, 1] == -0.5j
    assert np.allclose(chi.data.diagonal().real, data.diagonal().real)


def test_identity_process_is_identity_map(rng):
    data = np.zeros((16, 16), dtype=complex)
    data[0, 0] = 1.0
    chi = ProcessMatrix(data)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        assert np.allclose(apply_process(chi, rho), rho, atol=1e-12)


def test_apply_process_matches_kraus_oracle(rng):
    # dual route: chi built algebraically from Kraus operators expanded
    # in the operator basis must reproduce the Kraus action exactly
    from dcqd.channels import amplitude_damping

    gamma = 0.37
    kraus = dense_kraus(amplitude_damping(gamma, site=1, n=2))
    mats = basis_matrices()
    coeff = np.array([[np.trace(f.conj().T @ k) / 4.0 for f in mats] for k in kraus])
    chi = ProcessMatrix(np.einsum("am,an->mn", coeff, coeff.conj()))
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        direct = sum(k @ rho @ k.conj().T for k in kraus)
        assert np.allclose(apply_process(chi, rho), direct, atol=1e-12)


def test_apply_process_rejects_wrong_shape():
    data = np.zeros((16, 16), dtype=complex)
    data[0, 0] = 1.0
    with pytest.raises(ValueError):
        apply_process(ProcessMatrix(data), np.eye(8))
