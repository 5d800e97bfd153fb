import numpy as np
import pytest

from mubcert.errors import DimensionMismatch, NotHermitian, NotPSD
from mubcert.linalg import (
    eig_hermitian,
    is_hermitian,
    is_psd,
    operator_norm,
    psd_sqrt,
    validate_povm,
)
from mubcert.mub import hadamard_mub_pair_d4, random_unitary


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestEigHermitian:
    def test_identity(self):
        w, _ = eig_hermitian(np.eye(4))
        assert np.allclose(w, [1, 1, 1, 1])

    def test_diagonal_descending_with_standard_eigenvectors(self):
        w, v = eig_hermitian(np.diag([3.0, 1.0, -2.0]))
        assert np.allclose(w, [3, 1, -2])
        # eigenvector for eigenvalue 3 is e_0, etc., up to phase
        for col, basis_idx in zip(range(3), [0, 1, 2]):
            assert abs(abs(v[basis_idx, col]) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_reconstruction_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        h = random_hermitian(d, rng)
        w, v = eig_hermitian(h)
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10
        # descending order and orthonormality
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigenvalues_invariant_under_rotation(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(5, rng)
        u = random_unitary(5, rng)
        w1, _ = eig_hermitian(h)
        w2, _ = eig_hermitian(u @ h @ u.conj().T)
        assert np.allclose(w1, w2, atol=1e-10)


class TestOperatorNorm:
    def test_identity(self):
        assert abs(operator_norm(np.eye(5)) - 1.0) < 1e-12

    def test_rank1_projector(self):
        v = np.array([1.0, 2.0, -1.0j]) / np.sqrt(6)
        assert abs(operator_norm(np.outer(v, v.conj())) - 1.0) < 1e-12

    def test_cross_basis_projector_product(self):
        # ||A_1 B_1|| = |<a_1|b_1>| = 0.5 for the ququart pair
        pair = hadamard_mub_pair_d4()
        prod = pair.first.effects[0] @ pair.second.effects[0]
        a1 = pair.first.basis_vectors()[0]
        b1 = pair.second.basis_vectors()[0]
        assert abs(np.vdot(a1, b1)) == pytest.approx(0.5, abs=1e-12)
        assert operator_norm(prod) == pytest.approx(0.5, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            u = random_unitary(6, rng)
            assert abs(
                operator_norm(u @ m @ u.conj().T) - operator_norm(m)
            ) < 1e-10


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_projector_idempotent(self):
        v = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
        p = np.outer(v, v.conj())
        assert np.allclose(psd_sqrt(p), p, atol=1e-10)

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = g @ g.conj().T
        s = psd_sqrt(m)
        assert np.max(np.abs(s @ s - m)) < 1e-10
        assert is_hermitian(s) and is_psd(s, tol=1e-9)

    def test_clamps_marginal_negatives(self):
        m = np.diag([1.0, -1e-12])
        s = psd_sqrt(m)
        assert s[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestValidatePovm:
    def test_projective_basis(self):
        pair = hadamard_mub_pair_d4()
        assert validate_povm(pair.first.effects, tol=1e-9)

    def test_trivial_pair(self):
        assert validate_povm([np.eye(2) / 2, np.eye(2) / 2], tol=1e-9)

    def test_oversummed(self):
        assert not validate_povm([np.eye(2), np.eye(2)], tol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_povm([np.eye(2), np.eye(3)])


class TestPredicates:
    def test_is_psd_rejects_non_hermitian(self):
        assert not is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))
