import numpy as np
import pytest

import sidecomp._linalg as linalg
import sidecomp.commutant as commutant
from conftest import jordan
from sidecomp import joint_commutant, operator_tuple
from sidecomp._linalg import nullspace, orthonormal_range, rank_cut
from sidecomp.policy import NumericalDegeneracyError


class TestRankCut:
    def test_counts_above_threshold(self):
        assert rank_cut(np.array([1.0, 0.5, 1e-14]), 1e-10) == 2

    def test_strict_straddle_raises(self):
        s = np.array([1.0, 3e-10])
        with pytest.raises(NumericalDegeneracyError, match="straddle"):
            rank_cut(s, 1e-10)
        assert rank_cut(s, 1e-10, strict=False) == 2

    def test_scale_floors_a_zero_matrix(self):
        s = np.array([1e-12, 0.0])
        assert rank_cut(s, 1e-10) == 1
        assert rank_cut(s, 1e-10, scale=1.0) == 0
        assert rank_cut(np.zeros(3), 1e-10, scale=1.0) == 0

    def test_empty_input(self):
        assert rank_cut(np.zeros(0), 1e-10) == 0
        assert rank_cut(np.zeros(0), 1e-10, scale=1.0) == 0


class TestNullspace:
    def test_wide(self):
        M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
        N = nullspace(M, 1e-10)
        assert N.shape == (3, 1)
        assert np.allclose(M @ N, 0.0) and np.isclose(abs(N[2, 0]), 1.0)

    def test_tall(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]], dtype=complex)
        N = nullspace(M, 1e-10)
        assert N.shape == (2, 1)
        assert np.allclose(M @ N, 0.0)

    def test_full_rank_tall(self):
        assert nullspace(np.eye(3, 2, dtype=complex), 1e-10).shape == (2, 0)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty(self, shape):
        N = nullspace(np.zeros(shape, dtype=complex), 1e-10)
        assert np.array_equal(N, np.eye(shape[1]))


class TestOrthonormalRange:
    def test_tall_non_strict(self):
        S = np.array([[1.0, 1.0], [1.0, 1.0 + 3e-6], [0.0, 0.0]], dtype=complex)
        U = orthonormal_range(S, 1e-6, strict=False)
        assert U.shape == (3, 1)
        assert np.allclose(U.conj().T @ U, np.eye(1))
        with pytest.raises(NumericalDegeneracyError):
            orthonormal_range(S, 1e-6)

    def test_empty_columns(self):
        assert orthonormal_range(np.zeros((4, 0)), 1e-6, strict=False).shape == (4, 0)


class TestJointCommutantStackSvd:
    def count_svds(self, monkeypatch, T):
        shapes = []
        original = linalg.svd_robust

        def counting(M, *args, **kwargs):
            shapes.append(M.shape)
            return original(M, *args, **kwargs)

        monkeypatch.setattr(linalg, "svd_robust", counting)
        monkeypatch.setattr(commutant, "svd_robust", counting)
        try:
            joint_commutant(T)
        except NumericalDegeneracyError as exc:
            assert "identity not contained" in str(exc)
        return shapes

    def test_one_svd_on_success(self, monkeypatch):
        # the spin-up takes one SVD per rank decision: three breadth-first
        # levels of words (N, N^2, then N^3 = 0), the complement of range N,
        # Phi and the recovered basis; no 9 x 9 Sylvester stack, no retry
        T = operator_tuple([jordan(3)])
        assert self.count_svds(monkeypatch, T) == [(1, 9), (1, 9), (1, 9), (3, 3), (3, 3),
                                                   (9, 3)]

    def test_one_svd_when_identity_is_missed(self, monkeypatch):
        # entrywise noise of 1e-9 lifts the commutant's singular values off
        # zero, so the identity's direction is resolved only to ~1e-7: the
        # spin-up's cuts straddle, and the fallback stack is taken once
        r = np.random.default_rng(0)
        A = jordan(4)
        T = operator_tuple([A + 1e-9 * r.standard_normal((4, 4)),
                            A @ A + 1e-9 * r.standard_normal((4, 4))])
        with pytest.raises(NumericalDegeneracyError, match="identity not contained"):
            joint_commutant(T)
        shapes = self.count_svds(monkeypatch, T)
        assert shapes[-1] == (32, 16) and shapes.count((32, 16)) == 1


class TestNullspaceOrthonormality:
    def test_non_orthonormal_gesdd_basis_is_recomputed(self, monkeypatch):
        # gesdd has returned right singular vectors with ||V*V - I|| ~ 1e-7
        # on commutant stacks; imitate that on a 3-dimensional nullspace
        M = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        real_svd = np.linalg.svd

        def sloppy_svd(A, *args, **kwargs):
            U, s, Vh = real_svd(A, *args, **kwargs)
            Vh = Vh.copy()
            Vh[2] += 1e-6 * Vh[1]
            return U, s, Vh

        drivers = []
        robust = linalg.svd_robust

        def recording(A, *args, **kwargs):
            drivers.append(kwargs.get("driver", "gesdd"))
            return robust(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", sloppy_svd)
        monkeypatch.setattr(linalg, "svd_robust", recording)
        N = nullspace(M, 1e-10)
        assert drivers == ["gesdd", "gesvd"]
        assert N.shape == (4, 3)
        assert np.linalg.norm(N.conj().T @ N - np.eye(3)) <= 1e-12
        assert np.allclose(M @ N, 0.0)
