import importlib.util
import re
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import sidecomp._linalg as linalg
import sidecomp.commutant as commutant
from conftest import jordan
from sidecomp import joint_commutant, operator_tuple
from sidecomp._linalg import (
    cluster_eigenvalues,
    nullspace,
    orthonormal_range,
    rank_cut,
)
from sidecomp.policy import SPLIT_GAPS, NumericalDegeneracyError


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


class TestBlockNullspace:
    def test_stacked_shapes_match_the_blocks_one_at_a_time(self, monkeypatch):
        # blocks of three shapes, one of them lone and one empty: the stacked
        # SVDs give every block the basis it gets alone at the shared scale
        rng = np.random.default_rng(7)

        def block(rows, cols, rank):
            a = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
            return a @ (rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))

        blocks = [block(2, 3, 1), block(3, 3, 2), block(2, 3, 2), np.zeros((0, 2)),
                  block(3, 3, 3), block(4, 2, 1), block(2, 3, 2)]
        scale = max(float(np.linalg.svd(B, compute_uv=False).max()) for B in blocks if B.size)
        alone = [nullspace(B, 1e-10, scale=scale) for B in blocks]
        shapes, real = [], linalg.svd_robust

        def recording(M, *args, **kwargs):
            shapes.append(M.shape)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(linalg, "svd_robust", recording)
        stacked = linalg.nullspaces(blocks, 1e-10, [0.0] * len(blocks), joint=True)
        assert shapes == [(3, 2, 3), (2, 3, 3), (4, 2)]
        assert [N.shape[1] for N in stacked] == [2, 1, 1, 2, 0, 1, 1]
        assert all(np.array_equal(a, b) for a, b in zip(alone, stacked))

    def test_failed_stacked_svd_is_redone_per_matrix(self, monkeypatch):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        want = [linalg.svd_robust(A, full_matrices=False) for A in M]
        real = np.linalg.svd

        def no_stacks(A, *args, **kwargs):
            if A.ndim == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", no_stacks)
        got = linalg.svd_robust(M, full_matrices=False)
        for factor, parts in zip(got, zip(*want)):
            assert np.array_equal(factor, np.stack(parts))


class TestGatheredMatmul:
    @staticmethod
    def one_per_column(rng, d, zero_cols, dtype):
        M = np.zeros((d, d), dtype=dtype)
        rows = rng.integers(0, d, d)
        vals = rng.standard_normal(d)
        if dtype == complex:
            vals = vals + 1j * rng.standard_normal(d)
        M[rows, np.arange(d)] = vals
        M[:, zero_cols] = 0.0
        return M

    def test_reads_rows_and_values(self):
        M = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        rows, vals = linalg.column_entries(M)
        assert rows.tolist() == [1, 0, 0] and vals.tolist() == [3.0, 2.0, 0.0]
        assert linalg.column_entries(M + np.eye(3)) is None        # column 0 has two
        assert linalg.column_entries(np.ones((2, 2))) is None

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_blas(self, dtype, seed):
        # one term per entry: bitwise BLAS's on real entries, roundoff on
        # complex ones; the gathered path is taken on both
        rng = np.random.default_rng(seed)
        A = self.one_per_column(rng, 9, [2, 5], dtype)
        B = self.one_per_column(rng, 9, [0], dtype)
        for X, Y in ((A, B), (B, A), (A, A)):
            assert linalg.column_entries(X) is not None and linalg.column_entries(Y) is not None
            got, want = linalg.matmul(X, Y), X @ Y
            assert got.dtype == want.dtype
            if dtype == float:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=1e-15, atol=0.0)

    def test_any_other_pair_takes_blas(self):
        rng = np.random.default_rng(1)
        P = self.one_per_column(rng, 5, [], float)
        D = rng.standard_normal((5, 5))
        assert np.array_equal(linalg.matmul(P, D), P @ D)
        assert np.array_equal(linalg.matmul(D, P), D @ P)


class TestOrthonormalRange:
    def test_tall_straddle_raises(self):
        S = np.array([[1.0, 1.0], [1.0, 1.0 + 3e-6], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NumericalDegeneracyError):
            orthonormal_range(S, 1e-6)
        U = orthonormal_range(S[:, :1] @ np.ones((1, 2)), 1e-6)
        assert U.shape == (3, 1)
        assert np.allclose(U.conj().T @ U, np.eye(1))

    def test_empty_columns(self):
        assert orthonormal_range(np.zeros((4, 0)), 1e-6).shape == (4, 0)


class TestCommutatorNorms:
    def test_matches_the_commutators_one_by_one(self):
        r = np.random.default_rng(0)
        T = operator_tuple([jordan(4), jordan(4) @ jordan(4) + np.eye(4)])
        Xs = r.standard_normal((3, 4, 4)) + 1j * r.standard_normal((3, 4, 4))
        want = [[np.linalg.norm(X @ A - A @ X) for A in T] for X in Xs]
        assert np.allclose(linalg.commutator_norms(Xs, T), want, rtol=1e-14, atol=0.0)

    def test_members_of_the_commutant_give_zero(self):
        T = operator_tuple([jordan(3)])
        Xs = np.stack([np.eye(3), jordan(3), jordan(3) @ jordan(3)]).astype(complex)
        assert np.array_equal(linalg.commutator_norms(Xs, T), np.zeros((3, 1)))


def union_find_clusters(eigs, gap_rtol):
    """Reference single linkage by union-find over all pairs; groups in the
    order of their smallest index, then sorted by mean."""
    eigs = np.asarray(eigs)
    n = eigs.size
    if n == 0:
        return []
    tol = gap_rtol * max(1.0, float(np.abs(eigs).max()))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = [np.array(g) for g in groups.values()]
    out.sort(key=lambda g: (float(np.mean(eigs[g]).real), float(np.mean(eigs[g]).imag)))
    return out


# points on a lattice of step h: exact ties, and chains whose links sit at,
# just inside or just outside the gap
lattice_clouds = st.tuples(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2)), max_size=24),
    st.sampled_from([0.25, 0.5, 1.0, 1.0 + 1e-12, 1.0 - 1e-12]),
    st.sampled_from(SPLIT_GAPS + (0.1, 0.25, 0.5)),
).map(lambda t: (np.array([complex(a, b) * t[1] * t[2] for a, b in t[0]]), t[2]))
float_clouds = st.tuples(
    st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), max_size=24),
    st.sampled_from(SPLIT_GAPS + (0.3, 1.0)),
).map(lambda t: (np.array([complex(a, b) for a, b in t[0]]), t[1]))


class TestClusterEigenvalues:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(lattice_clouds, float_clouds))
    def test_matches_union_find(self, cloud):
        eigs, gap = cloud
        got, ref = cluster_eigenvalues(eigs, gap), union_find_clusters(eigs, gap)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.dtype.kind == "i" and np.array_equal(g, r)

    def test_means_tied_to_an_ulp_keep_their_order(self):
        # both clusters' means are 0.1 in exact arithmetic; np.mean puts
        # {0, 1, 3} an ulp lower, so it comes first, and any other summation
        # order of the cluster means can swap the two
        eigs = 0.05 * np.array([3 + 2j, 2 + 2j, 2 - 1j, 1 + 1j])
        groups = cluster_eigenvalues(eigs, 0.1)
        assert [g.tolist() for g in groups] == [[0, 1, 3], [2]]
        assert [g.tolist() for g in union_find_clusters(eigs, 0.1)] == [[0, 1, 3], [2]]


class TestNullspaces:
    """One routine for every nullspace: matrices of any shapes, one stacked
    SVD per shape, each matrix cut at its own scale."""

    @staticmethod
    def recorded_svds(monkeypatch):
        seen, real = [], linalg.svd_robust

        def recording(M, *args, **kwargs):
            seen.append(M)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(linalg, "svd_robust", recording)
        return seen

    def test_mixed_shapes_are_cut_one_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(11)

        def low_rank(rows, cols, rank):
            a = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
            return a @ (rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))

        # the third matrix's 3e-10 lies within a factor 10 of its cut 1e-10
        Ms = [low_rank(2, 3, 1), low_rank(3, 3, 2), np.diag([1.0, 3e-10, 0.0]).astype(complex),
              low_rank(4, 2, 1), low_rank(3, 3, 3), np.zeros((0, 2), dtype=complex)]
        scales = [0.0, 5.0, 1.0, 2.0, 0.5, 1.0]
        alone = [nullspace(M, 1e-10, scale) for M, scale in zip(Ms, scales)]
        seen = self.recorded_svds(monkeypatch)
        strict = linalg.nullspaces(Ms, 1e-10, scales, strict=True)
        assert [M.shape for M in seen] == [(2, 3), (3, 3, 3), (4, 2)]
        assert strict[2] is None
        assert [N.shape[1] for N in strict if N is not None] == [2, 1, 1, 0, 2]
        assert all(np.array_equal(N, A) for N, A in zip(strict, alone) if N is not None)
        loose = linalg.nullspaces(Ms, 1e-10, scales)
        assert loose[2].shape[1] == 1
        assert all(np.array_equal(N, A) for N, A in zip(loose, alone))

    def test_joint_cut_is_the_block_diagonal_cut(self):
        # 1e-9 * C is far below the block-diagonal matrix's cut 1e-10 * 1e3,
        # far above its own cut 1e-10 * ||C||
        rng = np.random.default_rng(12)
        C = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        blocks = [np.diag([1e3, 1.0]).astype(complex), 1e-9 * C]
        whole = nullspace(sla.block_diag(*blocks), 1e-10)
        joint = linalg.nullspaces(blocks, 1e-10, [0.0, 0.0], joint=True)
        assert [N.shape[1] for N in joint] == [0, 2] and whole.shape[1] == 2
        P = sla.block_diag(*[N @ N.conj().T for N in joint])
        assert np.allclose(P, whole @ whole.conj().T, atol=1e-12)
        assert [N.shape[1] for N in linalg.nullspaces(blocks, 1e-10, [0.0, 0.0])] == [0, 0]

    def test_a_lone_matrix_reaches_the_svd_uncopied(self, monkeypatch):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        A = rng.standard_normal((2, 3, 3))
        seen = self.recorded_svds(monkeypatch)
        linalg.nullspaces([A[0], M, A[1]], 1e-10, [1.0] * 3)
        assert seen[1] is M and seen[0].shape == (2, 3, 3)
        nullspace(M, 1e-10)
        assert seen[-1] is M


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
        # the spin-up takes one SVD per rank decision that is not exact:
        # two breadth-first levels of words (N, N^2; the level N^3 = 0 is
        # zero, so it takes none), the complement of range N and Phi. The
        # recovered basis takes none: Householder QR orthonormalizes it and
        # its independence is read off the 3 x 3 triangular factor. No 9 x 9
        # Sylvester stack, no retry. The generators' nullspace is alone in its
        # shape, so it reaches the SVD as a matrix
        T = operator_tuple([jordan(3)])
        assert self.count_svds(monkeypatch, T) == [(1, 1, 9), (1, 1, 9), (3, 3), (1, 3, 3)]

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

        drivers = []

        def sloppy_svd(A, *args, **kwargs):
            drivers.append("gesdd")
            U, s, Vh = real_svd(A, *args, **kwargs)
            Vh = Vh.copy()
            Vh[2] += 1e-6 * Vh[1]
            return U, s, Vh

        gesvd = linalg._gesvd

        def recording(A, *args, **kwargs):
            drivers.append("gesvd")
            return gesvd(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", sloppy_svd)
        monkeypatch.setattr(linalg, "_gesvd", recording)
        N = nullspace(M, 1e-10)
        assert drivers == ["gesdd", "gesvd"]
        assert N.shape == (4, 3)
        assert np.linalg.norm(N.conj().T @ N - np.eye(3)) <= 1e-12
        assert np.allclose(M @ N, 0.0)


class TestFlapackRoutines:
    """The routines that call scipy's LAPACK wrappers through
    ``_linalg._flapack`` return what the scipy.linalg calls they replace
    return, bit for bit."""

    @staticmethod
    def schur_input(which):
        r = np.random.default_rng(3)
        if which == "random":
            return r.standard_normal((6, 6)) + 1j * r.standard_normal((6, 6))
        if which == "conjugated_jordan":
            S = linalg.conditioned_invertible(5, 10.0, r)
            return S @ jordan(5, 0.3) @ np.linalg.inv(S)
        return np.array([[2.0 - 1.0j]])

    @pytest.mark.parametrize("which", ["random", "conjugated_jordan", "scalar"])
    def test_schur_matches_scipy(self, which):
        z = self.schur_input(which)
        T, Z = linalg.schur(z)
        T_ref, Z_ref = sla.schur(z, output="complex")
        assert np.array_equal(T, T_ref) and np.array_equal(Z, Z_ref)

    def test_schur_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            linalg.schur(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_schur_raises_on_zgees_failure(self, monkeypatch):
        flapack = linalg._flapack()
        real = flapack.zgees

        def failing(*args, **kw):
            return (*real(*args, **kw)[:-1], 1)

        monkeypatch.setattr(flapack, "zgees", failing)
        with pytest.raises(np.linalg.LinAlgError):
            linalg.schur(np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("shape,dtype", [((7, 4), complex), ((4, 7), complex),
                                             ((6, 5), float)])
    @pytest.mark.parametrize("full_matrices", [True, False])
    def test_gesvd_fallbacks_match_scipy(self, monkeypatch, shape, dtype, full_matrices):
        r = np.random.default_rng(5)
        M = r.standard_normal(shape).astype(dtype)
        if dtype is complex:
            M += 1j * r.standard_normal(shape)

        def not_converged(*args, **kw):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", not_converged)
        got = linalg.svd_robust(M, full_matrices=full_matrices)
        ref = sla.svd(M, full_matrices=full_matrices, lapack_driver="gesvd")
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, ref))
        assert np.array_equal(linalg.svdvals_robust(M),
                              sla.svd(M, compute_uv=False, lapack_driver="gesvd"))

    def test_missing_wrappers_name_the_path(self, monkeypatch, tmp_path):
        # with scipy's module not loaded and no wrapper file in scipy's
        # package directory, the loader raises and names where it looked
        fake = importlib.util.spec_from_loader("scipy", loader=None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        linalg._flapack.cache_clear()
        try:
            looked_for = re.escape(str(tmp_path / "linalg" / "_flapack"))
            with pytest.raises(ImportError, match=looked_for):
                linalg._flapack()
        finally:
            linalg._flapack.cache_clear()
