import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bd, jordan
from sidecomp import (
    conjugate,
    direct_sum,
    inflate,
    intertwiner_space,
    joint_commutant,
    joint_kernel,
    operator_tuple,
    restrict,
    validate_commuting,
)
from sidecomp._linalg import conditioned_invertible


def test_constructor_rejects_mismatched_dims():
    with pytest.raises(ValueError, match="dimension mismatch"):
        operator_tuple([np.eye(2), np.eye(3)])


def test_constructor_rejects_nonfinite():
    M = np.eye(2, dtype=complex)
    M[0, 0] = np.nan
    with pytest.raises(ValueError):
        operator_tuple([M])


def test_tuples_and_records_are_immutable():
    T = operator_tuple([jordan(2)])
    with pytest.raises(AttributeError):
        T.matrices = np.zeros((1, 2, 2))
    with pytest.raises(AttributeError):
        del T.matrices
    with pytest.raises(ValueError):
        T.matrices[0, 0, 0] = 1.0
    rep = validate_commuting(T)
    with pytest.raises(AttributeError):
        rep.passed = False
    assert rep._replace(passed=False).passed is False and rep.passed


class TestValidateCommuting:
    def test_identities_commute(self):
        rep = validate_commuting(operator_tuple([np.eye(2), np.eye(2)]))
        assert rep.max_commutator == 0.0 and rep.passed

    def test_scalar_matrix_commutes(self):
        rep = validate_commuting(operator_tuple([jordan(2), np.diag([1.0, 1.0])]))
        assert rep.max_commutator == 0.0 and rep.passed

    def test_jordan_against_distinct_diagonal_fails(self):
        # [J_2(0), diag(1,2)] = [[0,1],[0,0]] by direct computation,
        # Frobenius norm 1; relative scale is ||J|| ||D|| = sqrt(5)
        T = operator_tuple([jordan(2), np.diag([1.0, 2.0])])
        J, D = np.asarray(T[0]), np.asarray(T[1])
        raw = np.linalg.norm(J @ D - D @ J)
        assert raw == pytest.approx(1.0, abs=1e-15)
        rep = validate_commuting(T)
        assert not rep.passed
        assert rep.max_commutator == pytest.approx(raw / np.sqrt(5), rel=1e-12)


class TestDirectSumInflate:
    def test_scalar_blocks(self):
        S = direct_sum(operator_tuple([np.eye(1)]), operator_tuple([2 * np.eye(1)]))
        assert np.allclose(S[0], np.diag([1.0, 2.0]))

    def test_two_jordan_blocks(self):
        S = direct_sum(operator_tuple([jordan(2)]), operator_tuple([jordan(2)]))
        assert S.d == 4
        assert np.allclose(S[0], bd(jordan(2), jordan(2)))

    def test_direct_sum_preserves_commuting(self, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        T = operator_tuple([M, M @ M])
        S = direct_sum(T, T)
        assert validate_commuting(S).passed

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            direct_sum(operator_tuple([np.eye(2)]), operator_tuple([np.eye(2)] * 2))

    def test_inflate_one_is_identity_map(self):
        T = operator_tuple([jordan(2)])
        assert np.array_equal(inflate(T, 1).matrices, T.matrices)

    def test_inflate_scalar(self):
        assert np.allclose(inflate(operator_tuple([np.eye(1)]), 3)[0], np.eye(3))

    def test_inflate_zero_rejected(self):
        with pytest.raises(ValueError):
            inflate(operator_tuple([np.eye(1)]), 0)

    def test_inflate_jordan_commutant_dimension(self):
        # dim A'(J_2(0)^(2)) = 8: the matrix-algebra inflation identity over
        # the 2-dimensional commutant of a single Jordan block
        A = joint_commutant(inflate(operator_tuple([jordan(2)]), 2))
        assert A.algebra_dim == 8


class TestConjugate:
    def test_identity(self):
        T = operator_tuple([jordan(3)])
        assert np.allclose(conjugate(T, np.eye(3))[0], T[0])

    def test_permutation_swaps_diagonal(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(conjugate(T, P)[0], np.diag([2.0, 1.0]))

    def test_spectrum_invariant(self, rng):
        T = operator_tuple([np.diag([1.0, 2.0, -0.5]), np.diag([0.0, 1.0, 3.0])])
        X = conditioned_invertible(3, 50.0, rng)
        C = conjugate(T, X)
        for i in range(2):
            got = np.sort_complex(np.linalg.eigvals(C[i]))
            want = np.sort_complex(np.linalg.eigvals(T[i]))
            assert np.allclose(got, want, atol=1e-9)

    def test_spectrum_invariant_defective_at_perturbation_scale(self, rng):
        # eigenvalues of a defective block scatter like eps^(1/r) under
        # conjugation; invariance holds at that scale, not at 1e-12
        T = operator_tuple([jordan(3, 0.5)])
        X = conditioned_invertible(3, 50.0, rng)
        got = np.linalg.eigvals(conjugate(T, X)[0])
        assert np.abs(got - 0.5).max() <= 1e-3

    def test_singular_conjugator_rejected(self):
        T = operator_tuple([np.eye(2)])
        with pytest.raises(ValueError, match="singular"):
            conjugate(T, np.array([[1.0, 0.0], [0.0, 0.0]]))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip(self, seed):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 6))
        M = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        T = operator_tuple([M, M @ M])
        X = conditioned_invertible(d, float(r.uniform(1.0, 100.0)), r)
        back = conjugate(conjugate(T, X), np.linalg.inv(X))
        assert max(np.linalg.norm(back[i] - T[i]) for i in range(2)) <= 1e-10 * max(
            1.0, np.linalg.norm(M) ** 2
        )


class TestJointKernel:
    def test_single_jordan_kernel(self):
        kb = joint_kernel(operator_tuple([jordan(2)]), 0.0)
        assert kb.dimension == 1
        v = kb.basis[:, 0]
        assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12

    def test_intersection_of_kernels(self):
        kb = joint_kernel(operator_tuple([jordan(2), np.eye(2)]), (0.0, 1.0))
        assert kb.dimension == 1

    def test_invertible_has_trivial_kernel(self):
        assert joint_kernel(operator_tuple([np.eye(2)]), 0.0).dimension == 0

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6))
    def test_dimension_invariant_under_conjugation(self, seed):
        r = np.random.default_rng(seed)
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        X = conditioned_invertible(4, float(r.uniform(1.0, 80.0)), r)
        for w in (0.0, 1.0):
            assert joint_kernel(conjugate(T, X), w).dimension == \
                joint_kernel(T, w).dimension

    def test_inflation_multiplies_kernel_dimension(self):
        T = operator_tuple([jordan(3)])
        base = joint_kernel(T, 0.0).dimension
        for n in (2, 3):
            assert joint_kernel(inflate(T, n), 0.0).dimension == n * base

    def test_scalar_and_size_one_points_broadcast(self):
        T = operator_tuple([jordan(2), np.eye(2)])
        for w in (1.0, [1.0], np.array([[1.0]])):
            kb = joint_kernel(T, w)
            assert kb.point.tolist() == [1.0, 1.0] and kb.dimension == 0

    def test_point_of_wrong_length_rejected(self):
        T = operator_tuple([jordan(2), np.eye(2)])
        for w in ((0.0, 1.0, 2.0), [], np.zeros((2, 2))):
            with pytest.raises(ValueError, match="point must have 2 coordinates"):
                joint_kernel(T, w)


class TestRestrict:
    def test_full_range_is_similar(self):
        T = operator_tuple([jordan(2, 1.0)])
        R = restrict(T, np.eye(2))
        sp = intertwiner_space(T, R)
        assert sp.shape[0] >= 1

    def test_coordinate_projection(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        R = restrict(T, np.diag([1.0, 0.0]))
        assert R.d == 1 and abs(R[0][0, 0] - 1.0) < 1e-12

    def test_block_projection_recovers_jordan_block(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        P = bd(np.eye(2), np.zeros((2, 2)))
        R = restrict(T, P)
        assert np.allclose(R[0], jordan(2), atol=1e-12)

    def test_rejects_non_idempotent(self):
        T = operator_tuple([np.eye(2)])
        with pytest.raises(ValueError, match="idempotent"):
            restrict(T, np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_rejects_non_commuting_projection(self):
        T = operator_tuple([jordan(2)])
        with pytest.raises(ValueError, match="commute"):
            restrict(T, np.diag([1.0, 0.0]))

    def test_direct_sum_then_restrict_recovers_summands(self, rng):
        A = operator_tuple([jordan(2, 0.5), jordan(2, 0.5) @ jordan(2, 0.5)])
        B = operator_tuple([jordan(3, -1.0), jordan(3, -1.0) @ jordan(3, -1.0)])
        S = direct_sum(A, B)
        PA = bd(np.eye(2), np.zeros((3, 3)))
        PB = bd(np.zeros((2, 2)), np.eye(3))
        for P, orig in ((PA, A), (PB, B)):
            R = restrict(S, P)
            sp = intertwiner_space(orig, R)
            # unitary equivalence witnessed by an intertwiner of full rank
            assert sp.shape[0] >= 1
            combo = sp[0]
            s = np.linalg.svd(combo, compute_uv=False)
            assert s[-1] > 1e-10

