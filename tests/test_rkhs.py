import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sidecomp import (
    check_model_hypotheses,
    check_sphere_conditions,
    defect_operator,
    gamma_transform,
    joint_commutant,
    joint_eigenvector,
    joint_kernel,
    multishift_weights,
    operator_tuple,
    p_sequence,
    p_sequence_closed_form,
    similar,
    spherical_shift,
    truncated_tuple,
    validate_commuting,
)
import sidecomp._linalg as linalg
import sidecomp.rkhs as rkhs
from sidecomp._linalg import frob, min_eig_hermitian, nullspace
from sidecomp.policy import MODEL_SOLVABILITY_BAR, NumericPolicy
from sidecomp.rkhs import DiagonalKernelSpec, TruncationGrid


def exact_ball_coefficient(alpha) -> Fraction:
    """|alpha|! / alpha! as an exact rational (independent oracle)."""
    n = sum(alpha)
    out = Fraction(math.factorial(n))
    for a in alpha:
        out /= math.factorial(a)
    return out


def exact_bergman_norm_sq(alpha, k: int) -> Fraction:
    """alpha! Gamma(k)/Gamma(k+|alpha|) exactly for integer k."""
    n = sum(alpha)
    num = Fraction(1)
    for a in alpha:
        num *= math.factorial(a)
    den = Fraction(1)
    for j in range(n):
        den *= (k + j)
    return num / den


class TestGrid:
    def test_size_matches_binomial(self):
        for m, dmax in [(1, 5), (2, 4), (3, 6)]:
            g = TruncationGrid.build(m, dmax)
            assert g.size == math.comb(dmax + m, m)

    def test_graded_then_lexicographic(self):
        g = TruncationGrid.build(2, 2)
        assert g.indices == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))

    @pytest.mark.parametrize("order", ["grlex", "grevlex"])
    def test_direct_enumeration_matches_the_filtered_cube(self, order):
        # the graded indices, generated directly, are those of the cube
        # {0..dmax}^m cut to |a| <= dmax and sorted by the order's key
        key = {"grlex": lambda a: (sum(a), a),
               "grevlex": lambda a: (sum(a), a[::-1])}[order]
        for m in range(1, 5):
            for dmax in range(7):
                cube = product(range(dmax + 1), repeat=m)
                want = tuple(sorted((a for a in cube if sum(a) <= dmax), key=key))
                assert TruncationGrid.build(m, dmax, order).indices == want, (m, dmax)

    def test_round_trip_index_maps(self):
        g = TruncationGrid.build(3, 4)
        for i, a in enumerate(g.indices):
            assert g.index_of[a] == i


class TestCoefficientRules:
    def test_ball_preset_matches_exact_multinomials(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        for a in TruncationGrid.build(2, 10).indices:
            want = float(exact_ball_coefficient(a))
            assert spec.fhat(a) == pytest.approx(want, rel=1e-13)

    def test_bergman_preset_matches_exact_rationals(self):
        for k in (2, 3):
            spec = DiagonalKernelSpec.bergman(1, k)
            for a in TruncationGrid.build(1, 10).indices:
                want = 1.0 / float(exact_bergman_norm_sq(a, k))
                assert spec.fhat(a) == pytest.approx(want, rel=1e-13)

    def test_normalized_at_origin(self):
        for spec in (DiagonalKernelSpec.drury_arveson(3),
                     DiagonalKernelSpec.bergman(2, 2.5),
                     DiagonalKernelSpec.hardy(2)):
            assert spec.fhat((0,) * spec.m) == 1.0

    def test_custom_rule_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            DiagonalKernelSpec.custom(1, {(0,): 1.0, (1,): -2.0})


class TestWeights:
    def test_ball_weight_formula(self):
        # sqrt(fhat(a)/fhat(a+e_i)) = sqrt((a_i+1)/(|a|+1)) for the ball kernel
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 6)
        W = multishift_weights(spec, g)
        assert W[0, g.index_of[(1, 0)]] == pytest.approx(1.0, abs=1e-15)
        for j, a in enumerate(g.indices):
            for i in range(2):
                want = math.sqrt((a[i] + 1) / (sum(a) + 1))
                assert W[i, j] == pytest.approx(want, rel=1e-14)

    def test_bergman_first_weight(self):
        spec = DiagonalKernelSpec.bergman(1, 2.0)
        g = TruncationGrid.build(1, 4)
        W = multishift_weights(spec, g)
        assert W[0, g.index_of[(0,)]] == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_weight_roundtrip_reconstructs_coefficients(self):
        # rebuilding fhat ratios from the constructed tuple's entries
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 6)
        fwd = truncated_tuple(spec, g, "forward")
        for a in g.indices:
            for i in range(2):
                up = list(a)
                up[i] += 1
                tgt = g.index_of.get(tuple(up))
                if tgt is None:
                    continue
                ratio = float(np.real(fwd[i][tgt, g.index_of[a]])) ** 2
                want = spec.fhat(a) / spec.fhat(tuple(up))
                assert ratio == pytest.approx(want, rel=1e-14)


class TestTruncatedTuple:
    def test_grid_dimension(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        T = truncated_tuple(spec, TruncationGrid.build(2, 2), "forward")
        assert T.d == 6 and T.m == 2

    def test_forward_adjoint_exact_adjoints(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 5)
        fwd = truncated_tuple(spec, g, "forward")
        adj = truncated_tuple(spec, g, "adjoint")
        for i in range(2):
            assert np.array_equal(np.asarray(fwd[i]).conj().T, np.asarray(adj[i]))

    def test_adjoint_commutes(self):
        spec = DiagonalKernelSpec.bergman(3, 2.0)
        adj = truncated_tuple(spec, TruncationGrid.build(3, 5), "adjoint")
        assert validate_commuting(adj).max_commutator <= 1e-13

    def test_adjoint_action_coefficient(self):
        # lowering e_(1,1) in the first direction yields sqrt(1/2) e_(0,1)
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 3)
        adj = truncated_tuple(spec, g, "adjoint")
        c = adj[0][g.index_of[(0, 1)], g.index_of[(1, 1)]]
        assert c == pytest.approx(math.sqrt(0.5), rel=1e-14)

    def test_interior_kernel_dimension_one(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 8)
        adj = truncated_tuple(spec, g, "adjoint")
        pol = NumericPolicy(kernel_tol=1e-3)
        kb = joint_kernel(adj, (0.15, 0.1), pol)
        assert kb.dimension == 1


class TestJointEigenvector:
    def test_origin_gives_vacuum(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 6)
        v, resid = joint_eigenvector(spec, g, (0.0, 0.0))
        assert resid == 0.0
        vac = g.index_of[(0, 0)]
        assert abs(v[vac] - 1.0) < 1e-15 and np.linalg.norm(np.delete(v, vac)) == 0.0

    def test_interior_residual_small_and_decreasing(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        _, r12 = joint_eigenvector(spec, TruncationGrid.build(2, 12), (0.3, 0.2))
        _, r16 = joint_eigenvector(spec, TruncationGrid.build(2, 16), (0.3, 0.2))
        assert r12 <= 1e-3 and r16 < r12

    def test_interior_recurrence_identity(self):
        # a_{alpha+e_i} = sqrt(fhat(alpha+e_i)/fhat(alpha)) w_i a_alpha
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 8)
        w = np.array([0.3, 0.2])
        v, _ = joint_eigenvector(spec, g, w)
        for a in g.indices:
            if sum(a) >= g.dmax:
                continue
            for i in range(2):
                up = list(a)
                up[i] += 1
                lhs = v[g.index_of[tuple(up)]]
                rhs = math.sqrt(spec.fhat(tuple(up)) / spec.fhat(a)) * w[i] * v[g.index_of[a]]
                assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


class TestDefect:
    @pytest.mark.parametrize("m,dmax", [(2, 4), (2, 10), (3, 4), (3, 8)])
    def test_ball_defect_is_vacuum_projection(self, m, dmax):
        spec = DiagonalKernelSpec.drury_arveson(m)
        g = TruncationGrid.build(m, dmax)
        adj = truncated_tuple(spec, g, "adjoint")
        rep = defect_operator(adj, g)
        assert rep.rank_one_residual <= 1e-12
        assert rep.projection_residual <= 1e-12

    def test_defect_action_on_basis(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 5)
        adj = truncated_tuple(spec, g, "adjoint")
        D = defect_operator(adj, g).defect
        for j, a in enumerate(g.indices):
            e = np.zeros(g.size)
            e[j] = 1.0
            out = D @ e
            if sum(a) == 0:
                assert np.linalg.norm(out - e) <= 1e-12
            else:
                assert np.linalg.norm(out) <= 1e-12


class TestPSequence:
    def test_first_step_is_complement_of_vacuum(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(spec, g, "adjoint")
        ps = p_sequence(adj, g, 3)
        E = np.zeros((g.size, g.size))
        vac = g.index_of[(0, 0)]
        E[vac, vac] = 1.0
        assert np.linalg.norm(ps.operators[1] - (np.eye(g.size) - E)) <= 1e-12

    def test_annihilation_below_degree(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(spec, g, "adjoint")
        ps = p_sequence(adj, g, 4)
        P3 = ps.operators[3]
        e = np.zeros(g.size)
        e[g.index_of[(1, 1)]] = 1.0
        assert np.linalg.norm(P3 @ e) == 0.0
        assert ps.vanish_exact

    def test_chain_psd_and_monotone(self):
        spec = DiagonalKernelSpec.drury_arveson(3)
        g = TruncationGrid.build(3, 5)
        adj = truncated_tuple(spec, g, "adjoint")
        ps = p_sequence(adj, g, 5)
        assert ps.psd_ok and ps.monotone_ok

    def test_recursion_matches_closed_form(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(spec, g, "adjoint")
        ps = p_sequence(adj, g, 4)
        for n in range(5):
            direct = p_sequence_closed_form(adj, g, n)
            assert np.linalg.norm(ps.operators[n] - direct) <= 1e-12

    def test_dense_recursion_matches_closed_form(self):
        # U T U* of the DA (2, 4) model: its P_n = U P_n(T) U* are not
        # diagonal, so the recursion takes its dense products
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 4)
        adj = truncated_tuple(spec, g, "adjoint")
        r = np.random.default_rng(6)
        U, _ = np.linalg.qr(r.standard_normal((g.size, g.size))
                            + 1j * r.standard_normal((g.size, g.size)))
        T = operator_tuple([U @ A @ U.conj().T for A in adj])
        ps, base = p_sequence(T, g, 4), p_sequence(adj, g, 4)
        for n in range(5):
            P = ps.operators[n]
            if n:
                assert np.linalg.norm(P - np.diag(np.diagonal(P))) > 0.1
            direct = p_sequence_closed_form(T, g, n)
            assert np.linalg.norm(P - direct) <= 1e-12
            assert np.linalg.norm(P - U @ base.operators[n] @ U.conj().T) <= 1e-12

    def test_degree_cap_enforced(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 4)
        adj = truncated_tuple(spec, g, "adjoint")
        with pytest.raises(ValueError, match="cap"):
            p_sequence(adj, g, 5)


class TestSphericalShift:
    def test_isometry_identity_on_vacuum(self):
        g = TruncationGrid.build(2, 4)
        V = spherical_shift(g)
        e0 = np.zeros(g.size)
        e0[g.index_of[(0, 0)]] = 1.0
        out = sum(V[i].conj().T @ (V[i] @ e0) for i in range(2))
        assert np.linalg.norm(out - e0) <= 1e-15

    def test_weight_sum_m3(self):
        g = TruncationGrid.build(3, 3)
        V = spherical_shift(g)
        j = g.index_of[(1, 0, 0)]
        total = sum(abs(V[i][g.index_of[tuple(np.eye(3, dtype=int)[i] + (1, 0, 0))], j]) ** 2
                    for i in range(3))
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_interior_isometry_boundary_flagged(self):
        g = TruncationGrid.build(2, 4)
        V = spherical_shift(g)
        S = sum(V[i].conj().T @ V[i] for i in range(2))
        interior = np.where(g.interior())[0]
        boundary = np.where(~g.interior())[0]
        assert np.abs(S[np.ix_(interior, interior)] - np.eye(interior.size)).max() <= 1e-14
        # compression kills the raising action on top-degree labels
        assert np.abs(S[np.ix_(boundary, boundary)]).max() == 0.0

    def test_weights_match_the_closed_form(self):
        # the forward Bergman shift with k = m has these weights; lgamma
        # leaves them 1.3e-15 off the closed form at (m, dmax) = (2, 8)
        g = TruncationGrid.build(2, 8)
        V = spherical_shift(g)
        want = np.zeros_like(V.matrices)
        for j, a in enumerate(g.indices):
            for i in range(2):
                up = tuple(np.array(a) + np.eye(2, dtype=int)[i])
                if up in g.index_of:
                    want[i, g.index_of[up], j] = math.sqrt((a[i] + 1) / (sum(a) + 2))
        assert np.abs(V.matrices - want).max() <= 4e-15

    def test_two_enumerations_unitarily_equivalent(self):
        g1 = TruncationGrid.build(2, 5, order="grlex")
        g2 = TruncationGrid.build(2, 5, order="grevlex")
        assert g1.indices != g2.indices
        V1, V2 = spherical_shift(g1), spherical_shift(g2)
        n = g1.size
        U = np.zeros((n, n))
        for a in g1.indices:
            U[g2.index_of[a], g1.index_of[a]] = 1.0
        for i in range(2):
            assert np.array_equal(U @ np.asarray(V1[i]) @ U.T, np.asarray(V2[i]))


class TestSphereConditions:
    def test_spherical_shift_is_interior_isometry(self):
        g = TruncationGrid.build(2, 5)
        rep = check_sphere_conditions(spherical_shift(g), mask=g.interior())
        assert rep.spherical_isometry

    def test_backward_multishift_defect(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 5)
        adj = truncated_tuple(spec, g, "adjoint")
        rep = check_sphere_conditions(adj)
        assert not rep.spherical_isometry
        assert rep.hypercontraction[1]

    def test_scaled_identities_spherical_unitary(self):
        m = 3
        T = operator_tuple([np.eye(4) / math.sqrt(m)] * m)
        rep = check_sphere_conditions(T)
        assert rep.spherical_unitary

    def test_mask_of_wrong_length_rejected(self):
        # a short mask must not be read as a mask of the first labels
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(2), g, "adjoint")
        with pytest.raises(ValueError, match="mask must have 28 entries"):
            check_sphere_conditions(adj, mask=g.interior()[:10])


class TestModelHypotheses:
    def test_ball_truncation_interior_consistent(self):
        spec = DiagonalKernelSpec.drury_arveson(2)
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(spec, g, "adjoint")
        rep = check_model_hypotheses(adj, coordinate_mask=g.interior())
        assert rep.projection_ok
        assert rep.solve_max_residual <= 1e-8
        assert rep.model_consistent

    def test_zero_tuple(self):
        rep = check_model_hypotheses(operator_tuple([np.zeros((3, 3))]))
        assert rep.projection_ok            # 0 is a projection
        assert not rep.solvability_ok       # nonzero compatible data unreachable
        assert not rep.model_consistent

    def test_spherical_shift_sum_is_projection(self):
        g = TruncationGrid.build(2, 4)
        rep = check_model_hypotheses(spherical_shift(g))
        assert rep.projection_ok

    def test_unmasked_ball_truncation_worst_residual_is_one(self):
        # without the mask some unit compatible family is orthogonal to the
        # range of the stacked tuple: the exact worst residual is 1 (a seeded
        # sample of the compatible subspace saw about 0.64)
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(2), g, "adjoint")
        rep = check_model_hypotheses(adj)
        assert abs(rep.solve_max_residual - 1.0) <= 1e-12
        assert rep.projection_ok and not rep.solvability_ok

    def test_report_does_not_depend_on_the_seed(self):
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(2), g, "adjoint")
        assert check_model_hypotheses(adj, NumericPolicy(seed=1)) == \
            check_model_hypotheses(adj, NumericPolicy(seed=2))

    def test_single_operator_has_no_compatibility_rows(self):
        # m = 1: every family is compatible, so the subspace is all of the
        # kept coordinates
        g = TruncationGrid.build(1, 6)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(1), g, "adjoint")
        rep = check_model_hypotheses(adj, coordinate_mask=g.interior())
        assert rep.compatibility_dim == 6
        assert rep.model_consistent

    def test_empty_mask_leaves_no_compatible_family(self):
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(2), g, "adjoint")
        rep = check_model_hypotheses(adj, coordinate_mask=np.zeros(g.size, dtype=bool))
        assert rep.compatibility_dim == 0
        assert rep.solve_max_residual == 0.0

    def test_mask_of_wrong_length_rejected(self):
        g = TruncationGrid.build(2, 6)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(2), g, "adjoint")
        with pytest.raises(ValueError, match="coordinate_mask must have 28 entries"):
            check_model_hypotheses(adj, coordinate_mask=g.interior()[:10])

    def test_interior_mask_restricts_the_unknowns(self):
        g = TruncationGrid.build(3, 8)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(3), g, "adjoint")
        rep = check_model_hypotheses(adj, coordinate_mask=g.interior())
        assert rep.compatibility_dim == 164
        assert rep.model_consistent


def dense_model_solve(T, policy, mask):
    """The Koszul check on the whole stack: one SVD nullspace of the full
    compatibility stack and one least-squares solve against the stacked
    tuple. Returns (compatibility dim, worst residual)."""
    d, m = T.d, T.m
    cols = np.concatenate([c * d + np.flatnonzero(mask) for c in range(m)])
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    stack = np.zeros((len(pairs) * d, m * d), dtype=complex)
    for r, (i, j) in enumerate(pairs):
        stack[r * d:(r + 1) * d, j * d:(j + 1) * d] = T[i]
        stack[r * d:(r + 1) * d, i * d:(i + 1) * d] = -T[j]
    stack = stack[:, cols]
    basis = nullspace(stack, max(stack.shape) * policy.rank_rtol,
                      scale=max(1.0, max(frob(A) for A in T)))
    compat = np.zeros((m * d, basis.shape[1]), dtype=complex)
    compat[cols] = basis
    A_stack = T.matrices.reshape(m * d, d)
    X, *_ = np.linalg.lstsq(A_stack, compat, rcond=None)
    return basis.shape[1], float(np.linalg.norm(A_stack @ X - compat, 2))


class TestBlockwiseModelCheck:
    """check_model_hypotheses solves the Koszul stack block by block; the
    dense single-SVD method above is its reference."""

    @staticmethod
    def record_block_shapes(monkeypatch):
        sizes, real = [], rkhs.block_nullspace

        def recording(blocks, *args, **kwargs):
            sizes.extend(B.shape for B in blocks)
            return real(blocks, *args, **kwargs)

        monkeypatch.setattr(rkhs, "block_nullspace", recording)
        return sizes

    def assert_matches_dense(self, T, mask):
        pol = NumericPolicy()
        rep = check_model_hypotheses(T, pol, coordinate_mask=mask)
        dim, worst = dense_model_solve(T, pol, np.ones(T.d, dtype=bool) if mask is None else mask)
        assert rep.compatibility_dim == dim
        assert abs(rep.solve_max_residual - worst) <= 1e-13
        assert rep.solvability_ok == (worst <= MODEL_SOLVABILITY_BAR)
        return rep

    @pytest.mark.parametrize("kernel", ["drury_arveson", "bergman_3", "flat"])
    @pytest.mark.parametrize("m,dmax", [(2, 6), (2, 8), (3, 4), (3, 8)])
    @pytest.mark.parametrize("masked", [True, False])
    def test_multishifts(self, kernel, m, dmax, masked):
        spec = {"drury_arveson": DiagonalKernelSpec.drury_arveson(m),
                "bergman_3": DiagonalKernelSpec.bergman(m, 3),
                "flat": DiagonalKernelSpec.hardy(m)}[kernel]
        g = TruncationGrid.build(m, dmax)
        adj = truncated_tuple(spec, g, "adjoint")
        rep = self.assert_matches_dense(adj, g.interior() if masked else None)
        if kernel == "drury_arveson":
            assert rep.model_consistent == masked

    @pytest.mark.parametrize("m,d", [(2, 6), (3, 5)])
    def test_dense_commuting_tuple_is_one_block(self, monkeypatch, m, d):
        # polynomials in one dense random matrix couple every coordinate
        rng = np.random.default_rng(10 * m + d)
        Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        T = operator_tuple([Z + k * (Z @ Z) for k in range(m)])
        sizes = self.record_block_shapes(monkeypatch)
        self.assert_matches_dense(T, None)
        assert sizes == [(m * (m - 1) // 2 * d, m * d)]

    def test_empty_mask(self):
        g = TruncationGrid.build(3, 4)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(3), g, "adjoint")
        rep = self.assert_matches_dense(adj, np.zeros(g.size, dtype=bool))
        assert rep.compatibility_dim == 0 and rep.solve_max_residual == 0.0

    def test_multishift_blocks_are_small(self, monkeypatch):
        # on the interior, one block per multi-index beta of degree 1..dmax:
        # the coordinates beta - e_c of the components c with beta_c > 0
        g = TruncationGrid.build(3, 6)
        adj = truncated_tuple(DiagonalKernelSpec.drury_arveson(3), g, "adjoint")
        sizes = self.record_block_shapes(monkeypatch)
        check_model_hypotheses(adj, coordinate_mask=g.interior())
        assert len(sizes) == g.size - 1 and max(cols for _, cols in sizes) == 3


class TestMinEigHermitian:
    @pytest.mark.parametrize("seed", range(5))
    def test_diagonal_input_is_bitwise_eigvalsh(self, seed):
        rng = np.random.default_rng(seed)
        d = 40
        diag = rng.standard_normal(d) * 10.0 ** rng.integers(-12, 4, d) \
            + 1j * rng.standard_normal(d)
        diag[rng.integers(0, d, 5)] = 0.0
        M = np.diag(diag)
        H = 0.5 * (M + M.conj().T)
        assert min_eig_hermitian(M) == float(np.linalg.eigvalsh(H).min())

    def test_no_full_eigvalsh_on_a_split_matrix(self, monkeypatch):
        # a permuted direct sum of 2 x 2 Hermitian blocks and scalars: only
        # the 2 x 2 blocks are diagonalised
        rng = np.random.default_rng(3)
        d = 12
        B = np.diag(rng.standard_normal(d)).astype(complex)
        for i in range(0, 6, 2):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            B[i, i + 1], B[i + 1, i] = z, np.conj(z)
        perm = rng.permutation(d)
        M = B[np.ix_(perm, perm)]
        want = float(np.linalg.eigvalsh(M).min())
        shapes, real = [], np.linalg.eigvalsh

        def recording(H):
            shapes.append(H.shape)
            return real(H)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        assert abs(min_eig_hermitian(M) - want) <= 1e-14
        assert shapes == [(2, 2)] * 3


class TestGammaTransform:
    def test_identity_symbol_is_one(self):
        spec = DiagonalKernelSpec.hardy(1)
        g = TruncationGrid.build(1, 8)
        adj = truncated_tuple(spec, g, "adjoint")
        pol = NumericPolicy(kernel_tol=1e-3)
        rep = gamma_transform(adj, np.eye(g.size), [[0.2], [0.4]], pol)
        for s in rep.samples:
            assert s.symbol.shape == (1, 1)
            assert abs(s.symbol[0, 0] - 1.0) <= 1e-10

    def test_coordinate_symbol_is_eigenvalue(self):
        spec = DiagonalKernelSpec.hardy(1)
        g = TruncationGrid.build(1, 10)
        adj = truncated_tuple(spec, g, "adjoint")
        pol = NumericPolicy(kernel_tol=1e-3)
        pts = [[0.2], [0.3 + 0.1j], [-0.25]]
        rep = gamma_transform(adj, np.asarray(adj[0]), pts, pol)
        assert rep.contraction_ok
        for s, w in zip(rep.samples, pts):
            assert abs(s.symbol[0, 0] - w[0]) <= 1e-6

    def test_bergman_commutant_spans_polynomial_symbols(self):
        # the truncated weighted shift is nonderogatory: its commutant has one
        # dimension per polynomial degree on the grid
        spec = DiagonalKernelSpec.bergman(1, 2.0)
        g = TruncationGrid.build(1, 7)
        adj = truncated_tuple(spec, g, "adjoint")
        A = joint_commutant(adj)
        assert A.algebra_dim == g.size == g.dmax + 1

    def test_noncommuting_symbol_rejected(self):
        spec = DiagonalKernelSpec.hardy(1)
        g = TruncationGrid.build(1, 5)
        adj = truncated_tuple(spec, g, "adjoint")
        bad = np.diag(np.arange(g.size, dtype=float))
        with pytest.raises(ValueError, match="commute"):
            gamma_transform(adj, bad, [[0.2]])

    def test_empty_kernel_points_skipped(self):
        spec = DiagonalKernelSpec.hardy(1)
        g = TruncationGrid.build(1, 5)
        adj = truncated_tuple(spec, g, "adjoint")
        rep = gamma_transform(adj, np.eye(g.size), [[5.0]])  # far outside
        assert len(rep.samples) == 0 and len(rep.skipped) == 1


class TestModelSimilarity:
    @pytest.mark.parametrize("m,dmax", [(2, 3), (3, 2)])
    def test_witness_is_the_diagonal_witness(self, m, dmax):
        # the truncated DA and Bergman(3) models are similar through
        # diag(sqrt(fhat_DA(alpha) / fhat_B(alpha))); the trace pairing's
        # witness is that diagonal witness up to a scalar, so its condition
        # number is the closed-form ratio kappa_D
        g = TruncationGrid.build(m, dmax)
        da, b = DiagonalKernelSpec.drury_arveson(m), DiagonalKernelSpec.bergman(m, 3)
        v = similar(truncated_tuple(da, g, "adjoint"), truncated_tuple(b, g, "adjoint"),
                    want_witness=True)
        ratios = [math.sqrt(da.fhat(a) / b.fhat(a)) for a in g.indices]
        assert v.similar
        assert np.linalg.cond(v.witness) == pytest.approx(max(ratios) / min(ratios), rel=1e-6)


def same(a, b) -> bool:
    """Field by field equality of check results: records, arrays (shape,
    dtype and values), lists, dicts and scalars."""
    if isinstance(a, tuple) and hasattr(a, "_fields"):
        return type(a) is type(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def custom_spec(m, dmax):
    """An increasing coefficient rule on every index of degree at most dmax + 1."""
    g = TruncationGrid.build(m, dmax + 1)
    return DiagonalKernelSpec.custom(
        m, {a: 1.0 + 0.5 * sum(a) + 0.25 * a[0] + 0.1 * a[-1] ** 2 for a in g.indices})


# name -> (the rkhs command's preset, the coefficient rule of (m, dmax))
MODEL_PRESETS = {
    "drury_arveson": ("drury_arveson", lambda m, dmax: DiagonalKernelSpec.drury_arveson(m)),
    "bergman_1.5": ("bergman_k", lambda m, dmax: DiagonalKernelSpec.bergman(m, 1.5)),
    "bergman_3": ("bergman_k", lambda m, dmax: DiagonalKernelSpec.bergman(m, 3)),
    "hardy": ("hardy_like", lambda m, dmax: DiagonalKernelSpec.hardy(m)),
    "spherical_shift": ("spherical_shift", lambda m, dmax: None),
    "custom": ("custom", custom_spec),
}


class TestGatheredProducts:
    """The model checks multiply matrices with one nonzero per column by
    index gather (_linalg.matmul); with the structure reader forced off they
    take dense products, and every result is the same, field by field."""

    @staticmethod
    def checks(spec, g, preset, T):
        from sidecomp.cli import _rkhs_checks

        pol = NumericPolicy()
        return [
            validate_commuting(T, pol),
            defect_operator(T, g),
            p_sequence(T, g, min(g.dmax, 4)),
            check_model_hypotheses(T, pol, coordinate_mask=g.interior()),
            check_sphere_conditions(T, pol, n_hyper=3),
            check_sphere_conditions(T, pol, mask=g.interior()),
            _rkhs_checks(spec, g, preset, T, pol),
        ]

    @pytest.mark.parametrize("name", sorted(MODEL_PRESETS))
    @pytest.mark.parametrize("m,dmax", [(1, 10), (2, 6), (3, 4), (3, 8), (2, 20)])
    def test_forced_dense_products_give_the_same_results(self, monkeypatch, name, m, dmax):
        preset, rule = MODEL_PRESETS[name]
        g = TruncationGrid.build(m, dmax)
        spec = rule(m, dmax)
        T = spherical_shift(g) if spec is None else truncated_tuple(spec, g, "adjoint")
        assert all(linalg.column_entries(A) is not None for A in T)
        gathered = self.checks(spec, g, preset, T)
        monkeypatch.setattr(linalg, "column_entries", lambda M: None)
        dense = self.checks(spec, g, preset, T)
        assert same(gathered, dense)

    def test_one_stacked_svd_per_block_shape(self, monkeypatch):
        # DA (3, 8) on its interior: 24 empty blocks (0, 1), 84 of (1, 2)
        # and 56 of (3, 3); each nonempty shape takes one svd_robust call
        g = TruncationGrid.build(3, 8)
        T = truncated_tuple(DiagonalKernelSpec.drury_arveson(3), g, "adjoint")
        shapes, real = [], linalg.svd_robust

        def recording(M, *args, **kwargs):
            shapes.append(M.shape)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(linalg, "svd_robust", recording)
        rep = check_model_hypotheses(T, coordinate_mask=g.interior())
        assert rep.model_consistent and rep.compatibility_dim == 164
        assert shapes == [(84, 1, 2), (56, 3, 3)]
