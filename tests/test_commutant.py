import importlib.util
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import sidecomp
import sidecomp._linalg as _linalg
import sidecomp.commutant as commutant
from conftest import bd, jordan
from sidecomp import (
    UnitDecomposition,
    conjugate,
    decompositions_equivalent,
    direct_sum,
    inflate,
    inflation_commutant_check,
    intertwiner_space,
    is_strongly_irreducible,
    joint_commutant,
    operator_tuple,
    radical,
    semisimple_structure,
    unit_si_decomposition,
    v_semigroup_invariant,
)
from sidecomp._linalg import conditioned_invertible
from sidecomp.commutant import stack_commutant
from sidecomp.planted import EIGENVALUE_GRID, jordan_polynomial_tuple, planted_instance
from sidecomp.rkhs import DiagonalKernelSpec, TruncationGrid, truncated_tuple
from sidecomp.policy import (
    CENTRALITY_BAR,
    SPLIT_GAPS,
    STACK_BYTE_BUDGET,
    STRUCTURE_SEEDS,
    NumericalDegeneracyError,
    NumericPolicy,
)


class TestJointCommutant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_tuple_full_algebra(self, n):
        assert joint_commutant(operator_tuple([np.eye(n)])).algebra_dim == n * n

    def test_single_jordan_block(self):
        A = joint_commutant(operator_tuple([jordan(2)]))
        assert A.algebra_dim == 2
        assert A.contains(np.eye(2)) and A.contains(jordan(2))

    def test_distinct_diagonal(self):
        A = joint_commutant(operator_tuple([np.diag([1.0, 2.0])]))
        assert A.algebra_dim == 2
        assert A.contains(np.diag([1.0, 0.0]))
        assert not A.contains(jordan(2))

    def test_gram_orthonormal_and_unital(self):
        A = joint_commutant(operator_tuple([bd(jordan(2), jordan(3, 1.0))]))
        V = A.basis.reshape(A.algebra_dim, -1)
        G = V.conj() @ V.T
        assert np.allclose(G, np.eye(A.algebra_dim), atol=1e-10)
        assert A.contains(np.eye(A.d))

    def test_closed_under_multiplication(self, rng):
        A = joint_commutant(operator_tuple([bd(jordan(2), jordan(2))]))
        for _ in range(8):
            c1 = rng.standard_normal(A.algebra_dim) + 1j * rng.standard_normal(A.algebra_dim)
            c2 = rng.standard_normal(A.algebra_dim) + 1j * rng.standard_normal(A.algebra_dim)
            prod = A.element(c1) @ A.element(c2)
            resid = np.linalg.norm(prod - A.project(prod))
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(prod))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6))
    def test_conjugation_transport(self, seed):
        r = np.random.default_rng(seed)
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        X = conditioned_invertible(T.d, float(r.uniform(1.0, 50.0)), r)
        Xi = np.linalg.inv(X)
        A = joint_commutant(T)
        B = joint_commutant(conjugate(T, X))
        assert A.algebra_dim == B.algebra_dim
        for M in A.basis:
            moved = X @ M @ Xi
            assert np.linalg.norm(moved - B.project(moved)) <= 1e-8 * max(
                1.0, np.linalg.norm(moved))

    @pytest.mark.parametrize("rtol", [1e-17, 1e-20])
    def test_empty_span_is_degenerate(self, rtol):
        # a cut far below roundoff keeps no singular vector: the span is
        # empty, which is a degeneracy, not a malformed input
        X = conditioned_invertible(4, 10.0, np.random.default_rng(0))
        T = conjugate(operator_tuple([jordan(4)]), X)
        with pytest.raises(NumericalDegeneracyError, match="identity not contained"):
            joint_commutant(T, NumericPolicy(rank_rtol=rtol))


def _span_gap(A, B):
    """1 - the smallest cosine of the principal angles between two
    trace-orthonormal bases of equal dimension."""
    Va = A.basis.reshape(A.algebra_dim, -1)
    Vb = B.basis.reshape(B.algebra_dim, -1)
    return 1.0 - np.linalg.svd(Va.conj() @ Vb.T, compute_uv=False).min()


class TestOnePath:
    """joint_commutant, is_strongly_irreducible and inflation_commutant_check
    read A' off the primary corners, like semisimple_structure: on two joint
    eigenvalues none of them builds the Sylvester stack of the whole space."""

    def test_two_clusters_build_no_stack(self, monkeypatch):
        rng = np.random.default_rng(12)
        T = direct_sum(jordan_polynomial_tuple(12, 0.0, rng),
                       jordan_polynomial_tuple(12, 1.0, rng))
        ref = stack_commutant(T)
        real_stack, stacks = commutant._sylvester_stack, []

        def recording_stack(T1, T2):
            stacks.append(T1.d)
            return real_stack(T1, T2)

        monkeypatch.setattr(commutant, "_sylvester_stack", recording_stack)
        A = joint_commutant(T)
        chk = inflation_commutant_check(T, 2)
        si = is_strongly_irreducible(T)
        assert stacks == []
        assert A.algebra_dim == ref.algebra_dim and _span_gap(A, ref) <= 1e-12
        assert chk.passed and chk.base_dim == ref.algebra_dim
        assert not si


def _presented(T):
    """The basis of A'(T) that the spin-up presentation gives; None when
    there is no presentation or it does not verify as a basis."""
    su = commutant._spin_up([T], NumericPolicy())[0]
    return None if su is None else commutant._spin_up_commutant(su)


def _one_eigenvalue_tuple(sizes, m, cond, rng):
    """Conjugated direct sum of Jordan-polynomial blocks (lam_1 + N, lam_i +
    c_i N + e_i N^2) that all share the joint eigenvalue lam."""
    lam = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    comps = [[jordan(r)] for r in sizes]
    for parts, r in zip(comps, sizes):
        N = jordan(r)
        for _ in range(1, m):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            parts.append(c[0] * N + c[1] * N @ N)
    d = sum(sizes)
    T = operator_tuple([bd(*[p[i] for p in comps]) + lam[i] * np.eye(d) for i in range(m)])
    return conjugate(T, conditioned_invertible(d, cond, rng))


class TestSpinUp:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3),
           st.floats(1.0, 50.0), st.integers(0, 2**32 - 1))
    def test_span_equals_the_stack(self, sizes, m, cond, seed):
        T = _one_eigenvalue_tuple(sizes, m, cond, np.random.default_rng(seed))
        A = _presented(T)
        B = stack_commutant(T)
        assert A is not None and A.algebra_dim == B.algebra_dim
        assert _span_gap(A, B) <= 1e-8
        V = A.basis.reshape(A.algebra_dim, -1)
        assert np.linalg.norm(V.conj() @ V.T - np.eye(A.algebra_dim)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3),
           st.floats(1.0, 1e4), st.integers(0, 2**32 - 1))
    def test_recovered_elements_are_bounded_below_by_one(self, sizes, m, cond, seed):
        # X G = Y with G and the Y orthonormal: the singular values of the
        # recovered elements, those of the QR factor R, are >= 1, so the
        # independence decision needs only ||R||_F
        T = _one_eigenvalue_tuple(sizes, m, cond, np.random.default_rng(seed))
        su = commutant._spin_up([T], NumericPolicy())[0]
        if su is None:   # refused: no elements are recovered
            return
        d, g = su.G.shape
        Y = np.eye(d * g, dtype=complex).reshape(-1, d, g) if su.Y is None else su.Y
        X = commutant._module_maps(su.B, Y, su.pinv)
        assert np.linalg.svd(X, compute_uv=False).min() >= 1.0 - 1e-12

    def test_no_svd_of_a_numerically_zero_matrix(self, monkeypatch):
        # three copies of one 4 x 4 Jordan-polynomial block at cond 10: the
        # last level of words and the trace form of the trace-zero words are
        # zero to roundoff, a tenth of their cuts and less, so neither takes
        # an SVD: the word levels N and N^2, the generators and Phi remain
        r = np.random.default_rng(4)
        T = conjugate(inflate(jordan_polynomial_tuple(4, 0.5, r, 2), 3),
                      conditioned_invertible(12, 10.0, r))
        rtol, scale = commutant._stack_cut(T, T, NumericPolicy())
        norms = []

        def recording(real):
            def svd(M, *args, **kwargs):
                norms.append(float(np.linalg.norm(M)))
                return real(M, *args, **kwargs)
            return svd

        for name in ("svd_robust", "svdvals_robust"):
            svd = recording(getattr(_linalg, name))
            monkeypatch.setattr(_linalg, name, svd)
            monkeypatch.setattr(commutant, name, svd)
        su = commutant._spin_up([T], NumericPolicy())[0]
        assert su is not None and su.K == 36
        assert len(norms) == 4 and min(norms) > 10.0 * rtol * scale

    def test_no_tall_svd_at_one_eigenvalue(self, monkeypatch):
        # eight copies of one 4 x 4 Jordan-polynomial block (m = 2) at cond
        # 10: d = 32 and K = dim A' = 8^2 * 4 = 256. No SVD of the spin-up has
        # more than K rows: no d^2 x K basis SVD, no m d^2 x d^2 stack
        r = np.random.default_rng(32)
        T = conjugate(inflate(jordan_polynomial_tuple(4, 0.8, r, 2), 8),
                      conditioned_invertible(32, 10.0, r))
        shapes = []
        real = _linalg.svd_robust

        def recording(M, *args, **kwargs):
            shapes.append(M.shape)
            return real(M, *args, **kwargs)

        monkeypatch.setattr(_linalg, "svd_robust", recording)
        monkeypatch.setattr(commutant, "svd_robust", recording)
        A = joint_commutant(T)
        assert A.algebra_dim == 256
        assert shapes and max(shape[-2] for shape in shapes) <= A.algebra_dim

    def test_shared_eigenvalue_tuple_has_relations(self, monkeypatch):
        # (J3, N) twice, (J3, N^2) and (J2, 0): four generators whose words
        # are dependent, so the spin-up solves under nonzero relations
        N3 = jordan(3)
        parts = [(N3, N3), (N3, N3), (N3, N3 @ N3), (jordan(2), np.zeros((2, 2)))]
        X = conditioned_invertible(11, 30.0, np.random.default_rng(5))
        T = conjugate(operator_tuple([bd(*[p[0] for p in parts]),
                                      bd(*[p[1] for p in parts])]), X)
        shapes = []
        real_nullspace = commutant.nullspaces

        def recording(M, *args, **kwargs):
            shapes.append(M.shape)
            return real_nullspace(M, *args, **kwargs)

        monkeypatch.setattr(commutant, "nullspaces", recording)
        A = _presented(T)
        assert A is not None and A.algebra_dim == stack_commutant(T).algebra_dim == 29
        relations_rows = shapes[-1][-2]
        assert relations_rows > 0

    def test_word_algebra_larger_than_d(self):
        # (E31, E32, E41, E42) generates span{I, E31, E32, E41, E42}: n_B = 5 > d
        def unit(i, j):
            E = np.zeros((4, 4), dtype=complex)
            E[i - 1, j - 1] = 1.0
            return E

        T = operator_tuple([unit(3, 1), unit(3, 2), unit(4, 1), unit(4, 2)])
        assert commutant._word_algebra(T.matrices[None], 4e-10, [1.0])[0].shape[0] == 5
        A = _presented(T)
        assert A is not None and A.algebra_dim == stack_commutant(T).algebra_dim == 5

    def test_several_joint_eigenvalues_fall_back_to_the_stack(self):
        # the centred diag(1, 2) is invertible: no generator, rank Phi < d
        T = operator_tuple([np.diag([1.0, 2.0])])
        assert _presented(T) is None
        assert joint_commutant(T).algebra_dim == stack_commutant(T).algebra_dim == 2

    @pytest.mark.parametrize("seed", [139, 410, 616])
    def test_noise_gives_no_wrong_answer(self, seed):
        # three copies of a 2x2 block at one joint eigenvalue (d = 6) with
        # entrywise noise: at 1e-9 the noise words of B sit next to the cut.
        # With non-strict cuts the spin-up keeps them, returns too small a
        # commutant and the invariant reads (1; 1); strict cuts fall back to
        # the stack, which raises
        inst = planted_instance(seed, k_max=1)
        assert (inst.realized.d, inst.k, inst.multiplicities) == (6, 1, (3,))
        wrong = []
        for eps in (1e-10, 1e-9):
            r = np.random.default_rng([seed, 1])
            T = operator_tuple([A + eps * (r.standard_normal(A.shape)
                                           + 1j * r.standard_normal(A.shape))
                                for A in inst.realized])
            try:
                inv = v_semigroup_invariant(T)
            except NumericalDegeneracyError:
                continue
            if (inv.k, inv.multiplicities) != (inst.k, inst.multiplicities):
                wrong.append((eps, inv.k, inv.multiplicities))
        assert wrong == []


def _shared_eigenvalue_classes(classes, m, cond, rng):
    """Conjugated direct sum of n copies of one Jordan-polynomial block (lam_1
    + N, lam_i + c_i N + e_i N^2) for each (r, n) in ``classes``; every class
    draws its own coefficients, and all share the joint eigenvalue lam."""
    lam = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    parts = []
    for r, n in classes:
        N = jordan(r)
        block = [N]
        for _ in range(1, m):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            block.append(c[0] * N + c[1] * N @ N)
        parts.extend([block] * n)
    d = sum(r * n for r, n in classes)
    T = operator_tuple([bd(*[p[i] for p in parts]) + lam[i] * np.eye(d) for i in range(m)])
    return conjugate(T, conditioned_invertible(d, cond, rng))


def _presented_and_stack_counts(T):
    """(dim A', dim rad A', dim A'/rad, dim of the quotient's center) read
    off the corner that the spin-up presentation gives and off a corner
    read through the stack's basis of A', and the presented corner: a free
    corner in closed form (``A'/rad = M_g``, a one-dimensional center), any
    other through the presentation's basis of A'."""
    pol = NumericPolicy()
    eye = np.eye(T.d, dtype=complex)
    su = commutant._spin_up([T], pol)[0]
    assert su is not None
    presented = commutant._corner(T, eye, eye, pol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commutant, "_spin_up", lambda Ts, policy: [None] * len(Ts))
        stacked = commutant._corner(T, eye, eye, pol)
    if su.Y is None:
        assert presented.free is not None and presented.basis is None
    else:
        assert presented.basis.shape == (su.K, T.d, T.d)
    counts = []
    for c in (presented, stacked):
        width = 1 if c.free is not None else commutant._center_candidates(
            c.basis, c.quot_coords, np.random.default_rng(1)).shape[1]
        counts.append((c.algebra_dim, c.radical_dim, c.quotient_dim, width))
    assert stacked.algebra_dim == stacked.basis.shape[0]
    assert stacked.radical_dim == commutant._radical_coords(stacked.basis, pol)[0].shape[1]
    return counts[0], counts[1], presented


class TestRhoAgreesWithTheBasis:
    """A'/rad read off the spin-up presentation, in closed form on a free
    corner and through the presentation's basis of A' otherwise, has the
    counts that the stack's basis of A' gives: dim A', dim rad, dim A'/rad
    and the width of the quotient's center."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3),
           st.floats(1.0, 50.0), st.integers(0, 2**32 - 1))
    def test_one_eigenvalue_tuples(self, sizes, m, cond, seed):
        T = _one_eigenvalue_tuple(sizes, m, cond, np.random.default_rng(seed))
        from_presentation, from_stack, _ = _presented_and_stack_counts(T)
        assert from_presentation == from_stack

    @pytest.mark.parametrize("classes,m,dims", [
        ([(6, 2), (4, 1)], 2, (2, 1)),
        ([(3, 2), (2, 1)], 1, (2, 1)),
        ([(4, 3), (4, 2), (2, 2)], 2, (3, 2, 2)),
        ([(5, 2), (3, 3), (1, 2)], 3, (3, 2, 2)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_eigenvalue_families(self, classes, m, dims, seed):
        T = _shared_eigenvalue_classes(classes, m, 100.0, np.random.default_rng(seed))
        from_presentation, from_stack, presented = _presented_and_stack_counts(T)
        assert from_presentation == from_stack
        assert from_presentation[2:] == (sum(n * n for n in dims), len(dims))
        if m == 1:
            # J_3 (+) J_3 (+) J_2: dim A' = sum_ij min(r_i, r_j) = 22, and the
            # quotient is M_2 (+) M_1
            assert (presented.algebra_dim, presented.quotient_dim) == (22, 5)
        assert semisimple_structure(T).block_dims == dims


class TestRhoCertificates:
    @staticmethod
    def shared_tuple():
        """(J3, N) twice, (J3, N^2) and (J2, 0) at cond 30: d = 11, g = 4,
        K = 29, answer (3; 2, 1, 1)."""
        N3 = jordan(3)
        parts = [(N3, N3), (N3, N3), (N3, N3 @ N3), (jordan(2), np.zeros((2, 2)))]
        X = conditioned_invertible(11, 30.0, np.random.default_rng(5))
        return conjugate(operator_tuple([bd(*[p[0] for p in parts]),
                                         bd(*[p[1] for p in parts])]), X)

    def test_a_corrupted_value_falls_back_to_the_basis_path(self, monkeypatch):
        T = self.shared_tuple()
        clean = semisimple_structure(T)
        assert clean.block_dims == (2, 1, 1) and clean.algebra_dim == 29
        real_nullspace, real_stack = commutant.nullspaces, commutant.stack_commutant
        generators, corrupted, stacks = [], [], []

        def corrupting(Ms, *args, **kwargs):
            # the spin-up's nullspaces come as a stack: corrupt each member
            return [corrupt(M, Y) for M, Y in zip(Ms, real_nullspace(Ms, *args, **kwargs))]

        def corrupt(M, Y):
            if Y is None:
                return Y
            if Y.shape == (11, 4):         # the root's generators G, then those of T*
                generators.append(Y)
            elif M.shape[1] == 11 * 4:     # the root's values, d * g coordinates
                # rotate the values so that only the first has a component
                # along the identity's value G, and swap the last for a unit
                # non-member: the identity is still spanned, so only the
                # check of a lifted element can see it
                K, r = Y.shape[1], np.random.default_rng(len(corrupted))
                a = Y.conj().T @ generators[0].reshape(-1)   # a tie keeps T
                Q, _ = np.linalg.qr(np.column_stack([a, r.standard_normal((K, K - 1))]))
                Y = Y @ Q
                w = r.standard_normal(Y.shape[0]) + 1j * r.standard_normal(Y.shape[0])
                w -= Y @ (Y.conj().T @ w)
                Y = np.column_stack([Y[:, :-1], w / np.linalg.norm(w)])
                corrupted.append(None)
            return Y

        def recording_stack(T1, policy):
            stacks.append(T1.d)
            return real_stack(T1, policy)

        real_spin_up, real_norms, refused, checked = commutant._spin_up, \
            commutant.commutator_norms, [], []

        def recording_spin_up(Ts, policy):
            sus = real_spin_up(Ts, policy)
            refused.extend(T1.d for T1, su in zip(Ts, sus) if su is None)
            return sus

        def recording_norms(Xs, T1):
            checked.append(Xs.shape)
            return real_norms(Xs, T1)

        monkeypatch.setattr(commutant, "nullspaces", corrupting)
        monkeypatch.setattr(commutant, "stack_commutant", recording_stack)
        monkeypatch.setattr(commutant, "_spin_up", recording_spin_up)
        monkeypatch.setattr(commutant, "commutator_norms", recording_norms)
        S = semisimple_structure(T)
        # the root's presentation is refused at the check of its random
        # element, the one commutator it takes, and the root takes the stack
        assert len(corrupted) == 1 and refused == [11]
        assert checked[0] == (1, 1, 11, 11) and (29, 11, 11) not in checked
        assert stacks == [11]
        assert (S.algebra_dim, S.radical_dim, S.block_dims) == \
            (clean.algebra_dim, clean.radical_dim, clean.block_dims)

    def test_no_commutant_basis_on_the_invariant_path(self, monkeypatch):
        # eight copies of one 4 x 4 block at d = 32, K = 256: the root is
        # free, so the invariant builds no basis of A', takes
        # no trace form and no center, and splits nothing, not even by a
        # primary draw: its 8 primitives are read off the presentation in
        # factored form, so the only module map is the presentation's own K
        # = 1 check
        T = TestTwoFlatStages.eight_copies()
        splits, lifted = [], []
        real_split, real_maps = commutant._spectral_split, commutant._module_maps

        def forbidden(name):
            def raising(*args, **kwargs):
                raise AssertionError(f"{name} called on a free root")
            return raising

        def recording_split(z):
            splits.append(z.shape[0])
            return real_split(z)

        def recording_maps(B, Y, pinv):
            lifted.append(Y.shape[0])
            return real_maps(B, Y, pinv)

        for name in ("_spin_up_commutant", "_radical_coords", "_center_candidates",
                     "_commutant"):
            monkeypatch.setattr(commutant, name, forbidden(name))
        monkeypatch.setattr(commutant, "_spectral_split", recording_split)
        monkeypatch.setattr(commutant, "_module_maps", recording_maps)
        inv = v_semigroup_invariant(T)
        assert (inv.k, inv.multiplicities) == (1, (8,))
        assert splits == []
        assert lifted == [1]

    def test_no_range_svd_on_the_invariant_path(self, monkeypatch):
        # every primitive comes with its frame: the validation and the class
        # representative take no SVD of a primitive to find its range
        def forbidden(*args, **kwargs):
            raise AssertionError("orthonormal_range on the invariant path")

        monkeypatch.setattr(_linalg, "orthonormal_range", forbidden)
        monkeypatch.setattr(sidecomp.tuples, "orthonormal_range", forbidden)
        inv = v_semigroup_invariant(TestTwoFlatStages.eight_copies())
        assert (inv.k, inv.multiplicities) == (1, (8,))
        assert inv.class_representatives[0].d == 4


class TestInflationIdentity:
    @pytest.mark.parametrize("mats,n,dims", [
        ([jordan(2)], 2, (2, 8)),
        ([np.eye(1)], 3, (1, 9)),
        ([np.diag([1.0, 2.0])], 2, (2, 8)),
    ])
    def test_examples(self, mats, n, dims):
        chk = inflation_commutant_check(operator_tuple(mats), n)
        assert (chk.base_dim, chk.inflated_dim) == dims and chk.passed

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            inflation_commutant_check(operator_tuple([np.eye(40)]), 3)

    def test_read_off_the_presentation(self, monkeypatch):
        # a 4 x 4 Jordan-polynomial block and its inflation have one joint
        # eigenvalue: K and dim A'/rad come from the spin-up presentation,
        # and no basis of A' is orthonormalized
        def no_basis(su):
            raise AssertionError("a commutant basis was built")

        monkeypatch.setattr(commutant, "_spin_up_commutant", no_basis)
        r = np.random.default_rng(3)
        B = jordan_polynomial_tuple(4, 0.8, r, 2)
        T = conjugate(inflate(B, 3), conditioned_invertible(12, 10.0, r))
        chk = inflation_commutant_check(B, 3)
        assert (chk.base_dim, chk.inflated_dim, chk.passed) == (4, 36, True)
        assert is_strongly_irreducible(B) and not is_strongly_irreducible(T)


class TestRadical:
    def test_full_matrix_algebra_semisimple(self):
        A = joint_commutant(operator_tuple([np.eye(3)]))
        assert radical(A).shape[0] == 0

    def test_jordan_block_radical_is_nilpotent_line(self):
        A = joint_commutant(operator_tuple([jordan(2)]))
        rad = radical(A)
        assert rad.shape[0] == 1
        R = rad[0]
        # the radical of span{I, N} is the line through N
        assert abs(R[1, 0]) < 1e-12 and abs(R[0, 0]) < 1e-12 and abs(R[1, 1]) < 1e-12
        assert abs(abs(R[0, 1]) - 1.0) < 1e-12

    def test_commutative_semisimple(self):
        A = joint_commutant(operator_tuple([np.diag([1.0, 2.0])]))
        assert radical(A).shape[0] == 0


def _conjugated(M, cond, seed):
    X = conditioned_invertible(M.shape[0], cond, np.random.default_rng(seed))
    return X @ M @ np.linalg.inv(X)


class TestSemisimpleStructure:
    @pytest.mark.parametrize("mats,dims,rad_dim", [
        ([np.eye(3)], (3,), 0),
        ([bd(jordan(2), jordan(2))], (2,), 4),
        ([bd(jordan(2), jordan(2, 1.0))], (1, 1), 2),
        ([_conjugated(bd(jordan(2), jordan(2), jordan(3, 1.0)), 50.0, 7)], (2, 1), 6),
    ])
    def test_examples(self, mats, dims, rad_dim):
        S = semisimple_structure(operator_tuple(mats))
        assert S.block_dims == dims
        assert S.radical_dim == rad_dim
        assert sum(n * n for n in S.block_dims) + S.radical_dim == S.algebra_dim

    def test_idempotent_family_properties(self):
        T = operator_tuple([bd(jordan(2), jordan(3, 1.0), np.eye(2))])
        S = semisimple_structure(T)
        E = S.central_idempotents
        d = T.d
        assert np.linalg.norm(E.sum(axis=0) - np.eye(d)) <= 1e-8
        for a in range(len(E)):
            for b in range(len(E)):
                target = E[a] if a == b else np.zeros((d, d))
                assert np.linalg.norm(E[a] @ E[b] - target) <= 1e-8

    def test_primary_corners_replace_the_ambient_stack(self, monkeypatch):
        # two joint eigenvalues: the structure comes from one small commutant
        # per primary component, never from one of the whole 7-dimensional
        # space, and no 2*49 x 49 stack is built
        r = np.random.default_rng(3)
        A = bd(jordan(2), jordan(2), jordan(3, 1.0))
        X = conditioned_invertible(7, 50.0, r)
        T = conjugate(operator_tuple([A, A @ A + 0.5 * np.eye(7)]), X)
        amb = joint_commutant(T)
        rad_dim = radical(amb).shape[0]
        dims, shapes = [], []
        real_spin_up, real_stack = commutant._spin_up, commutant._sylvester_stack

        def recording_spin_up(Ts, policy):
            dims.extend(T1.d for T1 in Ts)
            return real_spin_up(Ts, policy)

        def recording_stack(T1, T2):
            M = real_stack(T1, T2)
            shapes.append(M.shape)
            return M

        monkeypatch.setattr(commutant, "_spin_up", recording_spin_up)
        monkeypatch.setattr(commutant, "_sylvester_stack", recording_stack)
        S = semisimple_structure(T)
        assert dims and max(dims) < 7
        assert all(cols < 49 for _, cols in shapes)
        assert (S.algebra_dim, S.radical_dim) == (amb.algebra_dim, rad_dim)
        assert S.block_dims == (2, 1)

    def test_output_independent_of_seed(self):
        T = operator_tuple([bd(jordan(2), jordan(2), jordan(3, 1.0))])
        results = {semisimple_structure(T, NumericPolicy().with_(seed=s)).block_dims
                   for s in (11, 22, 33)}
        assert len(results) == 1


class TestOneWalk:
    """semisimple_structure walks once, and its certificates catch a walk
    that goes wrong. The input has one joint eigenvalue, so its one primary
    corner is the root of every walk, whose center asks for 3 blocks; its
    answer is (3; 2, 2, 1)."""

    @staticmethod
    def conjugator():
        return conditioned_invertible(14, 10.0, np.random.default_rng(5))

    @classmethod
    def tuple_(cls):
        A = bd(jordan(2), jordan(2), jordan(3), jordan(3), jordan(4))
        return conjugate(operator_tuple([A]), cls.conjugator())

    @staticmethod
    def fault_at_root(monkeypatch, fault, walks):
        """Replace the center of the root's quotient by ``fault(A)``, A the
        root's basis of A', in the first ``walks`` walks; returns the list of
        root visits."""
        real = commutant._center_candidates
        calls = []

        def center(basis, quot_coords, rng):
            calls.append(None)
            if len(calls) <= walks:
                return fault(commutant.CommutantBasis(basis))
            return real(basis, quot_coords, rng)

        monkeypatch.setattr(commutant, "_center_candidates", center)
        return calls

    @staticmethod
    def identity_only(A):
        """A one-dimensional center: the root reads as one simple block."""
        return A.coords(np.eye(A.d))[:, None]

    @staticmethod
    def one_primitive(A):
        """span{I, e, I - e}, e the Riesz projector of a random element of S
        onto one eigenvalue: three directions, as many as the center has,
        whose every element lifts to one with the two eigenvalues of a
        combination of 1 and e in the quotient, and so splits into two parts,
        never into three."""
        r = np.random.default_rng(2)
        z = A.element(r.standard_normal(A.algebra_dim) + 1j * r.standard_normal(A.algebra_dim))
        L, R = commutant._spectral_split(z)[0]
        e = L @ R
        eye = np.eye(A.d)
        return np.stack([A.coords(eye), A.coords(e), A.coords(eye - e)], axis=1)

    def root_corner(self):
        roots = commutant._primary_corners(self.tuple_(), NumericPolicy())
        assert len(roots) == 1
        return roots[0]

    def test_center_in_quotient_coordinates(self, monkeypatch):
        c = self.root_corner()
        K, q = c.basis.shape[0], c.quotient_dim
        rad_coords = commutant._radical_coords(c.basis, NumericPolicy())[0]
        assert q == K - rad_coords.shape[1] == 4 + 4 + 1
        real_nullspace, shapes = commutant.nullspace, []

        def spying(M, *args, **kw):
            shapes.append(M.shape)
            return real_nullspace(M, *args, **kw)

        monkeypatch.setattr(commutant, "nullspace", spying)
        C = commutant._center_candidates(c.basis, c.quot_coords, np.random.default_rng(1))
        # the center of M_2 + M_2 + M_1 is 3-dimensional
        assert C.shape == (K, 3)
        assert shapes and all(cols == q for _, cols in shapes)
        assert np.linalg.norm(rad_coords.conj().T @ C) <= 1e-12
        # every direction commutes mod rad with the whole corner, not only
        # with the quotient representatives the computation checked
        V = c.basis.conj().reshape(K, -1)
        for col in C.T:
            z = np.tensordot(col, c.basis, axes=(0, 0))
            comm = np.matmul(z[None], c.basis) - c.basis @ z
            mod_rad = c.quot_coords.conj().T @ (V @ comm.reshape(K, -1).T)
            assert np.linalg.norm(mod_rad, axis=0).max() <= CENTRALITY_BAR

    @staticmethod
    def widen_first_center_solve(monkeypatch):
        """Make the first centralizer solve of the center stage keep only the
        first random element's constraints: its centralizer is larger than
        the center. Later solves are left alone."""
        real_nullspace, calls = commutant.nullspace, []

        def widening(M, rtol, *args, **kw):
            if rtol == CENTRALITY_BAR:
                calls.append(None)
                if len(calls) == 1:
                    return real_nullspace(M[:M.shape[1]], rtol, *args, **kw)
            return real_nullspace(M, rtol, *args, **kw)

        monkeypatch.setattr(commutant, "nullspace", widening)
        return calls

    def test_a_center_that_is_too_large_raises(self, monkeypatch):
        c = self.root_corner()
        self.widen_first_center_solve(monkeypatch)
        with pytest.raises(NumericalDegeneracyError, match="fails to commute modulo the radical"):
            commutant._center_candidates(c.basis, c.quot_coords, np.random.default_rng(1))

    def test_a_center_that_is_too_large_is_retried(self, monkeypatch):
        calls = self.widen_first_center_solve(monkeypatch)
        real, seeds = commutant._structure_once, []

        def counting(T, roots, policy, seed):
            seeds.append(seed)
            return real(T, roots, policy, seed)

        monkeypatch.setattr(commutant, "_structure_once", counting)
        assert semisimple_structure(self.tuple_()).block_dims == (2, 2, 1)
        assert seeds == [NumericPolicy().seed, NumericPolicy().seed + 1]
        assert len(calls) >= 2

    def test_one_walk_on_a_clean_input(self, monkeypatch):
        real = commutant._structure_once
        seeds = []

        def counting(T, roots, policy, seed):
            seeds.append(seed)
            return real(T, roots, policy, seed)

        monkeypatch.setattr(commutant, "_structure_once", counting)
        assert semisimple_structure(self.tuple_()).block_dims == (2, 2, 1)
        assert seeds == [NumericPolicy().seed]

    def test_premature_leaf_caught_by_the_primitive_count(self, monkeypatch):
        # a root read as one block has quotient dimension 4 + 4 + 1 = 9, a
        # square, so the first stage reports one block of size 3; only its
        # primitive split, which never finds 3 equal parts of a rank-14
        # corner, gives it away, and the next seed walks on
        roots = self.fault_at_root(monkeypatch, self.identity_only, walks=1)
        S = semisimple_structure(self.tuple_())
        assert S.block_dims == (2, 2, 1) and S.primitives.shape == (5, 14, 14)
        assert len(roots) == 2

    def test_premature_leaf_on_every_walk_raises(self, monkeypatch):
        roots = self.fault_at_root(monkeypatch, self.identity_only, walks=STRUCTURE_SEEDS)
        with pytest.raises(NumericalDegeneracyError,
                           match="no random element split a corner into 3 equal parts"):
            semisimple_structure(self.tuple_())
        assert len(roots) == STRUCTURE_SEEDS

    def test_first_walk_succeeds_with_one_or_two_blas_threads(self):
        # J_6(-0.8) and J_6(0.8), two copies each, at cond 1e4. While every
        # primitive got a corner of its own, the Sylvester stacks of those
        # leaf corners had noise straddling the cut and missed the identity:
        # the walk needed all seven seeds with one BLAS thread and failed all
        # seven with two. No primitive gets a commutant now, so the first
        # walk succeeds whatever the roundoff of the BLAS.
        code = textwrap.dedent("""
            import numpy as np
            import sidecomp.commutant as commutant
            from sidecomp import conjugate, direct_sum, inflate, v_semigroup_invariant
            from sidecomp._linalg import conditioned_invertible
            from sidecomp.planted import jordan_polynomial_tuple
            real, walks = commutant._structure_once, []

            def counting(*args):
                walks.append(None)
                return real(*args)

            commutant._structure_once = counting
            rng = np.random.default_rng(8)
            A = jordan_polynomial_tuple(6, -0.8, rng, 2)
            B = jordan_polynomial_tuple(6, 0.8, rng, 2)
            T = conjugate(direct_sum(inflate(A, 2), inflate(B, 2)),
                          conditioned_invertible(24, 1e4, rng))
            inv = v_semigroup_invariant(T)
            print(inv.k, *inv.multiplicities, inv.decomposition.count, len(walks))
        """)
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(sidecomp.__file__).parents[1]))
            env.update({name: threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")})
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert proc.stdout.split() == ["2", "2", "2", "4", "1"], threads

    def test_non_central_split_is_retried(self, monkeypatch):
        # a center span none of whose elements splits the root into the 3
        # parts it asks for fails the first walk's block split
        roots = self.fault_at_root(monkeypatch, self.one_primitive, walks=1)
        assert semisimple_structure(self.tuple_()).block_dims == (2, 2, 1)
        assert len(roots) == 2

    def test_non_central_split_on_every_walk_raises(self, monkeypatch):
        roots = self.fault_at_root(monkeypatch, self.one_primitive, walks=STRUCTURE_SEEDS)
        with pytest.raises(NumericalDegeneracyError,
                           match="no random element split a corner into 3 parts"):
            semisimple_structure(self.tuple_())
        assert len(roots) == STRUCTURE_SEEDS


class TestTwoFlatStages:
    """Each corner is split once, into the number of parts its algebra
    counts: a root into the k blocks its center counts, a block M_n into n
    primitives of equal rank. Only roots and blocks get a commutant. A free
    corner takes no split: its block and primitives are read off its
    presentation."""

    @staticmethod
    def eight_copies():
        """Eight copies of one 4 x 4 Jordan-polynomial block (m = 2) at cond
        10: d = 32, one block M_8, answer (1; 8). The root is free."""
        r = np.random.default_rng(32)
        return conjugate(inflate(jordan_polynomial_tuple(4, 0.8, r, 2), 8),
                         conditioned_invertible(32, 10.0, r))

    @staticmethod
    def two_sided_copies():
        """Three copies of (a + E31, b + E32, E41, E42) on C^4 at cond 10: d =
        12, answer (1; 3). Each copy has two generators on either side (e_1
        and e_2 on T, e_3 and e_4 on T*) and the words span{I, E31, E32, E41,
        E42}, so n_B * g = 30 > 12 on both sides: the tie keeps T, the root
        has relations, and its primitives come from a Riesz split."""
        def unit(i, j):
            E = np.zeros((4, 4), dtype=complex)
            E[i - 1, j - 1] = 1.0
            return E

        B = operator_tuple([0.5 * np.eye(4) + unit(3, 1), -0.3j * np.eye(4) + unit(3, 2),
                            unit(4, 1), unit(4, 2)])
        return conjugate(inflate(B, 3), conditioned_invertible(12, 10.0,
                                                               np.random.default_rng(9)))

    @staticmethod
    def recording_commutants(monkeypatch):
        real, dims = commutant._spin_up, []

        def recording(Ts, policy):
            dims.extend(T1.d for T1 in Ts)
            return real(Ts, policy)

        monkeypatch.setattr(commutant, "_spin_up", recording)
        return dims

    @staticmethod
    def merge_once(monkeypatch, parts):
        """Merge the first two projectors of the first split into ``parts``:
        that draw's split is coarse. Returns the list of merges."""
        real, merged = commutant._spectral_split, []

        def merging(z):
            projs = real(z)
            if not merged and projs is not None and len(projs) == parts:
                merged.append(None)
                (L0, R0), (L1, R1) = projs[:2]
                Q, S = np.linalg.qr(np.hstack([L0, L1]))
                return [(Q, S @ np.vstack([R0, R1]))] + projs[2:]
            return projs

        monkeypatch.setattr(commutant, "_spectral_split", merging)
        return merged

    def test_one_commutant_at_one_eigenvalue(self, monkeypatch):
        dims = self.recording_commutants(monkeypatch)
        S = semisimple_structure(self.eight_copies())
        assert (S.block_dims, S.primitives.shape) == ((8,), (8, 32, 32))
        assert dims == [32]

    def test_coarse_primitive_split_is_redrawn(self, monkeypatch):
        dims = self.recording_commutants(monkeypatch)
        merged = self.merge_once(monkeypatch, 3)
        S = semisimple_structure(self.two_sided_copies())
        assert merged and S.primitives.shape == (3, 12, 12)
        assert dims == [12]
        for P in S.primitives:
            assert abs(np.trace(P) - 4.0) <= 1e-8

    def test_coarse_block_split_is_redrawn(self, monkeypatch):
        # the root of (3; 2, 2, 1), which has relations, splits into blocks
        # of ranks 4, 6 and 4; a merged draw has 2 parts, and no corner is
        # built for either (the corner of rank 14 is the root's)
        real, ranks = commutant._corner, []

        def recording(T1, U, W, *args):
            ranks.append(round(np.trace(W @ U).real))
            return real(T1, U, W, *args)

        monkeypatch.setattr(commutant, "_corner", recording)
        merged = self.merge_once(monkeypatch, 3)
        S = semisimple_structure(TestOneWalk.tuple_())
        assert merged and sorted(ranks) == [4, 4, 6, 14]
        assert S.block_dims == (2, 2, 1) and S.primitives.shape == (5, 14, 14)

    @pytest.mark.parametrize("stream", range(6))
    def test_equal_blocks_keep_the_walk_order(self, stream):
        # three SI blocks of size 4 at three eigenvalues, cond 50: blocks of
        # equal size and rank keep the order of the primary corners that
        # found them; sorted on their traces, they were ordered by roundoff
        rng = np.random.default_rng([3, stream])
        A, B, C = (jordan_polynomial_tuple(4, lam, rng, 2) for lam in (0.8, -0.8, 1.6))
        T = conjugate(direct_sum(direct_sum(A, B), C), conditioned_invertible(12, 50.0, rng))
        pol = NumericPolicy()
        roots = commutant._primary_corners(T, pol)
        S = semisimple_structure(T, pol)
        assert len(roots) == 3 and S.block_dims == (1, 1, 1)
        for L, root in zip(S.frames, roots):
            assert np.array_equal(L, root.U)


def _workloads():
    """The benchmark's input recipes, ``perfbench/workloads.py``."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _large_d_tuple(seed, shape):
    """The ``large_d`` benchmark input of shape (d, k) at ``seed``: k classes
    of d / (4 k) copies of one size-4 block, conjugated at cond 10."""
    wl = _workloads()
    d, k = shape
    rng = wl._rng(seed, wl.LARGE_D_SHAPES.index(shape))
    lams = rng.permutation(np.array(wl.EIGENVALUE_GRID))[:k]
    mats = wl._block_sum(2, [(4, float(lam), d // (4 * k)) for lam in lams], rng)
    return wl._conjugated(mats, wl._conditioned(d, 10.0, rng))


class TestStackedSpinUp:
    """One stacked spin-up gives each member bitwise what a call on that
    member alone gives, and a member refused anywhere leaves the others'
    results unchanged."""

    @staticmethod
    def assert_member_by_member(stack):
        pol = NumericPolicy()
        stacked = commutant._spin_up(stack, pol)
        alone = [commutant._spin_up([T], pol)[0] for T in stack]
        assert len(stacked) == len(stack)
        for a, b in zip(stacked, alone):
            assert (a is None) == (b is None)
            if a is None:
                continue
            for name in ("B", "G", "pinv"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert (a.Y is None) == (b.Y is None)
            assert a.Y is None or np.array_equal(a.Y, b.Y)
            assert np.array_equal(a.T.matrices, b.T.matrices)
            assert (a.adjoint, a.bar, a.rtol) == (b.adjoint, b.bar, b.rtol)
        return stacked

    @staticmethod
    def corner_stacks(T, monkeypatch):
        """The stacks that the primary split of T hands to the spin-up."""
        real, stacks = commutant._spin_up, []

        def recording(Ts, policy):
            stacks.append(list(Ts))
            return real(Ts, policy)

        with monkeypatch.context() as mp:
            mp.setattr(commutant, "_spin_up", recording)
            commutant._primary_corners(T, NumericPolicy())
        return stacks

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("shape", [(24, 3), (24, 2), (32, 2), (32, 4)])
    def test_large_d_corners(self, monkeypatch, seed, shape):
        stacks = self.corner_stacks(_large_d_tuple(seed, shape), monkeypatch)
        assert [len(S) for S in stacks] == [shape[1]]
        assert all(su is not None and su.Y is None
                   for su in self.assert_member_by_member(stacks[0]))

    def test_word_ranks_that_diverge(self, monkeypatch):
        # the cli workload's tuple (2; 3, 2): two corners of size 6, two
        # copies of a 3 x 3 block (n_B = 3) and three of a 2 x 2 one (n_B = 2)
        wl = _workloads()
        T, _, _ = wl._planted(wl.CLI_PROFILE, wl._rng(0, 0))
        stacks = self.corner_stacks(T, monkeypatch)
        assert [[S.d for S in stack] for stack in stacks] == [[6, 6]]
        sus = self.assert_member_by_member(stacks[0])
        assert sorted(su.B.shape[0] for su in sus) == [2, 3]

    def test_a_trace_form_refusal_leaves_the_others(self):
        # X diag(0, 1, -1) X^-1 is refused by the trace form of its words;
        # the cyclic blocks stacked with it are free
        r = np.random.default_rng(4)
        X = conditioned_invertible(3, 10.0, r)
        stack = [conjugate(jordan_polynomial_tuple(3, 0.8, r, 1), X),
                 operator_tuple([X @ np.diag([0.0, 1.0, -1.0]) @ np.linalg.inv(X)]),
                 jordan_polynomial_tuple(3, -1.6, r, 1)]
        sus = self.assert_member_by_member(stack)
        assert [su is None for su in sus] == [False, True, False]

    @pytest.mark.parametrize("d", [4, 5])
    def test_relations_and_a_straddle(self, d):
        # d = 4: the band B_2(1) of tests/test_si_corpus.py has relations on
        # either side, two generators each, and the tie keeps T. d = 5: the
        # transposed string Z_2 has relations, three generators on T and two
        # on T*, so it spins up on T*. J_d with entrywise noise 1e-9
        # straddles a strict cut and is refused; the Jordan-polynomial block
        # is free on T
        x, y = np.zeros((d, d)), np.zeros((d, d))
        if d == 4:
            x[2, 0] = x[3, 1] = y[2, 0] = y[3, 1] = y[3, 0] = 1.0
        else:
            x[0, 1] = x[2, 3] = y[2, 1] = y[4, 3] = 1.0
            x, y = x.T, y.T
        r = np.random.default_rng(0)
        A = jordan(d)
        noisy = operator_tuple([A + 1e-9 * r.standard_normal((d, d)),
                                A @ A + 1e-9 * r.standard_normal((d, d))])
        stack = [conjugate(operator_tuple([x, y]), conditioned_invertible(d, 10.0, r)), noisy,
                 conjugate(jordan_polynomial_tuple(d, 0.8, r, 2),
                           conditioned_invertible(d, 10.0, r))]
        sus = self.assert_member_by_member(stack)
        assert sus[1] is None
        assert sus[0].Y is not None and sus[0].adjoint == (d == 5)
        assert sus[2].Y is None and not sus[2].adjoint

    def test_a_lone_member_keeps_its_words(self, monkeypatch):
        # J_4(0) is free on T: its presentation holds the word algebra's own
        # array, neither restacked nor copied
        real, words = commutant._word_algebra, []

        def recording(*args):
            out = real(*args)
            words.extend(out)
            return out

        monkeypatch.setattr(commutant, "_word_algebra", recording)
        su = commutant._spin_up([operator_tuple([jordan(4)])], NumericPolicy())[0]
        assert su is not None and su.Y is None and not su.adjoint
        assert len(words) == 1 and np.shares_memory(su.B, words[0])

    def test_one_svd_per_stage_on_large_d(self, monkeypatch):
        # the (32, 4) input: the whole space's presentation (refused by the
        # trace form) and one stack of four free corners of size 8 take 4
        # SVDs in all (16 one corner at a time), and the split keeps its
        # parts across rungs: 6 projectors (8 when each rung recomputes them)
        T = _large_d_tuple(3, (32, 4))
        counts = {"svd_robust": 0, "spectral_projector": 0}

        def counting(name):
            real = getattr(_linalg, name)

            def count(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return count

        for name in counts:
            fn = counting(name)
            for module in (_linalg, commutant, sidecomp.decomposition):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        inv = v_semigroup_invariant(T)
        assert (inv.k, inv.multiplicities) == (4, (2, 2, 2, 2))
        assert counts == {"svd_robust": 4, "spectral_projector": 6}


class TestOneClassPresentedFirst:
    """A tuple whose first-level trace form ``tr(N_i N_j)`` vanishes is
    presented on the whole space before any Schur form is drawn; a
    presentation that is not refused is the one root. A refused one sends
    the tuple to the primary split, whose one-root fallback reuses it."""

    READERS = (semisimple_structure, joint_commutant, is_strongly_irreducible,
               lambda T: inflation_commutant_check(T, 2))

    @staticmethod
    def recording_draws(monkeypatch):
        """Record every primary or corner split and every Schur form."""
        draws = []
        real_split, real_schur = commutant._spectral_split, _linalg.schur

        def recording_split(z):
            draws.append(("split", z.shape[0]))
            return real_split(z)

        def recording_schur(z):
            draws.append(("schur", z.shape[0]))
            return real_schur(z)

        monkeypatch.setattr(commutant, "_spectral_split", recording_split)
        monkeypatch.setattr(commutant, "schur", recording_schur)
        monkeypatch.setattr(_linalg, "schur", recording_schur)
        return draws

    @staticmethod
    def roots_of_unity(m):
        """X diag(1, w, w^2) X^-1 (m = 1) and the pair with X diag(w, w^2, 1)
        X^-1 (m = 2), w = exp(2 pi i/3), cond(X) = 10: three joint
        eigenvalues, but every ``tr(N_i N_j)`` is a sum of the three cube
        roots of unity, 0."""
        w = np.exp(2j * np.pi / 3)
        X = conditioned_invertible(3, 10.0, np.random.default_rng(4))
        Xi = np.linalg.inv(X)
        diags = ([1.0, w, w * w], [w, w * w, 1.0])[:m]
        return operator_tuple([X @ np.diag(v) @ Xi for v in diags])

    @pytest.mark.parametrize("reader", range(4))
    @pytest.mark.parametrize("r", [None, 3, 8, 16])
    def test_no_schur_draw_on_one_class(self, monkeypatch, reader, r):
        # eight copies of one block (None), and single blocks J_r
        T = TestTwoFlatStages.eight_copies() if r is None else \
            jordan_polynomial_tuple(r, 0.8, np.random.default_rng(r), 2)
        assert commutant._trace_form_vanishes(T, NumericPolicy())
        draws = self.recording_draws(monkeypatch)
        self.READERS[reader](T)
        assert draws == []

    @pytest.mark.parametrize("m", [1, 2])
    def test_refused_presentation_falls_back_to_the_split(self, monkeypatch, m):
        T = self.roots_of_unity(m)
        pol = NumericPolicy()
        assert commutant._trace_form_vanishes(T, pol)
        draws = self.recording_draws(monkeypatch)
        real_spin_up, whole = commutant._spin_up, []

        def recording_spin_up(Ts, policy):
            sus = real_spin_up(Ts, policy)
            whole.extend(su for T1, su in zip(Ts, sus) if T1.d == 3)
            return sus

        monkeypatch.setattr(commutant, "_spin_up", recording_spin_up)
        inv = v_semigroup_invariant(T)
        assert whole == [None]
        assert [kind for kind, _ in draws] == ["split", "schur"]
        assert (inv.k, inv.multiplicities) == (3, (1, 1, 1))
        assert not is_strongly_irreducible(T)

    def test_refused_presentation_is_not_rebuilt(self, monkeypatch):
        # with no split drawn, the one root is the whole space, read through
        # the stack from the presentation refused before the draw
        T = self.roots_of_unity(1)
        real_spin_up, whole = commutant._spin_up, []

        def recording_spin_up(Ts, policy):
            whole.extend(T1.d for T1 in Ts)
            return real_spin_up(Ts, policy)

        monkeypatch.setattr(commutant, "_spin_up", recording_spin_up)
        monkeypatch.setattr(commutant, "_spectral_split", lambda z: None)
        roots = commutant._primary_corners(T, NumericPolicy())
        assert whole == [3]
        assert len(roots) == 1 and roots[0].algebra_dim == 3

    def test_split_first_when_the_trace_form_is_nonzero(self, monkeypatch):
        # X diag(0, 1, -1) X^-1 has tr(N^2) = 2: the split comes first, and
        # the whole space is never presented
        X = conditioned_invertible(3, 10.0, np.random.default_rng(4))
        T = operator_tuple([X @ np.diag([0.0, 1.0, -1.0]) @ np.linalg.inv(X)])
        assert not commutant._trace_form_vanishes(T, NumericPolicy())
        real_spin_up, dims = commutant._spin_up, []

        def recording_spin_up(Ts, policy):
            dims.extend(T1.d for T1 in Ts)
            return real_spin_up(Ts, policy)

        monkeypatch.setattr(commutant, "_spin_up", recording_spin_up)
        assert not is_strongly_irreducible(T)
        assert dims == [1, 1, 1]


class TestFreeRoots:
    """A corner that the spin-up presents without relations (n_B * g = d) is
    free over ``B = C[T]``: ``A' = M_g(B)``, one block M_g, whose g
    primitives are the module maps with values ``G E_ii``. None of it is
    walked."""

    @staticmethod
    def walked(mp):
        """Send every free presentation through the basis walk: its values
        are given as an explicit orthonormal basis of all d x g matrices, so
        that it reads as a presentation with relations, and the corner is
        read through the presentation's basis of A'."""
        real = commutant._spin_up

        def explicit(Ts, policy):
            return [su if su is None or su.Y is not None
                    else su._replace(Y=np.eye(su.G.size, dtype=complex).reshape(-1, *su.G.shape))
                    for su in real(Ts, policy)]

        mp.setattr(commutant, "_spin_up", explicit)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.floats(1.0, 100.0),
           st.integers(0, 2**32 - 1))
    def test_closed_form_agrees_with_the_walk(self, r, n, m, cond, seed):
        # n copies of one cyclic r x r block sharing one joint eigenvalue
        T = _shared_eigenvalue_classes([(r, n)], m, cond, np.random.default_rng(seed))
        pol, eye = NumericPolicy(), np.eye(T.d, dtype=complex)
        assert commutant._corner(T, eye, eye, pol).free is not None
        closed = semisimple_structure(T)
        with pytest.MonkeyPatch.context() as mp:
            self.walked(mp)
            assert commutant._corner(T, eye, eye, pol).free is None
            walked = semisimple_structure(T)
        decomps = []
        for S in (closed, walked):
            assert (S.k, S.block_dims) == (1, (n,))
            assert [round(np.trace(P).real) for P in S.primitives] == [r] * n
            D = UnitDecomposition.from_idempotents(T, S.primitives, (True,) * n, pol)
            D.validate(pol)
            decomps.append(D)
        assert decompositions_equivalent(T, *decomps).equivalent

    def test_strong_irreducibility_is_g_equal_to_one(self, monkeypatch):
        # a cyclic Jordan-polynomial block and its inflation x 3 are free:
        # SI exactly when g = 1, with no radical and no basis of A'
        def forbidden(*args, **kwargs):
            raise AssertionError("a free input was walked")

        monkeypatch.setattr(commutant, "_radical_coords", forbidden)
        monkeypatch.setattr(commutant, "_commutant", forbidden)
        r = np.random.default_rng(7)
        B = jordan_polynomial_tuple(4, -0.8, r, 2)
        assert is_strongly_irreducible(conjugate(B, conditioned_invertible(4, 10.0, r)))
        assert not is_strongly_irreducible(conjugate(inflate(B, 3),
                                                     conditioned_invertible(12, 10.0, r)))

    @pytest.mark.parametrize("stream", [10, 38])
    def test_primitives_are_not_held_to_the_presentation_bar(self, stream):
        # J6 x 2 (+) J6' x 2 at cond 1e4 (the harsh corpus's J6 #10 and #38):
        # the primitives of the free blocks have norms 59 and 248 and commute
        # with the compressed tuple to 3.8e-8 and 2.3e-8 relative, above the
        # presentation's bars 2.0e-8 and 1.9e-8. They are held to what a
        # decomposition must meet, and these inputs read (2; 2, 2)
        rng = np.random.default_rng([900, stream])
        lam = rng.permutation(np.array(EIGENVALUE_GRID))[:2]
        A, B = (jordan_polynomial_tuple(6, float(x), rng, 2) for x in lam)
        T = conjugate(direct_sum(inflate(A, 2), inflate(B, 2)),
                      conditioned_invertible(24, 1e4, rng))
        inv = v_semigroup_invariant(T)
        assert (inv.k, inv.multiplicities) == (2, (2, 2))


def _model(m, D, kernel="da", mode="adjoint"):
    """The truncated multishift on the grid of degree <= D in m variables:
    Drury-Arveson, or Bergman with exponent ``kernel``."""
    spec = DiagonalKernelSpec.drury_arveson(m) if kernel == "da" \
        else DiagonalKernelSpec.bergman(m, kernel)
    return truncated_tuple(spec, TruncationGrid.build(m, D), mode)


class TestAdjointSide:
    """``A'(T) = A'(T*)*``: the spin-up runs on the side with fewer
    generators. A backward multishift is co-cyclic, with D + 1 generators
    at m = 2 and relations, and its adjoint is cyclic and free (g = 1), so
    the paper's models and their inflations are read on T*."""

    @pytest.mark.parametrize("T,adjoint,g", [
        (_model(2, 3), True, 1),                        # co-cyclic: T* has g = 1
        (inflate(_model(3, 2), 2), True, 2),
        (_model(2, 3, mode="forward"), False, 1),       # cyclic: free on T
        (TestTwoFlatStages.two_sided_copies(), False, 6),   # a tie keeps T
    ])
    def test_side_rule(self, T, adjoint, g):
        su = commutant._spin_up([T], NumericPolicy())[0]
        assert (su.adjoint, su.G.shape[1]) == (adjoint, g)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(2, D, 1) for D in range(1, 6)] + [(3, D, 1) for D in range(1, 4)]
                           + [(2, D, 2) for D in range(1, 4)] + [(3, D, 2) for D in range(1, 3)]),
           st.one_of(st.just("da"), st.floats(1.0, 4.0)), st.floats(1.0, 50.0),
           st.integers(0, 2**32 - 1))
    def test_span_equals_the_stack(self, grid, kernel, cond, seed):
        # grids up to (2, 5) and (3, 3), inflations x 2 up to d = 20: past
        # that the stack alone takes ~10 s
        m, D, n = grid
        T0 = inflate(_model(m, D, kernel), n)
        T = conjugate(T0, conditioned_invertible(T0.d, cond, np.random.default_rng(seed)))
        su = commutant._spin_up([T], NumericPolicy())[0]
        assert su.adjoint and su.G.shape[1] == n
        A = commutant._spin_up_commutant(su)
        B = stack_commutant(T)
        assert A is not None and A.algebra_dim == B.algebra_dim == n * T0.d   # n^2 d_0
        assert _span_gap(A, B) <= 1e-8
        V = A.basis.reshape(A.algebra_dim, -1)
        assert np.linalg.norm(V.conj() @ V.T - np.eye(A.algebra_dim)) <= 1e-12

    def test_models_build_no_stack(self, monkeypatch):
        # DA (3, 4), d = 35, went to the stack on T (ROADMAP item 2)
        def forbidden(*args, **kwargs):
            raise AssertionError("a Sylvester stack was built")

        monkeypatch.setattr(commutant, "_sylvester_stack", forbidden)
        T = _model(3, 4)
        inv = v_semigroup_invariant(T)
        assert (inv.k, inv.multiplicities) == (1, (1,))
        assert is_strongly_irreducible(T)
        assert joint_commutant(T).algebra_dim == 35
        chk = inflation_commutant_check(T, 2)
        assert (chk.base_dim, chk.inflated_dim, chk.passed) == (35, 140, True)

    def test_free_primitives_of_an_inflated_model(self):
        # DA (2, 4) x 3 at cond 10: three primitives of rank 15, read off the
        # presentation of T*, validate and match those of the basis walk
        r = np.random.default_rng(4)
        T = conjugate(inflate(_model(2, 4), 3), conditioned_invertible(45, 10.0, r))
        pol, eye = NumericPolicy(), np.eye(T.d, dtype=complex)
        assert commutant._corner(T, eye, eye, pol).free.adjoint
        closed = semisimple_structure(T)
        with pytest.MonkeyPatch.context() as mp:
            TestFreeRoots.walked(mp)
            assert commutant._corner(T, eye, eye, pol).free is None
            walked = semisimple_structure(T)
        decomps = []
        for S in (closed, walked):
            assert (S.k, S.block_dims) == (1, (3,))
            assert [round(np.trace(P).real) for P in S.primitives] == [15] * 3
            D = UnitDecomposition(T, S.frames, S.rows, (True,) * 3)
            D.validate(pol)
            decomps.append(D)
        assert decompositions_equivalent(T, *decomps).equivalent


class TestIdempotentsNeedNoRepair:
    """The walk's idempotents are Schur-built Riesz projectors and their
    compressions, used as they come: each must be idempotent to the bar a
    Newton polish would have aimed at, so that a split that loses accuracy
    fails here instead of downstream."""

    @staticmethod
    def assert_idempotent(E):
        d, eps = E.shape[0], np.finfo(float).eps
        norm = np.linalg.norm(E)
        bar = max(1e-13 * max(1.0, norm), 8.0 * d * eps * max(1.0, norm * norm))
        assert np.linalg.norm(E @ E - E) <= bar

    @staticmethod
    def two_classes_of_jordan_8(seed):
        """J8 x 2 (+) J8' x 2 at two eigenvalues, conjugated with cond 1e4."""
        r = np.random.default_rng(seed)
        a, b = (jordan_polynomial_tuple(8, lam, r) for lam in (-0.8, 1.6))
        T = direct_sum(inflate(a, 2), inflate(b, 2))
        return conjugate(T, conditioned_invertible(T.d, 1e4, r))

    @pytest.mark.parametrize("source,seeds", [("planted", range(12)), ("jordan_8", range(3))])
    def test_idempotent_to_the_polish_bar(self, source, seeds):
        for seed in seeds:
            if source == "planted":
                T = planted_instance(seed).realized
            else:
                T = self.two_classes_of_jordan_8(seed)
            for E in semisimple_structure(T).central_idempotents:
                self.assert_idempotent(E)
            for E in unit_si_decomposition(T).idempotents:
                self.assert_idempotent(E)


class TestSpectralSplit:
    @staticmethod
    def reference_projector(z, center, radius):
        """Riesz projector onto the eigenvalues of z within ``radius`` of
        ``center``, by a sorted Schur form and a Sylvester solve."""
        T, Z, k = sla.schur(z, output="complex", sort=lambda lam: abs(lam - center) < radius)
        R = sla.solve_sylvester(T[:k, :k], -T[k:, k:], T[:k, k:])
        P = np.zeros_like(T)
        P[:k, :k] = np.eye(k)
        P[:k, k:] = R
        return Z @ P @ Z.conj().T

    @staticmethod
    def escalating(seed=4, cond=10.0):
        # the size-3 Jordan cloud scatters like eps^(1/3) after conjugation,
        # so the first gap cuts it and the split escalates
        X = conditioned_invertible(5, cond, np.random.default_rng(seed))
        return X @ bd(jordan(3), jordan(2, 1.0)) @ np.linalg.inv(X)

    @staticmethod
    def diagonalizable(seed=2, cond=10.0):
        X = conditioned_invertible(6, cond, np.random.default_rng(seed))
        return X @ np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]) @ np.linalg.inv(X)

    @settings(max_examples=30, deadline=None)
    @given(which=st.sampled_from(["escalating", "diagonalizable"]),
           seed=st.integers(0, 2**32 - 1), cond=st.floats(1.0, 1e3))
    def test_parts_are_idempotents_of_their_rank_by_construction(self, which, seed, cond):
        # the split tests only the norm cap and LAPACK's info: R* L = I_k up
        # to roundoff makes every part P = L R* idempotent with trace k, and
        # the parts' ranks partition the dimension
        z = getattr(self, which)(seed, cond)
        d, eps = z.shape[0], np.finfo(float).eps
        projs = commutant._spectral_split(z)
        assert len(projs) == (2 if which == "escalating" else 3)
        assert sum(L.shape[1] for L, _ in projs) == d
        for L, R in projs:
            k = L.shape[1]
            RL = R @ L
            assert abs(np.trace(RL) - k) <= 1e-9
            assert np.linalg.norm((RL - np.eye(k)) @ R) \
                <= 64 * d * eps * np.linalg.norm(R) ** 2

    @pytest.mark.parametrize("routine", ["ztrsen", "ztrsyl"])
    @pytest.mark.parametrize("failures", [1, None])
    def test_reorder_failure_is_a_rejected_rung(self, monkeypatch, routine, failures):
        # info != 0 from the reordering or the Sylvester solve rejects that
        # gap's split; the ladder goes on to the next gap
        flapack = _linalg._flapack()
        real, calls = getattr(flapack, routine), []

        def failing(*args, **kw):
            out = real(*args, **kw)
            calls.append(None)
            if failures is None or len(calls) <= failures:
                return (*out[:-1], 1)
            return out

        # _linalg.spectral_projector looks both up in the module _flapack returns
        monkeypatch.setattr(flapack, routine, failing)
        projs = commutant._spectral_split(np.diag([1.0, 2.0, 3.0]).astype(complex))
        if failures is None:
            assert projs is None and len(calls) == len(SPLIT_GAPS)
        else:
            assert [round(np.trace(R @ L).real) for L, R in projs] == [1, 1, 1]

    @pytest.mark.parametrize("which", ["diagonalizable", "escalating"])
    def test_one_schur_form_per_split(self, monkeypatch, which):
        z = getattr(self, which)()
        flapack = _linalg._flapack()
        real_zgees, real_cluster = flapack.zgees, commutant.cluster_eigenvalues
        schurs, gaps = [], []

        def counting_zgees(*args, **kw):
            if kw.get("lwork") != -1:   # a workspace query computes no form
                schurs.append(None)
            return real_zgees(*args, **kw)

        def recording_cluster(eigs, gap):
            gaps.append(gap)
            return real_cluster(eigs, gap)

        def no_sylvester(*args, **kw):
            raise AssertionError("solve_sylvester called")

        monkeypatch.setattr(flapack, "zgees", counting_zgees)
        monkeypatch.setattr(sla, "solve_sylvester", no_sylvester)
        monkeypatch.setattr(commutant, "cluster_eigenvalues", recording_cluster)
        assert commutant._spectral_split(z) is not None
        assert len(schurs) == 1
        assert len(gaps) == (1 if which == "diagonalizable" else 2)

    @pytest.mark.parametrize("which,centers", [("diagonalizable", [1.0, 2.0, 3.0]),
                                               ("escalating", [0.0, 1.0])])
    def test_projectors_match_the_sorted_schur_reference(self, which, centers):
        z = getattr(self, which)()
        projs = commutant._spectral_split(z)
        refs = [self.reference_projector(z, c, 0.5) for c in centers]
        assert len(projs) == len(refs)
        for (Z, R), ref in zip(projs, refs):
            P = Z @ R
            assert np.linalg.norm(P - ref) <= 1e-10 * np.linalg.norm(ref)
            # the frame is orthonormal and spans range(P): P fixes it, and
            # it has as many columns as P has rank
            k = round(np.trace(P).real)
            assert Z.shape == (z.shape[0], k) and R.shape == (k, z.shape[0])
            assert np.linalg.norm(Z.conj().T @ Z - np.eye(k)) <= 1e-12
            assert np.linalg.norm(P @ Z - Z) <= 1e-10 * np.linalg.norm(P)


class TestIntertwiners:
    def test_self_intertwiners_equal_commutant(self):
        T = operator_tuple([jordan(2)])
        assert intertwiner_space(T, T).shape[0] == 2

    def test_disjoint_spectra_no_intertwiner(self):
        sp = intertwiner_space(operator_tuple([jordan(2)]),
                               operator_tuple([jordan(2, 1.0)]))
        assert sp.shape[0] == 0

    def test_scalar_zero_tuples(self):
        sp = intertwiner_space(operator_tuple([np.zeros((1, 1))]),
                               operator_tuple([np.zeros((1, 1))]))
        assert sp.shape[0] == 1

    def test_rectangular_space(self):
        # maps J_2(0) -> J_3(0): polynomial-embedding intertwiners exist
        sp = intertwiner_space(operator_tuple([jordan(2)]), operator_tuple([jordan(3)]))
        assert sp.shape[0] == 2 and sp.shape[1:] == (3, 2)

    def test_stack_over_the_byte_budget_is_refused(self):
        # two d = 96, m = 2 tuples: their stack needs 16 m d^4 = 2.7 GB, over
        # STACK_BYTE_BUDGET; it raises before anything that large is allocated
        r = np.random.default_rng(0)
        T = operator_tuple([np.diag(r.standard_normal(96)), np.eye(96)])
        S = operator_tuple([np.diag(r.standard_normal(96)), np.eye(96)])
        assert 16 * 2 * 96 ** 4 > STACK_BYTE_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(NumericalDegeneracyError,
                               match=r"m=2, d_T=96, d_S=96 needs 2717908992 bytes"):
                intertwiner_space(T, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
