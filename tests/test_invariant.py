import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bd, jordan
from sidecomp import (
    AlgebraStructure,
    UnitDecomposition,
    block_similarity,
    conjugate,
    direct_sum,
    idempotent_classes_equal,
    inflate,
    k0_descriptor,
    operator_tuple,
    semisimple_structure,
    similar,
    unit_si_decomposition,
    v_semigroup_invariant,
)
from sidecomp._linalg import conditioned_invertible
from sidecomp.planted import jordan_polynomial_tuple, planted_instance
from sidecomp.policy import NumericalDegeneracyError


class TestInvariant:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_tuple(self, n):
        inv = v_semigroup_invariant(operator_tuple([np.eye(n)]))
        assert inv.k == 1 and inv.multiplicities == (n,)
        assert inv.class_representatives[0].d == 1

    def test_disjoint_jordan_sum(self):
        inv = v_semigroup_invariant(operator_tuple([bd(jordan(2), jordan(2, 1.0))]))
        assert inv.k == 2 and inv.multiplicities == (1, 1)

    def test_inflated_jordan_block(self):
        inv = v_semigroup_invariant(inflate(operator_tuple([jordan(2)]), 2))
        assert inv.k == 1 and inv.multiplicities == (2,)

    def test_representatives_pairwise_dissimilar(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0), jordan(3, -1.0))])
        inv = v_semigroup_invariant(T)
        D = inv.decomposition
        for a in range(inv.k):
            for b in range(a + 1, inv.k):
                assert block_similarity(T, D.idempotents[inv.class_blocks[a][0]],
                                        D.idempotents[inv.class_blocks[b][0]]) is None

    def test_block_dimension_accounting(self):
        T = operator_tuple([bd(jordan(3), jordan(3), np.eye(2))])
        inv = v_semigroup_invariant(T)
        total = sum(m * rep.d for m, rep in
                    zip(inv.multiplicities, inv.class_representatives))
        assert total == T.d

    @pytest.mark.parametrize("seed", range(20))
    def test_classes_sharing_a_joint_eigenvalue(self, seed):
        # (J3, N) twice, (J3, N^2) and (J2, 0) all sit at the joint eigenvalue
        # (0.8, 0), so only the structure inside one primary component tells
        # them apart; (J2(-1.6), 0) is a second primary component
        r = np.random.default_rng(seed)
        N3 = jordan(3)
        classes = [(jordan(3, 0.8), N3), (jordan(3, 0.8), N3), (jordan(3, 0.8), N3 @ N3),
                   (jordan(2, 0.8), np.zeros((2, 2))), (jordan(2, -1.6), np.zeros((2, 2)))]
        blocks = []
        for A, B in classes:
            X = conditioned_invertible(A.shape[0], float(r.uniform(1.0, 100.0)), r)
            Xi = np.linalg.inv(X)
            blocks.append((X @ A @ Xi, X @ B @ Xi))
        T = operator_tuple([bd(*[b[0] for b in blocks]), bd(*[b[1] for b in blocks])])
        inv = v_semigroup_invariant(T)
        assert (inv.k, inv.multiplicities) == (4, (2, 1, 1, 1))

    def test_classes_come_from_the_structure_blocks(self, monkeypatch):
        # the classes are the simple blocks of A'(T)/rad: no intertwiner
        # search, and one frame restriction per class rather than per primitive
        import sidecomp.invariant as invariant

        def forbidden(*args, **kwargs):
            raise AssertionError("intertwiner search inside the invariant")

        calls = []
        original = invariant.compress

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(invariant, "_invertible_intertwiner", forbidden)
        monkeypatch.setattr(invariant, "compress", counting)
        T = operator_tuple([bd(jordan(2), jordan(2), jordan(2, 1.0))])
        T = conjugate(T, conditioned_invertible(6, 10.0, np.random.default_rng(3)))
        inv = v_semigroup_invariant(T)
        assert (inv.k, inv.multiplicities) == (2, (2, 1))
        assert inv.class_blocks == ((0, 1), (2,))
        assert len(calls) == 2


class TestK0:
    def test_strongly_irreducible_rank_one(self):
        # free on one generator with the identity at 1: the finite-scale
        # shadow of the idempotent-semigroup / K0 statement for an SI tuple
        desc = k0_descriptor(operator_tuple([jordan(3)]))
        assert desc.rank == 1 and desc.order_unit == (1,)

    def test_two_classes(self):
        desc = k0_descriptor(operator_tuple([bd(jordan(2), jordan(2, 1.0))]))
        assert desc.rank == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_inflated_si_tuple(self, n):
        desc = k0_descriptor(inflate(operator_tuple([jordan(2)]), n))
        assert desc.rank == 1 and desc.order_unit == (n,)

    @pytest.mark.parametrize("seed", range(10))
    def test_order_unit_is_the_block_dims_of_the_quotient(self, seed):
        # K0 of A'(T) is Z^k with the unit at (n_1, ..., n_k) when
        # A'(T)/rad = M_{n_1} (+) ... (+) M_{n_k}
        T = planted_instance(seed, d_max=14).realized
        block_dims = semisimple_structure(T).block_dims
        assert v_semigroup_invariant(T).multiplicities == tuple(sorted(block_dims, reverse=True))


class TestSimilar:
    def test_planted_conjugation_with_witness(self, rng):
        T = jordan_polynomial_tuple(3, 0.5, rng, 2)
        X = conditioned_invertible(3, 80.0, rng)
        S = conjugate(T, X)
        v = similar(T, S, want_witness=True)
        assert v.similar and v.residual <= 1e-6

    def test_witness_reuses_class_intertwiners(self, monkeypatch):
        # the class matching decides through the decomposition module's
        # binding, the witness through the invariant module's: count both
        import sidecomp.decomposition as decomposition
        import sidecomp.invariant as invariant
        calls = []
        original = decomposition._invertible_intertwiner

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(decomposition, "_invertible_intertwiner", counting)
        monkeypatch.setattr(invariant, "_invertible_intertwiner", counting)
        T = operator_tuple([bd(jordan(2), jordan(2), jordan(2, 1.0))])
        S = conjugate(T, conditioned_invertible(6, 10.0, np.random.default_rng(5)))
        plain = similar(T, S)
        n_plain = len(calls)
        v = similar(T, S, want_witness=True)
        assert plain.similar and v.similar and v.residual <= 1e-6
        # the matching decides one pair per class; the witness adds one
        # decision per block beyond the first of each class
        assert v.invariant_lhs.multiplicities == (2, 1)
        assert n_plain == 2
        assert len(calls) == 2 * n_plain + 1

    def test_no_dense_idempotent_on_the_invariant_and_witness_paths(self, monkeypatch):
        # every idempotent is carried as its factors (frame, row factor):
        # the invariant and the witness never form one as a d x d matrix
        def forbidden(self):
            raise AssertionError("a dense idempotent was formed")

        for cls, name in ((UnitDecomposition, "idempotents"),
                          (AlgebraStructure, "primitives"),
                          (AlgebraStructure, "central_idempotents")):
            monkeypatch.setattr(cls, name, property(forbidden))
        r = np.random.default_rng(11)
        A, B = jordan_polynomial_tuple(3, 0.8, r, 2), jordan_polynomial_tuple(2, -0.8, r, 2)
        T = conjugate(direct_sum(inflate(A, 2), B), conditioned_invertible(8, 20.0, r))
        S = conjugate(T, conditioned_invertible(8, 20.0, r))
        inv = v_semigroup_invariant(T)
        assert (inv.k, inv.multiplicities) == (2, (2, 1))
        v = similar(T, S, want_witness=True)
        assert v.similar and v.residual <= 1e-6

    def test_one_search_behind_every_similarity_decision(self, monkeypatch):
        import sidecomp.decomposition as decomposition
        import sidecomp.invariant as invariant
        assert invariant._invertible_intertwiner is decomposition._invertible_intertwiner

        def broken(*args, **kwargs):
            raise RuntimeError("intertwiner search")

        monkeypatch.setattr(decomposition, "_invertible_intertwiner", broken)
        monkeypatch.setattr(invariant, "_invertible_intertwiner", broken)
        T = operator_tuple([bd(jordan(2), jordan(2))])
        D = unit_si_decomposition(T)
        with pytest.raises(RuntimeError, match="intertwiner search"):
            block_similarity(T, D.idempotents[0], D.idempotents[1])
        with pytest.raises(RuntimeError, match="intertwiner search"):
            similar(T, T)

    def test_search_counts_are_pinned(self, monkeypatch):
        # one decision per class pair the greedy matching tries, plus one per
        # non-first block pair of the witness; a decided pair reads two
        # Sylvester stacks, Hom(A, B) and Hom(B, A), and a pair whose
        # Hom(A, B) is empty reads one; a multiplicity mismatch ends the
        # matching at once, and a rank mismatch reads no stack
        import sidecomp.decomposition as decomposition
        calls, real = [], decomposition.intertwiner_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(decomposition, "intertwiner_space", counting)
        J, K = jordan(2), jordan(2, 1.0)
        r = np.random.default_rng(5)
        T = operator_tuple([bd(J, J, K)])
        S = conjugate(T, conditioned_invertible(6, 10.0, r))
        counts = []
        for want_witness in (False, True):
            calls.clear()
            assert similar(T, S, want_witness=want_witness).similar
            counts.append(len(calls))
        calls.clear()
        v = similar(T, conjugate(operator_tuple([bd(K, J, K)]),
                                 conditioned_invertible(6, 10.0, r)), want_witness=True)
        assert not v.similar and v.reason.startswith("multiplicity mismatch")
        counts.append(len(calls))
        calls.clear()
        v = similar(operator_tuple([bd(J, jordan(3, 1.0))]),
                    operator_tuple([bd(jordan(3), jordan(2, 2.0))]))
        assert not v.similar and v.reason == "class 0 of lhs unmatched"
        counts.append(len(calls))
        assert counts == [4, 6, 3, 1]

    def test_disjoint_jordan_spectra_dissimilar(self):
        v = similar(operator_tuple([jordan(2)]), operator_tuple([jordan(2, 1.0)]))
        assert not v.similar

    def test_dimension_mismatch(self):
        v = similar(operator_tuple([jordan(2)]), operator_tuple([jordan(3)]))
        assert not v.similar and v.reason == "dimension"

    def test_undecided_search_raises(self):
        # J_2(0) and [[0, 1e9], [0, 0]] are similar (by diag(1e9, 1)), but no
        # intertwiner is conditioned better than 1/tol: the class matching
        # raises instead of reading "not similar"
        with pytest.raises(NumericalDegeneracyError, match="no invertible element"):
            similar(operator_tuple([jordan(2)]), operator_tuple([1e9 * jordan(2)]))

    @pytest.mark.parametrize("c", [1e3, 1e6])
    def test_scale_gap_pair_is_similar(self, c):
        # the trace pairing of J_2(0) and c J_2(0) has sigma_1 = 2c/(1 + c^2),
        # above the cut, and its witness is diag(c, 1) up to a scalar
        v = similar(operator_tuple([jordan(2)]), operator_tuple([c * jordan(2)]),
                    want_witness=True)
        assert v.similar and v.residual <= 1e-12

    @pytest.mark.parametrize("c", [1e10, 1e11])
    def test_scale_gap_pair_within_the_cut_raises(self, c):
        # sigma_1 = 2/c straddles the cut 2 rank_rtol: neither "similar" nor a
        # certified "not similar"
        with pytest.raises(NumericalDegeneracyError, match="rank decision ambiguous"):
            similar(operator_tuple([jordan(2)]), operator_tuple([c * jordan(2)]),
                    want_witness=True)

    def test_si_tuple_against_itself_through_direct_sum(self):
        T = operator_tuple([jordan(2), jordan(2) @ jordan(2)])
        inv = v_semigroup_invariant(direct_sum(T, T))
        assert inv.k == 1 and inv.multiplicities == (2,)
        assert similar(T, T).similar

    def test_symmetry_and_reflexivity(self, rng):
        A = jordan_polynomial_tuple(2, 0.0, rng, 2)
        B = conjugate(A, conditioned_invertible(2, 30.0, rng))
        C = jordan_polynomial_tuple(3, 1.0, rng, 2)
        assert similar(A, A).similar
        assert similar(A, B).similar == similar(B, A).similar
        assert similar(A, C).similar == similar(C, A).similar

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10**6))
    def test_si_pair_iff_direct_sum_k0_rank_one(self, seed):
        r = np.random.default_rng(seed)
        want_similar = bool(r.integers(0, 2))
        lam1, lam2 = (0.0, 0.0) if want_similar else (0.0, 1.6)
        A = jordan_polynomial_tuple(2, lam1, r, 2)
        if want_similar:
            B = conjugate(A, conditioned_invertible(2, 40.0, r))
        else:
            B = jordan_polynomial_tuple(2, lam2, r, 2)
        rank = k0_descriptor(direct_sum(A, B)).rank
        assert (rank == 1) == similar(A, B).similar == want_similar


class TestIdempotentClasses:
    def test_equal_idempotents(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        P = unit_si_decomposition(T).idempotents[0]
        assert idempotent_classes_equal(T, P, P)

    def test_rank_one_idempotents_of_scalars_equal(self):
        T = operator_tuple([np.eye(2)])
        P = np.diag([1.0, 0.0]).astype(complex)
        Q = np.diag([0.0, 1.0]).astype(complex)
        assert idempotent_classes_equal(T, P, Q)

    def test_idempotents_that_are_not_primitive(self):
        # rank-2 idempotents restrict to tuples with two SI blocks: I_2 against
        # I_2 is similar, I_2 against diag(1, 2) is not
        P, Q = np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0])
        T = operator_tuple([np.eye(3)])
        X = block_similarity(T, P, Q)
        A, B = T[0][:2, :2], T[0][1:, 1:]
        assert X.shape == (2, 2) and np.linalg.cond(X) < 1e3
        assert np.linalg.norm(X @ A - B @ X) <= 1e-12
        assert idempotent_classes_equal(T, P, Q)
        T = operator_tuple([np.diag([1.0, 1.0, 2.0])])
        assert block_similarity(T, P, Q) is None
        assert not idempotent_classes_equal(T, P, Q)

    def test_spectral_blocks_inequivalent(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        P = bd(np.eye(2), np.zeros((2, 2)))
        Q = bd(np.zeros((2, 2)), np.eye(2))
        assert not idempotent_classes_equal(T, P, Q)


class TestInvariantProperties:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10**6))
    def test_conjugation_invariance(self, seed):
        inst = planted_instance(seed % 997, d_max=14)
        r = np.random.default_rng(seed)
        X = conditioned_invertible(inst.realized.d, float(r.uniform(1.0, 100.0)), r)
        a = v_semigroup_invariant(inst.realized)
        b = v_semigroup_invariant(conjugate(inst.realized, X))
        assert (a.k, a.multiplicities) == (b.k, b.multiplicities)

    def test_inflation_scales_multiplicities(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        base = v_semigroup_invariant(T)
        for n in (2, 3):
            big = v_semigroup_invariant(inflate(T, n))
            assert big.k == base.k
            assert big.multiplicities == tuple(n * m for m in base.multiplicities)

    def test_direct_sum_adds_on_shared_classes(self):
        A = operator_tuple([jordan(2)])
        B = operator_tuple([jordan(2, 1.0)])
        invA = v_semigroup_invariant(A)
        invAB = v_semigroup_invariant(direct_sum(A, B))
        invAA = v_semigroup_invariant(direct_sum(A, A))
        assert invAB.k <= invA.k + 1 and invAB.k == 2
        assert invAA.k == 1 and invAA.multiplicities == (2,)
