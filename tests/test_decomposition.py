import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bd, jordan
from sidecomp import (
    UnitDecomposition,
    assemble_intertwiner,
    block_similarity,
    conjugate,
    decompositions_equivalent,
    direct_sum,
    idempotent_classes_equal,
    inflate,
    is_strongly_irreducible,
    operator_tuple,
    restrict,
    similar,
    transport_decomposition,
    unit_si_decomposition,
)
import sidecomp.commutant as commutant
from sidecomp._linalg import conditioned_invertible
from sidecomp.oracle import oracle_is_strongly_irreducible
from sidecomp.planted import EIGENVALUE_GRID, jordan_polynomial_tuple, planted_instance
from sidecomp.policy import NumericPolicy, NumericalDegeneracyError
from sidecomp.tuples import range_basis


class TestStrongIrreducibility:
    @pytest.mark.parametrize("mats,expected", [
        ([jordan(3)], True),
        ([np.diag([1.0, 2.0])], False),
        ([np.zeros((1, 1))], True),
        ([np.eye(2), jordan(2)], True),
        ([bd(jordan(2), jordan(2))], False),
    ])
    def test_examples(self, mats, expected):
        assert is_strongly_irreducible(operator_tuple(mats)) is expected

    @pytest.mark.parametrize("m", [1, 2])
    def test_mean_at_a_joint_eigenvalue_is_not_si(self, m):
        # X diag(0, 1, -1) X^-1 (and the pair with 0): three joint
        # eigenvalues, one of them the mean. One generator generates C^3, so
        # without the check of the words' trace form the spin-up would
        # present A' as free of rank 1, i.e. local
        r = np.random.default_rng(2)
        X = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
        A = X @ np.diag([0.0, 1.0, -1.0]) @ np.linalg.inv(X)
        T = operator_tuple([A, np.zeros((3, 3))][:m])
        assert commutant._spin_up([T], NumericPolicy()) == [None]
        assert not is_strongly_irreducible(T) and not oracle_is_strongly_irreducible(T)

    @pytest.mark.parametrize("mats", [
        [jordan(3)], [np.diag([1.0, 2.0])], [bd(jordan(2), jordan(2, 1.0))],
        [np.eye(2), jordan(2)],
    ])
    def test_agrees_with_exhaustive_oracle(self, mats):
        T = operator_tuple(mats)
        assert oracle_is_strongly_irreducible(T) == is_strongly_irreducible(T)


class TestUnitSiDecomposition:
    def test_identity_two_rank_one_pieces(self):
        D = unit_si_decomposition(operator_tuple([np.eye(2)]))
        assert D.count == 2
        for P in D.idempotents:
            assert abs(np.trace(P).real - 1.0) < 1e-8

    def test_spectral_blocks_for_disjoint_jordan_sum(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        D = unit_si_decomposition(T)
        assert D.count == 2
        # idempotents are the two spectral projections: ranges match the
        # canonical block split up to ordering
        canon = [bd(np.eye(2), np.zeros((2, 2))), bd(np.zeros((2, 2)), np.eye(2))]
        found = {min(np.linalg.norm(P - C) for C in canon) for P in D.idempotents}
        assert max(found) < 1e-8

    def test_inflation_gives_two_similar_rank_two_pieces(self):
        base = operator_tuple([jordan(2)])
        T = inflate(base, 2)
        D = unit_si_decomposition(T)
        assert D.count == 2
        for P in D.idempotents:
            assert abs(np.trace(P).real - 2.0) < 1e-8
            assert similar(restrict(T, P), base).similar

    def test_ambient_commutant_computed_once(self, monkeypatch):
        import sidecomp.commutant as commutant
        sizes = []
        original = commutant._spin_up

        def counting(Ts, *args, **kwargs):
            sizes.extend(T.d for T in Ts)
            return original(Ts, *args, **kwargs)

        monkeypatch.setattr(commutant, "_spin_up", counting)
        X = conditioned_invertible(4, 10.0, np.random.default_rng(3))
        D = unit_si_decomposition(conjugate(operator_tuple([bd(jordan(2), jordan(2))]), X))
        assert D.count == 2
        assert sizes.count(4) == 1

    def test_one_presentation_per_basis_corner(self, monkeypatch):
        # J8 x 2 (+) J8' x 2 at cond 1e4 (the harsh corpus's J8 #10): no
        # primary split is accepted, so the root is the whole space, and it
        # and both its blocks are read through a basis of A'. The whole
        # space's trace form is nonzero, so it gets no presentation and its
        # basis comes from the stack; each block builds its presentation
        # once, and its basis comes from it
        rng = np.random.default_rng([900, 10])
        lam = rng.permutation(np.array(EIGENVALUE_GRID))[:2]
        A, B = (jordan_polynomial_tuple(8, float(x), rng, 2) for x in lam)
        T = conjugate(direct_sum(inflate(A, 2), inflate(B, 2)),
                      conditioned_invertible(32, 1e4, rng))
        presentations, corners, bases = [], [], []

        def recording(name, calls):
            real = getattr(commutant, name)

            def record(T1, *args):
                # _spin_up takes a stack of tuples: record every member
                calls.extend(T.d for T in T1) if isinstance(T1, list) else calls.append(T1.d)
                return real(T1, *args)
            monkeypatch.setattr(commutant, name, record)

        recording("_spin_up", presentations)
        recording("_corner", corners)
        recording("_commutant", bases)
        assert commutant.semisimple_structure(T).block_dims == (2, 2)
        assert presentations == [16, 16]
        assert corners == bases == [32, 16, 16]

    @staticmethod
    def loop_reference(T, F):
        """The residuals of the dense idempotents F by the pairwise loops."""
        frob, n = np.linalg.norm, len(F)
        return {
            "commute": max(frob(Fa @ A - A @ Fa) / max(1.0, frob(Fa) * frob(A))
                           for Fa in F for A in T),
            "idempotent": max(frob(Fa @ Fa - Fa) for Fa in F),
            "annihilate": max((frob(F[a] @ F[b]) for a in range(n) for b in range(n)
                               if a != b), default=0.0),
            "sum_identity": frob(F.sum(axis=0) - np.eye(T.d)),
        }

    def test_validate_matches_the_loop_reference(self):
        # factors perturbed by 1e-10 (each frame to another orthonormal
        # frame, each row factor entrywise; inside every bar) put each
        # residual far above roundoff, and each equals that of the pairwise
        # loops over F_a = L_a R_a* to within the float floor
        r = np.random.default_rng(1)
        T = conjugate(operator_tuple([bd(jordan(2), jordan(2), jordan(3, 1.0))]),
                      conditioned_invertible(7, 10.0, r))
        D = unit_si_decomposition(T)

        def noise(shape):
            return 1e-10 * (r.standard_normal(shape) + 1j * r.standard_normal(shape))

        def nearby_frame(L):
            Q, S = np.linalg.qr(L + noise(L.shape))
            return Q * (np.diag(S) / np.abs(np.diag(S)))

        frames = tuple(nearby_frame(L) for L in D.frames)
        rows = tuple(R + noise(R.shape) for R in D.rows)
        rep = UnitDecomposition(T, frames, rows, D.si_flags).validate()
        reference = self.loop_reference(T, np.stack([L @ R for L, R in zip(frames, rows)]))
        for key, value in reference.items():
            assert value > 1e-11
            assert abs(rep[key] - value) <= rep["float_floor"], key

    def test_validate_reports_all_invariants(self):
        T = operator_tuple([bd(jordan(2), jordan(3, 1.0))])
        D = unit_si_decomposition(T)
        rep = D.validate()
        assert set(rep) == {"commute", "idempotent", "annihilate", "sum_identity",
                            "float_floor"}
        assert rep["sum_identity"] <= 1e-8 and rep["annihilate"] <= 1e-6
        assert D.residuals == rep

    @pytest.mark.parametrize("factored", [True, False])
    def test_zero_idempotent_validates(self, factored):
        # an idempotent of rank 0 has factors of width 0 and no residual,
        # given as factors or factored from the dense zero matrix
        T = operator_tuple([np.diag([1.0, 2.0])])
        flags = (True, True, False)
        if factored:
            frames = (np.eye(2)[:, :1], np.eye(2)[:, 1:], np.zeros((2, 0)))
            D = UnitDecomposition(T, frames, tuple(L.T for L in frames), flags)
        else:
            P = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))])
            D = UnitDecomposition.from_idempotents(T, P, flags)
        D = D.validated()
        assert [L.shape[1] for L in D.frames] == [R.shape[0] for R in D.rows] == [1, 1, 0]
        assert np.array_equal(D.idempotents[2], np.zeros((2, 2)))
        assert max(v for k, v in D.residuals.items() if k != "float_floor") <= 1e-15

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_factored_residuals_equal_the_loop_reference(self, seed):
        # mixed-rank planted profiles: the residuals read off the factors the
        # structure built equal the pairwise loops over the idempotents to
        # within the float floor
        T = planted_instance(seed % 997, d_max=14).realized
        D = unit_si_decomposition(T)
        for key, value in self.loop_reference(T, D.idempotents).items():
            assert abs(D.residuals[key] - value) <= D.residuals["float_floor"], key

    def test_frame_off_the_range_fails(self):
        # a frame rotated off range P with the same row factor is no longer
        # the frame of an idempotent, and fails the idempotency residual; a
        # frame that is not orthonormal is refused, although (2 L)(R*/2) is
        # the same idempotent, since the residuals are read through it; and
        # a frame wider than the rank of its idempotent (L 0* = 0) fails the
        # width check
        T = conjugate(operator_tuple([bd(jordan(2), jordan(2), jordan(3, 1.0))]),
                      conditioned_invertible(7, 10.0, np.random.default_rng(4)))
        D = unit_si_decomposition(T)
        L = D.frames[0]
        off = np.linalg.qr(np.hstack([L, np.eye(T.d)]))[0][:, L.shape[1]]
        rotated = L.copy()
        rotated[:, -1] = np.cos(1e-3) * L[:, -1] + np.sin(1e-3) * off
        with pytest.raises(NumericalDegeneracyError, match=r"violated \(.*idempotent"):
            UnitDecomposition(T, (rotated,) + D.frames[1:], D.rows, D.si_flags).validate()
        with pytest.raises(NumericalDegeneracyError, match=r"frames \[0\] are not orthonormal"):
            UnitDecomposition(T, (2.0 * L,) + D.frames[1:], (D.rows[0] / 2.0,) + D.rows[1:],
                              D.si_flags).validate()
        with pytest.raises(NumericalDegeneracyError, match="frame widths"):
            UnitDecomposition(T, D.frames, (0.0 * D.rows[0],) + D.rows[1:],
                              D.si_flags).validate()

    def test_dense_idempotent_off_its_frame_fails(self):
        # the rank-1 idempotent x y* of norm 500 perturbed off its range by
        # singular values a twentieth of range_basis's rank cut: the cut keeps
        # the rank and the frame, and the part off the frame, above the
        # idempotency bar, fails the factorization
        d, r = 12, np.random.default_rng(5)
        x = np.linalg.qr(r.standard_normal((d, 2)) + 1j * r.standard_normal((d, 2)))[0]
        P0 = np.outer(x[:, 0], (x[:, 0] + 500.0 * x[:, 1]).conj())
        P = np.stack([P0, np.eye(d) - P0])
        T = operator_tuple([P0])
        U = np.linalg.qr(r.standard_normal((d, d)) + 1j * r.standard_normal((d, d)))[0]
        E = (np.eye(d) - np.outer(x[:, 0], x[:, 0].conj())) @ U     # d - 1 singular values 1
        bad = P.copy()
        bad[0] += E * (d * NumericPolicy().rank_rtol * np.linalg.norm(P0, 2) / 20.0)
        bar = max(NumericPolicy().tol, 16 * d * np.finfo(float).eps * np.linalg.norm(P0) ** 2)
        assert np.linalg.norm(bad[0] - P0) > bar
        with pytest.raises(NumericalDegeneracyError, match="misses its idempotent's range"):
            UnitDecomposition.from_idempotents(T, bad, (True, True))
        UnitDecomposition.from_idempotents(T, P, (True, True)).validate()


class TestTransport:
    def test_identity_transport(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        D = unit_si_decomposition(T)
        D2 = transport_decomposition(D, np.eye(2))
        assert np.allclose(D2.idempotents, D.idempotents)

    def test_permutation_relabels(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        D = unit_si_decomposition(T)
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        D2 = transport_decomposition(D, P)
        moved = {tuple(np.round(np.diag(Q).real, 8)) for Q in D2.idempotents}
        assert moved == {(1.0, 0.0), (0.0, 1.0)}

    def test_singular_conjugator_raises(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        D = unit_si_decomposition(T)
        with pytest.raises(ValueError, match="singular conjugator"):
            transport_decomposition(D, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_transported_frames_validate(self):
        # the frame of X P X^-1 is the Q factor of X L: orthonormal, spanning
        # the transported range
        r = np.random.default_rng(6)
        T = conjugate(operator_tuple([bd(jordan(2), jordan(2), jordan(3, 1.0))]),
                      conditioned_invertible(7, 10.0, r))
        D2 = transport_decomposition(unit_si_decomposition(T),
                                     conditioned_invertible(7, 50.0, r))
        for Q, L in zip(D2.idempotents, D2.frames):
            assert np.linalg.norm(L.conj().T @ L - np.eye(L.shape[1])) <= 1e-13
            assert L.shape[1] == round(np.trace(Q).real)
            assert np.linalg.norm(Q @ L - L) <= 1e-10 * np.linalg.norm(Q)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_transport_preserves_invariants(self, seed):
        r = np.random.default_rng(seed)
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        D = unit_si_decomposition(T)
        X = conditioned_invertible(4, float(r.uniform(1.0, 100.0)), r)
        D2 = transport_decomposition(D, X)
        D2.validate()  # raises on violation


class TestBlockSimilarity:
    def test_reflexive(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        D = unit_si_decomposition(T)
        assert block_similarity(T, D.idempotents[0], D.idempotents[0]) is not None

    def test_equal_blocks_found(self):
        T = inflate(operator_tuple([jordan(2)]), 2)
        P = bd(np.eye(2), np.zeros((2, 2)))
        Q = bd(np.zeros((2, 2)), np.eye(2))
        X = block_similarity(T, P, Q)
        assert X.shape == (2, 2) and np.linalg.cond(X) < 1e3

    def test_disjoint_spectra_definitively_dissimilar(self):
        # J_2(0) and J_2(1) have no nonzero intertwiner: the empty span
        # certifies it
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        P = bd(np.eye(2), np.zeros((2, 2)))
        Q = bd(np.zeros((2, 2)), np.eye(2))
        assert block_similarity(T, P, Q) is None

    def test_rank_deficient_span_certified_dissimilar(self):
        # the intertwiners of J_2(0) into 0_2 are the rank-1 matrices [0 a; 0 b]
        T = operator_tuple([bd(jordan(2), np.zeros((2, 2)))])
        P = bd(np.eye(2), np.zeros((2, 2)))
        Q = bd(np.zeros((2, 2)), np.eye(2))
        assert block_similarity(T, P, Q) is None
        assert not idempotent_classes_equal(T, P, Q)

    def test_zero_idempotents_are_similar(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        zero = np.zeros((2, 2))
        assert block_similarity(T, zero, zero).shape == (0, 0)
        assert idempotent_classes_equal(T, zero, zero)
        # a zero and a rank-1 idempotent are certifiably not similar
        assert block_similarity(T, zero, np.diag([1.0, 0.0])) is None
        assert not idempotent_classes_equal(T, np.diag([0.0, 1.0]), zero)

    def test_dissimilar_blocks_cannot_be_cross_paired(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        P = np.diag([1.0, 0.0]).astype(complex)
        Q = np.diag([0.0, 1.0]).astype(complex)
        assert block_similarity(T, P, Q) is None  # eigenvalue obstruction

    def test_undecided_search_raises(self):
        # J_2(0) and [[0, 1e9], [0, 0]] are similar, but every invertible
        # intertwiner is conditioned worse than 1/tol, the trace pairing's
        # witness diag(1e9, 1) included: the decision raises
        T = operator_tuple([bd(jordan(2), 1e9 * jordan(2))])
        P = bd(np.eye(2), np.zeros((2, 2)))
        Q = bd(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(NumericalDegeneracyError, match="no invertible element"):
            block_similarity(T, P, Q)
        with pytest.raises(NumericalDegeneracyError, match="no invertible element"):
            idempotent_classes_equal(T, P, Q)

    def test_decision_draws_no_random_number(self):
        # the trace pairing is deterministic: the seed does not reach it
        import sidecomp.decomposition as decomposition
        r = np.random.default_rng(4)
        T = inflate(jordan_polynomial_tuple(3, 0.5, r, 2), 2)
        T = conjugate(T, conditioned_invertible(6, 20.0, r))
        L = unit_si_decomposition(T).frames
        X1, X2 = (decomposition._invertible_intertwiner(T, L[0], T, L[1], NumericPolicy(seed=s))
                  for s in (1, 2))
        assert X1 is not None and np.array_equal(X1, X2)


class TestAssembleIntertwiner:
    @staticmethod
    def pair(Xhat, P, Q):
        """The pair of :func:`assemble_intertwiner` for dense P and Q."""
        LP, LQ = range_basis(P), range_basis(Q)
        return Xhat, LP, LP.conj().T @ P, LQ

    def test_identity_pairs(self):
        T = operator_tuple([np.diag([1.0, 2.0])])
        P = np.diag([1.0, 0.0]).astype(complex)
        Q = np.diag([0.0, 1.0]).astype(complex)
        one = np.eye(1, dtype=complex)
        X = assemble_intertwiner(T, T, [self.pair(one, P, P), self.pair(one, Q, Q)])
        assert np.allclose(X, np.eye(2))

    def test_cross_pairing_of_equal_copies_swaps(self):
        T = inflate(operator_tuple([jordan(2)]), 2)
        P1 = bd(np.eye(2), np.zeros((2, 2)))
        P2 = bd(np.zeros((2, 2)), np.eye(2))
        X12 = block_similarity(T, P1, P2)
        X21 = block_similarity(T, P2, P1)
        X = assemble_intertwiner(T, T, [self.pair(X12, P1, P2), self.pair(X21, P2, P1)])
        Xi = np.linalg.inv(X)
        for A in T:
            assert np.linalg.norm(X @ A @ Xi - A) <= 1e-8


class TestDecompositionEquivalence:
    def test_self_equivalence_is_identity(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        D = unit_si_decomposition(T)
        out = decompositions_equivalent(T, D, D)
        assert out.equivalent
        assert out.equivalence.permutation == (0, 1)

    def test_rotated_rank_one_resolution_of_identity(self, rng):
        T = operator_tuple([np.eye(2)])
        D1 = unit_si_decomposition(T)
        # a different resolution by oblique rank-1 idempotents
        X = conditioned_invertible(2, 10.0, rng)
        Xi = np.linalg.inv(X)
        idems = np.stack([X @ np.diag([1.0, 0.0]).astype(complex) @ Xi,
                          X @ np.diag([0.0, 1.0]).astype(complex) @ Xi])
        D2 = UnitDecomposition.from_idempotents(T, idems, (True, True))
        D2.validate()
        out = decompositions_equivalent(T, D1, D2)
        assert out.equivalent and out.equivalence.residual <= 1e-6

    def test_permuted_decomposition_yields_swap(self):
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        D = unit_si_decomposition(T)
        D2 = UnitDecomposition.from_idempotents(T, D.idempotents[::-1], D.si_flags)
        out = decompositions_equivalent(T, D, D2)
        assert out.equivalent and out.equivalence.permutation == (1, 0)

    def test_decompositions_not_of_the_tuple_are_refused(self, rng):
        # a decomposition of another tuple, built directly or validated for
        # that tuple, is validated against T before any block is compared,
        # and fails there rather than certifying a non-equivalence
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0))])
        D = unit_si_decomposition(T)
        other = unit_si_decomposition(conjugate(T, conditioned_invertible(4, 10.0, rng)))
        for D2 in (other, UnitDecomposition.from_idempotents(T, other.idempotents,
                                                             other.si_flags)):
            with pytest.raises(NumericalDegeneracyError, match="commute"):
                decompositions_equivalent(T, D, D2)

    def test_rank_zero_block_is_matched(self, monkeypatch):
        # a rank-0 idempotent pairs with the other one through the 0 x 0
        # intertwiner; only pairs of rank-1 blocks read Sylvester stacks:
        # two for a similar pair, one when Hom(A, B) is empty
        import sidecomp.decomposition as decomposition
        calls, real = [], decomposition.intertwiner_space

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(decomposition, "intertwiner_space", counting)
        T = operator_tuple([np.diag([1.0, 2.0])])
        idems = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))])
        D = UnitDecomposition.from_idempotents(T, idems, (True, True, False))
        out = decompositions_equivalent(T, D, D)
        assert out.equivalent and out.equivalence.permutation == (0, 1, 2)
        assert out.equivalence.residual <= 1e-12
        assert len(calls) == 4
        D2 = UnitDecomposition.from_idempotents(T, idems[[2, 1, 0]], (False, True, True))
        calls.clear()
        out = decompositions_equivalent(T, D, D2)
        assert out.equivalent and out.equivalence.permutation == (2, 1, 0)
        assert len(calls) == 5

    def test_count_mismatch_certificate(self):
        T = operator_tuple([np.eye(2)])
        D1 = unit_si_decomposition(T)
        D2 = UnitDecomposition.from_idempotents(T, np.eye(2, dtype=complex)[None], (False,))
        out = decompositions_equivalent(T, D1, D2)
        assert not out.equivalent and out.certificate == "count mismatch"

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10**6))
    def test_conjugated_run_is_equivalent(self, seed):
        r = np.random.default_rng(seed)
        T = operator_tuple([bd(jordan(2), jordan(2, 1.0), np.eye(1))])
        D1 = unit_si_decomposition(T)
        X = conditioned_invertible(T.d, float(r.uniform(1.0, 60.0)), r)
        D2 = transport_decomposition(
            unit_si_decomposition(conjugate(T, X)), np.linalg.inv(X))
        out = decompositions_equivalent(T, D1, D2)
        assert out.equivalent
        # uniqueness: same count and matching multiset of similarity classes
        assert D1.count == D2.count
