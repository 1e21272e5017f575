"""Unit strongly irreducible decompositions and their comparison.

A decomposition of a commuting tuple ``T`` is an ordered list of mutually
annihilating idempotents in the joint commutant summing to the identity;
it is strongly irreducible (SI) when every restriction ``T|_{range P_i}``
has a local commutant (no nontrivial idempotent commutes with it). Each
idempotent travels with an orthonormal frame of its range, on which the
decomposition is validated and its blocks are restricted. This module
produces such decompositions from the commutant's block structure,
transports them through similarities, decides similarity of two blocks via
invertible intertwiners, and matches two decompositions of one tuple by a
global invertible element of the commutant assembled from blockwise
intertwiners.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._linalg import frob
from .commutant import (
    AlgebraStructure,
    _whole_corner,
    contains_invertible,
    intertwiner_space,
    semisimple_structure,
)
from .policy import (
    ANNIHILATION_BAR,
    ASSEMBLY_BAR,
    DEFAULT_POLICY,
    IDENTITY_SUM_BAR,
    NumericPolicy,
    NumericalDegeneracyError,
)
from .tuples import OperatorTuple, check_idempotent_in_commutant, compress, conjugate, \
    range_basis


def is_strongly_irreducible(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True iff the joint commutant of T is local.

    Decided structurally: the commutant algebra modulo its radical must be
    one-dimensional, i.e. algebra_dim = radical_dim + 1. Where the spin-up
    presents A'(T) without relations, on T or on T* (whichever has fewer
    generators), the quotient is M_g, so T is SI exactly when g = 1 and no
    basis of A'(T) is built; elsewhere the quotient is read through a basis
    of A'(T). The presentation's checks draw from the policy's seed.
    """
    return _whole_corner(T, policy).quotient_dim == 1


@dataclass(frozen=True)
class UnitDecomposition:
    """Ordered mutually annihilating idempotents in A'(T) summing to I, each
    with an orthonormal frame of its range.

    ``frames[a]`` is a (d, rank P_a) matrix with orthonormal columns spanning
    range P_a, so that ``P_a = L_a R_a*`` with ``R_a* = L_a* P_a``: the
    decomposition is validated on these factors, and ``L_a* T L_a`` is the
    restriction of T to range P_a. Decompositions built from the commutant's
    structure carry the frames their primitives were built with. One built
    without frames is validated on frames taken by :func:`range_basis` at the
    policy of the validation. A decomposition returned by :meth:`validated`
    carries its frames and the residuals of its validation.
    """

    tuple_ref: OperatorTuple
    idempotents: np.ndarray          # (n, d, d)
    si_flags: tuple[bool, ...]
    frames: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)
    residuals: dict | None = field(default=None, repr=False, compare=False)

    @property
    def count(self) -> int:
        return self.idempotents.shape[0]

    def validate(self, policy: NumericPolicy = DEFAULT_POLICY) -> dict:
        """Check all structural invariants; returns the residuals measured.

        Every residual is read off the factored parts ``F_a = L_a R_a*``,
        ``R_a* = L_a* P_a``, in O(m d^3) flops; no product of two d x d
        idempotents is formed:

        - ``frame``: ``||P_a - F_a||_F``, and the width of ``L_a`` must be
          ``round(tr P_a)``; together they certify that the frame spans
          range P_a;
        - ``idempotent``: ``||F_a^2 - F_a|| = ||(R_a* L_a - I) R_a*||``, plus
          ``frame_a (2 ||P_a|| + 1)``;
        - ``annihilate``: ``||F_a F_b|| = ||(R_a* L_b) R_b*||``, a != b, plus
          ``frame_a ||P_b|| + ||P_a|| frame_b``;
        - ``commute``: ``||L_a (R_a* T_j) - (T_j L_a) R_a*||`` plus
          ``2 frame_a ||T_j||``, relative to ``max(1, ||P_a|| ||T_j||)``;
        - ``sum_identity``: ``||sum_a P_a - I||``.

        The terms added are the most ``P_a - F_a`` can change a residual by,
        so each reported residual bounds that of the P_a themselves
        (``||P_a^2 - P_a||``, ``||P_a P_b||``, ``||[P_a, T_j]||``) and equals
        it to roundoff where the frame residuals are. The products are batched
        over idempotents of equal rank; an idempotent of rank 0 has no
        factored part. Thresholds are the policy tolerances, floored at the
        float64 level attainable for the idempotents' norms (forming P^2
        rounds at ~ d*eps*||P||^2, which exceeds an absolute 1e-8 only for
        extremely oblique inputs); the frame residual is held to the
        idempotency bar. Raw residuals are always reported; a violated
        invariant raises :class:`NumericalDegeneracyError`.
        """
        return self._frames_and_residuals(policy)[1]

    def validated(self, policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
        """This decomposition with the frames it was validated on and the
        residuals of :meth:`validate`; raises like it."""
        frames, report = self._frames_and_residuals(policy)
        return replace(self, frames=frames, residuals=report)

    def _frames_and_residuals(self, policy: NumericPolicy) -> tuple[tuple, dict]:
        T, P = self.tuple_ref, self.idempotents
        n, d = P.shape[0], T.d
        frames = self.frames if self.frames is not None \
            else tuple(range_basis(Pa, policy) for Pa in P)
        eps = float(np.finfo(float).eps)
        norms_P = np.linalg.norm(P, axis=(1, 2))
        norms_T = np.linalg.norm(T.matrices, axis=(1, 2))
        floor = 16.0 * d * eps * max(1.0, norms_P.max()) ** 2
        widths = np.array([L.shape[1] for L in frames], dtype=int)
        traces = np.trace(P, axis1=1, axis2=2).real
        if np.any(widths != np.round(traces)):
            raise NumericalDegeneracyError(
                f"frame widths {widths.tolist()} differ from the idempotents' rounded "
                f"traces {np.round(traces).astype(int).tolist()}")
        # the factors R_a* = L_a* P_a, batched over idempotents of equal
        # positive rank; the columns of Lall = [L_a]_a and the rows of
        # Rall = [R_a*]_a are in the order of a
        Lall = np.concatenate(frames, axis=1)
        Rall = np.empty((Lall.shape[1], d), dtype=complex)
        starts = np.cumsum(widths) - widths
        groups = []
        for r in np.unique(widths[widths > 0]):
            g = np.flatnonzero(widths == r)
            cols = (starts[g, None] + np.arange(r)).reshape(-1)
            L = Lall[:, cols].reshape(d, len(g), r).transpose(1, 0, 2)  # (len g, d, r)
            R = L.conj().transpose(0, 2, 1) @ P[g]                      # (len g, r, d)
            Rall[cols] = R.reshape(-1, d)
            groups.append((g, cols, L, R))
        C = Rall @ Lall                                                 # blocks R_a* L_b
        # member[a, i]: row i of Rall is a row of R_a*
        member = (np.repeat(np.arange(n), widths)[None, :] == np.arange(n)[:, None])
        # the residuals of the F_a, zero where F_a = 0
        frame = norms_P.copy()
        idem = np.zeros(n)
        annihilate = np.zeros((n, n))       # [b, a]: ||F_a F_b||
        commute = np.zeros((n, T.m))        # [a, j]: ||[F_a, T_j]||
        for g, cols, L, R in groups:
            frame[g] = np.linalg.norm(P[g] - L @ R, axis=(1, 2))
            idem[g] = np.linalg.norm(R @ L @ R - R, axis=(1, 2))
            # ||F_a F_b||_F^2 for b in g: the squares of C[:, b] R_b* summed over a's rows
            Cb = C[:, cols].reshape(-1, len(g), R.shape[1]).transpose(1, 0, 2)
            annihilate[g] = np.sqrt(np.sum(np.abs(Cb @ R) ** 2, axis=2) @ member.T)
        for j, A in enumerate(T):
            RA, AL = Rall @ A, A @ Lall         # the rows R_a* T_j, the columns T_j L_a
            for g, cols, L, R in groups:
                comm = L @ RA[cols].reshape(R.shape) \
                    - AL[:, cols].reshape(d, len(g), -1).transpose(1, 0, 2) @ R
                commute[g, j] = np.linalg.norm(comm, axis=(1, 2))
        # with E_a = P_a - F_a: P_a^2 - P_a = F_a^2 - F_a + F_a E_a + E_a P_a - E_a,
        # P_a P_b = F_a F_b + F_a E_b + E_a P_b and [P_a, T_j] = [F_a, T_j] +
        # [E_a, T_j], where ||F_a|| <= ||P_a||
        idem += frame * (2.0 * norms_P + 1.0)
        annihilate += np.outer(frame, norms_P) + np.outer(norms_P, frame)
        np.fill_diagonal(annihilate, 0.0)
        commute = (commute + 2.0 * np.outer(frame, norms_T)) \
            / np.maximum(1.0, np.outer(norms_P, norms_T))
        report = {
            "commute": float(commute.max()), "idempotent": float(idem.max()),
            "annihilate": float(annihilate.max()),
            "sum_identity": frob(P.sum(axis=0) - np.eye(d)),
            "frame": float(frame.max()), "float_floor": floor,
        }
        bars = {"commute": policy.tol, "idempotent": max(policy.tol, floor),
                "frame": max(policy.tol, floor), "annihilate": max(ANNIHILATION_BAR, floor),
                "sum_identity": max(IDENTITY_SUM_BAR, floor)}
        failed = [key for key, bar in bars.items() if report[key] > bar]
        if failed:
            raise NumericalDegeneracyError(
                f"decomposition invariants violated ({', '.join(failed)}): {report}")
        return frames, report


def _structure_decomposition(T: OperatorTuple, struct: AlgebraStructure,
                             policy: NumericPolicy) -> UnitDecomposition:
    """The primitives of ``struct`` with their frames, as a validated
    decomposition of T."""
    return UnitDecomposition(T, struct.primitives, (True,) * len(struct.frames),
                             struct.frames).validated(policy)


def unit_si_decomposition(T: OperatorTuple,
                          policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
    """Complete list of primitive idempotents of A'(T), ordered by
    (block of the quotient, copy within the block), with their frames.

    The primitives are those of :func:`semisimple_structure`, which splits
    block i into exactly n_i of them, of equal rank, and retries a walk that
    cannot. Every restriction is strongly irreducible by construction (a
    primitive idempotent's corner is local); the family is validated as a
    decomposition here.
    """
    return _structure_decomposition(T, semisimple_structure(T, policy), policy)


def transport_decomposition(D: UnitDecomposition, X,
                            policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
    """Push a decomposition of T through X to a decomposition of X T X^-1.

    The range of ``X P X^-1`` is ``X range(P)``, so each frame is carried as
    the Q factor of ``X L``.
    """
    Tc = conjugate(D.tuple_ref, X, policy)
    X = np.asarray(X, dtype=complex)
    Xi = np.linalg.inv(X)
    idems = np.stack([X @ P @ Xi for P in D.idempotents])
    frames = tuple(np.linalg.qr(X @ L)[0] for L in D.frames)
    return UnitDecomposition(Tc, idems, D.si_flags, frames).validated(policy)


@dataclass(frozen=True)
class BlockSimilarityResult:
    similar: bool
    definitive: bool                    # non-similarity certified (rank data)
    intertwiner: np.ndarray | None      # restricted coordinates, rank x rank


def _invertible_intertwiner(A: OperatorTuple, B: OperatorTuple,
                            policy: NumericPolicy) -> tuple[np.ndarray | None, bool]:
    """``(X, definitive)``: an invertible X with X A_i = B_i X, or None.

    The one search behind every similarity decision on restricted tuples. A
    dimension mismatch, an empty intertwiner space or a rank-deficient span
    certifies that no such X exists (``definitive``); a search that finds
    none in a span of full rank is not definitive.
    """
    if A.d != B.d:
        return None, True
    space = intertwiner_space(A, B, policy)
    if space.shape[0] == 0:
        return None, True
    inv = contains_invertible(space, policy)
    return inv.element, inv.found or inv.rank_deficient


def _frame_similarity(T: OperatorTuple, UP: np.ndarray, UQ: np.ndarray,
                      policy: NumericPolicy) -> BlockSimilarityResult:
    """:func:`block_similarity` of two idempotents given by orthonormal frames
    UP and UQ of their ranges: the restrictions are the compressions."""
    if UP.shape[1] != UQ.shape[1]:
        return BlockSimilarityResult(False, True, None)
    if UP.shape[1] == 0:               # a rank-0 side has no restricted tuple
        return BlockSimilarityResult(True, True, np.zeros((0, 0), dtype=complex))
    X, definitive = _invertible_intertwiner(compress(T, UP), compress(T, UQ), policy)
    return BlockSimilarityResult(X is not None, definitive, X)


def block_similarity(T: OperatorTuple, P, Q,
                     policy: NumericPolicy = DEFAULT_POLICY) -> BlockSimilarityResult:
    """Invertible intertwiner between T|range(P) and T|range(Q), if one exists.

    A rank mismatch or a rank-deficient span of intertwiners certifies
    non-similarity; otherwise failure to find an invertible element is
    reported as non-definitive. Two zero idempotents are similar through the
    0 x 0 intertwiner.
    """
    check_idempotent_in_commutant(T, P, policy)
    check_idempotent_in_commutant(T, Q, policy)
    return _frame_similarity(T, range_basis(P, policy), range_basis(Q, policy), policy)


def assemble_intertwiner(T: OperatorTuple, S: OperatorTuple, pairs,
                         policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Direct sum of blockwise intertwiners in ambient coordinates.

    ``pairs`` is a list of (P_i, Q_i, Xhat_i, U_{P_i}, U_{Q_i}): P_i from a
    unit decomposition for T, Q_i from one for S, U_{P_i} and U_{Q_i}
    orthonormal frames of their ranges, and Xhat_i an invertible intertwiner
    between the restricted tuples in those frames. The assembled X = sum_i
    U_{Q_i} Xhat_i U_{P_i}^* P_i satisfies X T_j = S_j X and is invertible;
    both are verified.
    """
    X = np.zeros((S.d, T.d), dtype=complex)
    for P, Q, Xhat, UP, UQ in pairs:
        if Xhat.shape != (UQ.shape[1], UP.shape[1]):
            raise ValueError(
                f"incompatible pairing data: intertwiner shape {Xhat.shape} vs "
                f"ranks ({UQ.shape[1]}, {UP.shape[1]})"
            )
        X += UQ @ Xhat @ (UP.conj().T @ P)
    scale = max(1.0, max(frob(A) for A in T), max(frob(B) for B in S))
    resid = max(frob(X @ T[i] - S[i] @ X) for i in range(T.m)) / scale
    if resid > ASSEMBLY_BAR:
        raise NumericalDegeneracyError(
            f"assembled map fails to intertwine the tuples (residual {resid:.3e})"
        )
    sv = np.linalg.svd(X, compute_uv=False)
    if X.shape[0] != X.shape[1] or sv[-1] <= policy.tol * sv[0]:
        raise NumericalDegeneracyError("assembled map is not invertible")
    return X


@dataclass(frozen=True)
class DecompositionEquivalence:
    permutation: tuple[int, ...]     # D1 index i -> D2 index permutation[i]
    conjugator: np.ndarray           # X in GL(A'(T)) with X P_i X^-1 = Q_{perm(i)}
    residual: float


@dataclass(frozen=True)
class EquivalenceOutcome:
    equivalence: DecompositionEquivalence | None
    certificate: str | None

    @property
    def equivalent(self) -> bool:
        return self.equivalence is not None


def decompositions_equivalent(T: OperatorTuple, D1: UnitDecomposition,
                              D2: UnitDecomposition,
                              policy: NumericPolicy = DEFAULT_POLICY) -> EquivalenceOutcome:
    """Match two unit SI decompositions of the same tuple, with witness.

    Greedy bipartite matching by block similarity (valid because similarity of
    SI restrictions is an equivalence relation; ties break to the lowest
    index), on the restrictions to the frames the two decompositions carry;
    then the blockwise intertwiners are assembled on those frames into a global
    conjugator X in GL(A'(T)) (:func:`assemble_intertwiner` of T with itself)
    whose transport residual max_i ||X P_i X^-1 - Q_perm(i)||_F is verified
    against ``ASSEMBLY_BAR`` relative to max(1, max_i ||P_i||_F).

    A decomposition that was not validated for T itself (one built directly,
    or one of another tuple, such as a transported one) is validated against
    T first, and raises like :meth:`UnitDecomposition.validate`.
    """
    D1, D2 = (D if D.tuple_ref is T and D.residuals is not None
              else replace(D, tuple_ref=T).validated(policy) for D in (D1, D2))
    if D1.count != D2.count:
        return EquivalenceOutcome(None, "count mismatch")
    n = D1.count
    used = [False] * n
    perm = [-1] * n
    pairs = []
    for i in range(n):
        for j in range(n):
            if used[j]:
                continue
            res = _frame_similarity(T, D1.frames[i], D2.frames[j], policy)
            if res.similar:
                used[j] = True
                perm[i] = j
                pairs.append((D1.idempotents[i], D2.idempotents[j], res.intertwiner,
                              D1.frames[i], D2.frames[j]))
                break
        if perm[i] < 0:
            return EquivalenceOutcome(None, f"no similar partner for block {i}")
    X = assemble_intertwiner(T, T, pairs, policy)
    Xi = np.linalg.inv(X)
    resid = max(frob(X @ P @ Xi - Q) for P, Q, *_ in pairs)
    if resid > ASSEMBLY_BAR * max(1.0, max(frob(P) for P, *_ in pairs)):
        raise NumericalDegeneracyError(
            f"assembled element does not transport the idempotents (residual {resid:.3e})"
        )
    return EquivalenceOutcome(DecompositionEquivalence(tuple(perm), X, float(resid)), None)
