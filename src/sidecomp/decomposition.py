"""Unit strongly irreducible decompositions and their comparison.

A decomposition of a commuting tuple ``T`` is an ordered list of mutually
annihilating idempotents in the joint commutant summing to the identity;
it is strongly irreducible (SI) when every restriction ``T|_{range P_i}``
has a local commutant (no nontrivial idempotent commutes with it). Each
idempotent is held as its factors ``P = L R*``, an orthonormal frame L of
its range and a row factor R*, on which the decomposition is validated and
its blocks are restricted and matched. This module
produces such decompositions from the commutant's block structure,
transports them through similarities, decides similarity of two blocks by
the trace pairing of their intertwiner spaces, and matches two
decompositions of one tuple by a global invertible element of the commutant
assembled from blockwise intertwiners.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._linalg import frob, rank_cut, svd_robust, svdvals_robust
from .commutant import _primary_corners, intertwiner_space, semisimple_structure
from .policy import (
    ANNIHILATION_BAR,
    ASSEMBLY_BAR,
    DEFAULT_POLICY,
    IDENTITY_SUM_BAR,
    NumericPolicy,
    NumericalDegeneracyError,
)
from .tuples import OperatorTuple, compress, conjugate, range_basis


def is_strongly_irreducible(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True iff the joint commutant of T is local.

    Decided structurally on the primary corners of T: there must be one, and
    its algebra modulo its radical must be one-dimensional. A tuple whose
    first-level trace form vanishes is presented on the whole space first,
    so an SI block or an inflation of one draws no Schur form: a
    presentation that is not refused certifies its one primary corner
    (:func:`~sidecomp.commutant._primary_corners`). Where the spin-up
    presents it without relations, on T or on T* (whichever has fewer
    generators), the quotient is M_g, so T is SI exactly when g = 1 and no
    basis of A'(T) is built; elsewhere the quotient is read through a basis
    of A'(T). The corners draw from the policy's seed.
    """
    roots = _primary_corners(T, policy)
    return len(roots) == 1 and roots[0].quotient_dim == 1


class UnitDecomposition(NamedTuple):
    """Ordered mutually annihilating idempotents in A'(T) summing to I, each
    held as its factors ``P_a = L_a R_a*``: ``frames[a]``, a (d, rank P_a)
    matrix L_a with orthonormal columns spanning range P_a, and ``rows[a]``,
    the (rank P_a, d) row factor R_a*. ``L_a* T L_a`` is the restriction of
    T to range P_a. :meth:`from_idempotents` factors dense idempotents, and a
    decomposition returned by :meth:`validated` carries its residuals.
    """

    tuple_ref: OperatorTuple
    frames: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...]
    si_flags: tuple[bool, ...]
    residuals: dict | None = None

    @classmethod
    def from_idempotents(cls, T: OperatorTuple, P, si_flags: tuple[bool, ...],
                         policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
        """The (unvalidated) decomposition of T with the dense idempotents P,
        factored on :func:`range_basis` frames with ``R_a* = L_a* P_a``; raises
        :class:`NumericalDegeneracyError` when a frame misses its idempotent's
        range, ``||P_a - L_a R_a*||_F`` above the idempotency bar."""
        P = np.asarray(P, dtype=complex)
        frames = tuple(range_basis(Pa, policy) for Pa in P)
        rows = tuple(L.conj().T @ Pa for L, Pa in zip(frames, P))
        off = max(frob(Pa - L @ R) for Pa, L, R in zip(P, frames, rows))
        bar = max(policy.tol, _float_floor(T.d, max(frob(Pa) for Pa in P)))
        if off > bar:
            raise NumericalDegeneracyError(
                f"a frame misses its idempotent's range (residual {off:.3e} > {bar:.3e})")
        return cls(T, frames, rows, tuple(si_flags))

    @property
    def count(self) -> int:
        return len(self.frames)

    @property
    def idempotents(self) -> np.ndarray:
        """The idempotents, dense (n, d, d)."""
        return np.stack([L @ R for L, R in zip(self.frames, self.rows)])

    def validate(self, policy: NumericPolicy = DEFAULT_POLICY) -> dict:
        """Check all structural invariants; returns the residuals measured.

        Each residual is that of the ``P_a = L_a R_a*`` themselves, read off
        the orthonormal frames and, with the QR factorization ``R_a = Q_a
        S_a``, ``||X R_a*||_F = ||X S_a*||_F`` (so ``||P_a|| = ||S_a||``),
        in O(m d^3) flops and O(d^2) memory, batched over equal ranks:

        - ``idempotent``: ``||P_a^2 - P_a|| = ||(R_a* L_a - I) S_a*||``;
        - ``annihilate``: ``||P_a P_b|| = ||(R_a* L_b) S_b*||``, a != b;
        - ``commute``: ``||[P_a, T_j]||`` relative to ``max(1, ||P_a||
          ||T_j||)``; with ``Y = T_j L_a``, the commutator ``L_a (R_a* T_j) -
          Y R_a*`` has the orthogonal parts ``L_a (R_a* T_j - (L_a* Y)
          R_a*)`` on range L_a and ``-(Y - L_a L_a* Y) R_a*`` off it;
        - ``sum_identity``: ``||sum_a L_a R_a* - I||``.

        Each ``L_a`` must be orthonormal to within the policy's tol, and its
        width must be ``round(tr(R_a* L_a))``; a rank-0 P_a has empty factors
        and no residual. Thresholds are the policy tolerances, floored at the
        float64 level attainable for the norms (forming P^2 rounds at ~
        d*eps*||P||^2). Raw residuals are always reported; a violated
        invariant raises :class:`NumericalDegeneracyError`.
        """
        T, n = self.tuple_ref, self.count
        widths = np.array([L.shape[1] for L in self.frames], dtype=int)
        Lall = np.concatenate(self.frames, axis=1)      # the columns of each L_a, in a's order
        Rall = np.concatenate(self.rows, axis=0)        # the rows of each R_a*, likewise
        owner = np.repeat(np.arange(n), widths)         # the a of each column of Lall
        C = Rall @ Lall                                 # blocks R_a* L_b
        traces = np.bincount(owner, weights=np.diagonal(C).real, minlength=n)
        if np.any(widths != np.round(traces)):
            raise NumericalDegeneracyError(
                f"frame widths {widths.tolist()} differ from the idempotents' rounded "
                f"traces {np.round(traces).astype(int).tolist()}")
        # the rows R_a* T_j and the columns T_j L_a of every a, for every j
        RA, AL = Rall @ T.matrices, T.matrices @ Lall
        member = owner == np.arange(n)[:, None]         # [a, i]: column i is L_a's
        norms, idem = np.zeros(n), np.zeros(n)
        annihilate = np.zeros((n, n))                   # [a, b]: ||P_a P_b||
        commute = np.zeros((n, T.m))                    # [a, j]: ||[P_a, T_j]||
        for r in np.flatnonzero(np.bincount(widths)[1:]) + 1:   # the ranks r > 0 present
            # batched over the idempotents a in g, of rank r; cols[a] are L_a's columns
            g = np.flatnonzero(widths == r)
            cols = np.flatnonzero(np.isin(owner, g)).reshape(len(g), r)
            L, R = Lall[:, cols].transpose(1, 0, 2), Rall[cols]             # (g, d, r), (g, r, d)
            LH = L.conj().transpose(0, 2, 1)
            bad = np.linalg.norm(LH @ L - np.eye(r), axis=(1, 2)) > policy.tol
            if bad.any():
                raise NumericalDegeneracyError(
                    f"frames {g[bad].tolist()} are not orthonormal at tol {policy.tol}")
            Sh = np.linalg.qr(R.conj().transpose(0, 2, 1), mode="r").conj().transpose(0, 2, 1)
            norms[g] = np.linalg.norm(Sh, axis=(1, 2))
            CS = C[:, cols].transpose(1, 0, 2) @ Sh     # [b, i]: row i of [R_a* L_b S_b*]_a
            CSb = np.take_along_axis(CS, cols[:, :, None], 1)               # R_b* L_b S_b*
            idem[g] = np.linalg.norm(CSb - Sh, axis=(1, 2))
            annihilate[:, g] = np.sqrt(member @ np.sum(np.abs(CS) ** 2, axis=2).T)
            Y = AL[:, :, cols].transpose(2, 0, 1, 3)    # T_j L_a: (g, m, d, r)
            LY = LH[:, None] @ Y
            commute[g] = np.hypot(
                np.linalg.norm(RA[:, cols].transpose(1, 0, 2, 3) - LY @ R[:, None], axis=(2, 3)),
                np.linalg.norm((Y - L[:, None] @ LY) @ Sh[:, None], axis=(2, 3)))
        np.fill_diagonal(annihilate, 0.0)
        commute /= np.maximum(1.0, np.outer(norms, np.linalg.norm(T.matrices, axis=(1, 2))))
        floor = _float_floor(T.d, norms.max())
        report = {
            "commute": float(commute.max()), "idempotent": float(idem.max()),
            "annihilate": float(annihilate.max()),
            "sum_identity": frob(Lall @ Rall - np.eye(T.d)), "float_floor": floor,
        }
        bars = {"commute": policy.tol, "idempotent": max(policy.tol, floor),
                "annihilate": max(ANNIHILATION_BAR, floor),
                "sum_identity": max(IDENTITY_SUM_BAR, floor)}
        failed = [key for key, bar in bars.items() if report[key] > bar]
        if failed:
            raise NumericalDegeneracyError(
                f"decomposition invariants violated ({', '.join(failed)}): {report}")
        return report

    def validated(self, policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
        """This decomposition with the residuals of :meth:`validate`; raises
        like it."""
        return self._replace(residuals=self.validate(policy))


def _float_floor(d: int, norm: float) -> float:
    """The float64 level ``16 d eps max(1, norm)^2`` of the residuals of
    idempotents of Frobenius norm up to ``norm``."""
    return 16.0 * d * float(np.finfo(float).eps) * max(1.0, norm) ** 2


def unit_si_decomposition(T: OperatorTuple,
                          policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
    """Complete list of primitive idempotents of A'(T), ordered by
    (block of the quotient, copy within the block), as factored pairs.

    The primitives are those of :func:`semisimple_structure`, which splits
    block i into exactly n_i of them, of equal rank, and retries a walk that
    cannot. Every restriction is strongly irreducible by construction (a
    primitive idempotent's corner is local); the family is validated as a
    decomposition here.
    """
    S = semisimple_structure(T, policy)
    return UnitDecomposition(T, S.frames, S.rows, (True,) * len(S.frames)).validated(policy)


def transport_decomposition(D: UnitDecomposition, X,
                            policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
    """Push a decomposition of T through X to a decomposition of X T X^-1.

    ``X L R* X^-1 = Q (S R* X^-1)`` for the QR factors ``X L = Q S``.
    """
    Tc = conjugate(D.tuple_ref, X, policy)
    X = np.asarray(X, dtype=complex)
    Xi = np.linalg.inv(X)
    QS = [np.linalg.qr(X @ L) for L in D.frames]
    return UnitDecomposition(Tc, tuple(Q for Q, _ in QS),
                             tuple(S @ (R @ Xi) for (_, S), R in zip(QS, D.rows)),
                             D.si_flags).validated(policy)


def _invertible_intertwiner(T: OperatorTuple, UP: np.ndarray, S: OperatorTuple,
                            UQ: np.ndarray, policy: NumericPolicy) -> np.ndarray | None:
    """An invertible X with ``X A_i = B_i X`` between the restrictions ``A =
    UP* T UP`` and ``B = UQ* S UQ`` to the orthonormal frames UP and UQ, or
    None when none exists.

    The one decision behind every similarity of restricted tuples, by the
    trace pairing ``G[l, k] = tr(Y_l X_k)`` of orthonormal bases Y of
    Hom(B, A) and X of Hom(A, B). An invertible X0 in Hom(A, B) would give
    ``tr(X0^-1 X0) = r``, so a rank mismatch, an empty space or a top
    singular value of G under the rank cut certifies that no such X exists,
    whatever A and B are. When A is SI, A'(A) is local: for A similar to B
    the pairing has rank 1, and its top right singular vector combines the
    X_k into the witness. A top singular value that straddles the cut, or a
    witness that is not invertible at tol, raises
    :class:`NumericalDegeneracyError`. Nothing is drawn at random. Two rank-0
    frames are similar through the 0 x 0 intertwiner.

    Two rank-1 restrictions are numbers, similar exactly when they are
    equal, and take no Sylvester stack: their largest difference is cut
    strictly at ``tol`` relative to the inputs' scale ``max(1, ||T_i||_F,
    ||S_i||_F)``, and [[1]] is the witness of an equal pair. The restriction's
    own scale would be the wrong one: through oblique frames the restricted
    values carry the error of the inputs' scale.
    """
    r = UP.shape[1]
    if r != UQ.shape[1]:
        return None
    if r == 0:                         # a rank-0 side has no restricted tuple
        return np.zeros((0, 0), dtype=complex)
    A, B = compress(T, UP), compress(S, UQ)
    if r == 1:
        gap = float(np.abs(A.matrices - B.matrices).max())
        scale = max([1.0] + [frob(M) for M in (*T, *S)])
        if rank_cut([gap], policy.tol, scale=scale, strict=True) == 0:
            return np.ones((1, 1), dtype=complex)
        return None
    H = intertwiner_space(A, B, policy)
    if H.shape[0] == 0:
        return None
    Hb = intertwiner_space(B, A, policy)
    if Hb.shape[0] == 0:
        return None
    # only sigma_1 is cut: on SI blocks the radical pairs to zero, so the
    # smaller values are noise, and a cut through them can straddle
    _, s, Vh = svd_robust(np.einsum("lij,kji->lk", Hb, H))
    if rank_cut(s[:1], r * policy.rank_rtol, scale=1.0, strict=True) == 0:
        return None
    X = np.tensordot(Vh[0].conj(), H, axes=(0, 0))
    sx = svdvals_robust(X)
    if rank_cut(sx, policy.tol, strict=False) < r:
        cond = sx[0] / sx[-1] if sx[-1] > 0 else np.inf
        raise NumericalDegeneracyError(
            f"no invertible element at tol {policy.tol:.1e}: the trace pairing's "
            f"witness has condition number {cond:.3e}")
    return X


def _match_blocks(T: OperatorTuple, UPs, S: OperatorTuple, UQs, policy: NumericPolicy):
    """Greedy matching of the restrictions of T to the frames UPs with those
    of S to the frames UQs by :func:`_invertible_intertwiner`: each i in
    turn takes the first unused j whose restriction is similar to its own,
    and ``(i, j, X)`` is yielded with the intertwiner X; the first i with no
    partner yields ``(i, None, None)`` and ends the matching, and a pair
    that cannot be decided raises. Greedy matching is exact because
    similarity of SI restrictions is an equivalence relation; ties break to
    the lowest index. A caller that stops iterating decides no further
    pair."""
    used = [False] * len(UQs)
    for i, UP in enumerate(UPs):
        for j, UQ in enumerate(UQs):
            if used[j]:
                continue
            X = _invertible_intertwiner(T, UP, S, UQ, policy)
            if X is not None:
                used[j] = True
                yield i, j, X
                break
        else:
            yield i, None, None
            return


def assemble_intertwiner(T: OperatorTuple, S: OperatorTuple, pairs,
                         policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Direct sum of blockwise intertwiners in ambient coordinates.

    ``pairs`` is a list of (Xhat_i, L_{P_i}, R_{P_i}*, L_{Q_i}): ``P_i =
    L_{P_i} R_{P_i}*`` an idempotent of a unit decomposition for T, given by
    its factors, L_{Q_i} an orthonormal frame of the range of the matching
    idempotent Q_i of one for S, and Xhat_i an invertible intertwiner between
    the restricted tuples in the frames. The assembled X = sum_i L_{Q_i}
    Xhat_i R_{P_i}* satisfies X T_j = S_j X and is invertible; both are
    verified.
    """
    X = np.zeros((S.d, T.d), dtype=complex)
    for Xhat, LP, RP, LQ in pairs:
        if Xhat.shape != (LQ.shape[1], LP.shape[1]):
            raise ValueError(
                f"incompatible pairing data: intertwiner shape {Xhat.shape} vs "
                f"ranks ({LQ.shape[1]}, {LP.shape[1]})"
            )
        X += LQ @ (Xhat @ RP)
    scale = max(1.0, max(frob(A) for A in T), max(frob(B) for B in S))
    resid = max(frob(X @ T[i] - S[i] @ X) for i in range(T.m)) / scale
    if resid > ASSEMBLY_BAR:
        raise NumericalDegeneracyError(
            f"assembled map fails to intertwine the tuples (residual {resid:.3e})"
        )
    if X.shape[0] != X.shape[1] \
            or rank_cut(svdvals_robust(X), policy.tol, strict=False) < X.shape[0]:
        raise NumericalDegeneracyError("assembled map is not invertible")
    return X


class DecompositionEquivalence(NamedTuple):
    permutation: tuple[int, ...]     # D1 index i -> D2 index permutation[i]
    conjugator: np.ndarray           # X in GL(A'(T)) with X P_i X^-1 = Q_{perm(i)}
    residual: float


class EquivalenceOutcome(NamedTuple):
    equivalence: DecompositionEquivalence | None
    certificate: str | None

    @property
    def equivalent(self) -> bool:
        return self.equivalence is not None


def decompositions_equivalent(T: OperatorTuple, D1: UnitDecomposition,
                              D2: UnitDecomposition,
                              policy: NumericPolicy = DEFAULT_POLICY) -> EquivalenceOutcome:
    """Match two unit SI decompositions of the same tuple, with witness.

    The restrictions to the frames the two decompositions carry are matched
    greedily (:func:`_match_blocks`); then the blockwise intertwiners are
    assembled on those frames into a global
    conjugator X in GL(A'(T)) (:func:`assemble_intertwiner` of T with itself)
    whose transport residual max_i ||X P_i X^-1 - Q_perm(i)||_F is verified
    against ``ASSEMBLY_BAR`` relative to max(1, max_i ||P_i||_F).

    A decomposition that was not validated for T itself (one built directly,
    or one of another tuple, such as a transported one) is validated against
    T first, and raises like :meth:`UnitDecomposition.validate`.
    """
    D1, D2 = (D if D.tuple_ref is T and D.residuals is not None
              else D._replace(tuple_ref=T).validated(policy) for D in (D1, D2))
    if D1.count != D2.count:
        return EquivalenceOutcome(None, "count mismatch")
    perm, pairs = [], []
    for i, j, Xhat in _match_blocks(T, D1.frames, T, D2.frames, policy):
        if j is None:
            return EquivalenceOutcome(None, f"no similar partner for block {i}")
        perm.append(j)
        pairs.append((Xhat, D1.frames[i], D1.rows[i], D2.frames[j]))
    X = assemble_intertwiner(T, T, pairs, policy)
    Xi = np.linalg.inv(X)
    # X P_i X^-1 - Q_j = (X L_i)(R_i* X^-1) - L_j R_j*, and ||P_i||_F = ||R_i*||_F
    resid = max(frob((X @ D1.frames[i]) @ (D1.rows[i] @ Xi) - D2.frames[j] @ D2.rows[j])
                for i, j in enumerate(perm))
    if resid > ASSEMBLY_BAR * max(1.0, max(frob(R) for R in D1.rows)):
        raise NumericalDegeneracyError(
            f"assembled element does not transport the idempotents (residual {resid:.3e})"
        )
    return EquivalenceOutcome(DecompositionEquivalence(tuple(perm), X, float(resid)), None)
