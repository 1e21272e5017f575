"""Unit strongly irreducible decompositions and their comparison.

A decomposition of a commuting tuple ``T`` is an ordered list of mutually
annihilating idempotents in the joint commutant summing to the identity;
it is strongly irreducible (SI) when every restriction ``T|_{range P_i}``
has a local commutant (no nontrivial idempotent commutes with it). This
module produces such decompositions from the commutant's block structure,
transports them through similarities, decides similarity of two blocks via
invertible intertwiners, and matches two decompositions of one tuple by a
global invertible element of the commutant assembled from blockwise
intertwiners.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import frob
from .commutant import (
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
from .tuples import OperatorTuple, check_idempotent_in_commutant, conjugate, \
    range_basis


def is_strongly_irreducible(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True iff the joint commutant of T is local.

    Decided structurally: the commutant algebra modulo its radical must be
    one-dimensional, i.e. algebra_dim = radical_dim + 1. Where the spin-up
    presents A'(T) without relations the quotient is M_g, so T is SI exactly
    when g = 1; where it presents A'(T) with relations the quotient is read
    through rho(A') inside M_g, so no basis of A'(T) is built there, and
    through a basis of A'(T) elsewhere; the presentation's checks draw from
    the policy's seed.
    """
    return _whole_corner(T, policy).quotient_dim == 1


@dataclass(frozen=True)
class UnitDecomposition:
    """Ordered mutually annihilating idempotents in A'(T) summing to I."""

    tuple_ref: OperatorTuple
    idempotents: np.ndarray          # (n, d, d)
    si_flags: tuple[bool, ...]

    @property
    def count(self) -> int:
        return self.idempotents.shape[0]

    def validate(self, policy: NumericPolicy = DEFAULT_POLICY) -> dict:
        """Check all structural invariants; returns the residuals measured.

        Thresholds are the policy tolerances, floored at the float64 level
        attainable for the idempotents' norms (forming P^2 rounds at
        ~ d*eps*||P||^2, which exceeds an absolute 1e-8 only for extremely
        oblique inputs); raw residuals are always reported.
        """
        T, P = self.tuple_ref, self.idempotents
        n, d = P.shape[0], T.d
        eps = float(np.finfo(float).eps)
        norms_P = np.linalg.norm(P, axis=(1, 2))
        norms_T = np.linalg.norm(T.matrices, axis=(1, 2))
        floor = 16.0 * d * eps * max(1.0, norms_P.max()) ** 2
        # (n, m, d, d): the commutators [P_i, T_j]
        comm = np.matmul(P[:, None], T.matrices[None]) - np.matmul(T.matrices[None], P[:, None])
        commute = float(np.max(np.linalg.norm(comm, axis=(2, 3))
                               / np.maximum(1.0, norms_P[:, None] * norms_T[None])))
        idem = float(np.max(np.linalg.norm(np.matmul(P, P) - P, axis=(1, 2))))
        # row a of the (nd, nd) product [P_a P_b]_{a,b}, one GEMM per row: the
        # whole product would hold n^2 d^2 entries at once
        annihilate = 0.0
        cols = P.transpose(1, 0, 2).reshape(d, n * d)
        for a in range(n):
            prods = (P[a] @ cols).reshape(d, n, d)
            norms = np.linalg.norm(prods, axis=(0, 2))
            norms[a] = 0.0
            annihilate = max(annihilate, float(norms.max()))
        total = frob(P.sum(axis=0) - np.eye(d))
        report = {
            "commute": commute, "idempotent": idem,
            "annihilate": annihilate, "sum_identity": total,
            "float_floor": floor,
        }
        if commute > policy.tol \
                or idem > max(policy.tol, floor) \
                or annihilate > max(ANNIHILATION_BAR, floor) \
                or total > max(IDENTITY_SUM_BAR, floor):
            raise NumericalDegeneracyError(f"decomposition invariants violated: {report}")
        return report


def unit_si_decomposition(T: OperatorTuple,
                          policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
    """Complete list of primitive idempotents of A'(T), ordered by
    (block of the quotient, copy within the block).

    The primitives are those of :func:`semisimple_structure`, which splits
    block i into exactly n_i of them, of equal rank, and retries a walk that
    cannot. Every restriction is strongly irreducible by construction (a
    primitive idempotent's corner is local); the family is validated as a
    decomposition here.
    """
    prims = semisimple_structure(T, policy).primitives
    D = UnitDecomposition(T, prims, tuple(True for _ in prims))
    D.validate(policy)
    return D


def transport_decomposition(D: UnitDecomposition, X,
                            policy: NumericPolicy = DEFAULT_POLICY) -> UnitDecomposition:
    """Push a decomposition of T through X to a decomposition of X T X^-1."""
    Tc = conjugate(D.tuple_ref, X, policy)
    X = np.asarray(X, dtype=complex)
    Xi = np.linalg.inv(X)
    idems = np.stack([X @ P @ Xi for P in D.idempotents])
    out = UnitDecomposition(Tc, idems, D.si_flags)
    out.validate(policy)
    return out


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
    UP, UQ = range_basis(P, policy), range_basis(Q, policy)
    if UP.shape[1] != UQ.shape[1]:
        return BlockSimilarityResult(False, True, None)
    if UP.shape[1] == 0:               # a rank-0 side has no restricted tuple
        return BlockSimilarityResult(True, True, np.zeros((0, 0), dtype=complex))
    TP = OperatorTuple(np.stack([UP.conj().T @ A @ UP for A in T]))
    TQ = OperatorTuple(np.stack([UQ.conj().T @ A @ UQ for A in T]))
    X, definitive = _invertible_intertwiner(TP, TQ, policy)
    return BlockSimilarityResult(X is not None, definitive, X)


def assemble_intertwiner(T: OperatorTuple, S: OperatorTuple, pairs,
                         policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Direct sum of blockwise intertwiners in ambient coordinates.

    ``pairs`` is a list of (P_i, Q_i, Xhat_i): P_i from a unit decomposition
    for T, Q_i from one for S, and Xhat_i an invertible intertwiner between
    the restricted tuples in the orthonormal range bases. The assembled
    X = sum_i U_{Q_i} Xhat_i U_{P_i}^* P_i satisfies X T_j = S_j X and is
    invertible; both are verified.
    """
    X = np.zeros((S.d, T.d), dtype=complex)
    for P, Q, Xhat in pairs:
        UP, UQ = range_basis(P, policy), range_basis(Q, policy)
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
    index), then the blockwise intertwiners are assembled into a global
    conjugator X in GL(A'(T)) (:func:`assemble_intertwiner` of T with itself)
    whose transport residual max_i ||X P_i X^-1 - Q_perm(i)||_F is verified
    against ``ASSEMBLY_BAR`` relative to max(1, max_i ||P_i||_F).
    """
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
            res = block_similarity(T, D1.idempotents[i], D2.idempotents[j], policy)
            if res.similar:
                used[j] = True
                perm[i] = j
                pairs.append((D1.idempotents[i], D2.idempotents[j], res.intertwiner))
                break
        if perm[i] < 0:
            return EquivalenceOutcome(None, f"no similar partner for block {i}")
    X = assemble_intertwiner(T, T, pairs, policy)
    Xi = np.linalg.inv(X)
    resid = max(frob(X @ P @ Xi - Q) for P, Q, _ in pairs)
    if resid > ASSEMBLY_BAR * max(1.0, max(frob(P) for P, _, _ in pairs)):
        raise NumericalDegeneracyError(
            f"assembled element does not transport the idempotents (residual {resid:.3e})"
        )
    return EquivalenceOutcome(DecompositionEquivalence(tuple(perm), X, float(resid)), None)
