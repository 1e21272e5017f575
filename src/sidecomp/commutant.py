"""Joint commutant algebras of commuting matrix tuples and their structure.

The joint commutant ``A'(T)`` of a tuple ``T`` is the unital algebra of all
matrices commuting with every component. For a tuple with one joint
eigenvalue this module presents ``A'(T)`` by spin-up from generators G of
``C^d`` as a module over ``C[T]`` (:class:`SpinUp`): a commutant element X
is fixed by its values ``Y = X G`` (``g*d`` unknowns). Since ``A'(T) =
A'(T*)*``, the spin-up runs on the side, T or its adjoint, with fewer
generators. A presentation without relations (``n_B*g = d``) is free:
``C^d`` is a free module of rank g, ``A' = M_g(C[T])`` and ``A'/rad =
M_g``, so its one block, its radical dimension and its g primitive
idempotents are read off the presentation in closed form. Any other
presentation gives a trace-orthonormal basis of ``A'(T)`` (the recovered
elements orthonormalized by Householder QR); where there is no presentation
or it does not verify, ``A'(T)`` is the common nullspace of the stacked
Sylvester maps ``X -> X T_i - T_i X`` (``d^2`` unknowns). The structure
stages of a corner that is not free work on that basis: the Jacobson
radical via the trace bilinear form, the center of the quotient, and splits
by Riesz projectors of random elements. Intertwiner spaces between two
tuples (from the Sylvester stack) round out the toolkit.

The components of one split that have the same size are presented as one
stack: one spin-up routine (:func:`_spin_up`) takes a list of tuples of one
size and makes one stacked LAPACK or BLAS call per stage and per group of
members with equal shapes, while every rank decision and refusal stays per
member; the results are bitwise those of one member at a time.

Randomized steps draw from the policy's seed and are deterministic given
(inputs, policy). Structural outputs (k and the sorted block sizes) are
intrinsic to the algebra, which counts them before any split: a walk that a
bad draw leads astray fails one of the deterministic certificates (square
block quotients, ``sum n_i^2 + dim rad = dim A'``, and n_i primitives of
equal rank per block).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._linalg import (
    cluster_eigenvalues,
    commutator_norms,
    frob,
    groups_by,
    nullspace,
    nullspaces,
    rank_cut,
    schur,
    spectral_projector,
    strict_rank,
    substack,
    svd_robust,
    svdvals_robust,
)
from .policy import (
    CENTRALITY_BAR,
    DEFAULT_POLICY,
    GOOD_SPLIT_NORM,
    INFLATION_SIZE_CAP,
    NILPOTENCY_BAR,
    PRIMARY_COMMUTE_BAR,
    RADICAL_FLOOR,
    SPAN_MEMBERSHIP_TOL,
    SPLIT_ATTEMPTS,
    SPLIT_GAPS,
    SPLIT_PROJECTOR_NORM_CAP,
    STACK_BYTE_BUDGET,
    STRUCTURE_SEEDS,
    NumericPolicy,
    NumericalDegeneracyError,
)
from .tuples import OperatorTuple, compress, inflate


class CommutantBasis(NamedTuple):
    """Trace-orthonormal basis of a joint commutant algebra inside M_d(C)."""

    basis: np.ndarray        # (N, d, d)

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @property
    def algebra_dim(self) -> int:
        return self.basis.shape[0]

    def coords(self, M: np.ndarray) -> np.ndarray:
        """Coefficients of M against the basis (exact for members of the span)."""
        M = np.asarray(M, dtype=complex)
        return self.basis.conj().reshape(self.algebra_dim, self.d * self.d) @ M.reshape(-1)

    def project(self, M: np.ndarray) -> np.ndarray:
        return np.tensordot(self.coords(M), self.basis, axes=(0, 0))

    def contains(self, M: np.ndarray) -> bool:
        M = np.asarray(M, dtype=complex)
        return frob(M - self.project(M)) <= SPAN_MEMBERSHIP_TOL * max(1.0, frob(M))

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.basis, axes=(0, 0))


def _sylvester_stack(T: OperatorTuple, S: OperatorTuple) -> np.ndarray:
    """Matrix of (X -> stacked X T_i - S_i X) on row-major vec(X), X: dS x dT."""
    dT, dS = T.d, S.d
    blocks = []
    for i in range(T.m):
        blocks.append(np.kron(np.eye(dS), T[i].T) - np.kron(S[i], np.eye(dT)))
    return np.vstack(blocks)


def joint_commutant(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY) -> CommutantBasis:
    """Trace-orthonormal basis of A'(T) = {X : X T_i = T_i X for all i}.

    ``A'(T)`` is the direct sum of its primary corners (:func:`_primary_corners`;
    one, the whole space with no Schur form drawn, when the spin-up certifies
    one joint eigenvalue), each the commutant of ``U* T U`` by spin-up or,
    where that does not verify as a basis, by the Sylvester stack
    (:func:`_commutant`). Each corner's
    elements X are lifted to ``U X W*`` and all are trace-orthonormalized
    together (:func:`_qr_basis`); a lone root is the whole space, whose basis
    is the result. The choice depends only on the input and the policy's seed.
    """
    roots = _primary_corners(T, policy)
    bases = [c.basis if c.free is None else _commutant(compress(T, c.U), c.free, policy).basis
             for c in roots]
    if len(roots) == 1:
        return CommutantBasis(bases[0])
    lifted = np.concatenate([c.U @ X @ c.W for c, X in zip(roots, bases)])
    return CommutantBasis(_qr_basis(lifted.reshape(len(lifted), -1).T, T.d)[0])


def stack_commutant(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY) -> CommutantBasis:
    """A'(T) as the nullspace of the Sylvester stack, ``intertwiner_space(T, T)``.

    Always contains the identity; this is asserted after the nullspace
    computation as a cheap sanity check on the rank decision. A tighter cut
    cannot repair a failed check: it keeps a subspace of the same right
    singular vectors, so it misses the identity too.
    """
    basis = intertwiner_space(T, T, policy)
    cb = CommutantBasis(basis)
    if cb.contains(np.eye(T.d)):
        return cb
    raise NumericalDegeneracyError(
        "identity not contained in the computed commutant span; "
        "rank threshold is unreliable for this input"
    )


def _word_algebra(N: np.ndarray, rtol: float, scales: list[float]) -> list[np.ndarray | None]:
    """Vec-orthonormal bases (n_B, d, d) of the unital algebras generated by
    the commuting ``N_i`` of each member of a stack N (n, m, d, d), built
    breadth-first: the newest elements times each ``N_i``, projected off the
    span so far, until nothing new appears. None for a member refused below.

    ``n_B`` is not bounded by d: ``(E31, E32, E41, E42)`` at d=4 generates a
    5-dimensional commutative algebra. It is bounded by Schur's
    ``floor(d^2/4) + 1``, the largest dimension of a commutative subalgebra of
    M_d; words past it show that the ``N_i`` do not commute numerically, and
    the member is refused, as it is when a level's strict cut straddles.

    New words with ``10 ||cand||_F <= rtol * scale`` end the member's walk
    without an SVD: every singular value is at most ``||cand||_F``, so the
    strict cut at ``rtol * max(sigma_max, scale)`` reads rank 0 there with no
    straddle. Each level is one stacked Gram-Schmidt and one stacked SVD over
    the members whose spans and newest words have the same shapes; a member
    whose rank differs goes on in its own sub-stack.
    """
    n, _, d, _ = N.shape
    out: list[np.ndarray | None] = [None] * n
    basis = np.zeros((n, 1, d * d), dtype=complex)
    basis[:, 0, ::d + 1] = 1.0 / math.sqrt(d)           # I / sqrt(d)
    walks = [(list(range(n)), N[:, None], basis, basis)]  # (members, N_i, spans, newest words)
    while walks:
        members, gens, basis, front = walks.pop()
        cand = np.matmul(front.reshape(len(members), -1, 1, d, d), gens)
        cand = cand.reshape(len(members), -1, d * d)
        for _ in range(2):  # classical Gram-Schmidt, reorthogonalized
            cand = cand - (cand @ basis.conj().transpose(0, 2, 1)) @ basis
        live = []
        for j, k in enumerate(members):
            if 10.0 * frob(cand[j]) <= rtol * scales[k]:
                out[k] = basis[j].reshape(-1, d, d)
            else:
                live.append(j)
        if not live:
            continue
        _, s, Vh = svd_robust(substack(cand, live), full_matrices=False)
        ranks = [strict_rank(sv, rtol, scales[members[j]]) for j, sv in zip(live, s)]
        for group in groups_by(ranks, lambda r: r):
            r = ranks[group[0]]
            if r is None:
                continue
            at, new = [live[i] for i in group], substack(Vh, group)[:, :r]
            grown = np.concatenate([substack(basis, at), new], axis=1)
            if grown.shape[1] > d * d // 4 + 1:
                continue
            if r == 0:
                for j, B in zip(at, grown):
                    out[members[j]] = B.reshape(-1, d, d)
            else:
                walks.append(([members[j] for j in at], substack(gens, at), grown, new))
    return out


def _keep(idx: list[int], *items) -> list:
    """Entries ``idx`` (ascending) of each per-member list or stack
    (:func:`substack`): the members that are left after a refusal."""
    return [[a[i] for i in idx] if isinstance(a, list) else substack(a, idx) for a in items]


def _stack_cut(T: OperatorTuple, S: OperatorTuple,
               policy: NumericPolicy) -> tuple[float, float]:
    """``(rtol, scale)`` of the nullspace cut of the Sylvester stack of T and S."""
    scale = max(1.0, max(frob(A) for A in T), max(frob(B) for B in S))
    return max(T.d, S.d) * policy.rank_rtol, scale


def _module_maps(B: np.ndarray, Y: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """The maps ``X = [b_a Y]_a Phi^+ = sum_a (b_a Y) P_a`` of the values Y
    (..., K, d, g), as the columns of a (..., d^2, K) array: one GEMM applies
    the words B (..., nb, d, d) to the values, a second the stacked g x d
    blocks P_a of ``pinv = Phi^+`` (..., nb*g, d). Leading axes index the
    members of a stack of presentations."""
    *lead, nb, d, _ = B.shape
    K, _, g = Y.shape[-3:]
    n = len(lead)
    BY = B.reshape(*lead, nb * d, d) @ np.swapaxes(Y, -3, -2).reshape(*lead, d, K * g)
    BY = BY.reshape(*lead, nb, d, K, g).transpose(*range(n), n + 2, n + 1, n, n + 3)
    X = BY.reshape(*lead, K * d, nb * g) @ pinv
    return np.swapaxes(X.reshape(*lead, K, d * d), -1, -2)


class SpinUp(NamedTuple):
    """A'(T) presented by its values on module generators (the spin-up of
    Parker's Meat-Axe), for a tuple with one joint eigenvalue.

    A member X of A'(T) is ``B``-linear for the algebra ``B = C[T]``, so it is
    fixed by ``Y = X G`` on a generating set G. With ``N_i = T_i - (tr T_i/d)
    I`` and G an orthonormal complement of ``JM = range [N_1 ... N_m]``, the
    columns of ``Phi = [b_a G]_a`` span C^d exactly when G generates (by
    Nakayama it does for one joint eigenvalue). X exists for Y iff ``sum_a
    b_a Y C_a = 0`` for the relations ``C = null(Phi)``, and then ``X = [b_a
    Y]_a Phi^+``: g*d unknowns instead of d^2. ``Y`` is an orthonormal basis
    (K, d, g) of the values, or None when there are no relations (``nb*g =
    d``), where every d x g matrix is one and ``K = d*g``.

    With ``adjoint`` the presentation is of the adjoint tuple, ``T`` holds
    T* of the input, ``B`` the words ``B*`` of ``C[T*]``, and the input's
    commutant is ``A'(T)*``.
    """

    T: OperatorTuple
    B: np.ndarray                # (nb, d, d) vec-orthonormal words, B[0] = I/sqrt(d)
    G: np.ndarray                # (d, g) orthonormal generators
    pinv: np.ndarray             # (nb*g, d) Phi^+
    Y: np.ndarray | None         # (K, d, g) orthonormal values; None: all of them
    rtol: float                  # relative cut of the stack, d * rank_rtol
    bar: float                   # commutation bar of a unit element, rtol * scale / 10
    adjoint: bool                # presented on T* of the input

    @property
    def K(self) -> int:
        """dim A'(T)."""
        d, g = self.G.shape
        return d * g if self.Y is None else self.Y.shape[0]


def _spin_up(Ts: list[OperatorTuple], policy: NumericPolicy) -> list[SpinUp | None]:
    """The spin-up presentations of A'(T), on T or on T*, of a stack of
    tuples T of one size d and arity; None for a member where it does not
    apply or does not verify. The whole space is passed as ``[T]``.

    The members go through every stage together. The word algebra
    (:func:`_word_algebra`) takes stacked calls per level, and the
    generators' nullspaces, of T and then of T* where T has relations, one
    call each; the members are then grouped once, by ``(n_B, g, side)``,
    and in each group the trace form, ``Phi``'s SVD, the relations and the
    check element take one stacked call. A lone member's words are neither
    restacked nor copied: its stack of one is a view of them. Every
    decision stays per member: each
    cut is a strict :func:`rank_cut` on that member's own singular values
    with its own ``scale`` (``frob`` of its own matrices), and a member
    refused anywhere becomes None and leaves the stack (:func:`_keep`),
    while the others go on; stacked LAPACK and BLAS calls give bitwise the
    results of the matrices one at a time.

    Side rule: ``X T_i = T_i X`` iff ``T_i* X* = X* T_i*``, so ``A'(T) =
    A'(T*)*``, and ``C[T*]`` has the words ``B*``. The generators of T* are an
    orthonormal basis of ``null [N_1; ...; N_m]``, the complement of ``range
    [N_1* ... N_m*]``. A free side has the fewest generators possible (``g =
    d/nb``), so those of T* are computed only when T has relations (``nb*g >
    d``), and the presentation moves to T* only when T* has strictly fewer; a
    tie, or a straddle in the cut of T*'s generators, keeps T. A presentation
    refused on the chosen side is None; the other side is not tried.

    A member is refused when a rank decision straddles its threshold, when
    the tuple has more than one joint eigenvalue (below), when ``Phi`` has
    fewer than d columns (``nb*g < d``), when the words outnumber Schur's
    bound on a commutative algebra, when the relation matrix would be larger
    than the stack, when the lift is too ill conditioned or the generators
    do not generate (below), when the values miss those of the identity
    (``Y = G``), or when a random element fails to commute with T to within
    ``bar`` relative to its norm, the bar every basis element of
    :func:`_spin_up_commutant` meets: a span with any non-commuting direction
    fails a random combination almost surely. The element's coefficients
    are drawn from a fresh generator on the policy's seed, once for each
    dimension K, so members of equal K share them.

    One joint eigenvalue is certified by the trace form ``tr(b_a b_b)`` of
    the words orthogonal to I, which must have rank 0 under a strict cut at
    ``rtol``: the trace-zero words of a local commutative algebra are
    nilpotent, while a nontrivial idempotent e of ``C[T]`` gives the
    trace-zero word ``e - (tr e/d) I`` of square trace ``tr e - (tr e)^2/d >
    0``. That G generates does not certify it: it can when the mean of the
    ``T_i`` is itself a joint eigenvalue (``X diag(0, 1, -1) X^-1``). The
    form is taken of T's own words, also for a member presented on T*. A form
    with ``10 ||F||_F <= rtol`` takes no SVD: its singular values are at most
    ``||F||_F``, a tenth of the cut ``rtol * max(sigma_max, 1)``, so it has
    rank 0 with no straddle.

    The conditioning guard bounds the spread of the lift ``Y -> X``: ``X G =
    Y`` bounds it below by 1, and ``||[b_a Y]_a||_F <= sqrt(nb) ||Y||_F`` for
    vec-orthonormal words bounds it above by ``sqrt(nb) / s_min(Phi)``. The
    presentation is refused when ``10 * rtol`` times that bound reaches 1, the
    bar at which a strict cut of the elements' singular values would no
    longer keep all K. The same guard refuses generators that do not
    generate: ``||Phi||_2 <= ||Phi||_F <= sqrt(nb)`` for vec-orthonormal
    words and orthonormal G, so a rank loss of ``Phi``, or a singular value
    within a factor 10 of a strict cut at ``rtol * sigma_max``, has
    ``s_min(Phi) < 10 * rtol * sqrt(nb)``.
    """
    M = np.stack([T.matrices for T in Ts])          # (n, m, d, d)
    n, m, d, _ = M.shape
    rtol = d * policy.rank_rtol
    scales = [_stack_cut(T, T, policy)[1] for T in Ts]
    N = M - (np.trace(M, axis1=2, axis2=3) / d)[..., None, None] * np.eye(d, dtype=complex)
    Bs = _word_algebra(N, rtol, scales)
    out: list[SpinUp | None] = [None] * n
    alive = [k for k in range(n) if Bs[k] is not None]
    # the generators: null [N_1 ... N_m]*; those of T*, null [N_1; ...;
    # N_m], for the members with relations (nb*g > d)
    hN = substack(N, alive).transpose(0, 2, 1, 3).reshape(len(alive), d, m * d).conj().transpose(0, 2, 1)
    Gs = dict(zip(alive, nullspaces(hN, rtol, [scales[k] for k in alive], strict=True)))
    alive = [k for k in alive if Gs[k] is not None]
    adjoint = dict.fromkeys(alive, False)
    wide = [k for k in alive if Bs[k].shape[0] * Gs[k].shape[1] > d]
    for k, G_adj in zip(wide, nullspaces(substack(N, wide).reshape(len(wide), m * d, d), rtol,
                                         [scales[k] for k in wide], strict=True)):
        if G_adj is not None and G_adj.shape[1] < Gs[k].shape[1]:     # a straddle keeps T
            Gs[k], adjoint[k] = G_adj, True
    draws: dict[int, np.ndarray] = {}
    for group in groups_by(alive, lambda k: (Bs[k].shape[0], Gs[k].shape[1], adjoint[k])):
        members = [alive[i] for i in group]
        nb, g, adj = Bs[members[0]].shape[0], Gs[members[0]].shape[1], adjoint[members[0]]
        # G must generate (nb*g >= d, and the guard below refuses rank loss);
        # a relation matrix (d*r x d*g, r = nb*g - d) larger than the
        # m d^2 x d^2 stack would save nothing
        if nb * g < d or (nb * g - d) * g > m * d * d:
            continue
        B, G, mats = substack(Bs, members), substack(Gs, members), substack(M, members)
        # one joint eigenvalue: the trace form of T's trace-zero words vanishes
        if nb > 1:
            W = B[:, 1:].reshape(len(members), nb - 1, d * d)
            F = W @ B[:, 1:].transpose(0, 1, 3, 2).reshape(W.shape).transpose(0, 2, 1)
            big = [i for i in range(len(members)) if 10.0 * frob(F[i]) > rtol]
            svs = dict(zip(big, svdvals_robust(substack(F, big)) if big else ()))
            ok = [i for i in range(len(members))
                  if i not in svs or strict_rank(svs[i], rtol, 1.0) == 0]
            if not ok:
                continue
            members, B, G, mats = _keep(ok, members, B, G, mats)
        if adj:
            B, mats = B.conj().transpose(0, 1, 3, 2), mats.conj().transpose(0, 1, 3, 2)
        Phi = np.matmul(B, G[:, None]).transpose(0, 2, 1, 3).reshape(len(members), d, nb * g)
        U, s, Vh = svd_robust(Phi)
        ok = [i for i in range(len(members)) if not 10.0 * rtol * math.sqrt(nb) >= s[i, d - 1]]
        if not ok:
            continue
        members, B, G, mats, U, s, Vh = _keep(ok, members, B, G, mats, U, s, Vh)
        pinv = (Vh[:, :d].conj().transpose(0, 2, 1) / s[:, None, :]) @ U.conj().transpose(0, 2, 1)
        Ys = [None] * len(members)
        if nb * g > d:
            rel = Vh[:, d:].conj().transpose(0, 2, 1).reshape(len(members), nb, g, -1)
            L = np.einsum("naij,nakr->nirjk", B, rel).reshape(len(members), -1, d * g)
            Ys = [None if Y is None else Y.T.reshape(-1, d, g)
                  for Y in nullspaces(L, rtol, [1.0] * len(members), strict=True)]
            ok = []
            for i, (Y, Gi) in enumerate(zip(Ys, G)):
                if Y is None:
                    continue
                Yv, Gv = Y.reshape(len(Y), -1), Gi.reshape(-1)
                if not frob(Gv - (Yv.conj() @ Gv) @ Yv) > SPAN_MEMBERSHIP_TOL * max(1.0, frob(Gi)):
                    ok.append(i)
            if not ok:
                continue
            members, B, G, mats, pinv, Ys = _keep(ok, members, B, G, mats, pinv, Ys)
        sus = [SpinUp(OperatorTuple(mats[i]) if adj else Ts[k], B[i], G[i], pinv[i], Ys[i], rtol,
                      rtol * scales[k] / 10.0, adj) for i, k in enumerate(members)]
        # the check element: a random combination of the values, lifted
        for su in sus:
            if su.K not in draws:
                rng = np.random.default_rng(policy.seed)
                draws[su.K] = rng.standard_normal(su.K) + 1j * rng.standard_normal(su.K)
        y = np.stack([draws[su.K].reshape(d, g) if su.Y is None
                      else np.tensordot(draws[su.K], su.Y, axes=(0, 0)) for su in sus])
        X = _module_maps(B, y[:, None], pinv).reshape(len(sus), 1, d, d)
        resid = commutator_norms(X, mats)
        for k, su, Xk, rk in zip(members, sus, X, resid):
            if not frob(rk) > su.bar * frob(Xk):
                out[k] = su
    return out


def _qr_basis(X: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Trace-orthonormal basis (K, d, d) of the independent elements whose
    row-major vecs are the d^2 x K columns X, and R, by reduced Householder QR
    (no SVD): each column's phase is turned to make R's diagonal positive real,
    so by uniqueness of QR the basis is the elements' Gram-Schmidt basis."""
    Q, R = np.linalg.qr(X)
    r = np.diagonal(R)
    Q *= r / np.abs(r)
    return np.ascontiguousarray(Q.T).reshape(-1, d, d), R


def _spin_up_commutant(su: SpinUp) -> CommutantBasis | None:
    """A'(T) as a trace-orthonormal basis of the module maps of the spin-up
    presentation ``su`` of T (:func:`_spin_up`), conjugate-transposed when it
    is presented on T*; None when it does not verify as a basis.

    The K elements recovered from an orthonormal basis of the values are
    independent by construction, so :func:`_qr_basis` trace-orthonormalizes
    them. None is returned when ``10 * rtol * ||R||_F >= 1``: since ``X G =
    Y`` with G and the Y orthonormal, the singular values of R (those of the
    elements) lie in ``[1, ||R||_F]``, so a strict cut of them keeps all K
    otherwise. Each element of the result must commute with T to within a
    tenth of the stack's cut ``d * rank_rtol * scale``, since a residual
    within a factor 10 of the cut is as ambiguous as a straddling singular
    value. The adjoint keeps a trace-orthonormal basis trace-orthonormal.
    """
    d, g = su.G.shape
    Y = np.eye(d * g, dtype=complex).reshape(-1, d, g) if su.Y is None else su.Y
    basis, R = _qr_basis(_module_maps(su.B, Y, su.pinv), d)
    if 10.0 * su.rtol * frob(R) >= 1.0:
        return None
    if np.any(np.linalg.norm(commutator_norms(basis, su.T), axis=1) > su.bar):
        return None
    return CommutantBasis(basis.conj().transpose(0, 2, 1) if su.adjoint else basis)


def _commutant(T: OperatorTuple, su: SpinUp | None, policy: NumericPolicy) -> CommutantBasis:
    """A'(T) from its spin-up presentation ``su`` where that gives a basis,
    from the Sylvester stack otherwise."""
    cb = None if su is None else _spin_up_commutant(su)
    return cb if cb is not None else stack_commutant(T, policy)


def intertwiner_space(T: OperatorTuple, S: OperatorTuple,
                      policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis (K, dS, dT) of {X : X T_i = S_i X for all i}.

    Rectangular spaces are allowed; an empty first axis means the only
    intertwiner is zero. A stack of more than ``STACK_BYTE_BUDGET`` bytes
    raises :class:`NumericalDegeneracyError` before it is built.
    """
    if T.m != S.m:
        raise ValueError(f"arity mismatch: {T.m} vs {S.m}")
    size = 16 * T.m * (T.d * S.d) ** 2
    if size > STACK_BYTE_BUDGET:
        raise NumericalDegeneracyError(
            f"the Sylvester stack of m={T.m}, d_T={T.d}, d_S={S.d} needs {size} bytes, "
            f"more than the budget of {STACK_BYTE_BUDGET}")
    rtol, scale = _stack_cut(T, S, policy)
    ns = nullspace(_sylvester_stack(T, S), rtol, scale=scale)
    return np.ascontiguousarray(ns.T.reshape(-1, S.d, T.d))


class InflationCheck(NamedTuple):
    base_dim: int
    inflated_dim: int
    copies: int
    passed: bool


def inflation_commutant_check(T: OperatorTuple, n: int,
                              policy: NumericPolicy = DEFAULT_POLICY) -> InflationCheck:
    """Verify dim A'(T^(n)) = n^2 dim A'(T) (matrix-algebra inflation identity).

    Each dimension is the sum of ``algebra_dim`` over the primary corners
    (:func:`_primary_corners`), read off a free presentation, and off the
    basis of A' otherwise.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n * T.d > INFLATION_SIZE_CAP:
        raise ValueError(f"inflated dimension {n * T.d} exceeds size cap {INFLATION_SIZE_CAP}")
    base, big = (sum(c.algebra_dim for c in _primary_corners(S, policy))
                 for S in (T, inflate(T, n)))
    return InflationCheck(base, big, n, big == n * n * base)


# ---------------------------------------------------------------------------
# Structure analysis: radical and simple-block decomposition of the quotient
# ---------------------------------------------------------------------------

def _radical_coords(basis: np.ndarray, policy: NumericPolicy,
                    strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors (K, nrad) of the radical of the spanned algebra,
    and (K, K - nrad) of its trace-orthonormal complement.

    Uses the characteristic-zero criterion rad(A) = {x : tr(xy) = 0 for all y}:
    the radical is the nullspace of the trace bilinear Gram form, and the
    complement, spanned by the Gram form's leading right singular vectors,
    holds one representative of each quotient direction. The cut's
    rank_rtol is floored at ``RADICAL_FLOOR``. ``strict`` additionally raises when
    singular values straddle the threshold (used for caller-facing decisions
    on clean commutant bases; internal corner decisions tolerate straddle and
    rely on the integer accounting checks downstream).
    """
    K = basis.shape[0]
    if K == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex)
    r = basis.shape[1]
    F = basis.reshape(K, r * r)
    FT = np.transpose(basis, (0, 2, 1)).reshape(K, r * r)
    G = F @ FT.T                       # G[a,b] = tr(B_a B_b)
    _, s, Vh = svd_robust(G)
    rank = rank_cut(s, K * max(policy.rank_rtol, RADICAL_FLOOR), scale=1.0, strict=strict)
    V = Vh.conj().T
    return np.ascontiguousarray(V[:, rank:]), np.ascontiguousarray(V[:, :rank])


def radical(A: CommutantBasis, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Trace-orthonormal basis (nrad, d, d) of rad(A); elements verified nilpotent.

    Raises when the trace-form rank decision is ambiguous (singular values
    within a factor 10 of the threshold); callers may tighten the policy.
    """
    coords, _ = _radical_coords(A.basis, policy, strict=True)
    rad = np.tensordot(coords.T, A.basis, axes=(1, 0))
    for R in rad:
        power = np.linalg.matrix_power(R, A.d)
        if frob(power) > NILPOTENCY_BAR * max(1.0, frob(R) ** A.d):
            raise NumericalDegeneracyError(
                "radical candidate is not nilpotent; trace-form rank decision "
                "is unreliable for this input"
            )
    return rad


def _center_candidates(basis: np.ndarray, quot_coords: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Coefficient vectors spanning a complement of rad inside the preimage of
    the center of A/rad(A).

    Works in quotient coordinates: the unknowns are combinations of the q
    representatives ``quot_coords`` of A/rad, and a commutator counts by its
    coordinates along them, i.e. modulo rad. The candidates are the
    centralizer of two random elements (generically it is the center), found
    by one nullspace solve, and each is then verified against every
    representative; a candidate that fails raises, and the walk is retried
    with the next seed. The representatives suffice: rad is an ideal, so a
    commutator with a radical element lies in rad.
    """
    q, r = quot_coords.shape[1], basis.shape[1]
    reps = np.tensordot(quot_coords.T, basis, axes=(1, 0))
    Vq = reps.conj().reshape(q, r * r)

    def constraint_rows(g: np.ndarray) -> np.ndarray:
        """Quotient coordinates of the commutators [b_j, g], as a (q coords x q
        representatives) matrix."""
        comm = reps @ g - np.matmul(g[None, :, :], reps)
        return Vq @ comm.reshape(q, r * r).T

    def random_element() -> np.ndarray:
        c = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        c /= np.linalg.norm(c)
        return np.tensordot(c, reps, axes=(0, 0))

    rows = [constraint_rows(random_element()), constraint_rows(random_element())]
    # the nullspace cut and the verification below share the centrality bar
    S = nullspace(np.vstack(rows), CENTRALITY_BAR, scale=1.0)
    for col in S.T:
        resid = np.linalg.norm(constraint_rows(np.tensordot(col, reps, axes=(0, 0))), axis=0)
        if np.any(resid > CENTRALITY_BAR):
            raise NumericalDegeneracyError(
                "center candidate fails to commute modulo the radical "
                f"(residual {resid.max():.3e} > {CENTRALITY_BAR:g})")
    return quot_coords @ S


def _spectral_split(z: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Riesz projectors ``P = L R*`` of ``z`` onto its eigenvalue clusters,
    each as its factors ``(L, R*)`` (:func:`spectral_projector`).

    One complex Schur form ``z = Z T Z*`` serves the whole split: the
    eigenvalues are read off ``diag(T)``, a cluster is a set of indices into
    it, and each projector reorders that Schur form.
    Eigenvalues of elements with nilpotent parts of order s scatter like
    eps^(1/s) under roundoff, so a fixed clustering gap can cut through a
    single defective cloud. The gap therefore escalates through ``SPLIT_GAPS``,
    on the same Schur form, until every reordering and Sylvester solve of the
    split succeeds and every projector has ``||P||_F = ||R*||_F`` (L is
    orthonormal) at most ``SPLIT_PROJECTOR_NORM_CAP``; cutting a cloud
    produces wildly ill-conditioned projectors or a failed reordering. These
    are the only tests: with ``L = Zs[:, :k]`` and ``R* = L* + X Zs[:, k:]*``
    for a unitary ``Zs``, ``R* L = I_k`` up to roundoff, so every part is
    idempotent with trace k by construction. Returns None when no split with
    >= 2 parts passes. A cluster whose index set comes back at a later rung
    reuses the projector it passed with: the reordering and the Sylvester
    solve are deterministic in the Schur form and the selection. A part that
    failed is recomputed.
    """
    T, Z = schur(z)
    eigs = np.diag(T)
    kept: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}    # passed parts, by index set
    for gap in SPLIT_GAPS:
        groups = cluster_eigenvalues(eigs, gap)
        if len(groups) < 2:
            break  # larger gaps only merge further
        projs = []
        for g in groups:
            part = kept.get(g.tobytes()) or spectral_projector(T, Z, g)
            if part is None:
                break
            # ||P||_F = ||R*||_F: cutting through a defective cloud blows it
            # up or fails the reordering
            if frob(part[1]) > SPLIT_PROJECTOR_NORM_CAP:
                break
            kept[g.tobytes()] = part
            projs.append(part)
        else:
            return projs
    return None


class Corner(NamedTuple):
    """The corner E A'(T) E of an idempotent ``E = U W*`` of A'(T), in the
    orthonormal frame U of range(E), for the commutant A' of the compressed
    tuple U* T U (an orthonormal compression, so A' is as clean as a fresh
    computation even for very oblique E). ``W`` holds the row factor ``W* =
    U* E``. ``algebra_dim`` is dim A'.

    A free corner carries the spin-up presentation of A' without relations
    (``free``), on T or on T*: ``C^r`` is a free module of rank g, so ``A' =
    M_g(C[T])`` and ``A'/rad(A') = M_g``, one block of size g whose g
    primitives are known in closed form (:func:`_free_primitives`). Any other
    corner is read through a trace-orthonormal ``basis`` of A'; its
    ``quot_coords`` are the coefficient vectors of the trace-orthonormal
    complement of the radical, one representative per quotient direction.
    """

    U: np.ndarray                # (d, r) orthonormal frame of range(E)
    W: np.ndarray                # (r, d) row factor W* = U* E
    algebra_dim: int
    basis: np.ndarray | None = None
    quot_coords: np.ndarray | None = None
    free: SpinUp | None = None

    @property
    def quotient_dim(self) -> int:
        """dim A'/rad(A'): g^2 on a free corner."""
        if self.free is not None:
            return self.free.G.shape[1] ** 2
        return self.quot_coords.shape[1]

    @property
    def radical_dim(self) -> int:
        """dim rad(A') = dim A' - dim A'/rad."""
        return self.algebra_dim - self.quotient_dim


def _corner(T: OperatorTuple, U: np.ndarray, W: np.ndarray, policy: NumericPolicy,
            su: SpinUp | None) -> Corner:
    """The corner of an idempotent ``E = U W*`` of A'(T_0), read on the
    tuple ``T = U* T_0 U`` it compresses to (T_0 itself, with ``U = W = I``,
    for the whole space): free where the spin-up presents A'(T) without
    relations, on T or on T*, and otherwise through the basis of A'(T) that
    :func:`_commutant` gives, with its quotient coordinates. ``su`` is the
    presentation the caller built, None where there is none, so each
    corner's is built at most once."""
    if su is not None and su.Y is None:
        return Corner(U, W, su.K, free=su)
    basis = _commutant(T, su, policy).basis
    return Corner(U, W, basis.shape[0], basis, _radical_coords(basis, policy)[1])


def _corners(T: OperatorTuple, parts: list[tuple[np.ndarray, np.ndarray]],
             policy: NumericPolicy) -> list[Corner]:
    """The corners (:func:`_corner`) of the idempotents ``L R*`` of a split
    of A'(T), in the order of ``parts``. The parts of one width r are read
    as one stack: their compressions ``L* T_i L`` are one stacked product,
    and their presentations one :func:`_spin_up` call."""
    corners: list[Corner] = [None] * len(parts)
    for group in groups_by(parts, lambda part: part[0].shape[1]):
        L = np.stack([parts[j][0] for j in group])[:, None]
        tuples = [OperatorTuple(C) for C in
                  np.matmul(np.matmul(L.conj().transpose(0, 1, 3, 2), T.matrices), L)]
        for j, S, su in zip(group, tuples, _spin_up(tuples, policy)):
            corners[j] = _corner(S, *parts[j], policy, su)
    return corners


def _trace_form_vanishes(T: OperatorTuple, policy: NumericPolicy) -> bool:
    """Whether the first-level trace form ``F[i, j] = tr(N_i N_j)``, ``N_i =
    T_i - (tr T_i/d) I``, is zero to within the stack's cut.

    Commuting nilpotents have products of trace 0, so a nonzero F shows
    several joint eigenvalues; a zero F proves nothing (``X diag(1, w, w^2)
    X^-1``, w a cube root of unity, has three). F is formed as ``tr(T_i
    T_j) - tr T_i tr T_j / d``, with no copy of any ``T_i``, and cut by the
    package's rank decision without strictness: the answer only routes
    :func:`_primary_corners`, where a wrong zero costs one refused
    presentation and a wrong nonzero the Schur draw of the split.
    """
    M = T.matrices
    tr = np.trace(M, axis1=1, axis2=2)
    F = np.einsum("iab,jba->ij", M, M) - np.outer(tr, tr) / T.d
    rtol, scale = _stack_cut(T, T, policy)
    return rank_cut(svdvals_robust(F), rtol, scale=scale * scale, strict=False) == 0


def _primary_corners(T: OperatorTuple, policy: NumericPolicy) -> list[Corner]:
    """Root corners of A'(T), one per joint-spectrum cluster of ``T``, drawn
    from the policy's seed; every reader of a whole tuple's A' starts here.
    The corners of an accepted split are read by :func:`_corners`, one
    stack per width: one stacked compression and one :func:`_spin_up` call.

    A tuple with one joint eigenvalue has one root, the whole space. When
    the first-level trace form vanishes (:func:`_trace_form_vanishes`), the
    whole space is presented first: a presentation that :func:`_spin_up`
    does not refuse certifies one joint eigenvalue by the trace form of its
    words, and it is the one root, with no Schur form drawn.
    Otherwise, or when that presentation is refused, the space is split:
    the Riesz projectors of a random ``z = sum_i c_i T_i`` are polynomials in
    an element of the center of A'(T), hence central idempotents, and A'(T)
    is the direct sum of the commutants of the restrictions to their ranges
    (primary decomposition). Each part is therefore a commutant of dimension
    d_j instead of d, with one joint eigenvalue, where the spin-up applies. A
    split is accepted only if every projector ``L R*`` commutes with every
    T_i to within PRIMARY_COMMUTE_BAR.
    A draw with a single cluster ends the search, because generic
    draws see the same joint-spectrum clusters; then, or when no draw
    qualifies, the one root is the commutant of ``T`` on the whole space,
    read from the Sylvester stack.

    A nonzero trace form is final: the whole space is not presented. The
    form reads nonzero when ``sigma_1(F) > rtol * scale^2``; the level-1
    words span the ``N_i`` (to within that level's cut), with coefficients
    C of ``||C||_2^2 <= sum_i ||N_i||_F^2 <= m * scale^2``, so their trace
    form, a block of the words' form, has ``sigma_1 > rtol / m``. The
    spin-up refuses a word form above ``rtol / 10``, so it refuses this one
    for every arity ``m <= 10``; a larger arity could pass only with a form
    within a factor ``m / 10`` of the cut, and the stack reads the root then.
    """
    eye = np.eye(T.d, dtype=complex)
    su = _spin_up([T], policy)[0] if _trace_form_vanishes(T, policy) else None
    if su is None:
        rng = np.random.default_rng(policy.seed)
        for _ in range(SPLIT_ATTEMPTS):
            c = rng.standard_normal(T.m) + 1j * rng.standard_normal(T.m)
            projs = _spectral_split(np.tensordot(c, T.matrices, axes=(0, 0)))
            if projs is None:
                break
            if all(frob(L @ (R @ A) - (A @ L) @ R)
                   <= PRIMARY_COMMUTE_BAR * frob(R) * max(1.0, frob(A))
                   for L, R in projs for A in T):
                return _corners(T, projs, policy)
    return [_corner(T, eye, eye, policy, su)]


def _split_by_random_element(c: Corner, C: np.ndarray, parts: int,
                             rng: np.random.Generator,
                             equal: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
    """Idempotents of a split of the corner ``c`` into exactly ``parts`` Riesz
    projectors of random elements drawn from the span of the coefficient
    vectors C (p, kappa) against ``c.basis``, in the ambient frame; with
    ``equal``, the parts must have equal ranks. A part ``Z R*`` of the
    corner's split is returned as the factors ``(U Z, R* W*)``.

    A draw whose split has another number of parts, or unequal
    ranks when they must be equal, is skipped: a generic element separates
    all the parts the algebra counts, so such a split merged some of them or
    cut a defective cloud. Of the rest, a split whose worst projector norm is at
    most ``GOOD_SPLIT_NORM`` is accepted at once; otherwise the
    best-conditioned split over ``SPLIT_ATTEMPTS`` draws is taken, and none
    raises. The projectors are used as :func:`_spectral_split` returns them,
    idempotent to roundoff by construction.
    """
    best: list[tuple[np.ndarray, np.ndarray]] | None = None
    best_quality = np.inf
    for _ in range(SPLIT_ATTEMPTS):
        x = rng.standard_normal(C.shape[1]) + 1j * rng.standard_normal(C.shape[1])
        x /= np.linalg.norm(x)
        projs = _spectral_split(np.tensordot(C @ x, c.basis, axes=(0, 0)))
        if projs is None or len(projs) != parts \
                or (equal and len({Z.shape[1] for Z, _ in projs}) > 1):
            continue
        quality = max(frob(R) for _, R in projs)
        if quality < best_quality:
            best, best_quality = projs, quality
        if quality <= GOOD_SPLIT_NORM:
            break
    if best is None:
        raise NumericalDegeneracyError(
            f"no random element split a corner into {parts}{' equal' if equal else ''} "
            f"parts in {SPLIT_ATTEMPTS} draws")
    return [(c.U @ Z, R @ c.W) for Z, R in best]


def _free_primitives(c: Corner) -> list[tuple[np.ndarray, np.ndarray]]:
    """The g primitives of a free corner, in the ambient frame, as factors.

    With ``C^r = B G_1 (+) ... (+) B G_g`` free over ``B = C[T]``, the
    projection X_i onto the i-th summand is the module map with value ``X_i G
    = G E_ii``, ``X_i = [b_a G E_ii]_a Phi^+ = S_i M_i``: the ``r/g`` columns
    ``S_i = [b_a G e_i]_a`` span the summand, and ``M_i`` are the matching
    rows ``a*g + i`` of ``Phi^+``. On a presentation of T* the primitives of
    A'(T) are the adjoints ``X_i* = M_i* S_i*``, so the two factors swap
    roles: ``M_i*`` spans the range. With the QR factors ``S_i = Q_i R_i``
    (``M_i* = Q_i R_i`` on T*), the primitive carried to the ambient frame is
    ``U X_i W* = L_i (R_i M_i W*)`` (``L_i (R_i S_i* W*)`` on T*), read off
    the presentation with its frame ``L_i = U Q_i`` and no d x d product. By
    construction the primitives are idempotent, annihilate each other, sum
    to I and have rank ``r/g`` each: ``Phi`` is square, so ``M_i S_i = I``,
    and with ``W* U = I`` the factors satisfy ``rows_i frames_i = R_i M_i S_i
    R_i^-1 = I`` (on T* likewise), which leaves nothing to check.
    """
    su = c.free
    r, g = su.G.shape
    nb = su.B.shape[0]
    S = np.matmul(su.B, su.G).transpose(2, 1, 0)                    # S_i: (g, r, nb)
    M = su.pinv.reshape(nb, g, r).transpose(1, 0, 2)                # M_i: (g, nb, r)
    if su.adjoint:
        S, M = M.conj().transpose(0, 2, 1), S.conj().transpose(0, 2, 1)
    Q, R = np.linalg.qr(S)
    frames = c.U @ Q
    rows = R @ M @ c.W
    return list(zip(frames, rows))


class AlgebraStructure(NamedTuple):
    """Simple-block data of A/rad(A) with block idempotents lifted into A.

    Every idempotent is held as its factors ``P = L R*``, an orthonormal
    frame L of its range and a row factor R*, kept from where it is built:
    a block's frame is that of its corner, and a primitive's is its block's
    when the block is M_1, the QR factor of its summand ``B G_i`` on a free
    block, and the Schur frame of its Riesz split otherwise. The dense
    idempotents are formed only on request.
    """

    algebra_dim: int
    radical_dim: int
    block_dims: tuple[int, ...]              # n_1 >= ... >= n_k
    # the factors of the k block idempotents and of the n_i primitives of each
    block_frames: tuple[np.ndarray, ...]
    block_rows: tuple[np.ndarray, ...]
    frames: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...]

    @property
    def k(self) -> int:
        return len(self.block_dims)

    @property
    def central_idempotents(self) -> np.ndarray:
        """The block idempotents, dense (k, d, d)."""
        return np.stack([L @ R for L, R in zip(self.block_frames, self.block_rows)])

    @property
    def primitives(self) -> np.ndarray:
        """The primitive idempotents, dense (sum n_i, d, d)."""
        return np.stack([L @ R for L, R in zip(self.frames, self.rows)])


def _blocks(T: OperatorTuple, root: Corner, policy: NumericPolicy,
            rng: np.random.Generator) -> list[Corner]:
    """Corners of the simple blocks of a root. A free root is one block M_g.
    Otherwise the center of the root's quotient has as many dimensions as it
    has blocks, so one split by random central elements gives them all, and
    a root with a one-dimensional center is one block. Each block's corner
    is built afresh (:func:`_corner`) on the frame of its split."""
    if root.free is not None:
        return [root]
    cen = _center_candidates(root.basis, root.quot_coords, rng)
    k = cen.shape[1]
    if k <= 1:
        return [root]
    return _corners(T, _split_by_random_element(root, cen, k, rng), policy)


def _structure_once(T: OperatorTuple, roots: list[Corner], policy: NumericPolicy,
                    seed: int) -> AlgebraStructure:
    rng = np.random.default_rng(seed)
    blocks: list[tuple[Corner, int]] = []
    for root in roots:
        found = [(c, math.isqrt(c.quotient_dim)) for c in _blocks(T, root, policy, rng)]
        for c, n in found:
            if n * n != c.quotient_dim:
                raise NumericalDegeneracyError(
                    f"quotient of a simple block has dimension {c.quotient_dim}, not a square")
        # the accounting identity sum n_i^2 + dim rad A' = dim A', i.e. sum
        # n_i^2 = dim A'/rad
        if sum(n * n for _, n in found) != root.quotient_dim:
            raise NumericalDegeneracyError(
                "block dimensions and radical do not account for the algebra dimension: "
                f"{[n for _, n in found]} + rad {root.radical_dim} != {root.algebra_dim}")
        blocks.extend(found)
    # by size, then by rank; the sort is stable, so equal blocks keep the
    # order in which the walk found them
    blocks.sort(key=lambda cn: (-cn[1], -cn[0].U.shape[1]))
    dims = tuple(n for _, n in blocks)
    # a block M_n has n primitives of equal rank: a free block's are known,
    # and a random element of any other block's corner separates them at once
    rng = np.random.default_rng(seed + 0x5EED)
    prims: list[tuple[np.ndarray, np.ndarray]] = []
    for c, n in blocks:
        if n == 1:
            prims.append((c.U, c.W))
        elif c.free is not None:
            prims.extend(_free_primitives(c))
        else:
            prims.extend(_split_by_random_element(
                c, np.eye(c.basis.shape[0], dtype=complex), n, rng, equal=True))
    return AlgebraStructure(sum(root.algebra_dim for root in roots),
                            sum(root.radical_dim for root in roots), dims,
                            tuple(c.U for c, _ in blocks), tuple(c.W for c, _ in blocks),
                            tuple(L for L, _ in prims), tuple(R for _, R in prims))


def semisimple_structure(T: OperatorTuple,
                         policy: NumericPolicy = DEFAULT_POLICY) -> AlgebraStructure:
    """Simple-block decomposition of A'(T)/rad: lifted block idempotents and primitives.

    The roots are the primary corners of ``T`` (:func:`_primary_corners`:
    the whole space, presented before any Schur form is drawn, when the
    spin-up certifies one joint eigenvalue, and otherwise one per
    joint-spectrum cluster, split once with the policy's seed); every
    corner is the commutant A' of a compressed restriction of ``T``
    (:class:`Corner`). A free corner, which the spin-up presents without
    relations on T or on T*, is one block ``M_g`` with its g primitives in closed form and takes no
    walk. Any other corner is read through a trace-orthonormal basis of A'.
    One seeded walk then splits each such corner once, into the number of
    parts its algebra counts, in two flat stages: each root by random central
    elements into the k blocks that the dimension of its quotient's center
    counts (:func:`_blocks`; each block gets a corner, on the Schur frame of
    its split), and each block M_n by random elements of its corner into n
    primitives of equal rank, which get no corner but keep the frame of
    their range (:class:`AlgebraStructure`). Both stages use
    :func:`_split_by_random_element`, which skips a draw whose split has
    another number of parts. (k, block sizes) are intrinsic, and the result
    is held to deterministic certificates: every block's quotient is a
    square, each root's accounting identity ``sum n_i^2 + dim rad A' = dim
    A'`` holds, and a block M_n that is not free splits into n primitives of
    equal rank; the last catches a center read too small, which takes
    several blocks for one. (A free block's g primitives have rank ``r/g``
    each by construction, and every split partitions its Schur indices, so
    the frame widths sum to d exactly.) A walk that fails one of them is
    retried with the next seed, up to ``STRUCTURE_SEEDS`` seeds, and the
    last error is raised if none succeeds. The idempotents sum to I by
    construction, so only ``UnitDecomposition.validate`` checks it: each
    split partitions its Schur indices, and its projectors' norms stay under
    ``SPLIT_PROJECTOR_NORM_CAP``.
    """
    roots = _primary_corners(T, policy)
    for attempt in range(STRUCTURE_SEEDS):
        try:
            return _structure_once(T, roots, policy, policy.seed + attempt)
        except NumericalDegeneracyError as exc:
            last_error = exc
    raise last_error
