"""Truncated multishift models of diagonal-kernel function spaces.

A diagonal kernel on the unit ball is determined by a positive coefficient
rule ``fhat`` on multi-indices; the associated multiplication tuple acts on
the orthonormal monomial basis as a weighted raising operator with weights
``w_i(alpha) = sqrt(fhat(alpha) / fhat(alpha + e_i))``, and its adjoint is the
weighted lowering (backward) multishift. Truncation compresses onto the span
of basis vectors of degree at most ``dmax``: forward shifts lose top-degree
mass, adjoints are exact on the grid, so identity checks are stated on the
interior (degrees below ``dmax``) where compression is invisible.

Presets: the ball kernel with coefficients ``|alpha|!/alpha!`` (the universal
row-contraction model), the weighted Bergman-type kernels
``1/(1 - <z,w>)^k`` with coefficients ``Gamma(k+|alpha|)/(alpha! Gamma(k))``,
and the flat (Hardy-like) rule ``fhat = 1``. Coefficients are evaluated
through log-gamma so large degree caps do not overflow.

Convention: mode="adjoint" is the backward multishift (the lowering tuple).
"""
from __future__ import annotations

import math
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from ._linalg import commutator_norms, component_labels, frob, groups_by, \
    label_groups, matmul, min_eig_hermitian, nullspaces
from .policy import DEFAULT_POLICY, MODEL_PROJECTION_BAR, MODEL_SOLVABILITY_BAR, PSD_TOL, \
    SYMBOL_NORM_SLACK, NumericPolicy
from .tuples import OperatorTuple, joint_kernel

MultiIndex = tuple[int, ...]


class TruncationGrid(NamedTuple):
    """Graded enumeration of all multi-indices with |alpha| <= dmax."""

    m: int
    dmax: int
    indices: tuple[MultiIndex, ...]
    index_of: dict[MultiIndex, int]

    @classmethod
    def build(cls, m: int, dmax: int, order: str = "grlex") -> "TruncationGrid":
        """``order``: "grlex" (lexicographic within a grade) or "grevlex"
        (reversed-tuple lexicographic within a grade)."""
        if m < 1 or dmax < 0:
            raise ValueError("need m >= 1 and dmax >= 0")
        if order not in ("grlex", "grevlex"):
            raise ValueError(f"unknown enumeration order {order!r}")
        # grade n by stars and bars: the m - 1 bar positions among n + m - 1
        # slots, taken in lexicographic order, give the parts of n in
        # lexicographic order; grevlex reads each of them backwards
        alphas = []
        for n in range(dmax + 1):
            for bars in combinations(range(n + m - 1), m - 1):
                edges = (-1, *bars, n + m - 1)
                a = tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))
                alphas.append(a if order == "grlex" else a[::-1])
        idx = {a: i for i, a in enumerate(alphas)}
        return cls(m, dmax, tuple(alphas), idx)

    @property
    def size(self) -> int:
        return len(self.indices)

    def degrees(self) -> np.ndarray:
        return np.array([sum(a) for a in self.indices])

    def interior(self) -> np.ndarray:
        """Boolean mask of basis labels of degree < dmax."""
        return self.degrees() < self.dmax


class DiagonalKernelSpec(NamedTuple):
    """Positive coefficient rule alpha -> fhat(alpha) defining the kernel."""

    m: int
    preset: str                                   # drury_arveson | bergman_k | hardy_like | custom
    k: float | None = None
    table: dict[MultiIndex, float] | None = None

    @classmethod
    def drury_arveson(cls, m: int) -> "DiagonalKernelSpec":
        return cls(m, "drury_arveson")

    @classmethod
    def bergman(cls, m: int, k: float) -> "DiagonalKernelSpec":
        if k <= 0:
            raise ValueError("kernel exponent must be positive")
        return cls(m, "bergman_k", k=float(k))

    @classmethod
    def hardy(cls, m: int) -> "DiagonalKernelSpec":
        return cls(m, "hardy_like")

    @classmethod
    def custom(cls, m: int, table: dict[MultiIndex, float]) -> "DiagonalKernelSpec":
        for a, v in table.items():
            if len(a) != m:
                raise ValueError(f"index {a} has wrong length")
            if not v > 0:
                raise ValueError(f"coefficient at {a} is not positive")
        return cls(m, "custom", table=dict(table))

    def log_fhat(self, alpha: MultiIndex) -> float:
        if len(alpha) != self.m or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha}")
        n = sum(alpha)
        if self.preset == "drury_arveson":
            return math.lgamma(n + 1) - sum(math.lgamma(a + 1) for a in alpha)
        if self.preset == "bergman_k":
            return (math.lgamma(self.k + n) - math.lgamma(self.k)
                    - sum(math.lgamma(a + 1) for a in alpha))
        if self.preset == "hardy_like":
            return 0.0
        if self.preset == "custom":
            v = self.table.get(tuple(alpha))
            if v is None:
                raise ValueError(f"coefficient rule has no entry for {alpha}")
            return math.log(v)
        raise ValueError(f"unknown preset {self.preset!r}")

    def fhat(self, alpha: MultiIndex) -> float:
        return math.exp(self.log_fhat(alpha))


def multishift_weights(spec: DiagonalKernelSpec, grid: TruncationGrid) -> np.ndarray:
    """Per-direction weights w_i(alpha) = sqrt(fhat(alpha)/fhat(alpha+e_i)),
    shaped (m, grid.size). The raising action is e_alpha -> w_i(alpha)
    e_{alpha+e_i}; equivalently the lowering action takes e_{alpha+e_i} to
    w_i(alpha) e_alpha."""
    if spec.m != grid.m:
        raise ValueError("spec and grid arity disagree")
    lf = [spec.log_fhat(a) for a in grid.indices]   # an upper neighbour on the grid reuses its own
    W = np.empty((grid.m, grid.size))
    for j, a in enumerate(grid.indices):
        for i in range(grid.m):
            up = a[:i] + (a[i] + 1,) + a[i + 1:]
            k = grid.index_of.get(up)
            W[i, j] = math.exp(0.5 * (lf[j] - (spec.log_fhat(up) if k is None else lf[k])))
    return W


def truncated_tuple(spec: DiagonalKernelSpec, grid: TruncationGrid,
                    mode: str = "adjoint") -> OperatorTuple:
    """Compression of the multishift tuple onto the grid.

    mode="forward": weighted raising operators, entries that would exceed the
    degree cap are dropped. mode="adjoint": exact matrix adjoint of the
    forward compression — the backward multishift, which commutes without
    boundary loss: the grid is a down-set and the weight products telescope.
    """
    if mode not in ("forward", "adjoint"):
        raise ValueError(f"unknown mode {mode!r}")
    W = multishift_weights(spec, grid)
    n = grid.size
    mats = np.zeros((grid.m, n, n), dtype=complex)
    for j, a in enumerate(grid.indices):
        for i in range(grid.m):
            up = list(a)
            up[i] += 1
            tgt = grid.index_of.get(tuple(up))
            if tgt is not None:
                mats[i, tgt, j] = W[i, j]
    if mode == "adjoint":
        mats = np.conj(np.transpose(mats, (0, 2, 1)))
    return OperatorTuple(mats)


def joint_eigenvector(spec: DiagonalKernelSpec, grid: TruncationGrid, w,
                      tuple_adjoint: OperatorTuple | None = None):
    """Coefficients a_alpha = sqrt(fhat(alpha)) w^alpha of the joint
    eigenvector of the backward multishift at an interior point w.

    Returns (vector, relative residual of (T - w) v); the residual is purely a
    top-degree truncation effect and shrinks as dmax grows.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    if w.shape != (grid.m,):
        raise ValueError(f"point must have {grid.m} coordinates")
    v = np.empty(grid.size, dtype=complex)
    for j, a in enumerate(grid.indices):
        mono = np.prod(np.power(w, a)) if sum(a) else 1.0 + 0j
        v[j] = math.exp(0.5 * spec.log_fhat(a)) * mono
    T = tuple_adjoint if tuple_adjoint is not None else truncated_tuple(spec, grid, "adjoint")
    resid = np.sqrt(sum(
        float(np.linalg.norm(T[i] @ v - w[i] * v) ** 2) for i in range(grid.m)
    ))
    return v, resid / float(np.linalg.norm(v))


class DefectReport(NamedTuple):
    defect: np.ndarray
    projection_residual: float       # || D^2 - D ||_F
    rank_one_residual: float         # || D - e0 e0* ||_F
    vacuum_index: int


def defect_operator(T: OperatorTuple, grid: TruncationGrid) -> DefectReport:
    """Defect I - sum_i T_i* T_i of a backward multishift tuple.

    For the ball-kernel preset the defect equals the rank-one projection onto
    the vacuum basis vector exactly on the whole grid, because lowering then
    raising never escapes the truncation. The products are
    :func:`~sidecomp._linalg.matmul`'s, gathered by index on a multishift.
    """
    d = T.d
    S = sum(matmul(T[i].conj().T, T[i]) for i in range(T.m))
    D = np.eye(d) - S
    vac = grid.index_of[(0,) * grid.m]
    E = np.zeros((d, d), dtype=complex)
    E[vac, vac] = 1.0
    return DefectReport(D, frob(matmul(D, D) - D), frob(D - E), vac)


class PSequenceReport(NamedTuple):
    operators: list[np.ndarray]          # P_0 ... P_nmax
    min_eigs: list[float]
    step_min_eigs: list[float]           # min eig of P_n - P_{n+1}
    vanish_max_abs: list[float]          # max |P_n e_alpha| over |alpha| < n
    psd_ok: bool
    monotone_ok: bool
    vanish_exact: bool


def p_sequence(T: OperatorTuple, grid: TruncationGrid, n_max: int) -> PSequenceReport:
    """The positive-operator chain P_0 = I, P_{n+1} = sum_i T_i* P_n T_i.

    For a backward multishift: each P_n is PSD, the chain is nonincreasing,
    and P_n annihilates every basis vector of degree below n — exactly, by
    sparsity of the recursion. ``T_i* P_n T_i`` is formed as ``T_i* (P_n
    T_i)`` by :func:`~sidecomp._linalg.matmul`: on a multishift every P_n is
    exactly diagonal and each product is gathered by index.
    """
    if n_max > grid.dmax:
        raise ValueError(f"n_max {n_max} exceeds the grid degree cap {grid.dmax}")
    d = T.d
    degs = grid.degrees()
    adj = [A.conj().T for A in T]
    ops = [np.eye(d, dtype=complex)]
    for _ in range(n_max):
        P = ops[-1]
        ops.append(sum(matmul(adj[i], matmul(P, T[i])) for i in range(T.m)))
    min_eigs = [min_eig_hermitian(P) for P in ops]
    steps = [min_eig_hermitian(ops[n] - ops[n + 1]) for n in range(n_max)]
    vanish = []
    for n, P in enumerate(ops):
        cols = np.where(degs < n)[0]
        vanish.append(float(np.abs(P[:, cols]).max()) if cols.size else 0.0)
    return PSequenceReport(
        ops, min_eigs, steps, vanish,
        psd_ok=all(e >= -PSD_TOL for e in min_eigs),
        monotone_ok=all(e >= -PSD_TOL for e in steps),
        vanish_exact=all(v == 0.0 for v in vanish),
    )


def p_sequence_closed_form(T: OperatorTuple, grid: TruncationGrid, n: int) -> np.ndarray:
    """Independent evaluation P_n = sum_{|beta|=n} (n choose beta) (T^beta)* T^beta
    with exact integer multinomials (cross-check for the recursion)."""
    d = T.d
    out = np.zeros((d, d), dtype=complex)
    for beta in product(range(n + 1), repeat=T.m):
        if sum(beta) != n:
            continue
        coef = math.factorial(n)
        for b in beta:
            coef //= math.factorial(b)
        word = np.eye(d, dtype=complex)
        for i, b in enumerate(beta):
            for _ in range(b):
                word = T[i] @ word
        out += coef * (word.conj().T @ word)
    return out


def spherical_shift(grid: TruncationGrid) -> OperatorTuple:
    """The raising tuple V_i e_alpha = sqrt((alpha_i+1)/(|alpha|+m)) e_{alpha+e_i},
    compressed onto the grid: the forward multishift of the Bergman-type
    kernel with k = m (the Hardy space of the ball), whose weights are these.
    On interior labels sum_i V_i* V_i acts as the identity (the defining
    isometry identity); top-degree rows are boundary and the identity is not
    asserted there."""
    return truncated_tuple(DiagonalKernelSpec.bergman(grid.m, grid.m), grid, "forward")


class SphereReport(NamedTuple):
    row_contraction: bool
    spherical_isometry: bool
    spherical_unitary: bool
    hypercontraction: dict[int, bool]
    isometry_residual: float
    normality_residual: float
    defect_min_eig: float            # min eig of I - sum T_i* T_i
    row_defect_min_eig: float        # min eig of I - sum T_i T_i*


def check_sphere_conditions(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY,
                            n_hyper: int = 2,
                            mask: np.ndarray | None = None) -> SphereReport:
    """Evaluate the sphere-geometry predicates for a tuple.

    row contraction: sum T_i T_i* <= I; spherical isometry: sum T_i* T_i = I;
    spherical unitary: isometry with every component normal;
    n-hypercontraction: (I - sum T_i* T_i)^k PSD for k = 1..n_hyper.
    ``mask`` (boolean, one entry per ambient coordinate) restricts the
    isometry test to a subspace (e.g. interior labels of a truncation, where
    compression is invisible); a mask of any other length raises ValueError.
    The products are :func:`~sidecomp._linalg.matmul`'s, gathered by index on
    a multishift.
    """
    d = T.d
    S = sum(matmul(A.conj().T, A) for A in T)
    R = sum(matmul(A, A.conj().T) for A in T)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (d,):
            raise ValueError(f"mask must have {d} entries")
        idx = np.where(mask)[0]
        iso_res = frob(S[np.ix_(idx, idx)] - np.eye(idx.size)) \
            + frob(S[np.ix_(np.flatnonzero(~mask), idx)])
    else:
        iso_res = frob(S - np.eye(d))
    norm_res = max(frob(matmul(A, A.conj().T) - matmul(A.conj().T, A)) for A in T)
    defect = np.eye(d) - S
    defect_min_eig = min_eig_hermitian(defect)
    hyper = {1: defect_min_eig >= -PSD_TOL} if n_hyper >= 1 else {}
    power = defect
    for k in range(2, n_hyper + 1):
        power = matmul(power, defect)
        hyper[k] = min_eig_hermitian(power) >= -PSD_TOL
    iso_ok = iso_res <= policy.tol * max(1.0, math.sqrt(d))
    row_defect = min_eig_hermitian(np.eye(d) - R)
    return SphereReport(
        row_contraction=row_defect >= -PSD_TOL,
        spherical_isometry=iso_ok,
        spherical_unitary=iso_ok and norm_res <= policy.tol * max(1.0, math.sqrt(d)),
        hypercontraction=hyper,
        isometry_residual=float(iso_res),
        normality_residual=float(norm_res),
        defect_min_eig=defect_min_eig,
        row_defect_min_eig=row_defect,
    )


class ModelHypothesesReport(NamedTuple):
    projection_residual: float
    projection_ok: bool
    compatibility_dim: int
    solve_max_residual: float
    solvability_ok: bool
    model_consistent: bool


def check_model_hypotheses(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY,
                           coordinate_mask: np.ndarray | None = None) -> ModelHypothesesReport:
    """Check the two dilation-model hypotheses on concrete data.

    (1) sum_i T_i* T_i is a projection (residual of S^2 - S at 1e-10);
    (2) every compatible family (x_1, ..., x_m) with T_i x_j = T_j x_i is of
    the form x_i = T_i x, i.e. the Koszul complex is exact in its middle
    term. Decided exactly: one least-squares solve against an orthonormal
    basis of the compatible families; the largest singular value of its
    residual, the worst relative residual of any unit compatible family, is
    reported and must stay below 1e-8. No random numbers are drawn.

    Both the Koszul stack (the equations ``T_i x_j - T_j x_i = 0`` in the
    free coordinates) and the stacked tuple ``[T_1; ...; T_m]`` of the solve
    split into blocks: two free coordinates are coupled when they share a
    row of the stack or a column of the stacked tuple, and both matrices are
    block diagonal in the permutation that groups the components of that
    coupling. So each component is solved on its own (a multishift's have at
    most m coordinates each; a dense tuple has one): the compatible families
    are the sum of the blocks' nullspaces, cut as the whole stack's at ``rtol
    * max(sigma_max, scale)`` with ``sigma_max`` the largest over the blocks,
    and the solve's residual is the largest block residual.

    The components are handled by shape: the blocks of one shape are read
    off T at once (no dense Koszul stack is built) and share one stacked SVD
    (:func:`~sidecomp._linalg.nullspaces`, whose ``joint`` cut is that of
    the whole stack), and the residuals of one shape share one stacked
    2-norm; each least-squares solve stays one component at a time. ``S``
    and ``S^2`` are
    :func:`~sidecomp._linalg.matmul`'s products, gathered by index on a
    multishift.

    ``coordinate_mask`` (boolean, per ambient coordinate) restricts the
    compatible data to the marked coordinates in every component — for
    truncations, restricting to interior labels removes pure boundary
    artifacts that no in-grid solution can reach.
    """
    d, m = T.d, T.m
    S = sum(matmul(A.conj().T, A) for A in T)
    proj_res = frob(matmul(S, S) - S)
    proj_ok = proj_res <= MODEL_PROJECTION_BAR * max(1.0, frob(S))

    mask = np.ones(d, dtype=bool) if coordinate_mask is None \
        else np.asarray(coordinate_mask, dtype=bool)
    if mask.shape != (d,):
        raise ValueError(f"coordinate_mask must have {d} entries")
    keep = np.flatnonzero(mask)
    cols = np.concatenate([c * d + keep for c in range(m)])
    pairs = np.array([(i, j) for i in range(m) for j in range(i + 1, m)], dtype=int).reshape(-1, 2)
    n_rows = len(pairs) * d
    A_stack = T.matrices.reshape(m * d, d)

    def stack_entries(r, c):
        """Entries of the Koszul stack at its rows r and ambient coordinates c:
        row ``p d + s`` of the pair ``p = (i, j)`` holds row s of ``T_i`` at
        the coordinates of ``x_j`` and of ``-T_j`` at those of ``x_i``."""
        (p, s), (k, t) = np.divmod(r, d), np.divmod(c, d)
        i, j = pairs[p, 0], pairs[p, 1]
        return np.where(k == j, T.matrices[i, s, t], np.where(k == i, -T.matrices[j, s, t], 0))

    # the nonzeros of the stacked tuple, and those of the stack: a nonzero
    # (s, t) of T_k sits in row p d + s of each pair p that holds k, at the
    # coordinate t of the pair's other unknown, when that one is free
    coords, xs = np.nonzero(A_stack.astype(bool))
    k, s = np.divmod(coords, d)
    free_at = np.full(m * d, -1)
    free_at[cols] = np.arange(cols.size)
    rows, free = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for p, (i, j) in enumerate(pairs):
        for a, b in ((i, j), (j, i)):
            rows.append(p * d + s[k == a])
            free.append(free_at[b * d + xs[k == a]])
    rows, free = np.concatenate(rows), np.concatenate(free)
    rows, free = rows[free >= 0], free[free >= 0]

    # graph nodes: the m d coordinates (rows of A_stack), then the d columns
    # of A_stack, then the rows of the stack
    md = m * d
    label = component_labels(md + d + n_rows, np.concatenate([cols[free], coords]),
                             np.concatenate([md + d + rows, md + xs]))
    roots = np.flatnonzero(np.bincount(label[cols]))   # the labels present, ascending
    comps = list(zip(label_groups(label[md + d:], roots), label_groups(label[cols], roots),
                     label_groups(label[:md], roots), label_groups(label[md:md + d], roots)))
    blocks = [None] * len(comps)
    for group in groups_by(comps, lambda c: (c[0].size, c[1].size)):
        R, F = (np.array([comps[n][h] for n in group], dtype=int) for h in (0, 1))
        for n, B in zip(group, stack_entries(R[:, :, None], cols[F][:, None, :])):
            blocks[n] = B
    bases = nullspaces(blocks, max(n_rows, cols.size) * policy.rank_rtol,
                       [max(1.0, max(frob(A) for A in T))] * len(blocks), joint=True)

    resids: dict[tuple[int, int], list[np.ndarray]] = {}
    for group in groups_by(comps, lambda c: (c[1].size, c[2].size, c[3].size)):
        F, Q, X = (np.array([comps[n][h] for n in group], dtype=int) for h in (1, 2, 3))
        # the row of each free coordinate among its component's coordinates,
        # and the component's block of the stacked tuple
        at = np.argmax(Q[:, :, None] == cols[F][:, None, :], axis=1)
        As = A_stack[Q[:, :, None], X[:, None, :]]
        for n, row, A in zip(group, at, As):
            N = bases[n]
            if N.shape[1] == 0:
                continue
            compat = np.zeros((A.shape[0], N.shape[1]), dtype=complex)
            compat[row] = N
            resid = compat
            if A.shape[1]:
                Y, *_ = np.linalg.lstsq(A, compat, rcond=None)
                resid = A @ Y - compat
            resids.setdefault(resid.shape, []).append(resid)
    worst = max([0.0] + [float(np.linalg.norm(np.stack(R), 2, axis=(1, 2)).max())
                         for R in resids.values()])
    dim = sum(N.shape[1] for N in bases)
    solv_ok = worst <= MODEL_SOLVABILITY_BAR
    return ModelHypothesesReport(
        float(proj_res), bool(proj_ok), int(dim), worst, bool(solv_ok),
        bool(proj_ok and solv_ok),
    )


class GammaSample(NamedTuple):
    point: np.ndarray
    symbol: np.ndarray               # kernel_dim x kernel_dim, scalar when 1x1
    kernel_dim: int
    invariance_residual: float


class GammaTransformReport(NamedTuple):
    samples: list[GammaSample]
    skipped: list[np.ndarray]        # points with empty joint kernel
    contraction_ok: bool
    operator_norm: float


def gamma_transform(T: OperatorTuple, A: np.ndarray, points,
                    policy: NumericPolicy = DEFAULT_POLICY) -> GammaTransformReport:
    """Sample the symbol of a commutant element on joint kernels.

    For each point w the action of A on ker(T - w) is expressed in an
    orthonormal kernel basis; A must commute with the tuple (checked), which
    makes the kernel invariant. The compression never exceeds the operator
    norm of A, which is verified per sample.
    """
    A = np.asarray(A, dtype=complex)
    for B, resid in zip(T, commutator_norms(A[None], T)[0]):
        if resid > policy.tol * max(1.0, frob(A) * frob(B)):
            raise ValueError("symbol source does not commute with the tuple")
    nA = float(np.linalg.norm(A, 2))
    samples, skipped = [], []
    ok = True
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    for w in pts:
        kb = joint_kernel(T, w, policy)
        if kb.dimension == 0:
            skipped.append(w)
            continue
        V = kb.basis
        sym = V.conj().T @ A @ V
        inv_res = float(np.linalg.norm(A @ V - V @ sym))
        ok = ok and (np.linalg.norm(sym, 2) <= nA + SYMBOL_NORM_SLACK)
        samples.append(GammaSample(w, sym, kb.dimension, inv_res))
    return GammaTransformReport(samples, skipped, bool(ok), nA)
