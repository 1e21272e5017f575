"""Low-level dense linear algebra shared across the package.

Conventions: matrices are numpy complex arrays; ``vec`` is row-major
(C-order) flattening, so ``vec(AXB) = (A . kron . B^T) vec(X)``.

Every rank is decided by :func:`rank_cut` (:func:`strict_rank` reads its
straddle as None), and every nullspace by :func:`nullspaces`: a list or
stack of matrices of any shapes, one stacked SVD per shape, each matrix cut
at its own scale, or, with ``joint``, as the blocks of one block-diagonal
matrix. :func:`nullspace` is its call on one matrix.

The LAPACK routines numpy lacks (``zgees`` for :func:`schur`, ``ztrsen``
and ``ztrsyl`` for :func:`spectral_projector`, ``gesvd`` for the fallbacks
of the SVDs) come from scipy's compiled wrapper module ``_flapack``, which
:func:`_flapack` loads on first use by itself, in about 5 ms, without
running the ``__init__`` of ``scipy`` or ``scipy.linalg`` (about 0.3 s).
No module of the package imports scipy: the package and the commands that
split no spectrum run on numpy alone.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .policy import NULLSPACE_ORTHO_BAR, NumericalDegeneracyError


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _flapack():
    """scipy's LAPACK wrapper module ``scipy.linalg._flapack``: the one scipy
    has loaded, else loaded here from ``scipy/linalg/_flapack<suffix>``,
    found through scipy's import spec, which imports nothing.

    A single-phase extension module registers itself in ``sys.modules`` as it
    loads; it is taken out again, so that a later ``import scipy.linalg``
    loads it by the import system, which also sets it as an attribute of its
    package (the function objects of both module objects are the same).
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    spec = importlib.util.find_spec("scipy")
    paths = [os.path.join(root, "linalg", "_flapack" + suffix)
             for root in (spec and spec.submodule_search_locations) or []
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrappers not found: looked for {paths}",
                          name=_FLAPACK)
    spec = importlib.util.spec_from_file_location(
        _FLAPACK, path, loader=importlib.machinery.ExtensionFileLoader(_FLAPACK, path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(_FLAPACK, None)
    return module


def _gesvd(M: np.ndarray, compute_uv: bool = True, full_matrices: bool = True):
    """``scipy.linalg.svd(M, compute_uv, full_matrices, lapack_driver="gesvd")``
    of a non-empty double precision matrix, called as scipy calls it: the
    workspace query ``gesvd_lwork``, then ``gesvd`` (scipy's
    ``ilp64="preferred"`` picks these 32-bit integer wrappers when it is built
    without ILP64 LAPACK, as its releases are)."""
    a = np.asarray_chkfinite(M)
    lapack, prefix = _flapack(), "z" if np.iscomplexobj(a) else "d"
    gesvd, gesvd_lwork = getattr(lapack, prefix + "gesvd"), getattr(lapack, prefix + "gesvd_lwork")
    work, info = gesvd_lwork(a.shape[0], a.shape[1], compute_uv=compute_uv,
                             full_matrices=full_matrices)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    u, s, vt, info = gesvd(a, compute_uv=compute_uv, lwork=int(work.real),
                           full_matrices=full_matrices, overwrite_a=False)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesvd")
    return (u, s, vt) if compute_uv else s


def svd_robust(M: np.ndarray, full_matrices: bool = True):
    """SVD by LAPACK gesdd, falling back to gesvd on nonconvergence. A stack
    (n, rows, cols) takes one gesdd call per matrix, bitwise those of the
    matrices one at a time; when one fails, each is redone on its own."""
    return _svd(M, True, full_matrices)


def svdvals_robust(M: np.ndarray) -> np.ndarray:
    """Singular values by LAPACK gesdd, falling back to gesvd on
    nonconvergence; a stack is handled as :func:`svd_robust` handles it."""
    return _svd(M, False, True)


def _svd(M: np.ndarray, compute_uv: bool, full_matrices: bool):
    """The body of :func:`svd_robust` and :func:`svdvals_robust`."""
    try:
        return np.linalg.svd(M, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        if M.ndim == 2:
            return _gesvd(M, compute_uv, full_matrices)
        parts = [_svd(A, compute_uv, full_matrices) for A in M]
        return tuple(map(np.stack, zip(*parts))) if compute_uv else np.stack(parts)


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def rank_cut(s: np.ndarray, rtol: float, scale: float = 0.0, strict: bool = True) -> int:
    """Number of singular values above ``rtol * max(s_max, scale)``.

    This is the package's one rank decision; callers fold any size
    multiplier into ``rtol``. ``scale`` is the natural magnitude of the input
    data; supplying it keeps the threshold meaningful when the matrix itself
    is numerically zero. With ``strict`` the call raises if any singular
    value sits within a factor 10 of the threshold, i.e. when the rank
    decision is ambiguous; otherwise it just cuts at the threshold.
    """
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        return 0
    smax = max(float(s.max()), scale)
    if smax == 0.0:
        return 0
    tau = rtol * smax
    if strict:
        straddle = (s > tau / 10.0) & (s < tau * 10.0)
        if np.any(straddle):
            raise NumericalDegeneracyError(
                f"rank decision ambiguous: singular values {s[straddle]} straddle "
                f"threshold {tau:.3e} (within a factor 10)"
            )
    return int(np.sum(s > tau))


def strict_rank(s: np.ndarray, rtol: float, scale: float = 0.0) -> int | None:
    """:func:`rank_cut` with its straddle check, or None where it straddles."""
    try:
        return rank_cut(s, rtol, scale=scale, strict=True)
    except NumericalDegeneracyError:
        return None


def nullspace(M: np.ndarray, rtol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of ``M``, cut at
    ``rtol * max(sigma_max, scale)`` (:func:`nullspaces`)."""
    return nullspaces([M], rtol, [scale])[0]


def nullspaces(Ms, rtol: float, scales, strict: bool = False,
               joint: bool = False) -> list[np.ndarray | None]:
    """Orthonormal bases (columns) of the right nullspaces of the matrices
    ``Ms`` (a list, or a stack (n, rows, cols)), each cut by :func:`rank_cut`
    at ``rtol * max(sigma_max, scales[k])`` on its own singular values.

    A (possibly tall) SVD resolves true zeros down to ~1e-13 relative and
    leaves many decades of margin to the threshold. The matrices of one shape
    take one stacked :func:`svd_robust` call, bitwise those of the matrices
    one at a time; they are stacked by :func:`substack`, so a matrix alone in
    its shape is passed as a view, with no copy. With ``strict``, a matrix
    whose cut straddles its threshold gets None and the others are
    unaffected; without it the cut is not checked.
    With ``joint``, the matrices are the diagonal blocks of one
    block-diagonal matrix and each is cut as that matrix is: its scale is
    raised to the largest singular value over all blocks.

    gesdd occasionally returns right singular vectors that are far from
    orthonormal on stacks with a large exact nullspace: each basis is checked
    (one check per rank among the matrices of a shape), and one that fails is
    recomputed with gesvd and cut the same way.
    """
    def cut(s, scale):
        return strict_rank(s, rtol, scale) if strict else rank_cut(s, rtol, scale, strict=False)

    groups = groups_by(Ms, np.shape)
    svds = []
    for group in groups:
        rows, cols = np.shape(Ms[group[0]])
        if rows == 0 or cols == 0:
            svds.append((np.zeros((len(group), 0)),
                         np.broadcast_to(np.eye(cols, dtype=complex), (len(group), cols, cols))))
        else:
            svds.append(svd_robust(substack(Ms, group), full_matrices=rows < cols)[1:])
    if joint:
        top = max([0.0] + [float(sv.max()) for sv, _ in svds if sv.size])
        scales = [max(scale, top) for scale in scales]
    out: list[np.ndarray | None] = [None] * len(Ms)
    for group, (sv, Vh) in zip(groups, svds):
        cols = Vh.shape[2]
        s = np.zeros((len(group), cols))
        s[:, :sv.shape[1]] = sv
        ranks = [cut(x, scales[k]) for k, x in zip(group, s)]
        for r in dict.fromkeys(ranks):
            if r is None:
                continue
            at = [i for i, q in enumerate(ranks) if q == r]
            V = Vh[at, r:]                      # the bases N, conjugate-transposed
            N = V.conj().transpose(0, 2, 1)
            err = np.linalg.norm(V @ N - np.eye(cols - r), axis=(1, 2))
            for i, Ni, bad in zip(at, N, err > NULLSPACE_ORTHO_BAR * (cols - r)):
                k = group[i]
                if not bad:
                    out[k] = np.ascontiguousarray(Ni)
                    continue
                _, x, Vh_k = _gesvd(Ms[k], full_matrices=np.shape(Ms[k])[0] < cols)
                rank = cut(np.concatenate([x, np.zeros(cols - x.size)]), scales[k])
                if rank is not None:
                    out[k] = np.ascontiguousarray(Vh_k.conj().T[:, rank:])
    return out


def substack(items, idx) -> np.ndarray:
    """The members ``idx`` (ascending) of a stack, or of a list or dict of
    arrays, as one stack, with no copy where none is needed: all members of
    a stack are the stack itself, and a lone member is a view of it as a
    stack of one."""
    if isinstance(items, np.ndarray) and len(idx) == len(items):
        return items
    if len(idx) == 1:
        return items[idx[0]][None]
    return items[idx] if isinstance(items, np.ndarray) else np.stack([items[k] for k in idx])


def groups_by(items, key) -> list[list[int]]:
    """The indices of ``items`` grouped by ``key(item)``, in order of first
    appearance."""
    groups: dict = {}
    for n, item in enumerate(items):
        groups.setdefault(key(item), []).append(n)
    return list(groups.values())


def component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of the graph on nodes ``0..n-1`` with edges
    ``(a[k], b[k])``: each node is labelled by the smallest node of its
    component. Labels take the minimum over each edge and then jump to their
    own label's label, until they settle."""
    label = np.arange(n)
    while True:
        lo = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, lo)
        np.minimum.at(new, b, lo)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def label_groups(labels: np.ndarray, roots: np.ndarray) -> list[np.ndarray]:
    """For each of ``roots``, the ascending indices ``i`` with ``labels[i]`` equal to it."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    lo, hi = np.searchsorted(ranked, roots, "left"), np.searchsorted(ranked, roots, "right")
    return [order[i:j] for i, j in zip(lo, hi)]


def orthonormal_range(M: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal columns spanning range(M), rank cut at ``rtol * sigma_max``
    by a strict :func:`rank_cut`."""
    M = np.asarray(M, dtype=complex)
    U, s, _ = svd_robust(M, full_matrices=False)
    return np.ascontiguousarray(U[:, :rank_cut(s, rtol)])


def column_entries(M: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``M`` with at most one nonzero per column as ``(rows, values)``: column
    j holds ``values[j]`` in row ``rows[j]`` and zeros elsewhere (a zero column
    reads as row 0, value 0). None when some column has two nonzeros or more."""
    nz = M.astype(bool)
    count = np.count_nonzero(nz)
    if count > M.shape[1]:
        return None
    rows, cols = nz.argmax(axis=0), np.arange(M.shape[1])
    if np.count_nonzero(nz[rows, cols]) != count:     # a column with two nonzeros
        return None
    return rows, M[rows, cols]


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The dense product ``A @ B`` of two matrices.

    When both have at most one nonzero per column (:func:`column_entries`),
    as the multishift models and their products do, so has the product:
    column j of AB is column ``r = rows_B[j]`` of A times ``B[r, j]``, one
    product of two entries, gathered by index in O(d) instead of O(d^3).
    Every entry of it is the one nonzero term that zgemm adds exact zeros to,
    so on real entries it is bitwise the entry BLAS forms, up to the sign of
    a zero, and on complex entries equal to roundoff. Any other pair is
    multiplied by BLAS.
    """
    b = column_entries(B)
    a = None if b is None else column_entries(A)
    if a is None:
        return A @ B
    (ra, va), (rb, vb) = a, b
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.result_type(A, B))
    out[ra[rb], np.arange(B.shape[1])] = va[rb] * vb
    return out


def commutator_norms(Xs: np.ndarray, T) -> np.ndarray:
    """Frobenius norms ``||X_k T_i - T_i X_k||`` (..., K, m) of the matrices
    Xs (..., K, d, d) against the m matrices T_i of T: a tuple, or an array
    (..., m, d, d) that holds one tuple per leading index of a stack."""
    Ts = (T if isinstance(T, np.ndarray) else T.matrices)[..., None, :, :, :]
    Xs = Xs[..., :, None, :, :]
    return np.linalg.norm(np.matmul(Xs, Ts) - np.matmul(Ts, Xs), axis=(-2, -1))


def cluster_eigenvalues(eigs: np.ndarray, gap_rtol: float) -> list[np.ndarray]:
    """Group eigenvalues into connected clusters at the relative gap threshold.

    Single linkage: two eigenvalues within ``gap_rtol * max(1, max |eig|)``
    are neighbours, and a cluster is a connected component of that graph
    (:func:`component_labels`). Returns index arrays, one per cluster,
    ordered by cluster mean (lexicographic on (real, imag)); equal means keep
    the order of the clusters' smallest indices.
    """
    eigs = np.asarray(eigs)
    if eigs.size == 0:
        return []
    tol = gap_rtol * max(1.0, float(np.abs(eigs).max()))
    D = eigs[:, None] - eigs[None, :]   # hypot rounds as abs(); np.abs can be an ulp off
    label = component_labels(eigs.size, *np.nonzero(np.hypot(D.real, D.imag) <= tol))
    roots, sizes = np.unique(label, return_counts=True)
    groups = label_groups(label, roots)
    means = eigs[roots].astype(complex)   # a singleton's mean is its eigenvalue
    for i in np.flatnonzero(sizes > 1):
        means[i] = np.mean(eigs[groups[i]])
    return [groups[i] for i in np.lexsort((means.imag, means.real))]


def schur(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``z = Z T Z*``: T upper triangular, Z unitary, by
    LAPACK ``zgees`` as ``scipy.linalg.schur(z, output="complex")`` calls it:
    a workspace query, then the unsorted form. Raises ValueError on
    non-finite entries and LinAlgError when ``zgees`` reports failure."""
    a = np.asarray_chkfinite(z, dtype=complex)
    zgees = _flapack().zgees
    lwork = zgees(lambda x: None, a, lwork=-1)[-2][0].real.astype(np.int_)
    T, _, _, Z, _, info = zgees(lambda x: None, a, lwork=lwork, overwrite_a=False, sort_t=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgees failed with info {info}: Schur form not found")
    return T, Z


def spectral_projector(T: np.ndarray, Z: np.ndarray,
                       idx: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Riesz projector onto the invariant subspace of the eigenvalues ``T[idx, idx]``
    of ``M = Z T Z*``, given its complex Schur form (T upper triangular, Z unitary),
    as its factors ``(L, R*)``, ``P = L R*`` with L an orthonormal frame of its range.

    LAPACK ``ztrsen`` moves the selected eigenvalues to the leading block,
    ``M = Zs [T11 T12; 0 T22] Zs*``; ``ztrsyl`` solves ``T11 R - R T22 = T12``
    on the triangular blocks (Bavely and Stewart's block diagonalization), and
    the projector is ``Zs [I R; 0 0] Zs*``, so ``L = Zs[:, :k]`` and ``R* = L*
    + R Zs[:, k:]*``. It is idempotent and commutes with ``M`` up to roundoff,
    and is a polynomial in ``M``, hence lies in any algebra containing ``M``.
    ``idx`` leaves at least one eigenvalue out. Returns None when the
    reordering fails or the Sylvester solve is perturbed (close eigenvalues on
    both sides).
    """
    lapack = _flapack()
    select = np.zeros(T.shape[0], dtype=np.int32)
    select[idx] = 1
    k = len(idx)
    Ts, Zs, _, _, _, _, info = lapack.ztrsen(select, T, Z, job="N")
    if info != 0:
        return None
    R, scale, info = lapack.ztrsyl(Ts[:k, :k], Ts[k:, k:], Ts[:k, k:], isgn=-1)
    if info != 0:
        return None
    Z1 = Zs[:, :k]
    return Z1, Z1.conj().T + (R / scale) @ Zs[:, k:].conj().T


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def conditioned_invertible(d: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random complex invertible matrix with condition number ~ ``cond``."""
    if d == 1:
        return np.array([[1.0 + 0j]])
    U = random_unitary(d, rng)
    V = random_unitary(d, rng)
    s = np.exp(np.linspace(0.0, np.log(cond), d))
    s /= np.sqrt(s[0] * s[-1])  # geometric centering keeps norms O(1)
    return (U * s) @ V.conj().T


def min_eig_hermitian(M: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part H of M, block by block: H is
    block diagonal in the permutation that groups the components of its
    nonzero pattern, a 1 x 1 block's eigenvalue is its (real) entry, and only
    larger blocks take an ``eigvalsh``."""
    H = 0.5 * (M + M.conj().T)
    r, c = np.nonzero(H.astype(bool))      # nonzero reads a bool array faster
    label = component_labels(H.shape[0], r, c)
    roots, sizes = np.unique(label, return_counts=True)
    low = np.diagonal(H).real[roots[sizes == 1]].min(initial=np.inf)
    for g in label_groups(label, roots[sizes > 1]):
        low = min(low, np.linalg.eigvalsh(H[np.ix_(g, g)]).min())
    return float(low)
