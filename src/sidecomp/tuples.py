"""Commuting operator tuples and their structural operations.

An :class:`OperatorTuple` is ``m`` pairwise-commuting ``d x d`` complex
matrices, the finite-dimensional stand-in for a commuting tuple of bounded
operators. This module provides the constructions every other module
consumes: direct sums, inflations (direct sums of copies), conjugation by
an invertible matrix, compression to an orthonormal frame, restriction to
the range of a commuting idempotent, and joint kernels
``ker(T - w) = intersect_i ker(T_i - w_i)``.

All operations are pure functions of their inputs; values are immutable
after construction and safe to share between threads.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._linalg import as_complex_matrix, commutator_norms, frob, matmul, nullspace, \
    orthonormal_range, rank_cut, svdvals_robust
from .policy import DEFAULT_POLICY, NumericPolicy


class OperatorTuple:
    """An m-tuple of d x d complex matrices, stored as a read-only (m, d, d)
    array, checked on construction: square, nonempty and finite. Immutable:
    its one attribute cannot be rebound."""

    __slots__ = ("matrices",)

    def __init__(self, matrices):
        mats = np.asarray(matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected shape (m, d, d), got {mats.shape}")
        if mats.shape[0] < 1 or mats.shape[1] < 1:
            raise ValueError("need m >= 1 and d >= 1")
        if not np.all(np.isfinite(mats)):
            raise ValueError("tuple entries must be finite")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an OperatorTuple")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an OperatorTuple")

    def __repr__(self) -> str:
        return f"OperatorTuple(matrices={self.matrices!r})"

    @property
    def m(self) -> int:
        return self.matrices.shape[0]

    @property
    def d(self) -> int:
        return self.matrices.shape[1]

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i) -> np.ndarray:
        return self.matrices[i]


def operator_tuple(mats) -> OperatorTuple:
    """Build an OperatorTuple from a list of square matrices of equal size."""
    arrs = [as_complex_matrix(a, f"matrix {i}") for i, a in enumerate(mats)]
    if not arrs:
        raise ValueError("need at least one matrix")
    d = arrs[0].shape[0]
    for i, a in enumerate(arrs):
        if a.shape != (d, d):
            raise ValueError(
                f"dimension mismatch among matrices: matrix {i} has shape "
                f"{a.shape}, expected {(d, d)}"
            )
    return OperatorTuple(np.stack(arrs))


class CommutationReport(NamedTuple):
    max_commutator: float
    pairwise: np.ndarray  # (m, m) relative commutator norms
    tol: float
    passed: bool


def validate_commuting(T: OperatorTuple,
                       policy: NumericPolicy = DEFAULT_POLICY) -> CommutationReport:
    """Report pairwise commutator norms, relative to max(1, ||T_i|| ||T_j||),
    against the policy's ``tol``. The products are :func:`~sidecomp._linalg.matmul`'s:
    gathered by index on a multishift model, whose matrices have one nonzero
    per column, and dense otherwise."""
    m = T.m
    norms = [frob(A) for A in T]
    rel = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            c = frob(matmul(T[i], T[j]) - matmul(T[j], T[i])) / max(1.0, norms[i] * norms[j])
            rel[i, j] = rel[j, i] = c
    worst = float(rel.max()) if m > 1 else 0.0
    return CommutationReport(worst, rel, float(policy.tol), worst <= policy.tol)


def direct_sum(T: OperatorTuple, S: OperatorTuple) -> OperatorTuple:
    """Blockwise direct sum; arities must agree."""
    if T.m != S.m:
        raise ValueError(f"arity mismatch: {T.m} vs {S.m}")
    dT, dS = T.d, S.d
    out = np.zeros((T.m, dT + dS, dT + dS), dtype=complex)
    out[:, :dT, :dT] = T.matrices
    out[:, dT:, dT:] = S.matrices
    return OperatorTuple(out)


def inflate(T: OperatorTuple, n: int) -> OperatorTuple:
    """Direct sum of n copies of T."""
    if n < 1:
        raise ValueError("inflation count must be >= 1")
    d = T.d
    out = np.zeros((T.m, n * d, n * d), dtype=complex)
    for c in range(n):
        out[:, c * d:(c + 1) * d, c * d:(c + 1) * d] = T.matrices
    return OperatorTuple(out)


def conjugate(T: OperatorTuple, X, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorTuple:
    """Return (X T_1 X^-1, ..., X T_m X^-1). X must be invertible."""
    X = as_complex_matrix(X, "conjugator")
    if X.shape != (T.d, T.d):
        raise ValueError(f"conjugator shape {X.shape} does not match d={T.d}")
    s = svdvals_robust(X)
    if rank_cut(s, policy.tol, strict=False) < T.d:
        raise ValueError(
            f"singular conjugator: sigma_min/sigma_max = {s[-1]/s[0]:.3e}"
        )
    Xi = np.linalg.inv(X)
    return OperatorTuple(np.stack([X @ A @ Xi for A in T]))


class JointKernelBasis(NamedTuple):
    """Orthonormal basis of the joint kernel of (T - w) at a point w."""

    point: np.ndarray          # (m,) complex coordinates
    basis: np.ndarray          # (d, dim) orthonormal columns
    dimension: int
    residuals: np.ndarray      # (dim,) stacked residual norm per basis vector


def joint_kernel(T: OperatorTuple, w=0, policy: NumericPolicy = DEFAULT_POLICY) -> JointKernelBasis:
    """Joint kernel of T - w as the nullspace of the stacked (m d) x d matrix.

    The basis is :func:`nullspace` of the stack, cut non-strictly at
    ``kernel_tol * max(1, sigma_max)``; this deliberately tolerates
    truncation-induced residuals when the policy's kernel_tol is loosened.
    """
    wv = np.array(w, dtype=complex).reshape(-1)
    if wv.size == 1:
        wv = np.full(T.m, wv[0])
    if wv.shape != (T.m,):
        raise ValueError(f"point must have {T.m} coordinates")
    stack = np.vstack([T[i] - wv[i] * np.eye(T.d) for i in range(T.m)])
    basis = nullspace(stack, policy.kernel_tol, scale=1.0)
    dim = basis.shape[1]
    res = np.array([float(np.linalg.norm(stack @ basis[:, j])) for j in range(dim)])
    return JointKernelBasis(wv, basis, dim, res)


def range_basis(P, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of range(P) for a (near-)idempotent P."""
    P = as_complex_matrix(P, "idempotent")
    U = orthonormal_range(P, max(P.shape) * policy.rank_rtol)
    r = U.shape[1]
    tr = float(np.trace(P).real)
    if abs(tr - r) > 0.1:
        raise ValueError(
            f"rank of idempotent ({r}) disagrees with its trace ({tr:.4f}); "
            "input is probably not an idempotent"
        )
    return U


def check_idempotent_in_commutant(T: OperatorTuple, P,
                                  policy: NumericPolicy = DEFAULT_POLICY) -> None:
    """Raise unless P ~ P^2 and [P, T_i] ~ 0 at the policy's ``tol``."""
    P = as_complex_matrix(P, "idempotent")
    nP = frob(P)
    if frob(P @ P - P) > policy.tol * max(1.0, nP * nP):
        raise ValueError(f"matrix is not idempotent at tol {policy.tol}")
    for i, (A, resid) in enumerate(zip(T, commutator_norms(P[None], T)[0])):
        if resid > policy.tol * max(1.0, nP * frob(A)):
            raise ValueError(
                f"idempotent does not commute with component {i} at tol "
                f"{policy.tol}"
            )


def compress(T: OperatorTuple, U: np.ndarray) -> OperatorTuple:
    """The compression ``U* T U`` of T to the span of the orthonormal columns U.

    When U is a frame of range(P) for an idempotent P commuting with T, this
    is the restriction of T to range(P), in the basis U; a caller that
    carries P's frame restricts with it and needs no SVD.
    """
    return OperatorTuple(np.stack([U.conj().T @ A @ U for A in T]))


def restrict(T: OperatorTuple, P, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorTuple:
    """Restriction of T to range(P) for an idempotent P commuting with T.

    The restricted tuple is expressed in an orthonormal basis of range(P)
    (not in P's columns), so it stays well-conditioned for oblique P.
    """
    check_idempotent_in_commutant(T, P, policy)
    return compress(T, range_basis(P, policy))
