"""Brute-force strong-irreducibility oracle, independent of the structure path.

Decides whether a commuting tuple admits a nontrivial idempotent in its joint
commutant by exhaustive search: parameterize e = sum_j c_j B_j over the
trace-orthonormal commutant basis and solve e^2 = e by multistart Newton in
the coefficient coordinates (the commutant is closed under multiplication, so
e^2 - e re-expands exactly in the basis and the system is square). A solution
counts only if its residual is at most 1e-10 and it is nontrivial (far from
both 0 and the identity). The tuple is strongly irreducible exactly when no
start finds a nontrivial idempotent.

This file is the frozen reference implementation for small dimensions
(d <= 4); it deliberately uses nothing from the radical / block-structure
machinery it is used to check, and it takes its commutant basis from the
Sylvester stack (``stack_commutant``), not from the spin-up presentation that
``joint_commutant`` prefers, so agreement with the oracle cross-checks the
two.
"""
from __future__ import annotations

import numpy as np

from .commutant import CommutantBasis, stack_commutant
from .policy import DEFAULT_POLICY

RESIDUAL_TOL = 1e-10
NONTRIVIAL_TOL = 1e-4


def _newton_idempotent(A: CommutantBasis, c0: np.ndarray, max_iter: int = 60):
    """Newton iteration for e(c)^2 = e(c) in commutant coordinates."""
    c = c0.copy()
    N = A.algebra_dim
    for _ in range(max_iter):
        e = A.element(c)
        F = A.coords(e @ e - e)
        if np.linalg.norm(F) <= 1e-13:
            break
        # J[:, j] = coords(B_j e + e B_j - B_j)
        J = np.empty((N, N), dtype=complex)
        for j in range(N):
            B = A.basis[j]
            J[:, j] = A.coords(B @ e + e @ B - B)
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        c = c + step
        if np.linalg.norm(c) > 1e6:
            return None
    return A.element(c)


def find_nontrivial_idempotent(A: CommutantBasis, starts: int = 240, policy=DEFAULT_POLICY):
    """Return a nontrivial idempotent of the spanned algebra, or None.

    Multistart Newton from draws at several scales, seeded by the policy.
    """
    rng = np.random.default_rng(policy.seed)
    d = A.d
    eye = np.eye(d)
    scales = (0.5, 1.0, 2.0)
    for t in range(starts):
        sigma = scales[t % len(scales)]
        c0 = sigma * (rng.standard_normal(A.algebra_dim)
                      + 1j * rng.standard_normal(A.algebra_dim))
        e = _newton_idempotent(A, c0)
        if e is None:
            continue
        if np.linalg.norm(e @ e - e) > RESIDUAL_TOL:
            continue
        if np.linalg.norm(e) < NONTRIVIAL_TOL or np.linalg.norm(e - eye) < NONTRIVIAL_TOL:
            continue
        # the rank of a genuine idempotent is its trace; require 1 <= rank < d
        r = float(np.trace(e).real)
        if r < 0.5 or r > d - 0.5:
            continue
        return e
    return None


def oracle_is_strongly_irreducible(T, starts: int = 240, policy=DEFAULT_POLICY) -> bool:
    """Exhaustive-search verdict: no nontrivial idempotent commutes with T."""
    A = stack_commutant(T, policy)
    return find_nontrivial_idempotent(A, starts=starts, policy=policy) is None
