"""Numeric policy record, the fixed rank-cut values and shared error types.

Every tolerance-sensitive operation takes an explicit :class:`NumericPolicy`
so runs are reproducible. It holds the four values callers set: ``tol``
(commutation, idempotency and invertibility, 1e-8), ``kernel_tol`` (1e-8),
``rank_rtol`` (rank decisions at ``n * sigma_max * 1e-10``) and ``seed``, the
only seed of the randomized steps. Eigenvalue clustering starts at the gap
``SPLIT_GAPS[0]`` (1e-6); PSD checks allow ``-PSD_TOL`` (-1e-10); both are fixed.

Every rank is decided by one function, ``_linalg.rank_cut``: it counts the
singular values above ``rtol * max(sigma_max, scale)``. Callers pass the
policy's ``rank_rtol`` (times the size multiplier ``n``), its ``kernel_tol``,
or one of the fixed cut values below, which are not policy fields.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_SEED = 0xC0FFEE


@dataclass(frozen=True)
class NumericPolicy:
    tol: float = 1e-8
    kernel_tol: float = 1e-8
    rank_rtol: float = 1e-10
    seed: int = DEFAULT_SEED

    def with_(self, **kw) -> "NumericPolicy":
        return replace(self, **kw)

    def tolerances(self) -> dict:
        """The seven tolerances of a report header, as a plain dict."""
        return {
            "commute_tol": self.tol,
            "idem_tol": self.tol,
            "kernel_tol": self.kernel_tol,
            "inv_tol": self.tol,
            "rank_rtol": self.rank_rtol,
            "eig_gap_rtol": SPLIT_GAPS[0],
            "psd_tol": PSD_TOL,
        }


DEFAULT_POLICY = NumericPolicy()

# Fixed relative cuts of the structure layer, all applied through rank_cut.
# Centrality bar of the center computation, also its verification threshold:
# commutator content below it is mod-radical noise (the radical of a very
# oblique corner is only resolved to ~1e-8), while genuine quotient
# commutators sit orders of magnitude above it.
CENTRALITY_BAR = 1e-7
# Floor of the radical's rank_rtol: corner bases reached through oblique
# lifted idempotents carry impurities well above roundoff.
RADICAL_FLOOR = 1e-8
# Worst ||P T_i - T_i P||_F / (||P||_F max(1, ||T_i||_F)) of an accepted
# primary (joint-spectrum) projector: a projector commuting only to ~1e-11
# leaves its corner's Sylvester stack with singular values just above the
# nullspace cut.
PRIMARY_COMMUTE_BAR = 1e-12
# Largest inflated dimension n * d that inflation_commutant_check accepts.
INFLATION_SIZE_CAP = 96
# The package's one dense-array budget, in bytes, checked before anything is
# built: intertwiner_space refuses a larger Sylvester stack, 16 m (d_T d_S)^2
# bytes, and io.kernel_job_from_obj an rkhs job whose model tuple, 16 m d^2
# bytes, or drury_arveson Koszul stack, 8 m^2 (m - 1) d^2 bytes, is larger.
STACK_BYTE_BUDGET = 2**30
# Largest ||P||_F of a Riesz projector P of a cluster split (_spectral_split):
# cutting through a defective eigenvalue cloud blows it up past the cap.
# Idempotency and the trace need no bar: P = L R* with R* L = I up to
# roundoff by construction (_linalg.spectral_projector).
SPLIT_PROJECTOR_NORM_CAP = 1e4
# Relative clustering gaps a split escalates through until its projectors
# validate: eigenvalues of an element with nilpotent parts of order s scatter
# like eps^(1/s) under roundoff. The first is the header's eig_gap_rtol.
SPLIT_GAPS = (1e-6, 1e-4, 1e-3, 1e-2, 5e-2)
# A Hermitian matrix with smallest eigenvalue >= -PSD_TOL counts as PSD.
PSD_TOL = 1e-10
# Orthonormality error ||N* N - I||_F per column above which a nullspace
# basis from gesdd is recomputed with gesvd (gesdd has returned 3.7e-7).
NULLSPACE_ORTHO_BAR = 1e-12

# Multishift model checks (rkhs).
# ||S^2 - S||_F / max(1, ||S||_F), S = sum_i T_i* T_i: a model's S is a projection.
MODEL_PROJECTION_BAR = 1e-10
# Relative least-squares residual of a compatible family: a solve loses digits.
MODEL_SOLVABILITY_BAR = 1e-8
# Absolute slack of ||symbol||_2 <= ||A||_2 in gamma_transform: both norms are SVDs.
SYMBOL_NORM_SLACK = 1e-8
# Bars of the checks in the rkhs command's report (cli._rkhs_checks): the
# identities they test hold exactly on the grid, so each bar sits just above
# roundoff.
# Largest |S - I| entry on the interior labels of the spherical shift.
INTERIOR_ISOMETRY_BAR = 1e-13
# Largest commutator of the lowering tuple, as validate_commuting reports it.
ADJOINT_COMMUTE_BAR = 1e-12
# Relative deviation of a squared weight-path product from 1 / fhat(alpha).
BASIS_NORM_BAR = 1e-12
# ||(I - sum_i T_i* T_i) - e0 e0*||_F of the ball-kernel backward multishift.
DEFECT_RANK_ONE_BAR = 1e-12
# Floor of the joint-eigenvector tail bound, once the tail is below roundoff.
EIGENVECTOR_TAIL_FLOOR = 1e-13

# Constants of the two flat stages of semisimple_structure (each root into
# its k blocks, each block M_n into n primitives). A corner split draws up to
# SPLIT_ATTEMPTS random elements and skips those whose split has another
# number of parts; a split whose worst projector norm is at most
# GOOD_SPLIT_NORM is taken at once, else the best-conditioned one drawn.
SPLIT_ATTEMPTS = 16
GOOD_SPLIT_NORM = 300.0
# Consecutive seeds semisimple_structure walks with before it gives up; a walk
# that fails a structural check (a corner that no draw splits into the parts
# its algebra counts among them) is retried with the next seed.
STRUCTURE_SEEDS = 7

# Structural checks on computed algebras and idempotent families.
# Relative residual ||M - proj(M)||_F / max(1, ||M||_F) up to which M counts
# as a member of a commutant span; a computed commutant must contain I.
SPAN_MEMBERSHIP_TOL = 1e-8
# Relative size ||R^d||_F / max(1, ||R||_F^d) up to which a radical element
# R of a d-dimensional commutant counts as nilpotent.
NILPOTENCY_BAR = 1e-8
# ||sum_a P_a - I||_F of a validated unit decomposition (floored at the
# float64 level of their norms), the one check of the identity sum: the
# structure walk's splits sum to I by construction.
IDENTITY_SUM_BAR = 1e-8
# Largest ||P_a P_b||_F, a != b, of a validated unit decomposition (floored
# like IDENTITY_SUM_BAR).
ANNIHILATION_BAR = 1e-6
# Relative residual of an assembled conjugator: the intertwining residual of
# an assembled map (relative to the tuples' scale), and, in decomposition
# matching, the transport residual ||X P X^-1 - Q||_F of idempotents relative
# to max(1, ||P||_F).
ASSEMBLY_BAR = 1e-6


class NumericalDegeneracyError(RuntimeError):
    """A rank / clustering / lifting decision could not be made reliably.

    Raised when singular values straddle a rank threshold, when a computed
    center fails its centrality check, or when a structural integer identity
    that must hold exactly comes out wrong. Callers may retry with a tightened
    (or loosened) policy.
    """
