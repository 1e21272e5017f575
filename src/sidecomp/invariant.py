"""Similarity invariants of commuting tuples and the similarity decision.

The headline invariant of a tuple ``T`` is the pair ``(k; n_1 >= ... >= n_k)``:
``k`` similarity classes of strongly irreducible blocks with multiplicities
``n_i``, the simple blocks of ``A'(T)/rad = M_{n_1} (+) ... (+) M_{n_k}``. The
idempotent semigroup of the commutant is free abelian on ``k`` generators with
the identity at ``(n_1, ..., n_k)``, and its Grothendieck group has rank
``k``. Two tuples are similar exactly when their class/multiplicity data match
under blockwise similarity of representatives; an explicit invertible
intertwiner witness can be assembled on demand.

Scope note: statements about genuinely infinite-dimensional multiplier
algebras are outside what finite truncations can certify; this module makes
no claim beyond the finite matrices it is given.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._linalg import frob, groups_by
from .commutant import semisimple_structure
from .decomposition import (
    UnitDecomposition,
    _invertible_intertwiner,
    _match_blocks,
    assemble_intertwiner,
)
from .policy import DEFAULT_POLICY, NumericPolicy, NumericalDegeneracyError
from .tuples import OperatorTuple, check_idempotent_in_commutant, compress, range_basis


def _spectrum_keys(reps: list[OperatorTuple]) -> list[tuple]:
    """The eigenvalues of each tuple's first component, rounded to 6 digits
    and sorted: one stacked ``eigvals`` per size."""
    keys: list[tuple] = [()] * len(reps)
    for group in groups_by(reps, lambda R: R.d):
        for j, eigs in zip(group, np.linalg.eigvals(np.stack([reps[j][0] for j in group]))):
            keys[j] = tuple(sorted((round(float(z.real), 6), round(float(z.imag), 6))
                                   for z in eigs))
    return keys


class SimilarityInvariant(NamedTuple):
    """(k; n_1 >= ... >= n_k) with one restricted representative per class."""

    k: int
    multiplicities: tuple[int, ...]
    class_representatives: tuple[OperatorTuple, ...]
    class_blocks: tuple[tuple[int, ...], ...]    # indices into `decomposition`
    decomposition: UnitDecomposition

    def summary(self) -> dict:
        return {
            "k": self.k,
            "multiplicities": list(self.multiplicities),
            "class_dims": [rep.d for rep in self.class_representatives],
        }


class K0Descriptor(NamedTuple):
    rank: int
    order_unit: tuple[int, ...]


def v_semigroup_invariant(T: OperatorTuple,
                          policy: NumericPolicy = DEFAULT_POLICY) -> SimilarityInvariant:
    """Similarity classes and multiplicities of the SI blocks of T.

    Class i is the run of n_i primitives of simple block i of A'(T)/rad,
    represented by the restriction ``L* T L`` to the frame L of its first
    primitive, which the validated decomposition carries: no SVD finds the
    range. Classes are sorted by descending multiplicity, ties broken by
    representative dimension and then by the spectrum of the first component.
    The class dimensions add up to d by construction: the splits partition
    the Schur indices, and block i's n_i frames have equal widths.
    """
    struct = semisimple_structure(T, policy)
    D = UnitDecomposition(T, struct.frames, struct.rows,
                          (True,) * len(struct.frames)).validated(policy)
    ends = np.cumsum(struct.block_dims).tolist()
    blocks = [(range(e - n, e), compress(T, D.frames[e - n]))
              for e, n in zip(ends, struct.block_dims)]
    keys = _spectrum_keys([rep for _, rep in blocks])
    order = sorted(range(len(blocks)),
                   key=lambda j: (-len(blocks[j][0]), blocks[j][1].d, keys[j]))
    classes, reps = zip(*(blocks[j] for j in order))
    return SimilarityInvariant(
        k=len(classes),
        multiplicities=tuple(len(c) for c in classes),
        class_representatives=tuple(reps),
        class_blocks=tuple(tuple(c) for c in classes),
        decomposition=D,
    )


def k0_descriptor(T: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY,
                  invariant: SimilarityInvariant | None = None) -> K0Descriptor:
    """Grothendieck-group data of the idempotent semigroup of A'(T):
    free abelian of rank k, order unit at the multiplicity vector."""
    inv = invariant if invariant is not None else v_semigroup_invariant(T, policy)
    return K0Descriptor(rank=inv.k, order_unit=inv.multiplicities)


def block_similarity(T: OperatorTuple, P, Q,
                     policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray | None:
    """Invertible X with ``X A_i = B_i X`` between the restrictions A of T to
    range(P) and B of T to range(Q), or None when they are not similar.

    P and Q are any idempotents of A'(T), primitive or not. Unequal ranks
    certify "not similar", two zero idempotents are similar through the
    0 x 0 intertwiner, and any other pair is decided by :func:`similar` on
    the two restrictions, whose witness is X; raises like :func:`similar`.
    """
    check_idempotent_in_commutant(T, P, policy)
    check_idempotent_in_commutant(T, Q, policy)
    LP, LQ = range_basis(P, policy), range_basis(Q, policy)
    if LP.shape[1] != LQ.shape[1]:
        return None
    if LP.shape[1] == 0:               # a rank-0 side has no restricted tuple
        return np.zeros((0, 0), dtype=complex)
    return similar(compress(T, LP), compress(T, LQ), policy, want_witness=True).witness


def idempotent_classes_equal(T: OperatorTuple, P, Q,
                             policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True iff P and Q define the same idempotent class over A'(T), decided
    (or raising) like :func:`block_similarity`."""
    return block_similarity(T, P, Q, policy) is not None


class SimilarityVerdict(NamedTuple):
    similar: bool
    reason: str
    invariant_lhs: SimilarityInvariant
    invariant_rhs: SimilarityInvariant
    witness: np.ndarray | None
    residual: float | None

    def summary(self) -> dict:
        return {
            "similar": self.similar,
            "reason": self.reason,
            "invariant_lhs": self.invariant_lhs.summary(),
            "invariant_rhs": self.invariant_rhs.summary(),
            "residual": self.residual,
        }


def similar(T: OperatorTuple, S: OperatorTuple, policy: NumericPolicy = DEFAULT_POLICY,
            want_witness: bool = False) -> SimilarityVerdict:
    """Decide similarity of two commuting tuples, optionally with witness.

    The invariants of both sides are computed and their classes matched by
    blockwise similarity of representatives; the tuples are similar exactly
    when the matching is a multiplicity-preserving bijection; a block pair
    that cannot be decided raises :class:`NumericalDegeneracyError`. With
    ``want_witness`` an invertible X with X T_i X^-1 = S_i is assembled from
    blockwise intertwiners and verified (max residual reported). Every block
    is restricted to the frame its decomposition carries, the frame the class
    representatives were read in, and the witness is assembled on the same
    frames, so the representatives' intertwiners serve the first block pair
    of each class as they are.
    """
    if T.m != S.m:
        raise ValueError(f"arity mismatch: {T.m} vs {S.m}")
    invT = v_semigroup_invariant(T, policy)
    invS = v_semigroup_invariant(S, policy)
    if T.d != S.d:
        return SimilarityVerdict(False, "dimension", invT, invS, None, None)

    # (matched rhs class, intertwiner between the two class representatives)
    match: list[tuple[int, np.ndarray]] = []
    # the frames of the class representatives: each class's first block
    reps = [[inv.decomposition.frames[c[0]] for c in inv.class_blocks] for inv in (invT, invS)]
    for a, b, Xrep in _match_blocks(T, reps[0], S, reps[1], policy):
        if b is None:
            return SimilarityVerdict(False, f"class {a} of lhs unmatched",
                                     invT, invS, None, None)
        if invT.multiplicities[a] != invS.multiplicities[b]:
            return SimilarityVerdict(
                False,
                f"multiplicity mismatch on matched class ({invT.multiplicities[a]} "
                f"vs {invS.multiplicities[b]})",
                invT, invS, None, None)
        match.append((b, Xrep))
    if invT.k != invS.k:
        return SimilarityVerdict(False, "class count mismatch", invT, invS, None, None)

    witness = None
    residual = None
    if want_witness:
        pairs = []
        DT, DS = invT.decomposition, invS.decomposition
        for a, (b, Xrep) in enumerate(match):
            for j, (iT, iS) in enumerate(zip(invT.class_blocks[a], invS.class_blocks[b])):
                LP, LQ = DT.frames[iT], DS.frames[iS]
                # the first blocks restrict to the class representatives,
                # whose intertwiner the matching above already found
                Xhat = Xrep if j == 0 else _invertible_intertwiner(T, LP, S, LQ, policy)
                if Xhat is None:
                    raise NumericalDegeneracyError(
                        "matched blocks lost their intertwiner during assembly"
                    )
                pairs.append((Xhat, LP, DT.rows[iT], LQ))
        witness = assemble_intertwiner(T, S, pairs, policy)
        Xi = np.linalg.inv(witness)
        residual = float(max(frob(witness @ T[i] @ Xi - S[i]) for i in range(T.m)))
    return SimilarityVerdict(True, "invariants match", invT, invS, witness, residual)
