"""The paper's relations between the invariants of related tuples, pinned on
exact inputs: every instance of the planted corpus, whose invariant
``(k; n_i)`` is known, against four tuples built from it.

- ``T*`` and ``U T U*`` (U unitary): ``A'(T*) = A'(T)*`` is anti-isomorphic to
  ``A'(T)``, and a similarity moves no invariant, so both give ``(k; n_i)``.
- ``T^(2)``: ``A'(T^(2)) = M_2(A'(T))``, so the multiplicities double.
- ``T (+) J``, J a strongly irreducible Jordan-polynomial block at an
  eigenvalue off ``EIGENVALUE_GRID``: J's spectrum is disjoint from T's, so
  the sum gains one class of multiplicity 1.
"""
import numpy as np
import pytest

from sidecomp import direct_sum, inflate, operator_tuple, v_semigroup_invariant
from sidecomp._linalg import random_unitary
from sidecomp.planted import EIGENVALUE_GRID, jordan_polynomial_tuple, planted_corpus
from sidecomp.policy import DEFAULT_SEED

CORPUS = planted_corpus(DEFAULT_SEED, 100)
OFF_GRID = 3.2


def invariant(T) -> tuple[int, tuple[int, ...]]:
    inv = v_semigroup_invariant(T)
    return inv.k, tuple(sorted(inv.multiplicities, reverse=True))


def related(inst):
    """The four related tuples of a planted instance with the invariants the
    paper gives them, as (name, tuple, expected invariant)."""
    T, k, mult = inst.realized, inst.k, inst.multiplicities
    rng = np.random.default_rng([7, inst.seed])
    U = random_unitary(T.d, rng)
    J = jordan_polynomial_tuple(2, OFF_GRID, rng, T.m)
    return [
        ("adjoint", operator_tuple([A.conj().T for A in T]), (k, mult)),
        ("unitary", operator_tuple([U @ A @ U.conj().T for A in T]), (k, mult)),
        ("inflation", inflate(T, 2), (k, tuple(2 * n for n in mult))),
        ("direct sum", direct_sum(T, J), (k + 1, (*mult, 1))),
    ]


def test_corpus_is_small_and_the_extra_block_is_off_the_grid():
    assert len(CORPUS) == 100 and max(inst.realized.d for inst in CORPUS) <= 24
    assert OFF_GRID not in EIGENVALUE_GRID


@pytest.mark.parametrize("inst", CORPUS, ids=lambda inst: str(inst.seed))
def test_relations_hold_on_exact_inputs(inst):
    for name, S, expected in related(inst):
        assert invariant(S) == expected, name
