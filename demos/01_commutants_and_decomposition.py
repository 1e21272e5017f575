"""Commutant algebras and strongly irreducible decompositions.

A walk from single matrices to planted multi-class tuples: compute joint
commutants, read off their radical/block structure, split tuples into
strongly irreducible pieces, and recover a hidden block structure after
conjugation.
"""
import numpy as np
import scipy.linalg as sla

from sidecomp import (
    conjugate,
    inflate,
    joint_commutant,
    operator_tuple,
    radical,
    semisimple_structure,
    unit_si_decomposition,
    validate_commuting,
)
from sidecomp._linalg import conditioned_invertible
from sidecomp.planted import planted_instance


def jordan(r, lam=0.0):
    return (np.diag(np.ones(r - 1), 1) + lam * np.eye(r)).astype(complex)


print("=" * 72)
print("1. Joint commutants of familiar matrices")
print("=" * 72)
for name, mats in [
    ("identity I_3 (everything commutes)", [np.eye(3)]),
    ("Jordan block J_3(0) (only its own polynomials)", [jordan(3)]),
    ("diag(1, 2) (diagonal matrices)", [np.diag([1.0, 2.0])]),
    ("the pair (J_2(0), J_2(0)^2) -- a genuine 2-tuple", [jordan(2), jordan(2) @ jordan(2)]),
]:
    T = operator_tuple(mats)
    A = joint_commutant(T)
    print(f"  {name:52s} dim A'(T) = {A.algebra_dim}")

print()
print("=" * 72)
print("2. Radical and block structure")
print("=" * 72)
T = operator_tuple([sla.block_diag(jordan(2), jordan(2), jordan(3, 1.0)).astype(complex)])
A = joint_commutant(T)
rad = radical(A)
S = semisimple_structure(T)
print(f"  T = J_2(0) (+) J_2(0) (+) J_3(1):  dim A' = {A.algebra_dim}, "
      f"radical dim = {rad.shape[0]}")
print(f"  simple blocks of A'/rad: sizes {S.block_dims}")
print(f"  accounting: {' + '.join(str(n*n) for n in S.block_dims)} (blocks) "
      f"+ {S.radical_dim} (radical) = {A.algebra_dim}")
print("  -> two similar copies of J_2(0) merge into one size-2 block;")
print("     J_3(1) contributes its own class.")

print()
print("=" * 72)
print("3. Unit strongly irreducible decompositions")
print("=" * 72)
D = unit_si_decomposition(T)
print(f"  {D.count} primitive idempotents, all restrictions SI: {all(D.si_flags)}")
for i, P in enumerate(D.idempotents):
    print(f"  P_{i}: rank {np.trace(P).real:.0f}, ||P^2-P|| = "
          f"{np.linalg.norm(P @ P - P):.1e}")
resid = D.residuals
print(f"  invariants: sum to identity {resid['sum_identity']:.1e}, "
      f"mutual products {resid['annihilate']:.1e}")

print()
print("=" * 72)
print("4. Recovering a planted structure after conjugation")
print("=" * 72)
inst = planted_instance(20260809)
print(f"  hidden: k = {inst.k} classes, multiplicities {inst.multiplicities}, "
      f"blocks {[(r, n) for r, _, n in inst.block_specs]}, d = {inst.realized.d}")
print(f"  tuple commutes: {validate_commuting(inst.realized).passed}")
D2 = unit_si_decomposition(inst.realized)
print(f"  recovered {D2.count} SI blocks "
      f"(expected {sum(n for _, _, n in inst.block_specs)})")

rng = np.random.default_rng(7)
X = conditioned_invertible(inst.realized.d, 50.0, rng)
D3 = unit_si_decomposition(conjugate(inst.realized, X))
print(f"  after another conjugation (cond ~50): {D3.count} blocks again")

print()
print("=" * 72)
print("5. Inflation multiplies everything")
print("=" * 72)
base = operator_tuple([jordan(2), jordan(2) @ jordan(2)])
for n in (1, 2, 3):
    big = inflate(base, n)
    A = joint_commutant(big)
    print(f"  {n} copies: dim A' = {A.algebra_dim} = {n}^2 * {joint_commutant(base).algebra_dim}")
