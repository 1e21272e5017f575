"""Truncated multishift models of the ball kernel and its relatives.

The kernel 1/(1 - <z,w>) on the unit ball has coefficients |a|!/a! on
monomials; its multiplication tuple acts on the orthonormal monomial basis
as a weighted raising tuple, and the adjoint (backward multishift) is the
universal dilation model checked here. Truncation keeps
all identities exact wherever compression is invisible.
"""
import math

import numpy as np

from sidecomp import (
    DiagonalKernelSpec,
    TruncationGrid,
    check_model_hypotheses,
    check_sphere_conditions,
    defect_operator,
    joint_eigenvector,
    joint_kernel,
    multishift_weights,
    p_sequence,
    p_sequence_closed_form,
    truncated_tuple,
)
from sidecomp.policy import NumericPolicy

print("=" * 72)
print("1. Weights and the truncated tuple")
print("=" * 72)
m, dmax = 2, 8
spec = DiagonalKernelSpec.drury_arveson(m)
grid = TruncationGrid.build(m, dmax)
print(f"  grid: all |a| <= {dmax} in {m} variables -> {grid.size} basis labels "
      f"(= C({dmax + m},{m}))")
W = multishift_weights(spec, grid)
print(f"  raising weight w_1((1,0)) = {W[0, grid.index_of[(1, 0)]]:.6f} "
      f"(= sqrt(2/2))")
adj = truncated_tuple(spec, grid, "adjoint")
c = adj[0][grid.index_of[(0, 1)], grid.index_of[(1, 1)]]
print(f"  lowering coefficient on e_(1,1) -> e_(0,1): {c.real:.15f} "
      f"(= sqrt(1/2))")

print()
print("=" * 72)
print("2. The defect identity: I - sum T_i* T_i is the vacuum projection")
print("=" * 72)
rep = defect_operator(adj, grid)
print(f"  || defect - e_0 (x) e_0 ||_F = {rep.rank_one_residual:.2e}")
print(f"  || defect^2 - defect ||_F  = {rep.projection_residual:.2e}")
print("  exact on the whole grid: lowering then raising never escapes the cap.")

print()
print("=" * 72)
print("3. The positive-operator chain P_0 = I, P_{n+1} = sum T_i* P_n T_i")
print("=" * 72)
ps = p_sequence(adj, grid, dmax)
print(f"  all P_n PSD: {ps.psd_ok};  chain nonincreasing: {ps.monotone_ok}")
print(f"  P_n annihilates degrees < n exactly: {ps.vanish_exact}")
diff = max(
    float(np.linalg.norm(ps.operators[n] - p_sequence_closed_form(adj, grid, n)))
    for n in range(5)
)
print(f"  recursion vs multinomial closed form (n <= 4): {diff:.2e}")
print("  on the full space the chain converges strongly to 0; at the")
print(f"  truncation it is exactly 0 from n = {dmax + 1} on.")

print()
print("=" * 72)
print("4. Joint eigenvectors of the backward multishift")
print("=" * 72)
for dm in (8, 12, 16):
    g = TruncationGrid.build(2, dm)
    _, r = joint_eigenvector(DiagonalKernelSpec.drury_arveson(2), g, (0.3, 0.2))
    print(f"  dmax = {dm:2d}: relative residual {r:.2e}")
print("  the residual is purely the top-degree tail: it decays geometrically.")
pol = NumericPolicy(kernel_tol=1e-3)
kb = joint_kernel(adj, (0.15, 0.1), pol)
print(f"  joint kernel at an interior point: dimension {kb.dimension}")

print()
print("=" * 72)
print("5. Model hypotheses on the interior")
print("=" * 72)
mh = check_model_hypotheses(adj, coordinate_mask=grid.interior())
print(f"  sum T_i* T_i is a projection: {mh.projection_ok} "
      f"(residual {mh.projection_residual:.1e})")
print(f"  compatible families solvable: worst residual {mh.solve_max_residual:.1e} "
      f"over the compatible subspace (dim {mh.compatibility_dim})")
print(f"  consistent with the backward-multishift (+) spherical-isometry "
      f"model: {mh.model_consistent}")

print()
print("=" * 72)
print("6. Sphere-geometry predicates and the weighted Bergman kernels")
print("=" * 72)
rep2 = check_sphere_conditions(adj)
print(f"  backward ball multishift: isometry {rep2.spherical_isometry}, "
      f"1-hypercontraction {rep2.hypercontraction[1]}")
for k in (2, 3):
    bspec = DiagonalKernelSpec.bergman(1, k)
    bgrid = TruncationGrid.build(1, 10)
    norm_sq = math.exp(-bspec.log_fhat((10,)))
    badj = truncated_tuple(bspec, bgrid, "adjoint")
    brep = check_sphere_conditions(badj, n_hyper=1)
    print(f"  kernel exponent k = {k}: ||z^10||^2 = {norm_sq:.3e}, "
          f"defect PSD: {brep.hypercontraction[1]}")
