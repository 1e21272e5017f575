"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here and matches the package contracts.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sidecomp import (
    conjugate,
    inflation_commutant_check,
    is_strongly_irreducible,
    joint_eigenvector,
    p_sequence,
    similar,
    spherical_shift,
    truncated_tuple,
    v_semigroup_invariant,
)
from sidecomp._linalg import conditioned_invertible
from sidecomp.cli import main as cli_main
from sidecomp.oracle import oracle_is_strongly_irreducible
from sidecomp.planted import planted_corpus, random_commuting_tuple, si_oracle_corpus, si_pair
from sidecomp.policy import NumericPolicy
from sidecomp.rkhs import DiagonalKernelSpec, TruncationGrid, defect_operator

ACCEPT_SEED = 0xC0FFEE
_state = {}


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_1_planted_decomposition_recovery():
    t0 = time.perf_counter()
    corpus = planted_corpus(ACCEPT_SEED, 100)
    recovered = 0
    for inst in corpus:
        inv = v_semigroup_invariant(inst.realized)
        got = (inv.k, tuple(sorted(inv.multiplicities, reverse=True)))
        recovered += got == (inst.k, inst.multiplicities)
    elapsed = time.perf_counter() - t0
    _state["corpus"] = corpus
    _line(1, "planted-recovery",
          recovered == 100 and elapsed < 60.0,
          f"{recovered}/100 recovered in {elapsed:.1f}s (budget 60s)")


def test_criterion_2_inflation_dimension_identity():
    pol = NumericPolicy(rank_rtol=1e-8)
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    ok = 0
    checked = 0
    for s in rng.integers(0, 2**31, size=20):
        T = random_commuting_tuple(int(s))
        for n in (2, 3):
            chk = inflation_commutant_check(T, n, pol)
            checked += 1
            ok += chk.inflated_dim == n * n * chk.base_dim
    _line(2, "inflation-dimension-identity", ok == checked,
          f"{ok}/{checked} exact integer identities (tol 1e-8)")


def test_criterion_3_brute_force_oracle_equivalence():
    corpus = si_oracle_corpus()
    agree = 0
    for name, T, expected in corpus:
        a = oracle_is_strongly_irreducible(T, starts=240)
        b = is_strongly_irreducible(T)
        assert a == expected, f"oracle disagrees with construction on {name}"
        agree += a == b
    _line(3, "oracle-equivalence", agree == len(corpus),
          f"{agree}/{len(corpus)} verdicts agree (d <= 4, 240 starts, residual 1e-10)")


def test_criterion_4_similarity_criterion():
    correct = 0
    worst_witness = 0.0
    for i in range(50):
        want = i < 25
        T, S, expected = si_pair(ACCEPT_SEED + 100 + i, similar=want)
        verdict = similar(T, S, want_witness=want)
        if verdict.similar == expected:
            correct += 1
        if want and verdict.witness is not None:
            worst_witness = max(worst_witness, verdict.residual)
    _line(4, "similarity-criterion",
          correct == 50 and worst_witness <= 1e-6,
          f"{correct}/50 verdicts, worst witness residual {worst_witness:.2e} (<= 1e-6)")


def test_criterion_5_ball_kernel_identities():
    t0 = time.perf_counter()
    worst_defect = 0.0
    worst_coeff = 0.0
    chain_ok = True
    for m in (2, 3):
        spec = DiagonalKernelSpec.drury_arveson(m)
        for dmax in (4, 8):
            grid = TruncationGrid.build(m, dmax)
            adj = truncated_tuple(spec, grid, "adjoint")
            worst_defect = max(worst_defect,
                               defect_operator(adj, grid).rank_one_residual)
            for j, a in enumerate(grid.indices):
                for i in range(m):
                    if a[i] == 0:
                        continue
                    dn = list(a)
                    dn[i] -= 1
                    c = float(np.real(adj[i][grid.index_of[tuple(dn)], j]))
                    worst_coeff = max(worst_coeff,
                                      abs(c - math.sqrt(a[i] / sum(a))))
            ps = p_sequence(adj, grid, dmax)
            chain_ok = chain_ok and ps.vanish_exact \
                and all(e >= -1e-10 for e in ps.min_eigs) \
                and all(e >= -1e-10 for e in ps.step_min_eigs)
    elapsed = time.perf_counter() - t0
    _line(5, "ball-kernel-identities",
          worst_defect <= 1e-12 and worst_coeff <= 1e-14 and chain_ok
          and elapsed < 10.0,
          f"defect {worst_defect:.1e} (<=1e-12), adjoint coeff dev "
          f"{worst_coeff:.1e} (<=1e-14), chain ok {chain_ok}, {elapsed:.1f}s (budget 10s)")


def test_criterion_6_joint_eigenvector_tail():
    spec = DiagonalKernelSpec.drury_arveson(2)
    _, r12 = joint_eigenvector(spec, TruncationGrid.build(2, 12), (0.3, 0.2))
    _, r16 = joint_eigenvector(spec, TruncationGrid.build(2, 16), (0.3, 0.2))
    _line(6, "joint-eigenvector-tail", r12 <= 1e-3 and r16 < r12,
          f"residual {r12:.2e} at dmax=12 (<=1e-3), {r16:.2e} at dmax=16 (strictly smaller)")


def test_criterion_7_weighted_bergman_basis_norms():
    worst = 0.0
    for k in (2, 3):
        spec = DiagonalKernelSpec.bergman(1, k)
        grid = TruncationGrid.build(1, 10)
        fwd = truncated_tuple(spec, grid, "forward")
        for a in grid.indices:
            # reconstruct ||z^alpha||^2 as the squared path product of the
            # constructed raising weights
            v = np.zeros(grid.size)
            v[grid.index_of[(0,)]] = 1.0
            for _ in range(a[0]):
                v = fwd[0].real @ v
            got = float(v[grid.index_of[a]]) ** 2
            num = Fraction(math.factorial(a[0]))
            den = Fraction(1)
            for j in range(a[0]):
                den *= (k + j)
            want = float(num / den)
            worst = max(worst, abs(got - want) / want)
    _line(7, "weighted-bergman-basis-norms", worst <= 1e-12,
          f"worst relative Gram deviation {worst:.2e} (<=1e-12, k in {{2,3}}, |a|<=10)")


def test_criterion_8_spherical_shift_uniqueness():
    g1 = TruncationGrid.build(2, 6, order="grlex")
    g2 = TruncationGrid.build(2, 6, order="grevlex")
    V1, V2 = spherical_shift(g1), spherical_shift(g2)
    U = np.zeros((g1.size, g1.size))
    for a in g1.indices:
        U[g2.index_of[a], g1.index_of[a]] = 1.0
    permuted_exact = all(
        np.array_equal(U @ np.asarray(V1[i]) @ U.T, np.asarray(V2[i]))
        for i in range(2)
    )
    S = sum(np.asarray(V1[i]).conj().T @ np.asarray(V1[i]) for i in range(2))
    idx = np.where(g1.interior())[0]
    iso_dev = float(np.abs(S[np.ix_(idx, idx)] - np.eye(idx.size)).max())
    _line(8, "spherical-shift-uniqueness",
          permuted_exact and iso_dev <= 1e-14,
          f"permutation intertwiner bitwise exact: {permuted_exact}, "
          f"interior isometry dev {iso_dev:.1e} (machine precision)")


def test_criterion_9_invariance_and_determinism(tmp_path, capsys):
    corpus = _state.get("corpus") or planted_corpus(ACCEPT_SEED, 100)
    rng = np.random.default_rng(ACCEPT_SEED + 9)
    stable = 0
    for inst in corpus:
        X = conditioned_invertible(inst.realized.d, float(rng.uniform(1.0, 100.0)), rng)
        inv = v_semigroup_invariant(conjugate(inst.realized, X))
        stable += (inv.k, tuple(sorted(inv.multiplicities, reverse=True))) == \
            (inst.k, inst.multiplicities)

    from sidecomp.io import canonical_json, tuple_to_obj
    p = tmp_path / "t.json"
    p.write_text(canonical_json(tuple_to_obj(corpus[0].realized)))
    outs = []
    for _ in range(2):
        rc = cli_main(["invariant", "--input", str(p), "--seed", "123"])
        assert rc == 0
        outs.append(capsys.readouterr().out.encode())
    deterministic = outs[0] == outs[1]
    for _ in range(2):
        rc = cli_main(["selftest", "--count", "3", "--seed", "77"])
        assert rc == 0
        outs.append(capsys.readouterr().out.encode())
    deterministic = deterministic and outs[2] == outs[3]
    _line(9, "invariance-and-determinism",
          stable == len(corpus) and deterministic,
          f"{stable}/{len(corpus)} conjugation-stable invariants, "
          f"byte-identical reports: {deterministic}")
