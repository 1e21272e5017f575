"""Seeded generators for planted instances and test corpora.

A planted instance realizes a tuple with known similarity structure:
``T = X (A_1^(n_1) (+) ... (+) A_k^(n_k)) X^-1`` where each ``A_i`` is a
strongly irreducible Jordan-polynomial tuple (a Jordan block together with
polynomials in its nilpotent part), the first-coordinate eigenvalues are
drawn from a separated grid so distinct classes are certifiably non-similar,
and the conjugator has bounded condition number. Strong irreducibility of
every block is verified at generation time through its commutant dimension.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import conditioned_invertible
from .commutant import joint_commutant
from .tuples import OperatorTuple, conjugate, direct_sum, inflate, operator_tuple

# first-coordinate eigenvalues for distinct classes; separation 0.8 keeps the
# intertwiner-rank decisions three decades clear of the noise floor
EIGENVALUE_GRID = (-2.4, -1.6, -0.8, 0.0, 0.8, 1.6, 2.4)


def jordan_block(r: int, lam: complex) -> np.ndarray:
    return (np.diag(np.ones(r - 1), 1) + lam * np.eye(r)).astype(complex)


def jordan_polynomial_tuple(r: int, lam: complex, rng: np.random.Generator,
                            m: int = 2) -> OperatorTuple:
    """(J_r(lam), p_2(N), ..., p_m(N)): commuting, strongly irreducible.

    The commutant is the polynomial algebra of the Jordan block (dimension r,
    local), regardless of the companion polynomials.
    """
    N = jordan_block(r, 0.0)
    mats = [lam * np.eye(r, dtype=complex) + N]
    for _ in range(1, m):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        P = coeffs[0] * np.eye(r, dtype=complex)
        Npow = np.eye(r, dtype=complex)
        for c in coeffs[1:]:
            Npow = Npow @ N
            P = P + c * Npow
        mats.append(P)
    return operator_tuple(mats)


@dataclass(frozen=True)
class PlantedInstance:
    realized: OperatorTuple
    k: int
    multiplicities: tuple[int, ...]          # sorted descending
    block_specs: tuple[tuple[int, complex, int], ...]   # (r, lambda, copies)
    conjugator: np.ndarray
    seed: int


def planted_instance(seed: int, k_max: int = 3, d_max: int = 24) -> PlantedInstance:
    """One planted instance of arity 2 or 3 with k <= k_max classes,
    multiplicities <= 3, block dimension <= 4, total dimension <= d_max and
    cond(X) <= 100."""
    rng = np.random.default_rng(seed)
    arity = int(rng.integers(2, 4))
    for _ in range(64):
        k = int(rng.integers(1, k_max + 1))
        rs = rng.integers(1, 5, size=k)
        ns = rng.integers(1, 4, size=k)
        if int(np.sum(rs * ns)) <= d_max:
            break
    else:
        raise ValueError("could not sample a size profile under the cap")
    lams = rng.permutation(np.array(EIGENVALUE_GRID))[:k]
    blocks = []
    specs = []
    for r, n, lam in zip(rs, ns, lams):
        B = jordan_polynomial_tuple(int(r), complex(lam), rng, arity)
        A = joint_commutant(B)
        if A.algebra_dim != int(r):
            raise AssertionError(
                f"generated block is not strongly irreducible (dim {A.algebra_dim})"
            )
        blocks.append(inflate(B, int(n)))
        specs.append((int(r), complex(lam), int(n)))
    D = blocks[0]
    for b in blocks[1:]:
        D = direct_sum(D, b)
    cond = float(np.exp(rng.uniform(0.0, np.log(100.0))))
    X = conditioned_invertible(D.d, cond, rng)
    return PlantedInstance(
        realized=conjugate(D, X),
        k=k,
        multiplicities=tuple(sorted((int(n) for n in ns), reverse=True)),
        block_specs=tuple(specs),
        conjugator=X,
        seed=seed,
    )


def planted_corpus(seed: int, count: int) -> list[PlantedInstance]:
    rng = np.random.default_rng(seed)
    subseeds = rng.integers(0, 2**63 - 1, size=count)
    return [planted_instance(int(s)) for s in subseeds]


def si_pair(seed: int, similar: bool) -> tuple[OperatorTuple, OperatorTuple, bool]:
    """A pair of SI tuples of arity 2: either a planted similarity (T, X T
    X^-1) with cond(X) <= 100 or two blocks with distinct Jordan spectra
    (certifiably non-similar)."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 5))
    lam1, lam2 = rng.permutation(np.array(EIGENVALUE_GRID))[:2]
    T = jordan_polynomial_tuple(r, complex(lam1), rng)
    if similar:
        cond = float(np.exp(rng.uniform(0.0, np.log(100.0))))
        X = conditioned_invertible(r, cond, rng)
        return T, conjugate(T, X), True
    S = jordan_polynomial_tuple(r, complex(lam2), rng)
    return T, S, False


def random_commuting_tuple(seed: int) -> OperatorTuple:
    """A generic small commuting tuple of arity at most 3 and dimension at
    most 6: a conjugated direct sum of Jordan-polynomial tuples with possibly
    repeated eigenvalues."""
    rng = np.random.default_rng(seed)
    arity = int(rng.integers(1, 4))
    parts = []
    total = 0
    for _ in range(int(rng.integers(1, 4))):
        r = int(rng.integers(1, 4))
        if total + r > 6:
            break
        lam = complex(rng.choice(np.array(EIGENVALUE_GRID[:4])))
        parts.append(jordan_polynomial_tuple(r, lam, rng, arity))
        total += r
    if not parts:
        parts = [jordan_polynomial_tuple(1, 0.0, rng, arity)]
    D = parts[0]
    for p in parts[1:]:
        D = direct_sum(D, p)
    X = conditioned_invertible(D.d, 10.0, rng)
    return conjugate(D, X)


def si_oracle_corpus() -> list[tuple[str, OperatorTuple, bool]]:
    """Fixed corpus of tuples of dimension <= 4 with known SI verdicts."""
    J = jordan_block
    I2 = np.eye(2, dtype=complex)
    rng = np.random.default_rng(0xABCD)

    def bd(*mats):
        d = sum(m.shape[0] for m in mats)
        out = np.zeros((d, d), dtype=complex)
        o = 0
        for m in mats:
            s = m.shape[0]
            out[o:o + s, o:o + s] = m
            o += s
        return out

    corpus = [
        ("scalar", operator_tuple([np.zeros((1, 1))]), True),
        ("J2(0)", operator_tuple([J(2, 0)]), True),
        ("J3(0)", operator_tuple([J(3, 0)]), True),
        ("J4(0)", operator_tuple([J(4, 0)]), True),
        ("J3(1)", operator_tuple([J(3, 1)]), True),
        ("I2", operator_tuple([I2]), False),
        ("diag(1,2)", operator_tuple([np.diag([1.0, 2.0])]), False),
        ("two equal J2", operator_tuple([bd(J(2, 0), J(2, 0))]), False),
        ("J2(0)+J2(1)", operator_tuple([bd(J(2, 0), J(2, 1))]), False),
        ("J2(0)+scalar", operator_tuple([bd(J(2, 0), np.eye(1))]), False),
        ("J2(0)+J2(0) pair split by companion",
         operator_tuple([bd(J(2, 0), J(2, 0)), bd(0 * I2, I2)]), False),
        ("(I2, J2(0))", operator_tuple([I2, J(2, 0)]), True),
        ("(J3, J3^2)", operator_tuple([J(3, 0), J(3, 0) @ J(3, 0)]), True),
        ("(J4, poly)", operator_tuple([J(4, 0.5), J(4, 0.5) @ J(4, 0.5)]), True),
        ("diag pair", operator_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]), False),
    ]
    # conjugated copies exercise oblique geometry
    extra = []
    for name, T, si in corpus[:8]:
        X = conditioned_invertible(T.d, 30.0, rng)
        extra.append((name + " (conjugated)", conjugate(T, X), si))
    return corpus + extra
