"""A second SI corpus: pairs (x, y) with xy = yx = 0, the band and string
modules of C[x, y]/(xy), whose blocks are neither cyclic nor cocyclic."""
import numpy as np
import pytest

from sidecomp import conjugate, direct_sum, is_strongly_irreducible, operator_tuple, similar, \
    v_semigroup_invariant
from sidecomp._linalg import conditioned_invertible


def band(n, mu):
    """``B_n(mu)``, d = 2n on ``e_1..e_n, f_1..f_n``: ``x e_i = f_i`` and ``y e_i
    = mu f_i + f_{i+1}`` (``f_{n+1} = 0``), Kronecker's regular pencil block."""
    x, y = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    for i in range(n):
        x[n + i, i] = 1.0
        y[n + i, i] = mu
        if i + 1 < n:
            y[n + i + 1, i] = 1.0
    return operator_tuple([x, y])


def string(n):
    """``Z_n``, d = 2n + 1 on ``e_1..e_{2n+1}``: ``x e_{2i} = e_{2i-1}`` and ``y
    e_{2i} = e_{2i+1}``."""
    x, y = np.zeros((2 * n + 1, 2 * n + 1)), np.zeros((2 * n + 1, 2 * n + 1))
    for i in range(1, n + 1):
        x[2 * i - 2, 2 * i - 1] = 1.0
        y[2 * i, 2 * i - 1] = 1.0
    return operator_tuple([x, y])


def conjugated(T, cond, seed):
    return conjugate(T, conditioned_invertible(T.d, cond, np.random.default_rng(seed)))


def invariant(T):
    inv = v_semigroup_invariant(T)
    return inv.k, inv.multiplicities


@pytest.mark.parametrize("T", [band(2, 1.0), band(4, 2.0), string(3)], ids=["B2", "B4", "Z3"])
def test_products_vanish(T):
    x, y = T
    assert not np.any(x @ y) and not np.any(y @ x)


@pytest.mark.parametrize("cond", [1.0, 10.0])
class TestBandAndString:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_band_is_si(self, cond, n):
        T = conjugated(band(n, 1.0), cond, n)
        assert is_strongly_irreducible(T)
        assert invariant(T) == (1, (1,))

    @pytest.mark.parametrize("n", [2, 3])
    def test_band_sums(self, cond, n):
        B1, B2 = band(n, 1.0), band(n, 2.0)
        assert invariant(conjugated(direct_sum(B1, B2), cond, 7)) == (2, (1, 1))
        assert invariant(conjugated(direct_sum(B1, B1), cond, 8)) == (1, (2,))
        assert invariant(conjugated(direct_sum(direct_sum(B1, B1), B2), cond, 9)) == (2, (2, 1))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_string_is_si_and_doubles(self, cond, n):
        Z = string(n)
        assert is_strongly_irreducible(conjugated(Z, cond, n))
        assert invariant(conjugated(direct_sum(Z, Z), cond, n + 1)) == (1, (2,))

    @pytest.mark.parametrize("n", [2, 3])
    def test_band_similarity(self, cond, n):
        B1 = band(n, 1.0)
        assert not similar(conjugated(B1, cond, 3), conjugated(band(n, 2.0), cond, 4)).similar
        verdict = similar(B1, conjugated(B1, cond, 5), want_witness=True)
        assert verdict.similar and verdict.residual <= 1e-6
