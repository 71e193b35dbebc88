"""Closed-form oracles: norms and coefficients of classical monic orthogonal
polynomials, which do not go through the pipeline.

Every check of a run compares two routes through the same moments and the
same factors, so a wrong closed-form moment would pass them all.  Here the
exact factors of a scalar Hankel problem are compared with known closed
forms: the normalization h_k (the pivot block U_kk, the squared norm of the
monic polynomial p_k) and the coefficients of p_k (row k of `lower`).
"""

from fractions import Fraction
from math import comb, factorial

import pytest

from mghankel.blockops import build_moment_matrix
from mghankel.factorize import lu_factorize
from mghankel.families import primary_family
from mghankel.weights import BaseMeasure, SeedWeight, hankel_family

UNIT = BaseMeasure.finite_interval(0, 1)


def scalar_factors(seed: SeedWeight, truncation: int):
    return lu_factorize(build_moment_matrix(hankel_family(seed, "exact"), truncation))


def norms(factors) -> list:
    blocks = [factors.normalization(k) for k in range(factors.nlevels)]
    assert all(len(b) == 1 and type(b[0][0]) is Fraction for b in blocks)
    return [b[0][0] for b in blocks]


def jacobi_seed(a: int, b: int) -> SeedWeight:
    """x^a (1 - x)^b on [0, 1], as ascending coefficients."""
    return SeedWeight.of([0] * a + [(-1) ** i * comb(b, i) for i in range(b + 1)], UNIT)


def jacobi_norm(k: int, a: int, b: int) -> Fraction:
    """k! G(k+a+1) G(k+b+1) G(k+a+b+1) / (G(2k+a+b+1) G(2k+a+b+2)), G(m) = (m-1)!."""
    f = factorial
    return Fraction(
        f(k) * f(k + a) * f(k + b) * f(k + a + b), f(2 * k + a + b) * f(2 * k + a + b + 1)
    )


def test_shifted_legendre_norms():
    """Monic shifted Legendre on [0, 1]: h_k = (k!)^4 / ((2k)!^2 (2k+1))."""
    f = factorial
    want = [Fraction(f(k) ** 4, f(2 * k) ** 2 * (2 * k + 1)) for k in range(20)]
    assert norms(scalar_factors(SeedWeight.of([1], UNIT), 20)) == want


def test_shifted_legendre_coefficients():
    """p_k(x) = (k!)^2 / (2k)! * sum_j (-1)^(k-j) C(k, j) C(k+j, j) x^j."""
    polys = primary_family(scalar_factors(SeedWeight.of([1], UNIT), 12))
    for k, p in enumerate(polys):
        scale = Fraction(factorial(k) ** 2, factorial(2 * k))
        want = [scale * (-1) ** (k - j) * comb(k, j) * comb(k + j, j) for j in range(k + 1)]
        assert [c[0][0] for c in p.coeffs] == want


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_laguerre_norms_and_coefficients(alpha):
    """Monic Laguerre for x^alpha e^{-x} on [0, inf): h_k = k! (k+alpha)!
    ((k!)^2 at alpha = 0), and the coefficient of x^j in p_k is
    (-1)^(k+j) k! C(k+alpha, k-j) / j!."""
    seed = SeedWeight.of([0] * alpha + [1], BaseMeasure.laguerre())
    factors = scalar_factors(seed, 12)
    f = factorial
    assert norms(factors) == [f(k) * f(k + alpha) for k in range(12)]
    for k, p in enumerate(primary_family(factors)):
        sign = lambda j: (-1) ** (k + j)
        want = [Fraction(sign(j) * f(k) * comb(k + alpha, k - j), f(j)) for j in range(k + 1)]
        assert [c[0][0] for c in p.coeffs] == want


@pytest.mark.parametrize("a,b", [(1, 2), (2, 0), (0, 3)])
def test_jacobi_seed_norms(a, b):
    """Polynomial seeds x^a (1 - x)^b on [0, 1] have closed-form norms."""
    assert norms(scalar_factors(jacobi_seed(a, b), 14)) == [jacobi_norm(k, a, b) for k in range(14)]
