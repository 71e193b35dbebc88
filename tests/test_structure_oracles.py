"""Structural oracles that take their own route through the factors.

The block-banded recurrence matrix: J = lower @ Lambda_n @ lower_inv, with
Lambda_n = `shift_power(nvec, L)`.  Since Lambda_n g = g Lambda_m^T and
lower @ g = upper, J is also upper @ Lambda_m^T @ upper_inv; the first form
has at most max n_a block superdiagonals and the second at most max m_b
block subdiagonals.  So away from the truncation edge, the last max shift
block rows and columns, every block of J with j - i outside
[-max m_b, max n_a] is exactly zero.

The Christoffel transform (Szegő, *Orthogonal Polynomials*, Thm. 2.5): for a
scalar weight w on [0, 1] and c outside it, the kernel
K_{k+1}(x, c) = sum_{j <= k} P_j(x) P_j(c) / h_j, made monic, is the monic
orthogonal polynomial of degree k for |x - c| w.  The perturbed weight is a
second seed with a second moment matrix and factorization, so a wrong
kernel or a wrong moment fails it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mghankel.blockops import build_moment_matrix, shift_power
from mghankel.factorize import lu_factorize
from mghankel.families import eval_poly, primary_family
from mghankel.harness import builtin_config
from mghankel.numerics import SingularLeadingMinorError
from mghankel.weights import hankel_family

from conftest import drawn_configs, interval_seed


def band_offsets(fam, g, factors) -> set:
    """The offsets j - i of the nonzero blocks of J below the truncation edge."""
    truncation = g.nrows
    j = factors.lower.matmul(shift_power(fam.nvec, truncation)).matmul(factors.lower_inv)
    edge = range(truncation - fam.max_shift())
    return {c - r for r in edge for c in edge if any(v != 0 for row in j.block(r, c) for v in row)}


def predicted_band(fam) -> range:
    return range(-max(fam.mvec), max(fam.nvec) + 1)


@pytest.mark.parametrize(
    "case, truncation",
    [("legendre", 12), ("multigraded-12", 10), ("multigraded-n2", 12), ("multigraded-n2", 20)],
)
def test_the_exact_recurrence_matrix_fills_its_predicted_band(case, truncation):
    """Every built-in: J is zero outside the band, and the band is attained."""
    fam = builtin_config(case).family()
    g = build_moment_matrix(fam, truncation)
    assert band_offsets(fam, g, lu_factorize(g)) == set(predicted_band(fam))


@settings(max_examples=50, deadline=None)
@given(config=drawn_configs("exact"))
def test_the_exact_recurrence_matrix_is_banded_on_drawn_families(config):
    fam = config.family()
    g = build_moment_matrix(fam, config.truncation)
    try:
        factors = lu_factorize(g)
    except SingularLeadingMinorError:
        return  # no factors, so no recurrence matrix to test
    assert band_offsets(fam, g, factors) <= set(predicted_band(fam))


def positive_on_unit_interval(coeffs) -> bool:
    """a + b x + c x^2 > 0 on [0, 1]: at both ends and at an interior vertex."""
    a, b, c = coeffs
    value = lambda x: a + b * x + c * x * x
    vertex = Fraction(-b, 2 * c) if c else None
    return value(0) > 0 and value(1) > 0 and not (vertex and 0 < vertex < 1 and value(vertex) <= 0)


quadratic_seeds = st.tuples(st.integers(1, 4), st.integers(-4, 3), st.integers(-3, 3)).filter(
    positive_on_unit_interval
)
outside_points = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)).flatmap(
    lambda d: st.sampled_from([-d, 1 + d])
)


def scalar_factors(seed, truncation: int):
    return lu_factorize(build_moment_matrix(hankel_family(seed, "exact"), truncation))


def lower_row(factors, k: int) -> list:
    """Row k of `lower`: the ascending coefficients of the monic polynomial P_k."""
    return [factors.lower.block(k, t)[0][0] for t in range(k + 1)]


@settings(max_examples=20, deadline=None)
@given(coeffs=quadratic_seeds, c=outside_points)
def test_the_monic_kernel_at_an_outside_point_is_the_christoffel_transform(coeffs, c):
    truncation = 8
    factors = scalar_factors(interval_seed(*coeffs), truncation)
    # sign * (x - c) is positive on [0, 1]: c < 0 keeps the sign, c > 1 flips it.
    sign = 1 if c < 0 else -1
    perturbed = [sign * (s - c * w) for s, w in zip([0, *coeffs], [*coeffs, 0])]
    christoffel = scalar_factors(interval_seed(*perturbed), truncation)
    polys, rows = primary_family(factors), [lower_row(factors, j) for j in range(truncation)]
    at_c = [eval_poly(p, c)[0][0] / factors.normalization(j)[0][0] for j, p in enumerate(polys)]
    for k in range(truncation - 1):
        kernel = [sum(rows[j][t] * at_c[j] for j in range(t, k + 1)) for t in range(k + 1)]
        assert [v / at_c[k] for v in kernel] == lower_row(christoffel, k), (k, coeffs, c)
