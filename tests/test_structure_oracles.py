"""Structural oracles that take their own route through the factors.

The block-banded recurrence matrix: J = lower @ Lambda_n @ lower_inv, with
Lambda_n = `shift_power(nvec, L)`.  Since Lambda_n g = g Lambda_m^T and
lower @ g = upper, J is also upper @ Lambda_m^T @ upper_inv; the first form
has at most max n_a block superdiagonals and the second at most max m_b
block subdiagonals.  So away from the truncation edge, the last max shift
block rows and columns, every block of J with j - i outside
[-max m_b, max n_a] is exactly zero.

In float the out-of-band blocks are not zero.  For monic Hermite and monic
shifted Legendre, J has a closed form, so each row's true error is known
and can be set against its band leak, the largest |J| outside the band over
the largest inside.  Above rounding level the leak tracks the Hermite error
to within 1.2x, but it understates the Legendre error by up to 8.3e4x: there
the float error sits in the band.

The Christoffel transform (Szegő, *Orthogonal Polynomials*, Thm. 2.5): for a
scalar weight w on [0, 1] and c outside it, the kernel
K_{k+1}(x, c) = sum_{j <= k} P_j(x) P_j(c) / h_j, made monic, is the monic
orthogonal polynomial of degree k for |x - c| w.  The perturbed weight is a
second seed with a second moment matrix and factorization, so a wrong
kernel or a wrong moment fails it.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import event, example, given, reject, settings, strategies as st

from mghankel.blockops import build_moment_matrix, shift_power
from mghankel.factorize import lu_factorize
from mghankel.families import eval_poly, primary_family
from mghankel.harness import RunConfig, builtin_config, run
from mghankel.numerics import SingularLeadingMinorError
from mghankel.weights import BaseMeasure, SeedWeight, hankel_family

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


# Adler-van Moerbeke shapes: seed r of every entry on [r/8, r/8 + 1], so
# seeds that share an entry do not share an interval and cannot degenerate
# into one another exactly.  The common support is [1/4, 1]; the grid lies
# inside it and off the locus x^{n_a} == y^{n_b}, since every y^b keeps a
# factor 5 in its denominator and no x^a has one.
STAGGERED_GRID = tuple(
    (Fraction(3, 4) + Fraction(i, 24), Fraction(3, 4) + Fraction(j, 25))
    for i in range(1, 6)
    for j in range(1, 6)
)


def staggered_config(nvec, mvec, weights) -> RunConfig:
    """Seed r of entry (a, b) is weights[a][b][r] = (c0, c1), the density
    c0 + c1 x on [r/8, r/8 + 1]; L = 2 max shift + 2, every level, every
    check on `STAGGERED_GRID`."""

    def seed(r, coeffs):
        low = Fraction(r, 8)
        return SeedWeight.of(coeffs, BaseMeasure.finite_interval(low, low + 1))

    seeds = [[[seed(r, c) for r, c in enumerate(entry)] for entry in row] for row in weights]
    shift = max(*nvec, *mvec)
    return RunConfig(nvec, mvec, seeds, 2 * shift + 2, None, grid=STAGGERED_GRID)


shifts = st.integers(1, 3)
positive_weights = st.tuples(
    st.fractions(Fraction(1, 4), 4, max_denominator=4), st.fractions(0, 4, max_denominator=4)
)


@st.composite
def staggered_configs(draw):
    size = draw(st.integers(1, 3))
    nvec = tuple(draw(shifts) for _ in range(size))
    mvec = tuple(draw(shifts) for _ in range(size))
    weights = [[[draw(positive_weights) for _ in range(m)] for m in mvec] for _ in nvec]
    return staggered_config(nvec, mvec, weights)


def unit_weights(nvec, mvec) -> list:
    """(1 + [a = b]) + x for every seed."""
    return [[[(1 + (a == b), 1)] * m for b, m in enumerate(mvec)] for a in range(len(nvec))]


@settings(max_examples=20, deadline=None)
@example(config=staggered_config((1,), (3,), unit_weights((1,), (3,))))
@example(config=staggered_config((2,), (3,), unit_weights((2,), (3,))))
@given(config=staggered_configs())
def test_staggered_shapes_pass_every_check_and_keep_the_band(config):
    """Every drawn shape (n; m), n_a and m_b up to 3 and N up to 3: each
    check passes exactly, or is skipped with its note, and J is zero
    outside its predicted band.  A moment matrix that does not factorize
    is rejected and counted; a failing check is never redrawn."""
    fam = config.family()
    g = build_moment_matrix(fam, config.truncation)
    try:
        factors = lu_factorize(g)
    except SingularLeadingMinorError:
        event("moment matrix does not factorize")
        reject()
    assert band_offsets(fam, g, factors) <= set(predicted_band(fam))
    for entry in run(config).entries:
        assert entry.status == "pass" or (entry.status == "skipped" and entry.notes), entry


def hermite_recurrence(k: int, j: int) -> Fraction:
    """Monic Hermite for exp(-x^2): x p_k = p_{k+1} + (k/2) p_{k-1}."""
    return Fraction({k + 1: 1, k - 1: Fraction(k, 2)}.get(j, 0))


def shifted_legendre_recurrence(k: int, j: int) -> Fraction:
    """Monic Legendre on [0, 1]: x p_k = p_{k+1} + p_k / 2 + k^2 / (4 (4k^2 - 1)) p_{k-1}."""
    below = Fraction(k * k, 4 * (4 * k * k - 1))
    return Fraction({k + 1: 1, k: Fraction(1, 2), k - 1: below}.get(j, 0))


def scalar_recurrence(case: str, backend: str, truncation: int) -> list:
    """The rows of J for a scalar built-in below the edge, as scalars."""
    fam = dataclasses.replace(builtin_config(case), backend=backend).family()
    factors = lu_factorize(build_moment_matrix(fam, truncation))
    j = factors.lower.matmul(shift_power(fam.nvec, truncation)).matmul(factors.lower_inv)
    return [[j.block(k, c)[0][0] for c in range(truncation)] for k in range(truncation - 1)]


def test_the_exact_legendre_recurrence_matrix_is_the_closed_form():
    rows = scalar_recurrence("legendre", "exact", 12)
    assert rows == [[shifted_legendre_recurrence(k, c) for c in range(12)] for k in range(11)]


# A row is above rounding level when its true relative error is at least
# ROUNDING_LEVEL, about 450 ulps.  Each factor is the largest ratio between
# leak and true error over those rows, measured when the test was written
# (1.17 at Hermite row 10; 8.3e4 at Legendre row 13), rounded up once.
ROUNDING_LEVEL = 1e-13
LEAK_FACTORS = {"hermite": 1.2, "legendre": 1e5}


@pytest.mark.parametrize(
    "case, truncation, closed_form, rows",
    [
        ("hermite", 30, hermite_recurrence, range(10, 29)),
        ("legendre", 20, shifted_legendre_recurrence, range(4, 19)),
    ],
)
def test_the_float_band_leak_is_within_its_recorded_factor_of_the_true_error(
    case, truncation, closed_form, rows
):
    """Per row: the leak (largest |J| outside [k-1, k+1] over the largest
    inside) against the true error (largest |J - closed form| over the
    largest closed-form entry), in both directions."""
    factor, asserted = LEAK_FACTORS[case], []
    for k, row in enumerate(scalar_recurrence(case, "float", truncation)):
        band = range(max(0, k - 1), k + 2)
        inside = max(abs(row[c]) for c in band)
        leak = max([abs(v) for c, v in enumerate(row) if c not in band], default=0.0) / inside
        exact = [closed_form(k, c) for c in range(truncation)]
        error = max(abs(v - w) for v, w in zip(row, exact)) / max(map(abs, exact))
        if error >= ROUNDING_LEVEL:
            asserted.append(k)
            assert error / factor <= leak <= error * factor, (k, leak, error)
    assert asserted == list(rows)


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
