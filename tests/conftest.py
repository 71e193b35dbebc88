"""Shared fixtures: the recurring families, moment matrices and factors."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from mghankel.blockops import BlockMatrix, build_moment_matrix
from mghankel.factorize import lu_factorize
from mghankel.harness import builtin_config
from mghankel.numerics import EXACT, mat_add, mat_eye, mat_zeros
from mghankel.weights import BaseMeasure, SeedWeight, WeightFamily, hankel_family

UNIT_INTERVAL = BaseMeasure.finite_interval(0, 1)


def interval_seed(*coeffs) -> SeedWeight:
    return SeedWeight.of(list(coeffs), UNIT_INTERVAL)


# Small rationals mixed with ints, negative entries included.
exact_scalars = st.integers(-9, 9) | st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


def matrices(rows: int, cols: int, scalars=exact_scalars):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def typed(m) -> list:
    """Entries as (type, repr): equal only for equal types and bit-equal floats."""
    return [[(type(v), repr(v)) for v in row] for row in m]


def sum_of_products(a, b) -> list:
    """Oracle product: every entry the plain sum of its scalar products."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def blockwise_sum(lefts, rights) -> list:
    """Oracle block sum: the first product, then `mat_add` left to right."""
    acc = sum_of_products(lefts[0], rights[0])
    for a, b in zip(lefts[1:], rights[1:]):
        acc = mat_add(acc, sum_of_products(a, b))
    return acc


def blockwise_matmul(p: BlockMatrix, q: BlockMatrix) -> BlockMatrix:
    """Oracle block product, one `blockwise_sum` per output block."""
    cols = [[row[j] for row in q.blocks] for j in range(q.ncols)]
    return BlockMatrix(p.n, [[blockwise_sum(row, col) for col in cols] for row in p.blocks])


def matrix_unit(n: int, a: int) -> list:
    """E_aa: 1 at (a, a), zero elsewhere."""
    m = [[0] * n for _ in range(n)]
    m[a][a] = 1
    return m


def unit_column(n: int, nblocks: int, j: int) -> BlockMatrix:
    """Block column e_j with the identity block in row j."""
    blocks = [[mat_eye(n) if i == j else mat_zeros(n, n)] for i in range(nblocks)]
    return BlockMatrix(n, blocks)


def block_zeros(n: int, nrows: int, ncols: int, backend: str = EXACT) -> BlockMatrix:
    return BlockMatrix(n, [[mat_zeros(n, n, backend) for _ in range(ncols)] for _ in range(nrows)])


def is_monic(p) -> bool:
    lead = p.coeffs[-1]
    return all(lead[r][c] == (1 if r == c else 0) for r in range(p.n) for c in range(p.n))


@pytest.fixture(scope="session")
def legendre_family():
    return hankel_family(interval_seed(1))


@pytest.fixture(scope="session")
def hilbert_bundle(legendre_family):
    """(family, g, factors) for the unit-interval Hankel family at L=4."""
    g = build_moment_matrix(legendre_family, 4)
    return legendre_family, g, lu_factorize(g)


@pytest.fixture(scope="session")
def legendre_bundle(legendre_family):
    g = build_moment_matrix(legendre_family, 10)
    return legendre_family, g, lu_factorize(g)


@pytest.fixture(scope="session")
def spec_mg_family():
    """The degenerate two-seed example family: densities 1 and x^2."""
    return WeightFamily(
        (1,), (2,), [[[interval_seed(1), interval_seed(0, 0, 1)]]]
    )


@pytest.fixture(scope="session")
def mg12_bundle():
    fam = builtin_config("multigraded-12").family()
    g = build_moment_matrix(fam, 10)
    return fam, g, lu_factorize(g)


@pytest.fixture(scope="session")
def mgn2_bundle():
    fam = builtin_config("multigraded-n2").family()
    g = build_moment_matrix(fam, 10)
    return fam, g, lu_factorize(g)


@pytest.fixture(scope="session")
def hermite_bundle():
    fam = builtin_config("hermite").family()
    g = build_moment_matrix(fam, 10)
    return fam, g, lu_factorize(g)


@pytest.fixture(scope="session")
def rational_grid():
    return [Fraction(k, 7) for k in (1, 2, 3, 5, 6)]
