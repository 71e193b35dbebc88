"""Shared fixtures: the recurring families, moment matrices and factors."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from mghankel.blockops import BlockMatrix, build_moment_matrix, partition
from mghankel.cdkernel import KernelEvaluator
from mghankel.factorize import LOWER, UPPER, GaussFactors, invert_block_triangular, lu_factorize
from mghankel.families import MatrixPolynomial, eval_form, eval_poly, pair_poly_form
from mghankel.harness import RunConfig, builtin_config
from mghankel.numerics import (
    EXACT,
    ResidualTracker,
    block_sum,
    eliminate_leading,
    gap_norm,
    invert_dense,
    mat_eye,
    mat_sub,
    mat_transpose,
    mat_zeros,
    matrix_residual_norm,
    substitute,
)
from mghankel.weights import BaseMeasure, SeedWeight, WeightFamily, hankel_family

UNIT_INTERVAL = BaseMeasure.finite_interval(0, 1)


def interval_seed(*coeffs) -> SeedWeight:
    return SeedWeight.of(list(coeffs), UNIT_INTERVAL)


# Small rationals mixed with ints, negative entries included.
exact_scalars = st.integers(-9, 9) | st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


# Floats for bit-for-bit tests: moderate values, whose sums round differently
# in another order; the IEEE edges -0.0, the infinities and NaN, drawn often;
# and any other 64-bit float.
ieee_floats = (
    st.floats(-100, 100)
    | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
    | st.floats(allow_nan=True, allow_infinity=True, width=64)
)


def matrices(rows: int, cols: int, scalars=exact_scalars):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def mat_add(a, b) -> list:
    """Entrywise A + B: the oracle sums add one block at a time."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def typed(m) -> list:
    """Entries as (type, repr): equal only for equal types and bit-equal floats."""
    return [[(type(v), repr(v)) for v in row] for row in m]


def sum_of_products(a, b, start=0) -> list:
    """Oracle product: every entry the plain sum of its scalar products,
    added to `start`; `Fraction(0)` gives the exact oracle, whose entries
    are Fractions."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), start) for col in cols] for row in a]


def blockwise_sum(lefts, rights, start=0) -> list:
    """Oracle block sum: the first product, then `mat_add` left to right."""
    acc = sum_of_products(lefts[0], rights[0], start)
    for a, b in zip(lefts[1:], rights[1:]):
        acc = mat_add(acc, sum_of_products(a, b, start))
    return acc


def blockwise_matmul(p: BlockMatrix, q: BlockMatrix, start=0) -> BlockMatrix:
    """Oracle block product, one `blockwise_sum` per output block."""
    cols = [[row[j] for row in q.blocks] for j in range(q.ncols)]
    return BlockMatrix(p.n, [[blockwise_sum(row, col, start) for col in cols] for row in p.blocks])


# -- the dense route: the reference for the exact gaps settled on integers ---


def dense_product(chain) -> BlockMatrix:
    """The exact product of the block matrices in `chain`, with Fraction sums."""
    return functools.reduce(lambda p, q: blockwise_matmul(p, q, Fraction(0)), chain)


def dense_gaps(chain, target: BlockMatrix) -> list:
    """`gap_norm` of each block of `dense_product(chain)` against the same block of `target`."""
    pairs = zip(dense_product(chain).blocks, target.blocks)
    return [[gap_norm(p, q, EXACT) for p, q in zip(*row)] for row in pairs]


def dense_factorization_residual(g: BlockMatrix, factors: GaussFactors):
    return matrix_residual_norm(dense_gaps([factors.lower_inv, factors.upper], g))


def dense_nested_truncation_residual(g: BlockMatrix, factors: GaussFactors) -> tuple:
    """(worst residual, first level reaching it) of inv(lower^{[l]}) @ upper^{[l]}
    against g^{[l]}, each leading truncation of lower inverted densely.  Lower
    is read as block substitution reads it: its blocks above the diagonal are
    zero."""
    n, levels = g.n, g.nrows
    lower = BlockMatrix(n, [
        [blk if j <= i else mat_zeros(n, n) for j, blk in enumerate(row)]
        for i, row in enumerate(factors.lower.blocks)
    ])
    worst, worst_level = 0, None
    for level in range(1, levels + 1):
        head = range(level)
        inverse = invert_dense(lower.slice(head, head).to_dense())
        chain = [BlockMatrix.from_dense(g.n, inverse), factors.upper.slice(head, head)]
        residual = matrix_residual_norm(dense_gaps(chain, g.slice(head, head)))
        if residual > worst:
            worst, worst_level = residual, level
    return worst, worst_level


def dense_biorthogonality(g: BlockMatrix, factors: GaussFactors) -> tuple:
    """(residual, worst location) of lower @ g @ upper_inv against I, blockwise."""
    tracker = ResidualTracker()
    chain = [factors.lower, g, factors.upper_inv]
    for i, row in enumerate(dense_gaps(chain, BlockMatrix.identity(g.n, g.nrows))):
        for j, r in enumerate(row):
            tracker.record(r, 0, "(i=%d, j=%d)" % (i, j))
    return tracker.residual, tracker.worst


def block_doolittle(g: BlockMatrix) -> GaussFactors:
    """Oracle factorization: block Doolittle elimination, one Schur update
    per block pair, then both triangular factors inverted by substitution."""
    if g.nrows != g.ncols:
        raise ValueError("factorization needs a square block matrix")
    n, levels = g.n, g.nrows
    backend = g.backend
    low = [[mat_zeros(n, n, backend) for _ in range(levels)] for _ in range(levels)]
    up = [[mat_zeros(n, n, backend) for _ in range(levels)] for _ in range(levels)]
    pivot_invs = []
    for i in range(levels):
        for j in range(levels):
            acc = [list(r) for r in g.block(i, j)]
            for k in range(min(i, j)):
                acc = mat_sub(acc, sum_of_products(low[i][k], up[k][j]))
            if j < i:
                low[i][j] = sum_of_products(acc, pivot_invs[j])
            else:
                up[i][j] = acc
        low[i][i] = mat_eye(n, backend)
        pivot_invs.append(substitute(eliminate_leading(up[i][i], backend, i), mat_eye(n, backend)))
    lower_inv = BlockMatrix(n, low)
    upper = BlockMatrix(n, up)
    return GaussFactors(
        lower=invert_block_triangular(lower_inv, LOWER),
        lower_inv=lower_inv,
        upper=upper,
        upper_inv=invert_block_triangular(upper, UPPER),
    )


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


def level_zero_plus(n: int, j: int, backend: str = EXACT) -> MatrixPolynomial:
    """Oracle for the plus family at level 0: nothing to annihilate, so x^j,
    with the zeros and the identity of the run's backend."""
    return MatrixPolynomial.of(n, [mat_zeros(n, n, backend)] * j + [mat_eye(n, backend)])


# -- per-call associated solves: oracles for the batched solves -------------
#
# Each builder call eliminates its own leading minor against its own
# right-hand side; the dual builders run the primal ones on the leading
# blocks of g^T and transpose the coefficients back.


def solve_leading_minor(g: BlockMatrix, level: int, rhs) -> list:
    """Solve (g^{[level]})^T X = rhs against the leading block minor."""
    head = range(level)
    tiles = [[tuple(zip(*g.block(k, i))) for k in head] for i in head]  # g[k, i]^T
    dense = [[x for tile in row for x in tile[r]] for row in tiles for r in range(g.n)]
    message = "leading minor of order %d is singular" % level
    return substitute(eliminate_leading(dense, g.backend, level, message), rhs)


def transposed_lead(g: BlockMatrix, order: int) -> BlockMatrix:
    """Leading order x order blocks of g^T."""
    head = range(order)
    return BlockMatrix(g.n, [[mat_transpose(g.block(k, i)) for k in head] for i in head])


def solved_plus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    n = g.n
    flat = [
        [g.block(level + j, k)[r][c] for k in range(level) for c in range(n)] for r in range(n)
    ]
    row = mat_transpose(solve_leading_minor(g, level, mat_transpose(flat)))
    coeffs = [[[-row[r][k * n + c] for c in range(n)] for r in range(n)] for k in range(level)]
    return MatrixPolynomial.of(n, [*coeffs, *level_zero_plus(n, j, g.backend).coeffs])


def solved_minus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    n = g.n
    rhs = [[0] * n for _ in range((level + 1) * n)]
    for c in range(n):
        rhs[(level - j) * n + c][c] = 1
    row = mat_transpose(solve_leading_minor(g, level + 1, rhs))
    coeffs = [[[row[r][k * n + c] for c in range(n)] for r in range(n)] for k in range(level + 1)]
    return MatrixPolynomial.of(n, coeffs)


def transposed_blocks(p: MatrixPolynomial) -> MatrixPolynomial:
    return MatrixPolynomial.of(p.n, [mat_transpose(c) for c in p.coeffs])


def solved_dual_plus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    return transposed_blocks(solved_plus(transposed_lead(g, level + j + 1), level, j))


def solved_dual_minus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    return transposed_blocks(solved_minus(transposed_lead(g, level + 1), level, j))


@st.composite
def drawn_configs(draw, backend, sizes=st.integers(1, 3)):
    """Seeded families drawn as `mgbench/workloads.draw_family` draws them:
    small-integer quadratic densities on [0, 1], m_b seeds per entry, block
    size N from `sizes`.  The config names level 0 alone; its moment matrix
    may be singular."""
    size = draw(sizes)
    nvec = tuple(draw(st.integers(1, 2)) for _ in range(size))
    mvec = tuple(draw(st.integers(1, 2)) for _ in range(size))
    truncation = draw(st.integers(3, 7 - size))
    quadratic = st.tuples(st.integers(1, 4), st.integers(-2, 3), st.integers(-2, 3))
    seeds = tuple(
        tuple(
            tuple(interval_seed(*draw(quadratic)) for _ in range(mvec[b])) for b in range(size)
        )
        for _ in range(size)
    )
    return RunConfig(nvec, mvec, seeds, truncation, (0,), backend=backend)


# -- per-coordinate leading-minor solves: the oracle for the batched solves --


class PerCoordinateEvaluator(KernelEvaluator):
    """A kernel evaluator that eliminates its own leading minor once per
    coordinate and call and solves that coordinate's column alone,
    memoizing nothing of the solves: the reference for the substitutions
    on the run's shared elimination."""

    def _minor(self) -> list:
        return partition(self.g, self.level).tl.to_dense()

    def _solve(self, minor, rhs) -> list:
        """One solve; a singular minor raises the shared elimination's message."""
        message = "leading minor of order %d is singular" % self.level
        return substitute(eliminate_leading(minor, self.fam.backend, self.level, message), rhs)

    def _right_piece(self, y) -> list:
        return self._solve(self._minor(), self._chi1_col(self.level, y))

    def _left_piece(self, x) -> list:
        minor, rhs = mat_transpose(self._minor()), mat_transpose(self._chi2_row(self.level, x))
        return mat_transpose(self._solve(minor, rhs))


# -- per-point products: the oracle for the products taken over the grid ----


class PerPointEvaluator(KernelEvaluator):
    """A kernel evaluator that takes every pointwise product at its own
    (x, y), by the per-point bodies the evaluator had before it took each
    product once over the grid, and memoizes none of them: the reference
    for the grid products."""

    def _kernel(self, x, y) -> list:
        table, levels = self.table, range(self.level)
        forms_x = [table.form_value(k, x) for k in levels]
        polys_y = [table.poly_value(k, y) for k in levels]
        return block_sum(self.fam.size, forms_x, polys_y, self.fam.backend)

    def kernel_abc(self, x, y) -> list:
        n = self.fam.size
        if self.level == 0:
            return mat_zeros(n, n, self.fam.backend)
        return sum_of_products(self._chi2_row(self.level, x), self._right_piece(y))

    def cd_rhs_schur(self, x, y) -> list:
        n, backend = self.fam.size, self.fam.backend
        if self.level == 0:
            return mat_zeros(n, n, backend)
        a_lam, w_lam = self._schur_row(x)
        right = self._right_piece(y)
        tail = self._chi1_col(self.g.nrows - self.level, y, offset=self.level)
        schur_col = mat_sub(tail, sum_of_products(self._bl, right))  # C(y)
        term1 = sum_of_products(a_lam, right)
        term2 = sum_of_products(w_lam, schur_col)
        return mat_sub(term1, term2)

    def _assoc_form(self, x, y) -> list:
        assoc, fam = self._associated(), self.fam
        weight = lambda j: self.table.weight(j, x)
        plus_forms_x = [eval_form(f, fam, x, weight) for f in assoc["plus_forms"]]
        minus_forms_x = [eval_form(f, fam, x, weight) for f in assoc["minus_forms"]]
        minus_polys_y = [eval_poly(p, y) for p in assoc["minus_polys"]]
        plus_polys_y = [eval_poly(p, y) for p in assoc["plus_polys"]]
        cols, rows = [], []
        for a in range(fam.size):
            ma, na = fam.mvec[a], fam.nvec[a]
            for j in range(ma):
                cols.append([v[a] for v in plus_forms_x[j]])
                rows.append(minus_polys_y[ma - j - 1][a])
            for j in range(na):
                cols.append([v[a] for v in minus_forms_x[na - j - 1]])
                rows.append([-v for v in plus_polys_y[j][a]])
        return block_sum(fam.size, [mat_transpose(cols)], [rows], fam.backend)

    def reproducing_residual(self, x, y):
        levels = range(self.level)
        forms_x = [self.table.form_value(j, x) for j in levels]
        lefts = [forms_x[j] for j in levels for _ in levels]
        acc = block_sum(self.fam.size, lefts, self._paired_polys(y), self.fam.backend)
        return matrix_residual_norm(mat_sub(acc, self._kernel(x, y)))


def is_monic(p) -> bool:
    lead = p.coeffs[-1]
    return all(lead[r][c] == (1 if r == c else 0) for r in range(p.n) for c in range(p.n))


# -- per-term loops: oracles for the block sums of the kernel module ---------
#
# Each adds one product at a time to a zero, in the order the kernel module
# sums its terms; floats must agree bit for bit.


def term_kernel(fam, forms_x, polys_y) -> list:
    """Sum of forms_x[k] @ polys_y[k] from a zero of the family's backend."""
    acc = mat_zeros(fam.size, fam.size, fam.backend)
    for f, p in zip(forms_x, polys_y):
        acc = mat_add(acc, sum_of_products(f, p))
    return acc


def term_reproducing(fam, forms_x, polys_y, pairs):
    """Reproducing residual with pairs[j][k] = pair_poly_form(g, polys[j], forms[k]),
    the terms added j then k."""
    levels = range(len(forms_x))
    acc = mat_zeros(fam.size, fam.size, fam.backend)
    for j in levels:
        for k in levels:
            product = sum_of_products(pairs[j][k], polys_y[k])
            acc = mat_add(acc, sum_of_products(forms_x[j], product))
    return matrix_residual_norm(mat_sub(acc, term_kernel(fam, forms_x, polys_y)))


def term_associated(fam, plus_forms, minus_polys, minus_forms, plus_polys) -> list:
    """Associated bilinear form, one scalar product added or subtracted at a time."""
    n = fam.size
    acc = mat_zeros(n, n, fam.backend)
    for a in range(n):
        ma, na = fam.mvec[a], fam.nvec[a]
        for j in range(ma):
            for r in range(n):
                for c in range(n):
                    acc[r][c] += plus_forms[j][r][a] * minus_polys[ma - j - 1][a][c]
        for j in range(na):
            for r in range(n):
                for c in range(n):
                    acc[r][c] -= minus_forms[na - j - 1][r][a] * plus_polys[j][a][c]
    return acc


def term_project_poly(g, polys, forms, level, p) -> MatrixPolynomial:
    """Projection of p, each product added to a zero of g's backend."""
    n = g.n
    coeffs = [mat_zeros(n, n, g.backend) for _ in range(max(level, 1))]
    for k in range(level):
        weight = pair_poly_form(g, p, forms[k])
        for t, c in enumerate(polys[k].coeffs):
            coeffs[t] = mat_add(coeffs[t], sum_of_products(weight, c))
    return MatrixPolynomial.of(n, coeffs)


def term_project_form(g, polys, forms, level, f) -> MatrixPolynomial:
    """Projection of f, each product added to a zero of g's backend."""
    n = g.n
    coeffs = [mat_zeros(n, n, g.backend) for _ in range(max(level, 1))]
    for k in range(level):
        weight = pair_poly_form(g, polys[k], f)
        for u, d in enumerate(forms[k].coeffs):
            coeffs[u] = mat_add(coeffs[u], sum_of_products(d, weight))
    return MatrixPolynomial.of(n, coeffs)


def term_combine(terms, right=False) -> MatrixPolynomial:
    """Sum of factor-times-member terms, the factor on the left of each
    coefficient or, when `right`, on its right, each product added to its
    coefficient's exact zero, term by term (`families._combine`)."""
    terms = list(terms)
    n = terms[0][1].n
    coeffs = [mat_zeros(n, n) for _ in range(max(len(p.coeffs) for _, p in terms))]
    for m, p in terms:
        for k, c in enumerate(p.coeffs):
            product = sum_of_products(c, m) if right else sum_of_products(m, c)
            coeffs[k] = mat_add(coeffs[k], product)
    return MatrixPolynomial.of(n, coeffs)


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
