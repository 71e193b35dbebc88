"""Christoffel-Darboux kernels, projections, and the kernel identities.

The kernel at level l is evaluated along two independent routes: the
l-term sum of dual-form times polynomial products (read off the
factorization) and the inverse-leading-minor bilinear form (solved against
the moment matrix, on the elimination of its leading minor that the
associated families of the run share).  The difference identities come in
three equivalent shapes that the harness compares pointwise:

  * the partition (Schur-complement tail) form, valid at every level,
  * the associated-family bilinear form, valid once the level dominates
    every shift exponent,
  * the per-entry quotient form away from the locus x^{n_a} == y^{n_b}.

The kernel sum, the reproducing sum, the projections and the associated
form are block sums, each taken by one `numerics.block_sum`: one
fraction-free product in exact runs, the terms added in order in float.
One `PointTable` per run holds the level-free values, and the projections
of members and monomials read their weights off it.  A level substitutes
once per (side, coordinate) on that elimination.  Only the pointwise
identities (the kernel sum, the inverse-minor kernel, the partition form as
two pairs, the associated form and the reproducing sum) are taken over the
grid, each as one block sum for every pair of a product grid
(`KernelEvaluator._grid_sum`).  Every kernel runs in the family's backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families
from .blockops import BlockMatrix, build_moment_matrix, _shift_tile
from .factorize import GaussFactors, lu_factorize
from .families import (
    LinearForm,
    MatrixPolynomial,
    associated_minus,
    associated_plus,
    dual_associated_minus,
    dual_associated_plus,
    dual_family,
    eval_form,
    eval_poly,
    form_against_monomial,
    pair_with_moments,
    primary_family,
)
from .numerics import (
    EXACT,
    FLOAT,
    Scalar,
    SingularLocusError,
    block_sum,
    gap_norm,
    integer_col,
    integer_row,
    mat_mul,
    mat_sub,
    mat_transpose,
    mat_zeros,
    memoized,
    substitute,
)
from .weights import SeedWeight, WeightFamily, hankel_family, validate_levels


@dataclass(frozen=True)
class IdentityResidual:
    """Both sides of one identity at one point, plus their max-norm gap."""

    lhs: tuple
    rhs: tuple
    residual: Scalar
    point: tuple

    @staticmethod
    def at(lhs, rhs, point, backend: str) -> "IdentityResidual":
        freeze = lambda m: tuple(tuple(r) for r in m)
        return IdentityResidual(freeze(lhs), freeze(rhs), gap_norm(lhs, rhs, backend), point)


def diag_power(x, nvec) -> list:
    """diag(x^{n_1}, ..., x^{n_N}), with zeros of x's backend."""
    m = mat_zeros(len(nvec), len(nvec), FLOAT if isinstance(x, float) else EXACT)
    for a, na in enumerate(nvec):
        m[a][a] = x**na
    return m


def below_shift_bound(level: int, max_shift: int) -> str:
    """Why the associated-family form is undefined at a level below the shift bound."""
    return (
        "level %d is below every-shift dominance (max shift %d); "
        "the associated-family form is undefined" % (level, max_shift)
    )


def _copy(m) -> list:
    return [list(row) for row in m]


class PointTable:
    """The level-free values of one family, moment matrix and factors.

    The level-l kernel is a partial sum over k < l of dual forms paired
    with polynomials, all read off one factorization, so none of the
    values below depends on l: the weights rho_j(x), the dual-form values
    at x, the polynomial values at y, the pairings of polynomials with
    forms, the form moments and the gaps x^{n_a} - y^{n_b} of the quotient
    form.  Each is computed on first use and kept for the table's lifetime;
    every level of a run reads one table.  The matrices returned are the
    memoized values themselves: read only.  `monomials[d]` is x^d I (int
    entries); `product` holds the distinct x's and y's of `grid`, the run's
    (x, y) pairs, when every pair of them is a grid point (both empty
    otherwise): each level takes its pointwise products over them, and
    solves per coordinate.
    """

    def __init__(self, fam: WeightFamily, g: BlockMatrix, factors: GaussFactors, grid=()):
        self.fam, self.g, self.factors = fam, g, factors
        self.polys = primary_family(factors)
        self.forms = dual_family(factors)
        n = fam.size
        eye = [[int(r == c) for c in range(n)] for r in range(n)]
        zero = [[0] * n for _ in range(n)]
        self.monomials = [MatrixPolynomial.of(n, [zero] * d + [eye]) for d in range(g.nrows)]
        xs, ys = (tuple(dict.fromkeys(p[i] for p in grid)) for i in (0, 1))
        self.product = (xs, ys) if len(set(grid)) == len(xs) * len(ys) else ((), ())
        self._memo = {}

    @memoized
    def weight(self, j: int, x) -> list:
        return self.fam.eval_weight(j, x)

    @memoized
    def form_value(self, k: int, x) -> list:
        """Transposed value of dual form k at x."""
        return eval_form(self.forms[k], self.fam, x, lambda j: self.weight(j, x))

    @memoized
    def poly_value(self, k: int, y) -> list:
        return eval_poly(self.polys[k], y)

    @memoized
    def pair(self, j: int, k: int) -> list:
        """Integral of polynomial j times dual form k (transposed): `pair_poly_form`
        from the memoized form moments."""
        moments = [self.form_moment(k, t) for t in range(j + 1)]
        return pair_with_moments(self.polys[j], moments, self.fam.backend, self.moment_col(k))

    @memoized
    def form_moment(self, k: int, t: int) -> list:
        return form_against_monomial(self.g, t, self.forms[k])

    @memoized
    def locus_gaps(self, x, y) -> list:
        """x^{n_a} - y^{n_b} for every entry (a, b), each power taken once per point."""
        px, py = ([c**k for k in self.fam.nvec] for c in (x, y))
        return [[p - q for q in py] for p in px]

    @memoized
    def moment_col(self, k: int):
        """`integer_col` of the form moments t < L of dual form k, for `pair_with_moments`."""
        return integer_col((self.form_moment(k, t) for t in range(self.g.nrows)), self.fam.backend)


class KernelEvaluator:
    """Level-l kernel machinery: a view of a point table at one level.

    Level-free values come from `table`, the `PointTable` that every level
    of a run shares; it must be built from these same family, moment
    matrix and factors objects (without one, a private table with no
    grid).  Values that depend on the level are memoized per evaluator:
    the leading-minor solutions, one substitution per (side, coordinate) on
    the elimination of g^{[l]} or its transpose that
    `families._lead_solution` keeps on g for the run's associated families;
    the associated families; the factors of each identity at x and at y;
    and the identities at (x, y), each pointwise one a block sum per level
    for the whole product grid (`_grid_sum`).  Matrices handed to callers
    are fresh copies.
    """

    def __init__(
        self, fam: WeightFamily, g: BlockMatrix, factors: GaussFactors, level: int, *, table=None
    ):
        if g.nrows != g.ncols:
            raise ValueError("kernel evaluation needs a square moment matrix")
        validate_levels((level,), fam.max_shift(), g.nrows)
        self.fam = fam
        self.g = g
        self.level = level
        table = PointTable(fam, g, factors) if table is None else table
        if not (table.fam is fam and table.g is g and table.factors is factors):
            raise ValueError("the point table was built from another family, g or factors")
        self.table = table
        self._memo = {}
        total = g.nrows
        head, tail = range(level), range(level, total)
        self._tr = g.slice(head, tail).to_dense()
        self._bl = g.slice(tail, head).to_dense()
        self._lam_m_t = mat_transpose(_shift_tile(fam.mvec, head, tail))
        self._lam_n = _shift_tile(fam.nvec, head, tail)
        self._tr_cols = integer_col([self._tr], fam.backend)
        self._bl_rows = integer_row([self._bl], fam.backend)

    # -- per-level tables ----------------------------------------------------

    def _chi1_col(self, count: int, y, offset: int = 0) -> list:
        n = self.fam.size
        col = []
        for k in range(offset, offset + count):
            for r in range(n):
                col.append([y**k if r == c else 0 for c in range(n)])
        return col

    @memoized
    def _chi2_row(self, count: int, x, offset: int = 0) -> list:
        n = self.fam.size
        rows = [[] for _ in range(n)]
        for k in range(offset, offset + count):
            w = self.table.weight(k, x)
            for r in range(n):
                rows[r].extend(w[r])
        return rows

    def _grid_sum(self, name: str, x, y, lefts, rights) -> list:
        """Sum over k of lefts(x)[k] @ rights(y)[k], memoized per (name, x, y).

        One block sum serves every pair of the table's product grid (a pair
        off it, or any pair at level 0, which sums nothing, alone): the left
        factors of every x are stacked by rows and the right factors of every
        y by columns.  Stacking keeps the float operations of each entry in
        order, and exact values are canonical, so each block has the bits of
        its own sum.  Read only."""
        block = self._memo.get((name, x, y))
        if block is None:
            n, backend = self.fam.size, self.fam.backend
            xs, ys = self.table.product
            if not self.level or x not in xs or y not in ys:
                xs, ys = (x,), (y,)
            stacked_lefts = [[row for m in ms for row in m] for ms in zip(*map(lefts, xs))]
            stacked_rights = [
                [[v for m in ms for v in m[r]] for r in range(len(ms[0]))]
                for ms in zip(*map(rights, ys))
            ]
            total = block_sum(n, stacked_lefts, stacked_rights, backend)
            for i, a in enumerate(xs):
                rows = total[i * n : (i + 1) * n]
                for j, b in enumerate(ys):
                    self._memo[name, a, b] = [row[j * n : (j + 1) * n] for row in rows]
            block = self._memo[name, x, y]
        return block

    @memoized
    def _right_piece(self, y) -> list:
        """(g^{[l]})^{-1} chi1^{[l]}(y), dense l*n x n."""
        elim = families._lead_solution(self.g, self.level, True)
        return substitute(elim, self._chi1_col(self.level, y))

    @memoized
    def _left_piece(self, x) -> list:
        """chi2^{[l]}(x)^T (g^{[l]})^{-1}, dense n x l*n."""
        elim = families._lead_solution(self.g, self.level, False)
        return mat_transpose(substitute(elim, mat_transpose(self._chi2_row(self.level, x))))

    @memoized
    def _schur_row(self, x) -> tuple:
        """x-side factors of the partition form: (A(x) Lambda_m^T, W(x) Lambda_n)."""
        w, backend = self._left_piece(x), self.fam.backend
        w_rows, tail = integer_row([w], backend), self.g.nrows - self.level
        w_tr = mat_mul(w, self._tr, backend, w_rows, self._tr_cols)
        a_row = mat_sub(self._chi2_row(tail, x, self.level), w_tr)
        a_lam = mat_mul(a_row, self._lam_m_t, backend)
        return a_lam, mat_mul(w, self._lam_n, backend, w_rows)

    @memoized
    def _schur_col(self, y) -> list:
        """y-side factor -C(y) = B R(y) - chi1_tail(y) of the partition form."""
        tail = self.g.nrows - self.level
        bl_w = mat_mul(self._bl, self._right_piece(y), self.fam.backend, self._bl_rows)
        return mat_sub(bl_w, self._chi1_col(tail, y, offset=self.level))

    def _kernel(self, x, y) -> list:
        table, levels = self.table, range(self.level)
        forms = lambda c: [table.form_value(k, c) for k in levels]
        polys = lambda c: [table.poly_value(k, c) for k in levels]
        return self._grid_sum("kernel", x, y, forms, polys)

    # -- kernel values -----------------------------------------------------

    def kernel_sum(self, x, y) -> list:
        """Sum over k < level of (dual form at x, transposed) times (polynomial at y)."""
        return _copy(self._kernel(x, y))

    def kernel_abc(self, x, y) -> list:
        """Inverse-leading-minor route: chi2 row times solved chi1 column."""
        n = self.fam.size
        if self.level == 0:
            return mat_zeros(n, n, self.fam.backend)
        chi2 = lambda c: [self._chi2_row(self.level, c)]
        return _copy(self._grid_sum("abc", x, y, chi2, lambda c: [self._right_piece(c)]))

    # -- difference identities ----------------------------------------------

    def cd_lhs(self, x, y) -> list:
        """x^n K(x, y) - K(x, y) y^n, the left side of both difference identities."""
        return _copy(self._cd_lhs(x, y))

    @memoized
    def _cd_lhs(self, x, y) -> list:
        # Exact entry (a, b) is K_ab (x^{n_a} - y^{n_b}); floats keep 0 * inf = NaN.
        k, nvec, backend = self._kernel(x, y), self.fam.nvec, self.fam.backend
        px, py = diag_power(x, nvec), diag_power(y, nvec)
        if backend == EXACT:
            return [[v * (px[a][a] - py[b][b]) for b, v in enumerate(r)] for a, r in enumerate(k)]
        return mat_sub(mat_mul(px, k, backend), mat_mul(k, py, backend))

    def cd_rhs_schur(self, x, y) -> list:
        """Partition form of the difference identity, valid at every level, as one two-pair sum."""
        n = self.fam.size
        if self.level == 0:
            return mat_zeros(n, n, self.fam.backend)
        rights = lambda c: [self._right_piece(c), self._schur_col(c)]
        return _copy(self._grid_sum("schur", x, y, self._schur_row, rights))

    @memoized
    def _associated(self) -> dict:
        """Associated families feeding the bilinear form."""
        level = self.level
        fam = self.fam
        if level < fam.max_shift():
            raise ValueError(below_shift_bound(level, fam.max_shift()))
        return {
            "plus_forms": [dual_associated_plus(self.g, level, j) for j in range(max(fam.mvec))],
            "minus_polys": [associated_minus(self.g, level - 1, k) for k in range(max(fam.mvec))],
            "minus_forms": [
                dual_associated_minus(self.g, level - 1, k) for k in range(max(fam.nvec))
            ],
            "plus_polys": [associated_plus(self.g, level, j) for j in range(max(fam.nvec))],
        }

    # One term of the associated form per (a, j): column a of a form value
    # at x times row a of a polynomial value at y; the minus terms enter
    # through negated rows.

    @memoized
    def _assoc_left(self, x) -> list:
        """x-side factor: per component a, column a of the plus forms, then
        of the minus forms in reverse."""
        assoc, fam = self._associated(), self.fam
        weight = lambda j: self.table.weight(j, x)
        plus = [eval_form(f, fam, x, weight) for f in assoc["plus_forms"]]
        minus = [eval_form(f, fam, x, weight) for f in assoc["minus_forms"]]
        cols = []
        for a in range(fam.size):
            ma, na = fam.mvec[a], fam.nvec[a]
            cols += [[v[a] for v in plus[j]] for j in range(ma)]
            cols += [[v[a] for v in minus[na - j - 1]] for j in range(na)]
        return mat_transpose(cols)

    @memoized
    def _assoc_right(self, y) -> list:
        """y-side factor: per component a, row a of the minus polynomials in
        reverse, then of the negated plus polynomials."""
        assoc, fam = self._associated(), self.fam
        minus = [eval_poly(p, y) for p in assoc["minus_polys"]]
        plus = [eval_poly(p, y) for p in assoc["plus_polys"]]
        rows = []
        for a in range(fam.size):
            ma, na = fam.mvec[a], fam.nvec[a]
            rows += [minus[ma - j - 1][a] for j in range(ma)]
            rows += [[-v for v in plus[j][a]] for j in range(na)]
        return rows

    def _assoc_form(self, x, y) -> list:
        left = lambda c: [self._assoc_left(c)]
        return self._grid_sum("associated", x, y, left, lambda c: [self._assoc_right(c)])

    def cd_rhs_associated(self, x, y) -> list:
        """Bilinear associated-family form of the difference identity."""
        return _copy(self._assoc_form(x, y))

    def cd_entry_quotient(self, a: int, b: int, x, y) -> Scalar:
        """Scalar quotient form for entry (a, b); 0-based components.

        Raises SingularLocusError on the locus x^{n_a} == y^{n_b}.
        """
        denom = self.table.locus_gaps(x, y)[a][b]
        if denom == 0:
            na, nb = self.fam.nvec[a], self.fam.nvec[b]
            raise SingularLocusError("x^%d == y^%d at (x, y) = (%s, %s)" % (na, nb, x, y))
        return self._assoc_form(x, y)[a][b] / denom

    # -- projections and the reproducing property ---------------------------
    #
    # Member k has k + 1 coefficients, so coefficient t of a projection sums
    # k = t..level-1, from an exact zero; level 0 gives one zero coefficient.
    # The table's members and monomials (by identity) read their weights off it.

    def project_poly(self, p: MatrixPolynomial) -> MatrixPolynomial:
        """Projection onto the span of the first `level` polynomials."""
        n, polys, levels = self.fam.size, self.table.polys, range(self.level)
        d, table, backend = len(p.coeffs) - 1, self.table, self.fam.backend
        if d < len(polys) and p is polys[d]:
            weights = [table.pair(d, k) for k in levels]
        elif d < len(table.monomials) and p is table.monomials[d]:
            weights = [table.form_moment(k, d) for k in levels]
        else:
            top, kept = range(len(p.coeffs)), table.moment_col
            moments = [[table.form_moment(k, t) for t in top] for k in levels]
            weights = [pair_with_moments(p, m, backend, kept(k)) for k, m in enumerate(moments)]
        # polys[k].coeffs[t] is block (k, t) of the lower factor, zero for k < t.
        rows, cols = integer_row(weights, backend), table.factors.lower.integer_col
        terms = lambda t: [polys[k].coeffs[t] for k in levels[t:]]
        coeffs = [block_sum(n, weights[t:], terms(t), backend, rows, cols(t)) for t in levels]
        return MatrixPolynomial.of(n, coeffs or [mat_zeros(n, n, backend)])

    def project_form(self, f: LinearForm) -> LinearForm:
        """Projection onto the span of the first `level` dual forms."""
        n, forms, levels = self.fam.size, self.table.forms, range(self.level)
        j, backend = len(f.coeffs) - 1, self.fam.backend
        if j < len(forms) and f is forms[j]:
            weights = [self.table.pair(k, j) for k in levels]
        else:
            # polys[k] has degree k, so it pairs with moments t <= k < level.
            moments = [form_against_monomial(self.g, t, f) for t in levels]
            weights = [pair_with_moments(self.table.polys[k], moments, backend) for k in levels]
        # forms[k].coeffs[t] is block (t, k) of the inverse upper factor, zero for k < t.
        rows, cols = self.table.factors.upper_inv.integer_row, integer_col(weights, backend)
        terms = lambda t: [forms[k].coeffs[t] for k in levels[t:]]
        coeffs = [block_sum(n, terms(t), weights[t:], backend, rows(t), cols) for t in levels]
        return LinearForm.of(n, coeffs or [mat_zeros(n, n, backend)])

    def reproducing_residual(self, x, y) -> Scalar:
        """Gap between the kernel and its self-convolution.

        The middle integrals are computed honestly from moment pairings,
        not assumed to be the identity.
        """
        levels = range(self.level)

        def lefts(c):
            forms = [self.table.form_value(j, c) for j in levels]
            return [forms[j] for j in levels for _ in levels]

        acc = self._grid_sum("reproducing", x, y, lefts, self._paired_polys)
        return gap_norm(acc, self._kernel(x, y), self.fam.backend)

    @memoized
    def _paired_polys(self, y) -> list:
        """pair(j, k) @ (polynomial k at y) for j, k < level, j before k, one product per k."""
        n, levels, backend = self.fam.size, range(self.level), self.fam.backend
        columns = []
        for k in levels:
            stack, rows = self._pair_stack(k)
            columns.append(mat_mul(stack, self.table.poly_value(k, y), backend, rows))
        return [columns[k][j * n : (j + 1) * n] for j in levels for k in levels]

    @memoized
    def _pair_stack(self, k: int) -> tuple:
        """(pair(j, k) for j < level, stacked by rows; its `integer_row`)."""
        stack = [row for j in range(self.level) for row in self.table.pair(j, k)]
        return stack, integer_row([stack], self.fam.backend)


def classical_cd(
    seed: SeedWeight, degree: int, x, y, backend: str = EXACT, table: PointTable | None = None
) -> IdentityResidual:
    """Two-term scalar Christoffel-Darboux identity for one classical weight.

    Reads the monic orthogonal polynomials and their norms off a point
    table of the seed's scalar Hankel family and returns both sides at
    (x, y).  Requires degree >= 1 and x != y.

    `table`, when given, must be a `PointTable` of the seed's Hankel
    problem whose factors cover more than `degree` levels; without one,
    a table at truncation degree + 1 is built.  Without block pivoting the
    factors of a leading truncation are the leading blocks of the full
    factors, computed by the same operations, so a caller sweeping degrees
    (the harness passes its run's table) factorizes once, and each
    polynomial is evaluated once per point for the table's lifetime.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if x == y:
        raise SingularLocusError("classical identity undefined on the diagonal")
    if table is None:
        fam = hankel_family(seed, backend)
        g = build_moment_matrix(fam, degree + 1)
        table = PointTable(fam, g, lu_factorize(g))
    elif table.factors.nlevels <= degree:
        raise ValueError(
            "factors cover %d levels, degree %d needs more" % (table.factors.nlevels, degree)
        )
    norms = [table.factors.normalization(k)[0][0] for k in range(degree)]
    px = [table.poly_value(k, x)[0][0] for k in range(degree + 1)]
    py = [table.poly_value(k, y)[0][0] for k in range(degree + 1)]
    lhs = sum(px[k] * py[k] / norms[k] for k in range(degree))
    rhs = (px[degree] * py[degree - 1] - px[degree - 1] * py[degree]) / (
        norms[degree - 1] * (x - y)
    )
    return IdentityResidual.at([[lhs]], [[rhs]], (x, y), backend)
