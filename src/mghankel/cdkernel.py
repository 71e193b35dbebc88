"""Christoffel-Darboux kernels, projections, and the kernel identities.

The kernel at level l is evaluated along two independent routes: the
l-term sum of dual-form times polynomial products (read off the
factorization) and the inverse-leading-minor bilinear form (a fresh dense
solve against the moment matrix).  The difference identities come in three
equivalent shapes that the harness compares pointwise:

  * the partition (Schur-complement tail) form, valid at every level,
  * the associated-family bilinear form, valid once the level dominates
    every shift exponent,
  * the per-entry quotient form away from the locus x^{n_a} == y^{n_b}.

The kernel sum, the reproducing sum, the projections and the associated
form are block sums, each taken by one `numerics.mat_mul_sum`: one
fraction-free product in exact runs, the terms added in order in float.
One `PointTable` per run holds the level-free values, and the projections
of members and monomials read their weights off it; a level solves its
leading minor once per side for every grid coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockops import BlockMatrix, build_moment_matrix, partition, shift_power
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
    mat_mul,
    mat_sub,
    mat_transpose,
    mat_zeros,
    matrix_residual_norm,
    memoized,
    solve_leading,
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
    def at(lhs, rhs, point) -> "IdentityResidual":
        freeze = lambda m: tuple(tuple(r) for r in m)
        return IdentityResidual(
            freeze(lhs), freeze(rhs), matrix_residual_norm(mat_sub(lhs, rhs)), point
        )


def diag_power(x, nvec) -> list:
    """diag(x^{n_1}, ..., x^{n_N}), with zeros of x's backend."""
    m = mat_zeros(len(nvec), len(nvec), FLOAT if isinstance(x, float) else EXACT)
    for a, na in enumerate(nvec):
        m[a][a] = x**na
    return m


def _copy(m) -> list:
    return [list(row) for row in m]


class PointTable:
    """The level-free values of one family, moment matrix and factors.

    The level-l kernel is a partial sum over k < l of dual forms paired
    with polynomials, all read off one factorization, so none of the
    values below depends on l: the weights rho_j(x), the dual-form values
    at x, the polynomial values at y, the pairings of polynomials with
    forms and the form moments.  Each is computed on first use and kept
    for the table's lifetime; every level of a run reads one table.  The
    matrices returned are the memoized values themselves: read only.
    `monomials[d]` is x^d I (int entries); `coords` holds the distinct x
    and y of `grid`, the run's (x, y) pairs, that each level solves for.
    """

    def __init__(self, fam: WeightFamily, g: BlockMatrix, factors: GaussFactors, grid=()):
        self.fam, self.g, self.factors = fam, g, factors
        self.polys = primary_family(factors)
        self.forms = dual_family(factors)
        n = fam.size
        eye = [[int(r == c) for c in range(n)] for r in range(n)]
        zero = [[0] * n for _ in range(n)]
        self.monomials = [MatrixPolynomial.of(n, [zero] * d + [eye]) for d in range(g.nrows)]
        self.coords = {side: tuple(dict.fromkeys(c)) for side, c in zip("xy", zip(*grid))}
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
        return pair_with_moments(self.polys[j], [self.form_moment(k, t) for t in range(j + 1)])

    @memoized
    def form_moment(self, k: int, t: int) -> list:
        return form_against_monomial(self.g, t, self.forms[k])


class KernelEvaluator:
    """Level-l kernel machinery: a view of a point table at one level.

    Level-free values come from `table`, the `PointTable` that every level
    of a run shares; it must be built from these same family, moment
    matrix and factors objects (without one, a private table with no
    grid).  Values that depend on the level are memoized per evaluator:
    the leading-minor solves, one call per side for every grid coordinate
    (a coordinate off the grid alone), the Schur factors at x and at y,
    the kernel sum and associated form at (x, y), the pair-times-polynomial
    terms of the reproducing sum at y, and the associated families; each
    sum over terms is one block sum (see the module docstring).  Matrices
    handed to callers are fresh copies.
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
        parts = partition(g, level)
        head, tail = range(level), range(level, total)
        self._tl = parts.tl.to_dense()
        self._tl_t = mat_transpose(self._tl)
        self._tr = parts.tr.to_dense()
        self._bl = parts.bl.to_dense()
        self._lam_m_t = mat_transpose(shift_power(fam.mvec, total).slice(head, tail).to_dense())
        self._lam_n = shift_power(fam.nvec, total).slice(head, tail).to_dense()

    # -- per-level tables ----------------------------------------------------

    def _chi1_col(self, count: int, y, offset: int = 0) -> list:
        n = self.fam.size
        col = []
        for k in range(offset, offset + count):
            for r in range(n):
                col.append([y**k if r == c else 0 for c in range(n)])
        return col

    def _chi2_row(self, count: int, x, offset: int = 0) -> list:
        n = self.fam.size
        rows = [[] for _ in range(n)]
        for k in range(offset, offset + count):
            w = self.table.weight(k, x)
            for r in range(n):
                rows[r].extend(w[r])
        return rows

    def _solved(self, side: str, coord, minor, rhs) -> list:
        """minor^{-1} rhs(coord), in one solve with every grid coordinate of the
        side (alone off the grid).  Float pivots depend on the minor alone and
        exact solutions are canonical: each block has the bits of its own solve."""
        if (side, coord) not in self._memo:
            n, grid = self.fam.size, self.table.coords.get(side, ())
            batch = grid if coord in grid else (coord,)
            solved = solve_leading(minor, [sum(r, []) for r in zip(*map(rhs, batch))], self.level)
            for i, c in enumerate(batch):
                self._memo[side, c] = [row[i * n : (i + 1) * n] for row in solved]
        return self._memo[side, coord]

    def _right_piece(self, y) -> list:
        """(g^{[l]})^{-1} chi1^{[l]}(y), dense l*n x n."""
        return self._solved("y", y, self._tl, lambda c: self._chi1_col(self.level, c))

    def _left_piece(self, x) -> list:
        """chi2^{[l]}(x)^T (g^{[l]})^{-1}, dense n x l*n."""
        rhs = lambda c: mat_transpose(self._chi2_row(self.level, c))
        return mat_transpose(self._solved("x", x, self._tl_t, rhs))

    @memoized
    def _schur_row(self, x) -> tuple:
        """x-side factors of the partition form: (A(x) Lambda_m^T, W(x) Lambda_n)."""
        w = self._left_piece(x)
        tail = self.g.nrows - self.level
        a_row = mat_sub(self._chi2_row(tail, x, offset=self.level), mat_mul(w, self._tr))
        return mat_mul(a_row, self._lam_m_t), mat_mul(w, self._lam_n)

    @memoized
    def _schur_col(self, y) -> list:
        """y-side factor C(y) of the partition form."""
        tail = self.g.nrows - self.level
        return mat_sub(
            self._chi1_col(tail, y, offset=self.level),
            mat_mul(self._bl, self._right_piece(y)),
        )

    @memoized
    def _kernel(self, x, y) -> list:
        table, levels = self.table, range(self.level)
        forms_x = [table.form_value(k, x) for k in levels]
        polys_y = [table.poly_value(k, y) for k in levels]
        return block_sum(self.fam.size, forms_x, polys_y, self.fam.backend)

    # -- kernel values -----------------------------------------------------

    def kernel_sum(self, x, y) -> list:
        """Sum over k < level of (dual form at x, transposed) times (polynomial at y)."""
        return _copy(self._kernel(x, y))

    def kernel_abc(self, x, y) -> list:
        """Inverse-leading-minor route: chi2 row times solved chi1 column."""
        n = self.fam.size
        if self.level == 0:
            return mat_zeros(n, n, self.fam.backend)
        return mat_mul(self._chi2_row(self.level, x), self._right_piece(y))

    # -- difference identities ----------------------------------------------

    def cd_lhs(self, x, y) -> list:
        k = self._kernel(x, y)
        nvec = self.fam.nvec
        return mat_sub(mat_mul(diag_power(x, nvec), k), mat_mul(k, diag_power(y, nvec)))

    def cd_rhs_schur(self, x, y) -> list:
        """Partition form of the difference identity, valid at every level."""
        n = self.fam.size
        if self.level == 0:
            return mat_zeros(n, n, self.fam.backend)
        a_lam, w_lam = self._schur_row(x)
        term1 = mat_mul(a_lam, self._right_piece(y))
        term2 = mat_mul(w_lam, self._schur_col(y))
        return mat_sub(term1, term2)

    @memoized
    def _associated(self) -> dict:
        """Associated families feeding the bilinear form."""
        level = self.level
        fam = self.fam
        if level < fam.max_shift():
            raise ValueError(
                "level %d is below every-shift dominance (max shift %d); "
                "the associated-family form is undefined" % (level, fam.max_shift())
            )
        return {
            "plus_forms": [dual_associated_plus(self.g, level, j) for j in range(max(fam.mvec))],
            "minus_polys": [associated_minus(self.g, level - 1, k) for k in range(max(fam.mvec))],
            "minus_forms": [
                dual_associated_minus(self.g, level - 1, k) for k in range(max(fam.nvec))
            ],
            "plus_polys": [associated_plus(self.g, level, j) for j in range(max(fam.nvec))],
        }

    @memoized
    def _assoc_forms(self, x) -> tuple:
        assoc = self._associated()
        weight = lambda j: self.table.weight(j, x)
        return (
            [eval_form(f, self.fam, x, weight) for f in assoc["plus_forms"]],
            [eval_form(f, self.fam, x, weight) for f in assoc["minus_forms"]],
        )

    @memoized
    def _assoc_polys(self, y) -> tuple:
        assoc = self._associated()
        return (
            [eval_poly(p, y) for p in assoc["minus_polys"]],
            [eval_poly(p, y) for p in assoc["plus_polys"]],
        )

    @memoized
    def _assoc_form(self, x, y) -> list:
        plus_forms_x, minus_forms_x = self._assoc_forms(x)
        minus_polys_y, plus_polys_y = self._assoc_polys(y)
        fam = self.fam
        # One term per (a, j): column a of a form value times row a of a
        # polynomial value; the minus terms enter through negated rows.
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

    def cd_rhs_associated(self, x, y) -> list:
        """Bilinear associated-family form of the difference identity."""
        return _copy(self._assoc_form(x, y))

    def cd_entry_quotient(self, a: int, b: int, x, y) -> Scalar:
        """Scalar quotient form for entry (a, b); 0-based components.

        Raises SingularLocusError on the locus x^{n_a} == y^{n_b}.
        """
        nvec = self.fam.nvec
        denom = x ** nvec[a] - y ** nvec[b]
        if denom == 0:
            raise SingularLocusError(
                "x^%d == y^%d at (x, y) = (%s, %s)" % (nvec[a], nvec[b], x, y)
            )
        return self._assoc_form(x, y)[a][b] / denom

    # -- projections and the reproducing property ---------------------------
    #
    # Member k has k + 1 coefficients, so coefficient t of a projection sums
    # k = t..level-1, from an exact zero; level 0 gives one zero coefficient.
    # The table's members and monomials (by identity) read their weights off it.

    def project_poly(self, p: MatrixPolynomial) -> MatrixPolynomial:
        """Projection onto the span of the first `level` polynomials."""
        n, polys, levels = self.fam.size, self.table.polys, range(self.level)
        d, table = len(p.coeffs) - 1, self.table
        if d < len(polys) and p is polys[d]:
            weights = [table.pair(d, k) for k in levels]
        elif d < len(table.monomials) and p is table.monomials[d]:
            weights = [table.form_moment(k, d) for k in levels]
        else:
            top = range(len(p.coeffs))
            weights = [pair_with_moments(p, [table.form_moment(k, t) for t in top]) for k in levels]
        coeffs = [
            block_sum(n, weights[t:], [polys[k].coeffs[t] for k in levels[t:]]) for t in levels
        ]
        return MatrixPolynomial.of(n, coeffs or [mat_zeros(n, n, self.fam.backend)])

    def project_form(self, f: LinearForm) -> LinearForm:
        """Projection onto the span of the first `level` dual forms."""
        n, forms, levels = self.fam.size, self.table.forms, range(self.level)
        j = len(f.coeffs) - 1
        if j < len(forms) and f is forms[j]:
            weights = [self.table.pair(k, j) for k in levels]
        else:
            # polys[k] has degree k, so it pairs with moments t <= k < level.
            moments = [form_against_monomial(self.g, t, f) for t in levels]
            weights = [pair_with_moments(self.table.polys[k], moments) for k in levels]
        coeffs = [
            block_sum(n, [forms[k].coeffs[t] for k in levels[t:]], weights[t:]) for t in levels
        ]
        return LinearForm.of(n, coeffs or [mat_zeros(n, n, self.fam.backend)])

    def reproducing_residual(self, x, y) -> Scalar:
        """Gap between the kernel and its self-convolution.

        The middle integrals are computed honestly from moment pairings,
        not assumed to be the identity.
        """
        levels = range(self.level)
        forms_x = [self.table.form_value(j, x) for j in levels]
        lefts = [forms_x[j] for j in levels for _ in levels]
        acc = block_sum(self.fam.size, lefts, self._paired_polys(y), self.fam.backend)
        return matrix_residual_norm(mat_sub(acc, self._kernel(x, y)))

    @memoized
    def _paired_polys(self, y) -> list:
        """pair(j, k) @ (polynomial k at y) for j, k < level, j before k."""
        table, levels = self.table, range(self.level)
        return [mat_mul(table.pair(j, k), table.poly_value(k, y)) for j in levels for k in levels]


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
    return IdentityResidual.at([[lhs]], [[rhs]], (x, y))
