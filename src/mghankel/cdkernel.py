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
    pair_poly_form,
    pair_with_moments,
    primary_family,
)
from .numerics import (
    EXACT,
    Scalar,
    SingularLeadingMinorError,
    SingularLocusError,
    SingularMatrixError,
    mat_add,
    mat_mul,
    mat_sub,
    mat_transpose,
    mat_zeros,
    matrix_residual_norm,
    solve_dense,
)
from .weights import SeedWeight, WeightFamily, hankel_family


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
    """diag(x^{n_1}, ..., x^{n_N})."""
    n = len(nvec)
    m = mat_zeros(n, n)
    for a, na in enumerate(nvec):
        m[a][a] = x**na
    return m


def _copy(m) -> list:
    return [list(row) for row in m]


class KernelEvaluator:
    """Level-l kernel machinery over one family, moment matrix and factors.

    Read-only after construction.  Every value that depends on one point
    coordinate or one grid point is computed once and memoized for the
    evaluator's lifetime: the weights rho_j(x), the dual-form values at x,
    the polynomial values at y, the leading-minor solves and Schur factors
    at x and at y, and the kernel sum and associated bilinear form at
    (x, y).  The moments form_against_monomial(g, t, forms[k]) that
    `project_poly` pairs against are memoized the same way.  Matrices
    handed to callers are fresh copies.
    """

    def __init__(self, fam: WeightFamily, g: BlockMatrix, factors: GaussFactors, level: int):
        if g.nrows != g.ncols:
            raise ValueError("kernel evaluation needs a square moment matrix")
        if not 0 <= level or level + fam.max_shift() >= g.nrows:
            raise ValueError(
                "level %d violates the truncation budget (need l + max shift < %d)"
                % (level, g.nrows)
            )
        self.fam = fam
        self.g = g
        self.factors = factors
        self.level = level
        self.polys = primary_family(factors)
        self.forms = dual_family(factors)
        total = g.nrows
        parts = partition(g, level)
        head, tail = range(level), range(level, total)
        self._tl = parts.tl.to_dense()
        self._tl_t = mat_transpose(self._tl)
        self._tr = parts.tr.to_dense()
        self._bl = parts.bl.to_dense()
        self._lam_m_t = mat_transpose(shift_power(fam.mvec, total).slice(head, tail).to_dense())
        self._lam_n = shift_power(fam.nvec, total).slice(head, tail).to_dense()
        self._weights = {}  # (j, x) -> rho_j(x)
        self._forms_at = {}  # x -> dual forms k < level at x
        self._polys_at = {}  # y -> polynomials k < level at y
        self._solve_right = {}  # y -> (g^{[l]})^{-1} chi1^{[l]}(y), dense l*n x n
        self._solve_left = {}  # x -> chi2^{[l]}(x)^T (g^{[l]})^{-1}, dense n x l*n
        self._schur_x = {}  # x -> x-side factors of the partition form
        self._schur_y = {}  # y -> y-side factor of the partition form
        self._kernels = {}  # (x, y) -> kernel sum
        self._assoc_x = {}  # x -> associated form values
        self._assoc_y = {}  # y -> associated polynomial values
        self._assoc_xy = {}  # (x, y) -> associated bilinear form
        self._assoc = None
        self._pairs = None
        self._form_moments = {}  # (k, t) -> form_against_monomial(g, t, forms[k])

    # -- per-point tables ----------------------------------------------------

    def _weight(self, j: int, x) -> list:
        if (j, x) not in self._weights:
            self._weights[j, x] = self.fam.eval_weight(j, x)
        return self._weights[j, x]

    def _form_values(self, x) -> list:
        if x not in self._forms_at:
            weight = lambda j: self._weight(j, x)
            self._forms_at[x] = [
                eval_form(f, self.fam, x, weight) for f in self.forms[: self.level]
            ]
        return self._forms_at[x]

    def _poly_values(self, y) -> list:
        if y not in self._polys_at:
            self._polys_at[y] = [eval_poly(p, y) for p in self.polys[: self.level]]
        return self._polys_at[y]

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
            w = self._weight(k, x)
            for r in range(n):
                rows[r].extend(w[r])
        return rows

    def _right_piece(self, y) -> list:
        if y not in self._solve_right:
            try:
                self._solve_right[y] = solve_dense(self._tl, self._chi1_col(self.level, y))
            except SingularMatrixError as exc:
                raise SingularLeadingMinorError(self.level) from exc
        return self._solve_right[y]

    def _left_piece(self, x) -> list:
        if x not in self._solve_left:
            try:
                sol = solve_dense(self._tl_t, mat_transpose(self._chi2_row(self.level, x)))
            except SingularMatrixError as exc:
                raise SingularLeadingMinorError(self.level) from exc
            self._solve_left[x] = mat_transpose(sol)
        return self._solve_left[x]

    def _schur_row(self, x) -> tuple:
        """x-side factors of the partition form: (A(x) Lambda_m^T, W(x) Lambda_n)."""
        if x not in self._schur_x:
            w = self._left_piece(x)
            tail = self.g.nrows - self.level
            a_row = mat_sub(self._chi2_row(tail, x, offset=self.level), mat_mul(w, self._tr))
            self._schur_x[x] = (mat_mul(a_row, self._lam_m_t), mat_mul(w, self._lam_n))
        return self._schur_x[x]

    def _schur_col(self, y) -> list:
        """y-side factor C(y) of the partition form."""
        if y not in self._schur_y:
            tail = self.g.nrows - self.level
            self._schur_y[y] = mat_sub(
                self._chi1_col(tail, y, offset=self.level),
                mat_mul(self._bl, self._right_piece(y)),
            )
        return self._schur_y[y]

    def _kernel(self, x, y) -> list:
        if (x, y) not in self._kernels:
            forms_x, polys_y = self._form_values(x), self._poly_values(y)
            n = self.fam.size
            acc = mat_zeros(n, n, self.fam.backend)
            for k in range(self.level):
                acc = mat_add(acc, mat_mul(forms_x[k], polys_y[k]))
            self._kernels[x, y] = acc
        return self._kernels[x, y]

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

    def _associated(self):
        """Associated families feeding the bilinear form; built once."""
        if self._assoc is None:
            level = self.level
            fam = self.fam
            top = fam.max_shift()
            if level < max(fam.nvec) or level < max(fam.mvec):
                raise ValueError(
                    "level %d is below every-shift dominance (max shift %d); "
                    "the associated-family form is undefined" % (level, top)
                )
            self._assoc = {
                "plus_forms": [dual_associated_plus(self.g, level, j) for j in range(max(fam.mvec))],
                "minus_polys": [associated_minus(self.g, level - 1, k) for k in range(max(fam.mvec))],
                "minus_forms": [dual_associated_minus(self.g, level - 1, k) for k in range(max(fam.nvec))],
                "plus_polys": [associated_plus(self.g, level, j) for j in range(max(fam.nvec))],
            }
        return self._assoc

    def _assoc_forms(self, x) -> tuple:
        if x not in self._assoc_x:
            assoc = self._associated()
            weight = lambda j: self._weight(j, x)
            self._assoc_x[x] = (
                [eval_form(f, self.fam, x, weight) for f in assoc["plus_forms"]],
                [eval_form(f, self.fam, x, weight) for f in assoc["minus_forms"]],
            )
        return self._assoc_x[x]

    def _assoc_polys(self, y) -> tuple:
        if y not in self._assoc_y:
            assoc = self._associated()
            self._assoc_y[y] = (
                [eval_poly(p, y) for p in assoc["minus_polys"]],
                [eval_poly(p, y) for p in assoc["plus_polys"]],
            )
        return self._assoc_y[y]

    def _assoc_form(self, x, y) -> list:
        if (x, y) in self._assoc_xy:
            return self._assoc_xy[x, y]
        plus_forms_x, minus_forms_x = self._assoc_forms(x)
        minus_polys_y, plus_polys_y = self._assoc_polys(y)
        fam = self.fam
        n = fam.size
        acc = mat_zeros(n, n, fam.backend)
        for a in range(n):
            ma, na = fam.mvec[a], fam.nvec[a]
            for j in range(ma):
                left, right = plus_forms_x[j], minus_polys_y[ma - j - 1]
                for r in range(n):
                    for c in range(n):
                        acc[r][c] += left[r][a] * right[a][c]
            for j in range(na):
                left, right = minus_forms_x[na - j - 1], plus_polys_y[j]
                for r in range(n):
                    for c in range(n):
                        acc[r][c] -= left[r][a] * right[a][c]
        self._assoc_xy[x, y] = acc
        return acc

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

    def project_poly(self, p: MatrixPolynomial) -> MatrixPolynomial:
        """Projection onto the span of the first `level` polynomials."""
        n = self.fam.size
        coeffs = [mat_zeros(n, n) for _ in range(max(self.level, 1))]
        for k in range(self.level):
            weight = pair_with_moments(p, [self._form_moment(k, t) for t in range(len(p.coeffs))])
            for t, c in enumerate(self.polys[k].coeffs):
                coeffs[t] = mat_add(coeffs[t], mat_mul(weight, c))
        return MatrixPolynomial.of(n, coeffs)

    def project_form(self, f: LinearForm) -> LinearForm:
        """Projection onto the span of the first `level` dual forms."""
        n = self.fam.size
        coeffs = [mat_zeros(n, n) for _ in range(max(self.level, 1))]
        # polys[k] has degree k, so it pairs with moments t <= k < level.
        moments = [form_against_monomial(self.g, t, f) for t in range(self.level)]
        for k in range(self.level):
            weight = pair_with_moments(self.polys[k], moments)
            for u, d in enumerate(self.forms[k].coeffs):
                coeffs[u] = mat_add(coeffs[u], mat_mul(d, weight))
        return LinearForm.of(n, coeffs)

    def _form_moment(self, k: int, t: int) -> list:
        key = (k, t)
        if key not in self._form_moments:
            self._form_moments[key] = form_against_monomial(self.g, t, self.forms[k])
        return self._form_moments[key]

    def _pair_table(self) -> list:
        if self._pairs is None:
            self._pairs = [
                [pair_poly_form(self.g, self.polys[j], self.forms[k]) for k in range(self.level)]
                for j in range(self.level)
            ]
        return self._pairs

    def reproducing_residual(self, x, y) -> Scalar:
        """Gap between the kernel and its self-convolution.

        The middle integrals are computed honestly from moment pairings,
        not assumed to be the identity.
        """
        n = self.fam.size
        table = self._pair_table()
        forms_x, polys_y = self._form_values(x), self._poly_values(y)
        acc = mat_zeros(n, n, self.fam.backend)
        for j in range(self.level):
            for k in range(self.level):
                acc = mat_add(acc, mat_mul(forms_x[j], mat_mul(table[j][k], polys_y[k])))
        return matrix_residual_norm(mat_sub(acc, self._kernel(x, y)))


def classical_cd(
    seed: SeedWeight, degree: int, x, y, backend: str = EXACT, factors: GaussFactors | None = None
) -> IdentityResidual:
    """Two-term scalar Christoffel-Darboux identity for one classical weight.

    Builds the scalar Hankel family for the seed, reads the monic orthogonal
    polynomials and their norms off the factorization, and returns both
    sides at (x, y).  Requires degree >= 1 and x != y.

    `factors`, when given, must factorize the seed's Hankel moment matrix at
    a truncation above `degree`.  Without block pivoting the factors of a
    leading truncation are the leading blocks of the full factors, computed
    by the same operations, so a caller sweeping degrees factorizes once.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if x == y:
        raise SingularLocusError("classical identity undefined on the diagonal")
    if factors is None:
        factors = lu_factorize(build_moment_matrix(hankel_family(seed, backend), degree + 1))
    elif factors.nlevels <= degree:
        raise ValueError("factors cover %d levels, degree %d needs more" % (factors.nlevels, degree))
    polys = primary_family(factors)
    norms = [factors.normalization(k)[0][0] for k in range(degree + 1)]
    px = [eval_poly(polys[k], x)[0][0] for k in range(degree + 1)]
    py = [eval_poly(polys[k], y)[0][0] for k in range(degree + 1)]
    lhs = sum(px[k] * py[k] / norms[k] for k in range(degree))
    rhs = (px[degree] * py[degree - 1] - px[degree - 1] * py[degree]) / (
        norms[degree - 1] * (x - y)
    )
    return IdentityResidual.at([[lhs]], [[rhs]], (x, y))
