"""Biorthogonal families read off the factorization, and their checks.

The polynomial family takes its coefficients from the rows of the lower
factor; the dual family (linear forms, i.e. combinations of weights) takes
its coefficients from the columns of the inverse upper factor.  Associated
families are built independently of the factorization, by direct linear
solves against leading truncations of the moment matrix, so the connection
formulas below genuinely compare two routes.

All integrals of polynomial-times-weight products reduce to moment-matrix
entries; no quadrature appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockops import BlockMatrix
from .factorize import GaussFactors
from .numerics import (
    CheckOutcome,
    DEFAULT_TOLERANCE,
    SingularLeadingMinorError,
    SingularMatrixError,
    Tolerance,
    approx_zero,
    mat_add,
    mat_eye,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    mat_zeros,
    matrix_residual_norm,
    solve_dense,
)
from .weights import WeightFamily


def _freeze(rows):
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class MatrixPolynomial:
    """Matrix polynomial sum_k coeffs[k] x^k with N x N coefficient blocks."""

    n: int
    coeffs: tuple

    @classmethod
    def of(cls, n: int, coeffs) -> "MatrixPolynomial":
        return cls(n, tuple(_freeze(c) for c in coeffs))

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def degree(self) -> int:
        """Exact degree: highest index with a nonzero coefficient block."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if matrix_residual_norm(self.coeffs[k]) != 0:
                return k
        return -1

    def is_monic(self) -> bool:
        lead = self.coeffs[-1]
        return all(
            lead[r][c] == (1 if r == c else 0) for r in range(self.n) for c in range(self.n)
        )


@dataclass(frozen=True)
class LinearForm:
    """Combination of weights sum_j rho_j(x) coeffs[j], stored transposed.

    The natural value of the form is delivered transposed: eval_form
    returns f(x)^T = sum_j rho_j(x) coeffs[j].
    """

    n: int
    coeffs: tuple

    @classmethod
    def of(cls, n: int, coeffs) -> "LinearForm":
        return cls(n, tuple(_freeze(c) for c in coeffs))

    @property
    def level_bound(self) -> int:
        return len(self.coeffs) - 1


def eval_poly(p: MatrixPolynomial, x) -> list:
    """Horner evaluation over coefficient blocks."""
    acc = [list(row) for row in p.coeffs[-1]]
    for c in reversed(p.coeffs[:-1]):
        acc = mat_add(mat_scale(x, acc), c)
    return acc


def eval_form(f: LinearForm, fam: WeightFamily, x, weight=None) -> list:
    """Transposed value of the form: sum_j rho_j(x) coeffs[j].

    `weight(j)`, when given, must return rho_j(x); a caller holding a table
    of weight values at x passes its lookup here.  Weights are requested
    only for nonzero coefficient blocks.
    """
    if weight is None:
        weight = lambda j: fam.eval_weight(j, x)
    acc = mat_zeros(f.n, f.n, fam.backend)
    for j, d in enumerate(f.coeffs):
        if matrix_residual_norm(d) != 0:
            acc = mat_add(acc, mat_mul(weight(j), d))
    return acc


def poly_residual(p: MatrixPolynomial, q: MatrixPolynomial):
    """Max-norm of the coefficientwise difference (zero-padded)."""
    worst = 0
    top = max(len(p.coeffs), len(q.coeffs))
    zero = mat_zeros(p.n, p.n)
    for k in range(top):
        a = p.coeffs[k] if k < len(p.coeffs) else zero
        b = q.coeffs[k] if k < len(q.coeffs) else zero
        worst = max(worst, matrix_residual_norm(mat_sub(a, b)))
    return worst


def form_residual(f: LinearForm, g: LinearForm):
    worst = 0
    top = max(len(f.coeffs), len(g.coeffs))
    zero = mat_zeros(f.n, f.n)
    for k in range(top):
        a = f.coeffs[k] if k < len(f.coeffs) else zero
        b = g.coeffs[k] if k < len(g.coeffs) else zero
        worst = max(worst, matrix_residual_norm(mat_sub(a, b)))
    return worst


def primary_family(factors: GaussFactors) -> list:
    """Monic matrix polynomials whose coefficients are rows of the lower factor."""
    return [
        MatrixPolynomial.of(
            factors.lower.n,
            [factors.lower.block(level, k) for k in range(level + 1)],
        )
        for level in range(factors.nlevels)
    ]


def dual_family(factors: GaussFactors) -> list:
    """Dual linear forms whose coefficients are columns of the inverse upper factor."""
    return [
        LinearForm.of(
            factors.upper_inv.n,
            [factors.upper_inv.block(k, level) for k in range(level + 1)],
        )
        for level in range(factors.nlevels)
    ]


# ---------------------------------------------------------------------------
# Moment pairings.  Everything below integrates exactly through g.
# ---------------------------------------------------------------------------


def poly_against_weight(g: BlockMatrix, p: MatrixPolynomial, k: int) -> list:
    """Integral of p(x) rho_k(x): sum_t coeffs[t] g[t, k]."""
    acc = mat_zeros(p.n, p.n)
    for t, c in enumerate(p.coeffs):
        acc = mat_add(acc, mat_mul(c, g.block(t, k)))
    return acc


def form_against_monomial(g: BlockMatrix, k: int, f: LinearForm) -> list:
    """Integral of x^k f(x)^T: sum_s g[k, s] coeffs[s]."""
    acc = mat_zeros(f.n, f.n)
    for s, d in enumerate(f.coeffs):
        acc = mat_add(acc, mat_mul(g.block(k, s), d))
    return acc


def pair_poly_form(g: BlockMatrix, p: MatrixPolynomial, f: LinearForm) -> list:
    """Integral of p(x) f(x)^T: sum_{t,s} coeffs[t] g[t, s] dcoeffs[s]."""
    acc = mat_zeros(p.n, p.n)
    for t, c in enumerate(p.coeffs):
        inner = mat_zeros(p.n, p.n)
        for s, d in enumerate(f.coeffs):
            inner = mat_add(inner, mat_mul(g.block(t, s), d))
        acc = mat_add(acc, mat_mul(c, inner))
    return acc


# ---------------------------------------------------------------------------
# Associated families: direct solves against leading truncations of g.
# ---------------------------------------------------------------------------


def _leading_dense(g: BlockMatrix, level: int) -> list:
    return g.slice(range(level), range(level)).to_dense()


def _solve_leading(g: BlockMatrix, level: int, rhs, transposed: bool) -> list:
    dense = _leading_dense(g, level)
    if transposed:
        dense = mat_transpose(dense)
    try:
        return solve_dense(dense, rhs)
    except SingularMatrixError as exc:
        raise SingularLeadingMinorError(level, "leading minor of order %d is singular" % level) from exc


def associated_plus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    """Monic degree level+j polynomial annihilating rho_0..rho_{level-1}.

    Built as the monomial block level+j minus the solved combination of the
    first `level` monomial blocks.
    """
    if j < 0 or level < 0 or level + j >= g.nrows:
        raise ValueError("need 0 <= l and l + j < truncation")
    n = g.n
    if level == 0:
        coeffs = [mat_zeros(n, n) for _ in range(j)] + [mat_eye(n)]
        return MatrixPolynomial.of(n, coeffs)
    # row = (g[l+j, 0..l-1]) (g^{[l]})^{-1}, found from the transposed system
    flat = [
        [g.block(level + j, k)[r][c] for k in range(level) for c in range(n)]
        for r in range(n)
    ]
    sol = _solve_leading(g, level, mat_transpose(flat), transposed=True)
    row = mat_transpose(sol)  # n x (level*n)
    coeffs = []
    for k in range(level):
        blk = [[-row[r][k * n + c] for c in range(n)] for r in range(n)]
        coeffs.append(blk)
    coeffs.extend(mat_zeros(n, n) for _ in range(level, level + j))
    coeffs.append(mat_eye(n))
    return MatrixPolynomial.of(n, coeffs)


def associated_minus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    """Degree <= level polynomial with unit pairing against rho_{level-j}.

    Coefficients are block row level-j of the inverse leading minor of
    order level+1.
    """
    if j < 0 or j > level:
        raise ValueError("minus-family index j must satisfy 0 <= j <= l")
    if level + 1 > g.nrows:
        raise ValueError("need l + 1 <= truncation")
    n = g.n
    rhs = [[0] * n for _ in range((level + 1) * n)]
    for c in range(n):
        rhs[(level - j) * n + c][c] = 1
    sol = _solve_leading(g, level + 1, rhs, transposed=True)
    row = mat_transpose(sol)
    coeffs = [
        [[row[r][k * n + c] for c in range(n)] for r in range(n)] for k in range(level + 1)
    ]
    return MatrixPolynomial.of(n, coeffs)


def dual_associated_plus(g: BlockMatrix, level: int, j: int) -> LinearForm:
    """Dual plus-family member: weight block level+j minus the solved
    combination of the first `level` weight blocks."""
    if j < 0 or level < 0 or level + j >= g.ncols:
        raise ValueError("need 0 <= l and l + j < truncation")
    n = g.n
    if level == 0:
        coeffs = [mat_zeros(n, n) for _ in range(j)] + [mat_eye(n)]
        return LinearForm.of(n, coeffs)
    rhs = [
        [g.block(k, level + j)[r][c] for c in range(n)]
        for k in range(level)
        for r in range(n)
    ]
    sol = _solve_leading(g, level, rhs, transposed=False)  # (level*n) x n
    coeffs = []
    for k in range(level):
        blk = [[-sol[k * n + r][c] for c in range(n)] for r in range(n)]
        coeffs.append(blk)
    coeffs.extend(mat_zeros(n, n) for _ in range(level, level + j))
    coeffs.append(mat_eye(n))
    return LinearForm.of(n, coeffs)


def dual_associated_minus(g: BlockMatrix, level: int, j: int) -> LinearForm:
    """Dual minus-family member: coefficients are block column level-j of
    the inverse leading minor of order level+1."""
    if j < 0 or j > level:
        raise ValueError("minus-family index j must satisfy 0 <= j <= l")
    if level + 1 > g.ncols:
        raise ValueError("need l + 1 <= truncation")
    n = g.n
    rhs = [[0] * n for _ in range((level + 1) * n)]
    for c in range(n):
        rhs[(level - j) * n + c][c] = 1
    sol = _solve_leading(g, level + 1, rhs, transposed=False)
    coeffs = [
        [[sol[k * n + r][c] for c in range(n)] for r in range(n)] for k in range(level + 1)
    ]
    return LinearForm.of(n, coeffs)


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def check_biorthogonality(
    g: BlockMatrix, factors: GaussFactors, tol: Tolerance = DEFAULT_TOLERANCE
) -> CheckOutcome:
    """Pairings of the two families against the identity, blockwise."""
    product = factors.lower.matmul(g).matmul(factors.upper_inv)
    ident = BlockMatrix.identity(g.n, g.nrows)
    worst = None
    residual = 0
    for i in range(g.nrows):
        for j in range(g.ncols):
            r = matrix_residual_norm(mat_sub(product.block(i, j), ident.block(i, j)))
            if r > residual:
                residual, worst = r, "(i=%d, j=%d)" % (i, j)
    return CheckOutcome(approx_zero(residual, g.maxnorm(), tol), residual, worst)


def _scale_poly_left(m, p: MatrixPolynomial) -> MatrixPolynomial:
    return MatrixPolynomial.of(p.n, [mat_mul(m, c) for c in p.coeffs])


def _scale_form_right(f: LinearForm, m) -> LinearForm:
    return LinearForm.of(f.n, [mat_mul(d, m) for d in f.coeffs])


def _combine_polys(terms) -> MatrixPolynomial:
    """Sum of left-coefficient-times-polynomial terms."""
    terms = list(terms)
    n = terms[0][1].n
    top = max(len(p.coeffs) for _, p in terms)
    coeffs = [mat_zeros(n, n) for _ in range(top)]
    for m, p in terms:
        for k, c in enumerate(p.coeffs):
            coeffs[k] = mat_add(coeffs[k], mat_mul(m, c))
    return MatrixPolynomial.of(n, coeffs)


def _combine_forms(terms) -> LinearForm:
    """Sum of left-coefficient-times-form terms, in transposed storage.

    Left-multiplying a form by A maps every stored coefficient d to d A^T.
    """
    terms = list(terms)
    n = terms[0][1].n
    top = max(len(f.coeffs) for _, f in terms)
    coeffs = [mat_zeros(n, n) for _ in range(top)]
    for m, f in terms:
        mt = mat_transpose(m)
        for k, d in enumerate(f.coeffs):
            coeffs[k] = mat_add(coeffs[k], mat_mul(d, mt))
    return LinearForm.of(n, coeffs)


def check_connection_formulas(
    g: BlockMatrix,
    factors: GaussFactors,
    level: int,
    j: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> CheckOutcome:
    """Associated families against their stated combinations of regular ones.

    plus:       p_{l,+j} = sum_{k=l}^{l+j} lower_inv[l+j, k] p_k
    minus:      p_{l,-j} = sum_{k=l-j}^{l} upper_inv[l-j, k] p_k
    dual plus:  ptilde_{l,+j} = sum_{k=l}^{l+j} upper[k, l+j]^T ptilde_k
    dual minus: ptilde_{l,-j} = sum_{k=l-j}^{l} lower[k, l-j]^T ptilde_k
    """
    polys = primary_family(factors)
    forms = dual_family(factors)
    scale = g.maxnorm()
    residual = 0
    worst = None

    via_plus = _combine_polys(
        (factors.lower_inv.block(level + j, k), polys[k]) for k in range(level, level + j + 1)
    )
    r = poly_residual(associated_plus(g, level, j), via_plus)
    if r > residual:
        residual, worst = r, "plus family"

    via_minus = _combine_polys(
        (factors.upper_inv.block(level - j, k), polys[k]) for k in range(level - j, level + 1)
    )
    r = poly_residual(associated_minus(g, level, j), via_minus)
    if r > residual:
        residual, worst = r, "minus family"

    via_dual_plus = _combine_forms(
        (mat_transpose(factors.upper.block(k, level + j)), forms[k])
        for k in range(level, level + j + 1)
    )
    r = form_residual(dual_associated_plus(g, level, j), via_dual_plus)
    if r > residual:
        residual, worst = r, "dual plus family"

    via_dual_minus = _combine_forms(
        (mat_transpose(factors.lower.block(k, level - j)), forms[k])
        for k in range(level - j, level + 1)
    )
    r = form_residual(dual_associated_minus(g, level, j), via_dual_minus)
    if r > residual:
        residual, worst = r, "dual minus family"

    return CheckOutcome(approx_zero(residual, scale, tol), residual, worst)


def check_modified_orthogonality(
    g: BlockMatrix, level: int, j: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> CheckOutcome:
    """Integral constraints satisfied by the four associated families.

    plus families annihilate the first `level` weights / monomials; minus
    families pair to the identity exactly at index level-j and to zero at
    the other indices up to level.
    """
    n = g.n
    scale = g.maxnorm()
    residual = 0
    worst = None

    plus = associated_plus(g, level, j)
    for k in range(level):
        r = matrix_residual_norm(poly_against_weight(g, plus, k))
        if r > residual:
            residual, worst = r, "plus vs weight %d" % k

    dual_plus = dual_associated_plus(g, level, j)
    for k in range(level):
        r = matrix_residual_norm(form_against_monomial(g, k, dual_plus))
        if r > residual:
            residual, worst = r, "dual plus vs monomial %d" % k

    minus = associated_minus(g, level, j)
    dual_minus = dual_associated_minus(g, level, j)
    for k in range(level + 1):
        target = mat_eye(n) if k == level - j else mat_zeros(n, n)
        r = matrix_residual_norm(mat_sub(poly_against_weight(g, minus, k), target))
        if r > residual:
            residual, worst = r, "minus vs weight %d" % k
        r = matrix_residual_norm(mat_sub(form_against_monomial(g, k, dual_minus), target))
        if r > residual:
            residual, worst = r, "dual minus vs monomial %d" % k

    return CheckOutcome(approx_zero(residual, scale, tol), residual, worst)


def check_matrix_notation(
    g: BlockMatrix, factors: GaussFactors, level: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> CheckOutcome:
    """Agreement of the factor-row representation with both direct forms.

    The polynomial at each level must equal its annihilating form (the j=0
    plus family) and the normalization times the j=0 minus family; dually
    for the forms.
    """
    polys = primary_family(factors)
    forms = dual_family(factors)
    scale = g.maxnorm()
    residual = 0
    worst = None

    r = poly_residual(polys[level], associated_plus(g, level, 0))
    if r > residual:
        residual, worst = r, "polynomial vs annihilating form"
    r = poly_residual(
        polys[level],
        _scale_poly_left(factors.normalization(level), associated_minus(g, level, 0)),
    )
    if r > residual:
        residual, worst = r, "polynomial vs scaled inverse-row form"
    r = form_residual(forms[level], dual_associated_minus(g, level, 0))
    if r > residual:
        residual, worst = r, "dual vs inverse-column form"
    r = form_residual(
        _scale_form_right(forms[level], factors.normalization(level)),
        dual_associated_plus(g, level, 0),
    )
    if r > residual:
        residual, worst = r, "dual vs annihilating form"

    return CheckOutcome(approx_zero(residual, scale, tol), residual, worst)
