"""Biorthogonal families read off the factorization, and their checks.

The polynomial family takes its coefficients from the rows of the lower
factor; the dual family (linear forms, i.e. combinations of weights) takes
its coefficients from the columns of the inverse upper factor.  Both live
in one coefficient container: a form is stored transposed, so its stored
coefficients are those of a polynomial for the transposed moment problem
g^T.  Every dual construction below is the primal one on g^T, blockwise
transposed, rather than a second copy of it; a combination of forms
multiplies their stored coefficients on the right.

Associated families are built by direct linear solves against leading
truncations of the moment matrix, not read off the factors, so the
connection formulas below compare two routes.  Each leading minor is
eliminated once per side (g or g^T), in exact runs by the factorization's
pass over that side, and each block column of its solution is solved when
the one member that reads it is built; the eliminations and the members
are kept on the moment matrix, so every member j at that order, and every
check reading one, shares them.  The checks compare exact sides by
equality first (`numerics.gap_norm`) and subtract only where they differ.

All integrals of polynomial-times-weight products reduce to moment-matrix
entries; no quadrature appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blockops import BlockMatrix, _freeze
from .factorize import GaussFactors, _bareiss_pass
from .numerics import (
    EXACT,
    FLOAT,
    CheckOutcome,
    DEFAULT_TOLERANCE,
    ResidualTracker,
    Elimination,
    Tolerance,
    _back_substitute,
    block_sum,
    eliminate_leading,
    fraction,
    gap_norm,
    integer_col,
    integer_row,
    mat_eye,
    mat_mul,
    mat_transpose,
    mat_zeros,
    matrix_residual_norm,
    memoized,
    substitute,
)
from .weights import WeightFamily


@dataclass(frozen=True)
class MatrixPolynomial:
    """Sequence of N x N coefficient blocks: a matrix polynomial or a form.

    As a polynomial it is sum_k coeffs[k] x^k.  As a linear form (alias
    `LinearForm`) it is the combination of weights sum_j rho_j(x) coeffs[j],
    stored transposed: eval_form returns f(x)^T = sum_j rho_j(x) coeffs[j].
    """

    n: int
    coeffs: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, n: int, coeffs) -> "MatrixPolynomial":
        return cls(n, tuple(_freeze(c) for c in coeffs))

    @memoized
    def integer_row(self, backend: str):
        """`numerics.integer_row` of the coefficients, built once per member."""
        return integer_row(self.coeffs, backend)

    @memoized
    def integer_col(self, backend: str):
        """`numerics.integer_col` of the coefficients, built once per member."""
        return integer_col(self.coeffs, backend)

    def degree(self) -> int:
        """Exact degree: highest index with a nonzero coefficient block."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if _nonzero(self.coeffs[k]):
                return k
        return -1


LinearForm = MatrixPolynomial


def _nonzero(block) -> bool:
    """True when some entry is nonzero; a NaN entry counts as nonzero."""
    return any(map(any, block))


def eval_poly(p: MatrixPolynomial, x) -> list:
    """Horner's rule in the backend of x; no coefficients give the n x n zero.  An exact
    x = a/b runs on the kept `integer_row`: h <- h a + c_t b^(d-t), then h / (lcm b^d)."""
    if not p.coeffs:
        return mat_zeros(p.n, p.n, FLOAT if isinstance(x, float) else EXACT)
    if isinstance(x, float):
        acc = [list(row) for row in p.coeffs[-1]]
        for c in reversed(p.coeffs[:-1]):
            acc = [[x * v + w for v, w in zip(ra, rc)] for ra, rc in zip(acc, c)]
        return acc
    n, a, d = p.n, x.numerator, len(p.coeffs) - 1
    powers = [x.denominator**k for k in range(d + 1)]
    out = []
    for ints, den in p.integer_row(EXACT):
        h = ints[d * n :]
        for t in reversed(range(d)):
            h = [u * a + v * powers[d - t] for u, v in zip(h, ints[t * n : (t + 1) * n])]
        out.append([fraction(u, den * powers[d]) for u in h])
    return out


def eval_form(f: LinearForm, fam: WeightFamily, x, weight=None) -> list:
    """Transposed value of the form: sum_j rho_j(x) coeffs[j].

    `weight(j)`, when given, must return rho_j(x); a caller holding a table
    of weight values at x passes its lookup here.  Weights are requested
    only for nonzero coefficient blocks.
    """
    if weight is None:
        weight = lambda j: fam.eval_weight(j, x)
    used = [j for j, d in enumerate(f.coeffs) if _nonzero(d)]
    kept = f.integer_col(fam.backend) if len(used) == len(f.coeffs) else None
    lefts, rights = [weight(j) for j in used], [f.coeffs[j] for j in used]
    return block_sum(f.n, lefts, rights, fam.backend, cols=kept)


def poly_residual(p: MatrixPolynomial, q: MatrixPolynomial, backend: str | None = None):
    """Max-norm of the coefficientwise difference; a coefficient only one side
    has counts whole, and a NaN anywhere makes the residual NaN.

    Shared coefficients are compared by `gap_norm` in `backend`, so exact
    blocks that agree are settled by equality; without a backend every
    shared block is subtracted."""
    pad = min(len(p.coeffs), len(q.coeffs))
    gaps = [gap_norm(a, b, backend) for a, b in zip(p.coeffs, q.coeffs)]
    whole = [matrix_residual_norm(c) for c in (*p.coeffs[pad:], *q.coeffs[pad:])]
    return matrix_residual_norm([gaps + whole])


# A form shares the container, so it shares the residual.
form_residual = poly_residual


@memoized
def primary_family(factors: GaussFactors) -> tuple:
    """Monic matrix polynomials whose coefficients are rows of the lower factor."""
    return tuple(
        MatrixPolynomial.of(
            factors.lower.n,
            [factors.lower.block(level, k) for k in range(level + 1)],
        )
        for level in range(factors.nlevels)
    )


@memoized
def dual_family(factors: GaussFactors) -> tuple:
    """Dual linear forms whose coefficients are columns of the inverse upper factor."""
    return tuple(
        LinearForm.of(
            factors.upper_inv.n,
            [factors.upper_inv.block(k, level) for k in range(level + 1)],
        )
        for level in range(factors.nlevels)
    )


# ---------------------------------------------------------------------------
# Moment pairings.  Everything below integrates exactly through g.
# ---------------------------------------------------------------------------


def poly_against_weight(g: BlockMatrix, p: MatrixPolynomial, k: int) -> list:
    """Integral of p(x) rho_k(x): sum_t coeffs[t] g[t, k]."""
    rights = [g.block(t, k) for t in range(len(p.coeffs))]
    return block_sum(p.n, p.coeffs, rights, g.backend, p.integer_row(g.backend), g.integer_col(k))


def form_against_monomial(g: BlockMatrix, k: int, f: LinearForm) -> list:
    """Integral of x^k f(x)^T: sum_s g[k, s] coeffs[s]."""
    lefts = [g.block(k, s) for s in range(len(f.coeffs))]
    return block_sum(f.n, lefts, f.coeffs, g.backend, g.integer_row(k), f.integer_col(g.backend))


def pair_with_moments(p: MatrixPolynomial, moments, backend: str, cols=None) -> list:
    """sum_t coeffs[t] moments[t], where moments[t] = form_against_monomial(g, t, f).

    This is pair_poly_form(g, p, f) with the inner sums supplied, so callers
    pairing many polynomials against one form build them once; `cols`, when
    given, is the kept `integer_col` of moments of f covering every
    coefficient of p.
    """
    count = min(len(p.coeffs), len(moments))
    return block_sum(p.n, p.coeffs[:count], moments[:count], backend, p.integer_row(backend), cols)


def pair_poly_form(g: BlockMatrix, p: MatrixPolynomial, f: LinearForm) -> list:
    """Integral of p(x) f(x)^T: sum_{t,s} coeffs[t] g[t, s] dcoeffs[s]."""
    moments = [form_against_monomial(g, t, f) for t in range(len(p.coeffs))]
    return pair_with_moments(p, moments, g.backend)


# ---------------------------------------------------------------------------
# Associated families: direct solves against leading truncations of g.
# ---------------------------------------------------------------------------


@memoized
def _lead_solution(g: BlockMatrix, order: int, dual: bool) -> Elimination:
    """(h^{[order]})^T eliminated once per order and side, kept on g, h = g or g^T: if exact,
    the first order*n rows of the factorization's pass over [h | I] unless a singular pivot
    block came first (steps past row p leave it alone; row scales leave solutions alone)."""
    size = order * g.n
    kept = _bareiss_pass(g, not dual)[1] if g.backend == EXACT else None
    if kept and size <= kept.n:
        return Elimination(EXACT, size, kept.rows[:size], kept.order[:size], kept.scales[:size])
    head = range(order)
    dense = g.slice(head, head).to_dense()
    message = "leading minor of order %d is singular" % order
    return eliminate_leading(dense if dual else mat_transpose(dense), g.backend, order, message)


def _solution_column(g: BlockMatrix, order: int, dual: bool, i: int) -> list:
    """Block column i of X solving (h^{[order]})^T X = [I | h[order+t, 0..order-1]^T for t >= 0],
    as stored coefficients: its blocks k < order, transposed unless `dual`.

    Solved on the elimination of `_lead_solution` for the one member that
    reads it, which is kept on g: column i < order of X is that of
    ((h^{[order]})^T)^{-1}, column order+t the solved combination of block
    row order+t of h.  A pass has it eliminated in [h | I]: back-substitute.
    """
    n, head = g.n, range(order)
    elim = _lead_solution(g, order, dual)
    if elim.rows and len(elim.rows[0]) > elim.n:  # rows of a pass: [h | I] eliminated
        start = (i if i >= order else g.nrows + i) * n
        column = _back_substitute(elim, [row[start : start + n] for row in elim.rows])
    elif i < order:
        column = substitute(elim, [[int(r == i * n + c) for c in range(n)] for r in range(elim.n)])
    else:
        h_col = g.slice(head, (i,)) if dual else g.slice((i,), head).transpose()
        column = substitute(elim, h_col.to_dense())
    blocks = [column[k * n : (k + 1) * n] for k in head]
    return blocks if dual else [mat_transpose(b) for b in blocks]


@memoized
def _plus(g: BlockMatrix, level: int, j: int, dual: bool) -> MatrixPolynomial:
    if j < 0 or level < 0 or level + j >= g.nrows:
        raise ValueError("need 0 <= l and l + j < truncation")
    n, backend = g.n, g.backend
    # row = (h[l+j, 0..l-1]) (h^{[l]})^{-1}: column block l+j of the solution
    coeffs = [[[-x for x in row] for row in b] for b in _solution_column(g, level, dual, level + j)]
    return MatrixPolynomial.of(n, coeffs + [mat_zeros(n, n, backend)] * j + [mat_eye(n, backend)])


@memoized
def _minus(g: BlockMatrix, level: int, j: int, dual: bool) -> MatrixPolynomial:
    if j < 0 or j > level:
        raise ValueError("minus-family index j must satisfy 0 <= j <= l")
    if level + 1 > g.nrows:
        raise ValueError("need l + 1 <= truncation")
    return MatrixPolynomial.of(g.n, _solution_column(g, level + 1, dual, level - j))


def associated_plus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    """Monic degree level+j polynomial annihilating rho_0..rho_{level-1}.

    Built as the monomial block level+j minus the solved combination of the
    first `level` monomial blocks.
    """
    return _plus(g, level, j, False)


def associated_minus(g: BlockMatrix, level: int, j: int) -> MatrixPolynomial:
    """Degree <= level polynomial with unit pairing against rho_{level-j}.

    Coefficients are block row level-j of the inverse leading minor of
    order level+1.
    """
    return _minus(g, level, j, False)


def dual_associated_plus(g: BlockMatrix, level: int, j: int) -> LinearForm:
    """Dual plus-family member: weight block level+j minus the solved
    combination of the first `level` weight blocks.

    It is the plus family of the transposed problem g^T, blockwise transposed.
    """
    return _plus(g, level, j, True)


def dual_associated_minus(g: BlockMatrix, level: int, j: int) -> LinearForm:
    """Dual minus-family member: coefficients are block column level-j of
    the inverse leading minor of order level+1.

    It is the minus family of the transposed problem g^T, blockwise transposed.
    """
    return _minus(g, level, j, True)


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def check_biorthogonality(
    g: BlockMatrix, factors: GaussFactors, tol: Tolerance = DEFAULT_TOLERANCE
) -> CheckOutcome:
    """Pairings of the two families against the identity, blockwise: the
    gaps of lower @ g @ upper_inv against I (`BlockMatrix.gaps`), which an
    exact run settles on integers without forming lower @ g."""
    scale = g.maxnorm()
    tracker = ResidualTracker(tol)
    for i, row in enumerate(factors.lower.gaps([g, factors.upper_inv])):
        for j, r in enumerate(row):
            tracker.record(r, scale, "(i=%d, j=%d)" % (i, j))
    return tracker.result()


def _combine(terms, backend: str, right: bool = False) -> MatrixPolynomial:
    """Sum of (factor, member) terms: factor @ coefficient, or coefficient @
    factor when `right`.

    For stored forms the factor multiplies on the right: left-multiplying a
    form by A maps every stored coefficient d to d A^T.
    """
    terms = list(terms)
    n = terms[0][1].n
    top = max(len(p.coeffs) for _, p in terms)
    if backend == EXACT:
        # One product of the factors and all members' coefficients, zero-padded to `top`.
        tops, zero = range(top), ((0,) * n,) * n
        coeffs = [p.coeffs + (zero,) * (top - len(p.coeffs)) for _, p in terms]
        if right:
            rows = [[v for cs in coeffs for v in cs[k][r]] for k in tops for r in range(n)]
            out = mat_mul(rows, [row for m, _ in terms for row in m], EXACT)
            return MatrixPolynomial.of(n, [out[k * n : (k + 1) * n] for k in tops])
        factors = [[v for m, _ in terms for v in m[r]] for r in range(n)]
        stack = [[v for c in cs for v in c[r]] for cs in coeffs for r in range(n)]
        out = mat_mul(factors, stack, EXACT)
        return MatrixPolynomial.of(n, [[row[k * n : (k + 1) * n] for row in out] for k in tops])
    pair = (lambda m, c: (c, m)) if right else (lambda m, c: (m, c))
    # Coefficient k sums the terms that have one, in order: one block sum.
    coeffs = [
        block_sum(n, *zip(*[pair(m, p.coeffs[k]) for m, p in terms if k < len(p.coeffs)]), backend)
        for k in range(top)
    ]
    return MatrixPolynomial.of(n, coeffs)


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
    plus_terms = range(level, level + j + 1)
    minus_terms = range(level - j, level + 1)
    combine = lambda terms: _combine(terms, g.backend)
    on_right = lambda terms: _combine(terms, g.backend, right=True)
    via_plus = combine((factors.lower_inv.block(level + j, k), polys[k]) for k in plus_terms)
    via_minus = combine((factors.upper_inv.block(level - j, k), polys[k]) for k in minus_terms)
    via_dual_plus = on_right((factors.upper.block(k, level + j), forms[k]) for k in plus_terms)
    via_dual_minus = on_right((factors.lower.block(k, level - j), forms[k]) for k in minus_terms)
    routes = (
        ("plus family", associated_plus(g, level, j), via_plus),
        ("minus family", associated_minus(g, level, j), via_minus),
        ("dual plus family", dual_associated_plus(g, level, j), via_dual_plus),
        ("dual minus family", dual_associated_minus(g, level, j), via_dual_minus),
    )
    scale = g.maxnorm()
    tracker = ResidualTracker(tol)
    for where, direct, combined in routes:
        tracker.record(poly_residual(direct, combined, g.backend), scale, where)
    return tracker.result()


def check_modified_orthogonality(
    g: BlockMatrix, level: int, j: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> CheckOutcome:
    """Integral constraints satisfied by the four associated families.

    plus families annihilate the first `level` weights / monomials; minus
    families pair to the identity exactly at index level-j and to zero at
    the other indices up to level.
    """
    n, backend = g.n, g.backend
    scale = g.maxnorm()
    tracker = ResidualTracker(tol)

    plus = associated_plus(g, level, j)
    for k in range(level):
        r = matrix_residual_norm(poly_against_weight(g, plus, k))
        tracker.record(r, scale, "plus vs weight %d" % k)

    dual_plus = dual_associated_plus(g, level, j)
    for k in range(level):
        r = matrix_residual_norm(form_against_monomial(g, k, dual_plus))
        tracker.record(r, scale, "dual plus vs monomial %d" % k)

    minus = associated_minus(g, level, j)
    dual_minus = dual_associated_minus(g, level, j)
    for k in range(level + 1):
        target = mat_eye(n, backend) if k == level - j else mat_zeros(n, n, backend)
        r = gap_norm(poly_against_weight(g, minus, k), target, backend)
        tracker.record(r, scale, "minus vs weight %d" % k)
        r = gap_norm(form_against_monomial(g, k, dual_minus), target, backend)
        tracker.record(r, scale, "dual minus vs monomial %d" % k)

    return tracker.result()


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
    norm = factors.normalization(level)
    # N^T times the form: its stored coefficients times N.
    scaled_form = _combine([(norm, forms[level])], g.backend, right=True)
    routes = (
        ("polynomial vs annihilating form", polys[level], associated_plus(g, level, 0)),
        (
            "polynomial vs scaled inverse-row form",
            polys[level],
            _combine([(norm, associated_minus(g, level, 0))], g.backend),
        ),
        ("dual vs inverse-column form", forms[level], dual_associated_minus(g, level, 0)),
        ("dual vs annihilating form", scaled_form, dual_associated_plus(g, level, 0)),
    )
    scale = g.maxnorm()
    tracker = ResidualTracker(tol)
    for where, expected, direct in routes:
        tracker.record(poly_residual(expected, direct, g.backend), scale, where)
    return tracker.result()
