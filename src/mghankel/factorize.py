"""Block Gaussian factorization of a square block matrix.

Splits g into a unit block-lower factor and a block-upper factor so that
``lower_inv @ upper == g`` with ``lower_inv`` unit block-lower triangular.
No pivoting takes place at the block level: a permuted factorization would
scramble the triangular structure the biorthogonal families are read from.
A singular pivot block is a reported failure, not a recoverable path.

Exact matrices are factorized fraction-free by one `numerics.bareiss_pass`
over [g | I], which gives ``upper`` and ``lower``, and one over [g^T | I],
which gives the two inverses (the factors of g^T are the transposed factors
of g); both stay on g for the associated families.  Float matrices take block
Doolittle elimination and invert both factors by block substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import sub

from .blockops import BlockMatrix, _freeze
from .numerics import (
    EXACT,
    _dots,
    _exceeds,
    _fold_dots,
    bareiss_pass,
    block_sum,
    eliminate_leading,
    fraction,
    integer_col,
    mat_eye,
    mat_zeros,
    matrix_residual_norm,
    memoized,
    substitute,
)

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class GaussFactors:
    """Triangular factors of g and their cached inverses.

    lower is unit block-lower triangular, upper is block-upper triangular,
    and ``lower_inv @ upper`` reproduces g.  Rows of ``lower`` carry the
    coefficients of the polynomial family; columns of ``upper_inv`` carry
    the coefficients of the dual family; ``upper`` diagonal blocks are the
    level normalizations.
    """

    lower: BlockMatrix
    lower_inv: BlockMatrix
    upper: BlockMatrix
    upper_inv: BlockMatrix
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nlevels(self) -> int:
        return self.lower.nrows

    def normalization(self, level: int):
        return self.upper.block(level, level)


def lu_factorize(g: BlockMatrix) -> GaussFactors:
    """Block Gaussian elimination without block pivoting.

    Exact matrices are eliminated fraction-free (`_exact_factors`, kept on
    g), float matrices by block Doolittle elimination.  Raises
    SingularLeadingMinorError(level) when the pivot block at an elimination
    step cannot be inverted (exactly singular, or beyond the relative
    threshold in float mode).
    """
    if g.nrows != g.ncols:
        raise ValueError("factorization needs a square block matrix")
    if g.backend == EXACT:
        return replace(_exact_factors(g))  # a factorization of its own over the kept factors
    n, levels = g.n, g.nrows
    backend = g.backend
    low = [[mat_zeros(n, n, backend) for _ in range(levels)] for _ in range(levels)]
    up = [[mat_zeros(n, n, backend) for _ in range(levels)] for _ in range(levels)]
    pivot_invs = []
    for i in range(levels):
        for j in range(levels):
            ks = range(min(i, j))
            cols = [list(zip(*up[k][j])) for k in ks]
            acc = _fold_dots([low[i][k] for k in ks], cols, g.block(i, j), sub)
            if j < i:
                low[i][j] = block_sum(n, [acc], [pivot_invs[j]], backend)
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


@memoized
def _bareiss_pass(g: BlockMatrix, transposed: bool) -> tuple:
    """(heads, elim) of `numerics.bareiss_pass` over [h | I], h = g^T if
    `transposed` else g, n rows at a time on g's kept scaled rows or columns,
    once per g and side.  Head i is [S | R] over its divisors: S block row i
    of ``upper`` from block column i on, R block row i of ``lower`` up to it
    (``lower @ h == upper``); `_exact_factors` empties the heads."""
    scaled = g.integer_col if transposed else g.integer_row
    return bareiss_pass([v for i in range(g.nrows) for v in scaled(i)], g.n)[:2]


@memoized
def _exact_factors(g: BlockMatrix) -> GaussFactors:
    """The four factors of an exact g from the two passes of `_bareiss_pass`.

    The pass over g gives ``upper`` and ``lower`` block row by block row;
    each pivot block U_ii is inverted to D_i by `eliminate_leading`, which
    raises, and `substitute`.  The pass over g^T gives the rows S' and R' of
    the factors of g^T, the transposed factors of g: block column i of
    ``lower_inv`` and ``upper_inv`` is S'(j, i)^T D_i (j > i) and R'(i, k)^T
    D_i (k < i), one `_dots` of r's integer columns with D_i over r's
    divisors.  Kept on g, it empties the passes' block rows, which nothing
    else reads.
    """
    n, levels = g.n, g.nrows
    eye, zero = _freeze(mat_eye(n)), _freeze(mat_zeros(n, n))
    upper, lower, pivot_invs = [], [], []
    for i, (rows, dens) in enumerate(_bareiss_pass(g, False)[0]):
        sr = [[fraction(v, den) for v in row] for row, den in zip(rows, dens)]
        blocks = [tuple(tuple(row[c : c + n]) for row in sr) for c in range(0, len(sr[0]), n)]
        pivot_invs.append(substitute(eliminate_leading(blocks[0], EXACT, i), mat_eye(n)))
        upper.append([zero] * i + blocks[: levels - i])
        lower.append(blocks[levels - i :] + [zero] * (levels - i - 1))
    lower_inv, upper_inv = [], []  # by block columns
    for i, ((rows, dens), d) in enumerate(zip(_bareiss_pass(g, True)[0], pivot_invs)):
        scaled_d = [[x / den for x in row] for row, den in zip(d, dens)]
        columns = [(col, 1) for col in zip(*[row[n : levels * n] for row in rows])]
        product = _dots(columns, integer_col([scaled_d], EXACT))
        blocks = [_freeze(product[t : t + n]) for t in range(0, len(product), n)]
        lower_inv.append([zero] * i + [eye] + blocks[: levels - i - 1])
        upper_inv.append(blocks[levels - i - 1 :] + [_freeze(d)] + [zero] * (levels - i - 1))
    for transposed in (False, True):
        _bareiss_pass(g, transposed)[0].clear()
    return GaussFactors(
        lower=BlockMatrix._frozen(n, lower),
        lower_inv=BlockMatrix._frozen(n, zip(*lower_inv)),
        upper=BlockMatrix._frozen(n, upper),
        upper_inv=BlockMatrix._frozen(n, zip(*upper_inv)),
    )


def invert_block_triangular(t: BlockMatrix, orientation: str) -> BlockMatrix:
    """Invert a block-triangular matrix by block substitution.

    The inverse shares the orientation.  An identity diagonal block is its
    own inverse and takes no elimination.  A singular diagonal block raises
    SingularLeadingMinorError with its index.
    """
    if orientation not in (LOWER, UPPER):
        raise ValueError("orientation must be %r or %r" % (LOWER, UPPER))
    if t.nrows != t.ncols:
        raise ValueError("inversion needs a square block matrix")
    if orientation == UPPER:
        return invert_block_triangular(t.transpose(), LOWER).transpose()
    n, levels, backend = t.n, t.nrows, t.backend
    inv = [[mat_zeros(n, n, backend) for _ in range(levels)] for _ in range(levels)]
    eye = mat_eye(n, backend)
    for i in range(levels):
        block, inv[i][i] = t.block(i, i), eye
        if block != _freeze(eye):
            inv[i][i] = substitute(eliminate_leading(block, backend, i), eye)
        for j in range(i - 1, -1, -1):
            ks = range(j, i)
            acc = block_sum(n, [t.block(i, k) for k in ks], [inv[k][j] for k in ks], backend)
            inv[i][j] = block_sum(n, [[[-x for x in row] for row in inv[i][i]]], [acc], backend)
    return BlockMatrix(n, inv)


def _factor_gaps(g: BlockMatrix, factors: GaussFactors) -> list:
    """`BlockMatrix.gaps` of lower_inv @ upper against g, kept on g for the
    last factors checked, so that both residuals read one gaps matrix."""
    kept = g._memo.get((_factor_gaps, ()))
    if kept is None or kept[0] is not factors:
        kept = g._memo[_factor_gaps, ()] = (factors, factors.lower_inv.gaps([factors.upper], g))
    return kept[1]


def factorization_residual(g: BlockMatrix, factors: GaussFactors):
    """Max-norm of lower_inv @ upper - g."""
    return matrix_residual_norm(_factor_gaps(g, factors))


def nested_truncation_residual(g: BlockMatrix, factors: GaussFactors):
    """Worst residual of (lower_inv^{[l]}) @ (upper^{[l]}) - g^{[l]} over
    l = 1..L, with lower_inv^{[l]} re-derived from the leading truncation of
    lower; returns (residual, first level where it is reached).

    Block substitution builds row i of an inverse from blocks 0..i only, so
    the inverse of every leading truncation is the leading part of one
    inverse of the whole factor, and every truncation's residual is the
    leading part of one residual matrix.  Level l adds its L-shaped border:
    block row l-1 and block column l-1.  Exact gaps settle on integers
    (`BlockMatrix.gaps`); only an entry that differs builds its Fraction.
    Exact factors with ``lower_inv @ lower == I`` skip the re-derivation:
    the unit block-lower ``lower_inv`` is then the one inverse of
    ``lower``, so the gaps are those of `factorization_residual`, read
    again, not settled again.
    """
    lower = factors.lower
    if g.backend == EXACT and not any(map(any, factors.lower_inv.gaps([lower]))):
        res = _factor_gaps(g, factors)
    else:
        res = invert_block_triangular(lower, LOWER).gaps([factors.upper], g)
    worst = 0
    worst_level = None
    for level in range(1, g.nrows + 1):
        last = level - 1
        border = [res[last][k] for k in range(level)] + [res[k][last] for k in range(last)]
        for r in border:
            if _exceeds(r, worst):
                worst, worst_level = r, level
    return worst, worst_level
