"""Block Gaussian factorization of a square block matrix.

Splits g into a unit block-lower factor and a block-upper factor so that
``lower_inv @ upper == g`` with ``lower_inv`` unit block-lower triangular.
No pivoting takes place at the block level: a permuted factorization would
scramble the triangular structure the biorthogonal families are read from.
A singular pivot block is a reported failure, not a recoverable path.

Exact matrices are factorized fraction-free: one Bareiss elimination of
[g | I] gives ``upper`` and ``lower``, and one of [g^T | I] gives the two
inverses, as the factors of g^T are the transposed factors of g (the dual
family is the primal family of g^T).  Float matrices take block Doolittle
elimination and invert both factors by block substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub

from .blockops import BlockMatrix, _freeze
from .numerics import (
    EXACT,
    _exceeds,
    _fold_dots,
    _integer_vectors,
    bareiss_step,
    block_sum,
    fraction,
    gap_norm,
    mat_eye,
    mat_mul,
    mat_scale,
    mat_transpose,
    mat_zeros,
    matrix_residual_norm,
    memoized,
    solve_leading,
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

    Exact matrices are eliminated fraction-free (`_exact_factors`), float
    matrices by block Doolittle elimination.  Raises
    SingularLeadingMinorError(level) when the pivot block at an elimination
    step cannot be inverted (exactly singular, or beyond the relative
    threshold in float mode).
    """
    if g.nrows != g.ncols:
        raise ValueError("factorization needs a square block matrix")
    if g.backend == EXACT:
        return _exact_factors(g)
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
                low[i][j] = mat_mul(acc, pivot_invs[j], backend)
            else:
                up[i][j] = acc
        low[i][i] = mat_eye(n, backend)
        pivot_invs.append(solve_leading(up[i][i], mat_eye(n, backend), backend, i))
    lower_inv = BlockMatrix(n, low)
    upper = BlockMatrix(n, up)
    return GaussFactors(
        lower=invert_block_triangular(lower_inv, LOWER),
        lower_inv=lower_inv,
        upper=upper,
        upper_inv=invert_block_triangular(upper, UPPER),
    )


def _reduced_block_rows(dense, n: int):
    """Bareiss elimination of [A | I] for a dense exact A, n rows at a time.

    Each row of [A | I] starts scaled to integers by the lcm of the
    denominators of its part in A.  When block i comes up, its rows,
    divided by the last pivot times their starting lcm, are [S | R]: S is
    block row i of ``upper`` (the Schur complement of the leading i blocks,
    from block column i on) and R is block row i of ``lower`` (up to block
    column i), where ``lower @ A == upper``.  Yields (S, R) as lists of
    frozen n x n Fraction blocks, then eliminates the columns of block i,
    pivoting only among its rows; the caller tests the pivot block first.
    """
    size = len(dense)
    m, lcms = [], []
    for r, (ints, lcm) in enumerate(_integer_vectors(dense)):
        unit = [0] * size
        unit[r] = lcm
        m.append(ints + unit)
        lcms.append(lcm)
    prev = 1
    for start in range(0, size, n):
        stop = start + n
        sign = -1 if prev < 0 else 1
        rows = [
            [fraction(sign * v, sign * prev * lcms[r]) for v in m[r][start : size + stop]]
            for r in range(start, stop)
        ]
        blocks = [tuple(tuple(row[c : c + n]) for row in rows) for c in range(0, len(rows[0]), n)]
        split = (size - start) // n
        yield blocks[:split], blocks[split:]
        for col in range(start, stop):
            prev = bareiss_step(m, col, stop, prev)


def _exact_factors(g: BlockMatrix) -> GaussFactors:
    """The four factors of an exact g from two fraction-free eliminations.

    The pass over g gives ``upper`` and ``lower`` block row by block row;
    `solve_leading` inverts each pivot block U_ii to D_i before its columns
    are eliminated.  The pass over g^T, whose pivot blocks are the U_ii^T,
    gives the rows S' and R' of the same factors of g^T, which are the
    transposed factors of g:
    ``lower_inv[i][j] = S'(j, i)^T D_j`` and ``upper_inv[k][i] = R'(i, k)^T D_i``.
    """
    n, levels = g.n, g.nrows
    eye, zero = _freeze(mat_eye(n)), _freeze(mat_zeros(n, n))
    dense = g.to_dense()
    upper, lower, pivot_invs = [], [], []
    for i, (s, r) in enumerate(_reduced_block_rows(dense, n)):
        pivot_invs.append(solve_leading(s[0], mat_eye(n), EXACT, i))
        upper.append([zero] * i + s)
        lower.append(r + [zero] * (levels - i - 1))
    lower_inv = [[eye if i == j else zero for j in range(levels)] for i in range(levels)]
    upper_inv = [[zero] * levels for _ in range(levels)]
    for i, (s, r) in enumerate(_reduced_block_rows(mat_transpose(dense), n)):
        d = pivot_invs[i]
        for j in range(i + 1, levels):
            lower_inv[j][i] = _freeze(mat_mul(mat_transpose(s[j - i]), d, EXACT))
        for k in range(i):
            upper_inv[k][i] = _freeze(mat_mul(mat_transpose(r[k]), d, EXACT))
        upper_inv[i][i] = _freeze(d)
    return GaussFactors(
        lower=BlockMatrix._frozen(n, lower),
        lower_inv=BlockMatrix._frozen(n, lower_inv),
        upper=BlockMatrix._frozen(n, upper),
        upper_inv=BlockMatrix._frozen(n, upper_inv),
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
        block = t.block(i, i)
        inv[i][i] = eye if block == _freeze(eye) else solve_leading(block, eye, backend, i)
        for j in range(i - 1, -1, -1):
            ks = range(j, i)
            acc = block_sum(n, [t.block(i, k) for k in ks], [inv[k][j] for k in ks], backend)
            inv[i][j] = mat_mul(mat_scale(-1, inv[i][i]), acc, backend)
    return BlockMatrix(n, inv)


@memoized
def _reproduced(factors: GaussFactors) -> BlockMatrix:
    """lower_inv @ upper, formed once per factorization."""
    return factors.lower_inv.matmul(factors.upper)


def _block_gaps(a: BlockMatrix, g: BlockMatrix) -> list:
    """`gap_norm` of each block of a against the same block of g, in g's backend."""
    if (a.nrows, a.ncols, a.n) != (g.nrows, g.ncols, g.n):
        raise ValueError("incompatible block shapes")
    return [
        [gap_norm(p, q, g.backend) for p, q in zip(row_a, row_g)]
        for row_a, row_g in zip(a.blocks, g.blocks)
    ]


def factorization_residual(g: BlockMatrix, factors: GaussFactors):
    """Max-norm of lower_inv @ upper - g."""
    return matrix_residual_norm(_block_gaps(_reproduced(factors), g))


def nested_truncation_residual(g: BlockMatrix, factors: GaussFactors):
    """Worst residual of (lower_inv^{[l]}) @ (upper^{[l]}) - g^{[l]} over
    l = 1..L, with lower_inv^{[l]} re-derived from the leading truncation of
    lower; returns (residual, first level where it is reached).

    Block substitution builds row i of an inverse from blocks 0..i only, so
    the inverse of every leading truncation is the leading part of one
    inverse of the whole factor, and every truncation's residual is the
    leading part of one residual matrix.  Level l adds its L-shaped border:
    block row l-1 and block column l-1.  When the re-derived inverse equals
    ``lower_inv`` exactly, that residual matrix is the one of
    `factorization_residual`, and its product is not formed again.
    """
    inverse = invert_block_triangular(factors.lower, LOWER)
    if g.backend == EXACT and inverse == factors.lower_inv:
        product = _reproduced(factors)
    else:
        product = inverse.matmul(factors.upper)
    res = _block_gaps(product, g)
    worst = 0
    worst_level = None
    for level in range(1, g.nrows + 1):
        last = level - 1
        border = [res[last][k] for k in range(level)] + [res[k][last] for k in range(last)]
        for r in border:
            if _exceeds(r, worst):
                worst, worst_level = r, level
    return worst, worst_level
