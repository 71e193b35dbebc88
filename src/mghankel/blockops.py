"""Truncated semi-infinite block matrices.

Everything downstream (moment matrix, shift powers, triangular factors)
lives in one dense container of N x N scalar blocks.  Sizes are desk-scale
by design, so storage is dense and operations are written for clarity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .numerics import (
    CheckOutcome,
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ResidualTracker,
    Tolerance,
    _dots,
    _fold_dots,
    gap_norm,
    has_float,
    integer_col,
    integer_row,
    mat_zeros,
    mat_eye,
    matrix_residual_norm,
    memoized,
    product_gaps,
)
from .weights import ConfigError, WeightFamily, validate_family


def _freeze(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


class BlockMatrix:
    """Immutable grid of N x N scalar blocks, 0-based block indices."""

    __slots__ = ("n", "blocks", "_memo")

    def __init__(self, n: int, blocks):
        self.n = n
        self._memo = {}
        self.blocks = tuple(tuple(_freeze(blk) for blk in row) for row in blocks)
        for row in self.blocks:
            for blk in row:
                if len(blk) != n or any(len(r) != n for r in blk):
                    raise ValueError("every block must be %d x %d" % (n, n))

    @classmethod
    def _frozen(cls, n: int, blocks) -> "BlockMatrix":
        """A BlockMatrix over rows of blocks that are already n x n tuples of
        row tuples; nothing is copied or checked again."""
        self = object.__new__(cls)
        self.n, self.blocks, self._memo = n, tuple(tuple(row) for row in blocks), {}
        return self

    @property
    def nrows(self) -> int:
        return len(self.blocks)

    @property
    def ncols(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    @property
    @memoized
    def backend(self) -> str:
        """FLOAT when some entry is a float, else EXACT; scanned once per matrix."""
        return FLOAT if has_float(*(blk for row in self.blocks for blk in row)) else EXACT

    def block(self, i: int, j: int):
        return self.blocks[i][j]

    @memoized
    def integer_row(self, i: int):
        """`numerics.integer_row` of block row i, built once per matrix."""
        return integer_row(self.blocks[i], self.backend)

    @memoized
    def integer_col(self, j: int):
        """`numerics.integer_col` of block column j, built once per matrix."""
        return integer_col((row[j] for row in self.blocks), self.backend)

    def entry(self, i: int, j: int, a: int, b: int):
        return self.blocks[i][j][a][b]

    @classmethod
    def identity(cls, n: int, nblocks: int, backend: str = EXACT) -> "BlockMatrix":
        blocks = [
            [mat_eye(n, backend) if i == j else mat_zeros(n, n, backend) for j in range(nblocks)]
            for i in range(nblocks)
        ]
        return cls(n, blocks)

    def matmul(self, other: "BlockMatrix") -> "BlockMatrix":
        """Block product.  Exact entries are one `numerics._dots` over the kept
        forms; exact checks settle on integers instead (`gaps`), where only a
        differing entry becomes a Fraction, its gap.  Float entries fold over
        k from int 0 (`_fold_dots`); `other` is transposed once."""
        if self.ncols != other.nrows or self.n != other.n:
            raise ValueError("incompatible block shapes")
        if self.backend == other.backend == EXACT:
            rows = [r for i in range(self.nrows) for r in self.integer_row(i)]
            cols = [c for j in range(other.ncols) for c in other.integer_col(j)]
            return BlockMatrix.from_dense(self.n, _dots(rows, cols))
        transposed = [[list(zip(*blk)) for blk in row] for row in other.blocks]
        cols = [[row[j] for row in transposed] for j in range(other.ncols)]
        return BlockMatrix(self.n, [[_fold_dots(row, col) for col in cols] for row in self.blocks])

    def _rows(self) -> list:
        return [self.integer_row(i) for i in range(self.nrows)]

    def gaps(self, others, target: "BlockMatrix | None" = None) -> list:
        """Gap of each block of self @ others[0] @ ... against the same block
        of `target` (the identity when None): exact operands settle it on
        integers (`numerics.product_gaps`), floats take `gap_norm` of blocks."""
        chain = (self, *others)
        shape = (self.nrows, self.nrows) if target is None else (target.nrows, target.ncols)
        inner = any(a.ncols != b.nrows or a.n != b.n for a, b in zip(chain, others))
        if inner or shape != (self.nrows, others[-1].ncols):
            raise ValueError("incompatible block shapes")
        exact = all(m.backend == EXACT for m in chain)
        if exact and (target is None or target.backend == EXACT):
            n, size = self.n, self.n * self.nrows
            eye = [([0] * k + [1] + [0] * (size - k - 1), 1) for k in range(size)]
            goal = [eye[i : i + n] for i in range(0, size, n)] if target is None else target._rows()
            cols = [[m.integer_col(j) for j in range(m.ncols)] for m in others]
            return product_gaps(self._rows(), cols, goal, n)
        product = functools.reduce(BlockMatrix.matmul, others, self)
        if target is None:
            target = BlockMatrix.identity(self.n, self.nrows, FLOAT)
        pairs = zip(product.blocks, target.blocks)
        return [[gap_norm(p, q, FLOAT) for p, q in zip(*r)] for r in pairs]

    def transpose(self) -> "BlockMatrix":
        return BlockMatrix._frozen(
            self.n, [[tuple(zip(*blk)) for blk in col] for col in zip(*self.blocks)]
        )

    def slice(self, rows, cols) -> "BlockMatrix":
        return BlockMatrix._frozen(self.n, [[self.blocks[i][j] for j in cols] for i in rows])

    def to_dense(self) -> list:
        return [[x for blk in row for x in blk[r]] for row in self.blocks for r in range(self.n)]

    @classmethod
    def from_dense(cls, n: int, dense) -> "BlockMatrix":
        rows, cols = len(dense), (len(dense[0]) if dense else 0)
        if rows % n or cols % n:
            raise ValueError("dense shape %dx%d not divisible by block size %d" % (rows, cols, n))
        blocks = [
            [
                [[dense[i * n + r][j * n + c] for c in range(n)] for r in range(n)]
                for j in range(cols // n)
            ]
            for i in range(rows // n)
        ]
        return cls(n, blocks)

    @memoized
    def maxnorm(self):
        """Max-norm over every entry, computed once per matrix."""
        return matrix_residual_norm([[matrix_residual_norm(b) for b in row] for row in self.blocks])

    def __eq__(self, other):
        return (
            isinstance(other, BlockMatrix)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return "BlockMatrix(n=%d, %dx%d blocks)" % (self.n, self.nrows, self.ncols)


@dataclass(frozen=True)
class BlockPartition:
    """The four tiles of a matrix split at block level l."""

    level: int
    tl: BlockMatrix
    tr: BlockMatrix
    bl: BlockMatrix
    br: BlockMatrix


def partition(g: BlockMatrix, level: int) -> BlockPartition:
    if not 0 <= level <= min(g.nrows, g.ncols):
        raise ValueError("partition level %d out of range" % level)
    rows, cols = g.nrows, g.ncols
    return BlockPartition(
        level,
        g.slice(range(level), range(level)),
        g.slice(range(level), range(level, cols)),
        g.slice(range(level, rows), range(level)),
        g.slice(range(level, rows), range(level, cols)),
    )


def _shift_tile(nvec, rows: range, cols: range) -> list:
    """Block rows `rows` and block columns `cols` of the componentwise shift
    power, dense: block (i, j) is the sum of E_aa over a with j == i + n_a."""
    n = len(nvec)
    return [
        [int(b == a and j == i + na) for j in cols for b in range(n)]
        for i in rows for a, na in enumerate(nvec)
    ]


def shift_power(nvec, truncation: int) -> BlockMatrix:
    """Truncation of the componentwise shift power (`_shift_tile`)."""
    every = range(truncation)
    return BlockMatrix.from_dense(len(nvec), _shift_tile(nvec, every, every))


def build_moment_matrix(fam: WeightFamily, truncation: int) -> BlockMatrix:
    """Moment matrix with block (i, j) equal to the integral of x^i rho_j; a
    family `validate_family` rejects raises ConfigError("family: ...")."""
    report = validate_family(fam, truncation)
    if not report.ok:
        raise ConfigError("family: %s" % report.first_problem())
    return BlockMatrix(
        fam.size,
        [[fam.moment(i, j) for j in range(truncation)] for i in range(truncation)],
    )


def check_multigraded_symmetry(
    g: BlockMatrix, nvec, mvec, tol: Tolerance = DEFAULT_TOLERANCE
) -> CheckOutcome:
    """Entrywise check of g[i+n_a, j, ab] == g[i, j+m_b, ab] on the overlap
    where both sides fall inside the truncation."""
    if g.nrows != g.ncols:
        raise ValueError("symmetry check needs a square block matrix")
    size = g.n
    if len(nvec) != size or len(mvec) != size:
        raise ValueError("multi-index length must match block size")
    scale = g.maxnorm()
    exact = g.backend == EXACT
    tracker = ResidualTracker(tol)
    first = None
    for a in range(size):
        for b in range(size):
            na, mb = nvec[a], mvec[b]
            for i in range(g.nrows - na):
                for j in range(g.ncols - mb):
                    lhs, rhs = g.entry(i + na, j, a, b), g.entry(i, j + mb, a, b)
                    if exact and lhs == rhs:
                        continue  # a zero exact residual changes no verdict
                    where = "(i=%d, j=%d, a=%d, b=%d)" % (i, j, a, b)
                    tracker.record(abs(lhs - rhs), scale, where)
                    if first is None and not tracker.passed:
                        first = where
    if first:
        tracker.notes.append("first violation at %s" % first)
    return tracker.result()
