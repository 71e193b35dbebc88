"""Scalar arithmetic contract shared by all modules.

Two backends, selected per run and never mixed inside one computation:
exact rationals (`fractions.Fraction`) and 64-bit floats.  Exact values are
compared bit-exactly; every float comparison goes through `Tolerance`.

Dense matrices are plain nested sequences of scalars.  A run's backend is
fixed, so the dense kernels (`block_sum`, `eliminate`, `solve_dense`,
`gap_norm`) take it as an argument from the caller, which holds it already
(`WeightFamily.backend`, `BlockMatrix.backend`), and never scan their
operands for it.  Exact products return `Fraction`s and refuse a float at
every shape.  `block_sum` is the one sum of products; in exact runs it is a
single product of a block row and a block column.  Float sums of products
(`block_sum`, `BlockMatrix.matmul`, the Schur update of `lu_factorize`) fold
each entry in place over its per-pair dots (`_fold_dots`): a dot starts from
int 0, so none is -0.0, 0 + p_0 is p_0 (so one pair is its plain product),
and the float operations are those of adding the products blockwise.  Exact
products and solves are fraction-free: a product takes integer dot products
of rows and columns scaled by the lcm of their denominators (`integer_row`,
`integer_col`), and both create `Fraction`s only for their output entries,
each by `fraction`: one gcd, no `Fraction.__new__` dispatch.  An operand
read many times keeps its scaled form on its owner, which lives as long as
the run: g and the factors (`BlockMatrix`), each family member
(`MatrixPolynomial`), and the point table and kernel evaluators of
`cdkernel`.  Products read a kept form in place of scaling again.

A solve is one elimination of A (`eliminate`) and one substitution per
right-hand-side block (`substitute`); `solve_dense` does both at once, and
a caller that reads only some blocks of a solution keeps the `Elimination`
and substitutes those.  One exact elimination serves all: `bareiss_pass`,
Bareiss on the integer rows of [A | S], S = diag(row lcms), a block of
rows at a time; `eliminate` is one block, the block factorization n rows,
and a leading minor reads the first rows of its pass.
Exact `substitute` is a product with the S part, then `_back_substitute`.
Float A takes Gauss-Jordan with pivots of the largest magnitude, and each
column of B repeats its operations in order.  Every singular pivot block or
leading block minor is reported through `eliminate_leading`, as a
`SingularLeadingMinorError` naming its level.

Every gap between two sides of a check is `gap_norm`: exact sides that
agree entry for entry (Fractions by their numerator and denominator
slots) give 0 by equality, and only others are subtracted; float sides
are always subtracted, so inf and NaN gaps stay NaN.  Exact product
checks settle on integers (`product_gaps`, the one chained product): an
entry v / D of the chain equals its target t / T iff v T == t D, and only
an entry that differs becomes a Fraction, its gap |v T - t D| / (D T).
Every other exact product is one `_dots` call.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, attrgetter, eq, mul
from typing import NamedTuple

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)

# A scalar is a Fraction (exact), a float, or an int (exact, embeds in both).
Scalar = Fraction | float | int


class SingularMatrixError(ArithmeticError):
    """A dense linear solve met a (numerically) singular matrix."""


class SingularLeadingMinorError(SingularMatrixError):
    """Block elimination hit a singular pivot block at ``level``."""

    def __init__(self, level: int, message: str | None = None):
        self.level = level
        super().__init__(message or "singular leading block minor at level %d" % level)


class SingularLocusError(ZeroDivisionError):
    """Entrywise quotient requested where x^{n_a} == y^{n_b}."""


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy for the float backend.

    approx_zero(x, scale) holds iff |x| <= abs_tol + rel_tol * scale, where
    scale is a caller-supplied magnitude reference (typically the max-norm
    of the largest operand).
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if isinstance(self.abs_tol, (bool, str)) or isinstance(self.rel_tol, (bool, str)):
            raise ValueError("tolerances must be numbers, not bools or text")
        if not (self.abs_tol >= 0 and self.rel_tol >= 0):
            raise ValueError("tolerances must be nonnegative")
        if math.inf in (self.abs_tol, self.rel_tol):
            raise ValueError("tolerances must be finite")


DEFAULT_TOLERANCE = Tolerance()

# Pivot blocks whose smallest eliminated diagonal entry falls below this
# fraction of the block max-norm are treated as singular in float mode.
SINGULAR_PIVOT_RTOL = 1e-12


def approx_zero(x: Scalar, scale: Scalar, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Backend-aware zero test; exact scalars (Fraction or int) ignore the tolerance."""
    if isinstance(x, (Fraction, int)):
        return x == 0
    return abs(x) <= tol.abs_tol + tol.rel_tol * scale


def parse_rational(value) -> Fraction:
    """Parse a rational from an int (not a bool) or a 'p/q' / 'p' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % value) from None
    raise ValueError("not a rational: %r (use ints or 'p/q' strings)" % (value,))


def as_backend(x, backend: str) -> Scalar:
    """Coerce a rational (or float, in float mode) onto the given backend."""
    if backend == EXACT:
        if isinstance(x, float):
            raise TypeError("exact backend requires rational values, got %r" % x)
        return x if isinstance(x, Fraction) else Fraction(x)
    if backend == FLOAT:
        return float(x)
    raise ValueError("unknown backend %r" % backend)


def scalar_str(x: Scalar) -> str:
    """Decimal rendering for reports; exact zero renders as '0'."""
    if isinstance(x, (Fraction, int)):
        return "0" if x == 0 else repr(float(x))
    return repr(x)


def memoized(method):
    """Memoize a method, or a function of one object, per object in its `_memo`.

    Values live as long as the object; a call that raises stores nothing."""

    missing = object()

    @functools.wraps(method)
    def cached(self, *args):
        value = self._memo.get((method, args), missing)
        if value is missing:
            value = self._memo[method, args] = method(self, *args)
        return value

    return cached


def fraction(n: int, d: int, _new=object.__new__, _gcd=math.gcd) -> Fraction:
    """Fraction(n, d) for ints n, d > 0: one gcd, no `Fraction.__new__` dispatch."""
    g = _gcd(n, d)
    f = _new(Fraction)
    f._numerator, f._denominator = n // g, d // g
    return f


# ---------------------------------------------------------------------------
# Dense matrices: lists (or tuples) of rows of scalars.
# ---------------------------------------------------------------------------


def mat_zeros(rows: int, cols: int, backend: str = EXACT) -> list:
    zero = Fraction(0) if backend == EXACT else 0.0
    return [[zero] * cols for _ in range(rows)]


def mat_eye(n: int, backend: str = EXACT) -> list:
    one = Fraction(1) if backend == EXACT else 1.0
    m = mat_zeros(n, n, backend)
    for i in range(n):
        m[i][i] = one
    return m


def mat_sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def has_float(*mats) -> bool:
    """True when some entry of the dense matrices is a float."""
    return any(isinstance(v, float) for m in mats for row in m for v in row)


def _integer_vectors(vectors) -> list:
    """(integers, lcm of denominators) for each exact vector.

    Scalars are split by `numerator` and `denominator`, which a float lacks:
    a float in an exact computation raises TypeError."""
    out = []
    try:
        for v in vectors:
            dens = [x.denominator for x in v]
            den = math.lcm(*dens)
            out.append(([x.numerator * (den // d) for x, d in zip(v, dens)], den))
    except AttributeError:
        raise TypeError("exact arithmetic met a float") from None
    return out


def integer_row(lefts, backend: str):
    """The blocks `lefts` side by side, each row scaled to (integers, lcm of
    denominators): the row operand of an exact `block_sum`.  Floats get None
    and `lefts` is not read."""
    if backend != EXACT:
        return None
    rows = range(len(lefts[0]) if lefts else 0)
    return _integer_vectors([x for m in lefts for x in m[r]] for r in rows)


def integer_col(rights, backend: str):
    """The blocks `rights` one on top of another, each column scaled: the
    column operand of an exact `block_sum`, as `integer_row`."""
    if backend != EXACT:
        return None
    return _integer_vectors(zip(*[row for m in rights for row in m]))


def _dots(rows, cols) -> list:
    """fraction(r . c, r_lcm * c_lcm) per scaled row and column, r . c over the shorter."""
    return [
        [fraction(sum(map(mul, r, c)), r_den * c_den) for c, c_den in cols] for r, r_den in rows
    ]


def block_sum(n: int, lefts, rights, backend: str, rows=None, cols=None) -> list:
    """Sum of lefts[k] @ rights[k] over k in `backend`, at any shape.

    With no pairs the sum is the n x n zero of `backend`.  Exact operands
    take one fraction-free product of the block row [lefts[0] lefts[1] ...]
    and the block column [rights[0]; rights[1]; ...], scaled by
    `integer_row` and `integer_col` unless `rows` or `cols` holds a kept
    form.  A kept form may cover more blocks than the pairs if each extra
    block meets a zero block or nothing on the other side.  Floats ignore
    kept forms and fold each entry over the pairs in order from int 0
    (`_fold_dots`); one pair adds its scalar products in order, the same
    bits, as 0 + p_0 is p_0.
    """
    if not lefts:
        return mat_zeros(n, n, backend)
    if backend == EXACT:
        return _dots(rows or integer_row(lefts, EXACT), cols or integer_col(rights, EXACT))
    if len(lefts) == 1:
        cols = list(zip(*rights[0]))
        return [[sum(map(mul, row, col)) for col in cols] for row in lefts[0]]
    return _fold_dots(lefts, [list(zip(*b)) for b in rights])


def _span(block) -> tuple:
    """[lo, hi): where some integer vector of `block` is nonzero; (-1, 0) when
    none is, and any range met with that slices to nothing."""
    flags = bytes(map(any, zip(*[ints for ints, _ in block])))
    return flags.find(1), flags.rfind(1) + 1


def product_gaps(rows, forms, targets, n: int) -> list:
    """`gap_norm` of each n x n block of rows @ C_1 @ ... @ C_m against the
    same block of `targets`, settled on integers.  `rows` and `targets` are
    block rows of (integers, den) rows (`integer_row`), each C block columns
    alike (`integer_col`).  Each dot runs only where both its blocks hold a
    nonzero (`_span`, read from the data); between factors each row goes
    over one denominator, its own times the lcm of the columns'.  An entry
    v / D equals its target t / T iff v T == t D, and only an entry that
    differs builds a Fraction, its gap |v T - t D| / (D T)."""
    dens = []
    for cols in forms:
        if dens:
            lcm = math.lcm(*dens)
            scales = [lcm // d for d in dens]
            rows = [[(list(map(mul, v, scales)), d * lcm) for v, d in b] for b in rows]
        spans = [(*_span(b), [c for c, _ in b]) for b in cols]
        out = []
        for block in rows:
            lo, hi = _span(block)
            bounds = [(max(lo, c_lo), min(hi, c_hi), cs) for c_lo, c_hi, cs in spans]
            out.append([
                ([sum(map(mul, r[a:b], c[a:b])) for a, b, cs in bounds for c in cs], d)
                for r, d in block
            ])
        rows, dens = out, [d for b in cols for _, d in b]
    out = []
    for block, goal in zip(rows, targets):
        gaps = [0] * (len(dens) // n)
        for (dots, den), (t, t_den) in zip(block, goal):
            lhs = list(map(mul, dots, repeat(t_den)))
            rhs = list(map(mul, t, map(mul, dens, repeat(den))))
            if lhs == rhs:
                continue
            for k, (v, w) in enumerate(zip(lhs, rhs)):
                if v != w:
                    gaps[k // n] = max(gaps[k // n], fraction(abs(v - w), den * dens[k] * t_den))
        out.append(gaps)
    return out


def _fold_dots(lefts, cols, start=None, op=add) -> list:
    """Entry (r, c) folds `op` left to right over p_k = sum(map(mul,
    lefts[k][r], cols[k][c])), cols[k] the columns of right block k, from
    start[r][c] (the result with no pairs) or int 0, building no matrix per k."""
    if not lefts:
        return [list(row) for row in start]
    by_col, muls, fold = list(zip(*cols)), repeat(mul), functools.reduce
    out = []
    for rows, init in zip(zip(*lefts), start or repeat(repeat(0))):
        out.append([fold(op, map(sum, map(map, muls, rows, cs)), s) for cs, s in zip(by_col, init)])
    return out


def mat_transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def matrix_residual_norm(a) -> Scalar:
    """Max-norm over entries; the residual metric used in every check.

    A NaN entry makes the norm NaN, so it can never read as a small residual.
    """
    best: Scalar = 0
    for row in a:
        for x in row:
            v = abs(x)
            if not v <= best:
                if v != v:
                    return v
                best = v
    return best


def _exceeds(residual, best) -> bool:
    """residual > best, where NaN exceeds every number but not another NaN."""
    return residual > best or (residual != residual and best == best)


def bareiss_step(m, col: int, stop: int, prev: int) -> int:
    """Eliminate column `col` of the integer rows `m` in place; return the pivot.

    The pivot is the first row r in [col, stop) with m[r][col] != 0; it is
    swapped into row col, and every later row becomes (p*v - f*w) // prev
    past column col, where prev is the previous pivot (1 at the start).
    The division is exact (Bareiss, Math. Comp. 22, 1968).  Entries at or
    left of col in the later rows are left as they were.  Raises
    SingularMatrixError when no row in [col, stop) has a pivot.
    """
    pivot_row = next((r for r in range(col, stop) if m[r][col]), None)
    if pivot_row is None:
        raise SingularMatrixError("singular matrix (no pivot in column %d)" % col)
    m[col], m[pivot_row] = m[pivot_row], m[col]
    p = m[col][col]
    pivot_tail = m[col][col + 1 :]
    for row in m[col + 1 :]:
        f, tail = row[col], row[col + 1 :]
        row[col + 1 :] = [(p * v - f * w) // prev for v, w in zip(tail, pivot_tail)]
    return p


class Elimination(NamedTuple):
    """A square A eliminated once in `backend`; `substitute` solves A X = B
    from it for any B, one right-hand-side block at a time.

    Exact: `rows` are the n rows of a `bareiss_pass` over [A' | S]
    with A the leading n x n minor of A' (a pass read as the elimination of
    a leading minor is a view of its rows).  S is as wide as A', so a row's
    S part starts halfway; read in its first n columns it is E, and E B is
    B eliminated beside A.
    Float: `steps` holds, per column of A, the row swapped into the pivot
    position, the reciprocal of the pivot and the (row, multiplier) pairs
    the column subtracted, in the order Gauss-Jordan applied them.
    """

    backend: str
    n: int
    rows: Sequence = ()
    steps: Sequence = ()


def bareiss_pass(scaled_rows, block: int) -> tuple:
    """Bareiss elimination of [A | S], `block` rows at a time (Math. Comp.
    22, 1968), where A is given as its rows scaled to (integers, lcm of
    denominators), S = diag(the lcms), and `block` divides its size.

    Every entry stays a nonzero multiple of its Gauss-Jordan counterpart,
    so the first-nonzero pivots are those Gauss-Jordan would take.  Block
    k comes up as its rows from column k*block on, through the S columns of
    blocks 0..k, each over its divisor (the last pivot times its lcm),
    sign moved onto the row; its columns are then eliminated,
    pivoting only among its rows, and a singular pivot block ends the pass.
    Returns (heads, elim, error): (rows, divisors) per block that came up,
    the `Elimination` of the blocks completed, and the SingularMatrixError
    that stopped the pass, or None.
    """
    size = len(scaled_rows)
    m = [ints + [0] * r + [lcm] + [0] * (size - r - 1) for r, (ints, lcm) in enumerate(scaled_rows)]
    heads, prev, done, error = [], 1, 0, None
    for start in range(0, size, block):
        stop, sign = start + block, (-1 if prev < 0 else 1)
        rows = [[sign * v for v in row[start : size + stop]] for row in m[start:stop]]
        heads.append((rows, [sign * prev * lcm for _, lcm in scaled_rows[start:stop]]))
        try:
            for col in range(start, stop):
                prev = bareiss_step(m, col, stop, prev)
        except SingularMatrixError as exc:
            error = exc
            break
        done = stop
    return heads, Elimination(EXACT, done, m[:done]), error


def _back_substitute(elim: Elimination, x, common: int = 1) -> list:
    """X from x = D * B eliminated beside A (D = `common`): yields |det| * D * X
    on integers (exact by Cramer's rule); Fractions are created only there."""
    n, rows = elim.n, elim.rows
    det = abs(rows[n - 1][n - 1]) if n else 1  # the last pivot; > 0, as `fraction` needs
    scaled = [None] * n  # det * D * X, row by row
    for i in reversed(range(n)):
        row = rows[i]
        acc = [det * v for v in x[i]]
        for j in range(i + 1, n):
            u = row[j]
            if u:
                acc = [s - u * t for s, t in zip(acc, scaled[j])]
        scaled[i] = [s // row[i] for s in acc]
    den = det * common
    return [[fraction(v, den) for v in row] for row in scaled]


def eliminate(a, backend: str) -> Elimination:
    """Eliminate dense square A once in `backend`, for `substitute`.

    Exact inputs (Fraction or int) are eliminated fraction-free by a
    `bareiss_pass` of one block.  Float inputs take Gauss-Jordan
    elimination with partial pivoting on the largest magnitude.  Raises
    SingularMatrixError when no usable pivot remains.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if backend == EXACT:
        _, elim, error = bareiss_pass(_integer_vectors(a), n or 1)
        if error:
            raise error
        return elim
    m = [[float(v) for v in row] for row in a]
    scale = matrix_residual_norm(m)
    steps = []
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot_row][col]) <= SINGULAR_PIVOT_RTOL * scale:
            raise SingularMatrixError("singular matrix (no pivot in column %d)" % col)
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        multipliers = []
        for r in range(n):
            if r == col:
                continue
            factor = m[r][col]
            if factor == 0:
                continue
            m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
            multipliers.append((r, factor))
        steps.append((pivot_row, inv, multipliers))
    return Elimination(FLOAT, n, steps=steps)


def substitute(elim: Elimination, b) -> list:
    """X solving A X = B, where `elim` is the elimination of A.

    Exact B goes over one common denominator D, the S part E of the rows
    eliminates it as E (D B), and `_back_substitute` makes the Fractions,
    created only at the output.  Each float
    column of B, one scalar at a time, repeats the swaps, scalings and
    subtractions Gauss-Jordan made on A, in the same order, so a column's
    result does not depend on the other columns of B.
    """
    if len(b) != elim.n:
        raise ValueError("right-hand side has %d rows, expected %d" % (len(b), elim.n))
    if elim.backend == EXACT:
        vectors = _integer_vectors(b)
        common = math.lcm(*[den for _, den in vectors])
        cols = list(zip(*[[v * (common // den) for v in ints] for ints, den in vectors]))
        n = elim.n
        half = len(elim.rows[0]) // 2 if n else 0  # where the S part starts
        x = [[sum(map(mul, row[half : half + n], c)) for c in cols] for row in elim.rows]
        return _back_substitute(elim, x, common)
    cols = [[float(v) for v in col] for col in zip(*b)]
    for x in cols:
        for col, (pivot_row, inv, multipliers) in enumerate(elim.steps):
            x[col], x[pivot_row] = x[pivot_row], x[col]
            pivot = x[col] = x[col] * inv
            for r, factor in multipliers:
                x[r] = x[r] - factor * pivot
    return [list(row) for row in zip(*cols)] if cols else [[] for _ in b]


def solve_dense(a, b, backend: str) -> list:
    """Solve A X = B for dense square A in `backend`: `eliminate`, then
    `substitute`.  Raises SingularMatrixError when no usable pivot remains.
    """
    return substitute(eliminate(a, backend), b)


def invert_dense(a) -> list:
    backend = FLOAT if has_float(a) else EXACT
    return solve_dense(a, mat_eye(len(a), backend), backend)


def eliminate_leading(a, backend: str, level: int, message: str | None = None) -> Elimination:
    """`eliminate(a, backend)`; a singular `a` raises
    SingularLeadingMinorError(level, message)."""
    try:
        return eliminate(a, backend)
    except SingularMatrixError as exc:
        raise SingularLeadingMinorError(level, message) from exc


def gap_norm(a, b, backend: str) -> Scalar:
    """Max-norm of A - B in `backend`: the gap between two sides of a check.

    Exact sides that agree entry for entry give 0, the norm their
    difference would have, without a subtraction.  Float sides always
    subtract: inf == inf, and a list comparison finds one NaN object equal
    to itself, but both gaps are NaN.
    """
    if backend == EXACT and all(map(_same, a, b)):
        return 0
    return matrix_residual_norm(mat_sub(a, b))


def _same(ra, rb, _pair=attrgetter("_numerator", "_denominator")) -> bool:
    """Exact rows agree entry for entry: canonical Fractions by their
    (numerator, denominator) slots, a row holding an int by value."""
    try:
        return list(map(_pair, ra)) == list(map(_pair, rb))
    except AttributeError:
        return all(map(eq, ra, rb))


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one identity check: verdict, max residual, worst location."""

    passed: bool
    residual: Scalar
    worst: str | None = None
    notes: tuple = ()


class ResidualTracker:
    """Running verdict of one check over its residuals.

    Keeps the first location of the largest residual (`worst` stays None
    while every residual is zero) and passes iff every residual is within
    tolerance of the scale it was recorded with.  A NaN residual counts as
    the largest and fails the check.
    """

    def __init__(self, tol: Tolerance = DEFAULT_TOLERANCE):
        self.tol = tol
        self.passed = True
        self.residual = 0
        self.worst = None
        self.notes = []

    def record(self, residual, scale, where: str) -> None:
        if _exceeds(residual, self.residual):
            self.residual = residual
            self.worst = where
        if not approx_zero(residual, scale, self.tol):
            self.passed = False

    def record_gap(self, lhs, rhs, where: str, backend: str) -> None:
        """Record the `gap_norm` between two sides, scaled by the larger side.

        `approx_zero` ignores the scale of an exact gap, so none is taken."""
        gap = gap_norm(lhs, rhs, backend)
        scale = 0 if backend == EXACT else max(matrix_residual_norm(lhs), matrix_residual_norm(rhs))
        self.record(gap, scale, where)

    def merge(self, outcome: CheckOutcome, where: str) -> None:
        """Fold in a sub-check, prefixing its location with `where`."""
        if _exceeds(outcome.residual, self.residual):
            self.residual = outcome.residual
            self.worst = where if outcome.worst is None else "%s %s" % (where, outcome.worst)
        if not outcome.passed or outcome.residual != outcome.residual:
            self.passed = False
        self.notes.extend(outcome.notes)

    def result(self) -> CheckOutcome:
        return CheckOutcome(self.passed, self.residual, self.worst, tuple(self.notes))


def gaussian_moment(k: int) -> float:
    """Integral of x^k exp(-x^2) over the real line (float backend only)."""
    if k % 2:
        return 0.0
    m = k // 2
    # Gamma(m + 1/2) = (2m-1)!! sqrt(pi) / 2^m
    odd = 1
    for i in range(1, 2 * m, 2):
        odd *= i
    return math.sqrt(math.pi) * odd / 2**m
