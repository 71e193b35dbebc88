import ast
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from mghankel import numerics
from mghankel.numerics import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    CheckOutcome,
    ResidualTracker,
    SingularMatrixError,
    Tolerance,
    approx_zero,
    block_sum,
    eliminate,
    eliminate_leading,
    fraction,
    gap_norm,
    has_float,
    invert_dense,
    mat_eye,
    mat_sub,
    matrix_residual_norm,
    memoized,
    parse_rational,
    scalar_str,
    solve_dense,
    substitute,
)
from mghankel.families import MatrixPolynomial, poly_residual

from conftest import blockwise_sum, matrices, sum_of_products, typed

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


def test_approx_zero_exact_zero():
    assert approx_zero(Fraction(0), 1, DEFAULT_TOLERANCE)


def test_approx_zero_exact_cancellation():
    assert approx_zero(Fraction(1, 180) - Fraction(1, 180), 1, DEFAULT_TOLERANCE)


def test_approx_zero_float_below_threshold():
    assert approx_zero(1e-14, 1.0, Tolerance(abs_tol=1e-12, rel_tol=0.0))


def test_approx_zero_exact_nonzero_ignores_tolerance():
    assert not approx_zero(Fraction(1, 10**30), 1, Tolerance(abs_tol=1.0, rel_tol=1.0))


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)


@given(x=st.floats(0, 1e-6), s=st.floats(0, 10), bump=st.floats(0, 1e-3))
def test_approx_zero_monotone_in_tolerance(x, s, bump):
    t1 = Tolerance(1e-9, 1e-9)
    t2 = Tolerance(1e-9 + bump, 1e-9 + bump)
    if approx_zero(x, s, t1):
        assert approx_zero(x, s, t2)


@given(a=rationals, b=rationals, c=rationals)
def test_exact_field_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(a=rationals)
def test_exact_field_inverse(a):
    if a != 0:
        assert a * (1 / a) == 1


def test_residual_norm_zero_matrix():
    assert matrix_residual_norm([[0, 0], [0, 0]]) == 0


def test_residual_norm_max_entry():
    assert matrix_residual_norm([[1, -2], [0, Fraction(1, 2)]]) == 2


def test_residual_norm_identity_difference():
    eye = mat_eye(3)
    assert matrix_residual_norm(mat_sub(eye, eye)) == 0


def test_parse_rational():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(4) == Fraction(4)
    with pytest.raises(ValueError):
        parse_rational(0.5)


def test_scalar_str_exact_zero():
    assert scalar_str(Fraction(0)) == "0"
    assert scalar_str(0) == "0"


def test_solve_dense_exact_hilbert():
    hilbert = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    inv = invert_dense(hilbert)
    assert sum_of_products(hilbert, inv) == mat_eye(4)


def test_solve_dense_requires_pivot():
    with pytest.raises(SingularMatrixError):
        solve_dense([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], mat_eye(2), EXACT)


def test_solve_dense_float_relative_threshold():
    # After eliminating the first row the trailing pivot is ~1e-13 of the
    # matrix scale, which the policy treats as singular.
    with pytest.raises(SingularMatrixError):
        solve_dense([[1.0, 1.0], [1.0, 1.0 + 1e-13]], mat_eye(2, FLOAT), FLOAT)


def test_solve_dense_zero_off_pivot_stays_exact():
    # Identity systems must not leak floats into exact results.
    sol = solve_dense(mat_eye(2), [[Fraction(1, 3)], [Fraction(2, 5)]], EXACT)
    assert all(isinstance(v, Fraction) for row in sol for v in row)


def test_tracker_keeps_first_location_of_largest_residual():
    tracker = ResidualTracker()
    for residual, where in ((Fraction(1, 3), "a"), (Fraction(1, 2), "b"), (Fraction(1, 2), "c")):
        tracker.record(residual, 1, where)
    outcome = tracker.result()
    assert (outcome.residual, outcome.worst) == (Fraction(1, 2), "b")
    assert not outcome.passed


def test_tracker_worst_is_none_while_all_residuals_are_zero():
    tracker = ResidualTracker()
    tracker.record(Fraction(0), 1, "a")
    tracker.record(0.0, 1.0, "b")
    assert tracker.result() == CheckOutcome(True, 0, None, ())
    assert scalar_str(tracker.result().residual) == "0"


def test_tracker_verdict_judges_every_residual_against_its_scale():
    tol = Tolerance(abs_tol=0.0, rel_tol=1e-9)
    tracker = ResidualTracker(tol)
    tracker.record(1e-6, 1e6, "large but well scaled")
    assert tracker.passed
    tracker.record(1e-7, 1.0, "small but poorly scaled")
    outcome = tracker.result()
    assert not outcome.passed
    assert (outcome.residual, outcome.worst) == (1e-6, "large but well scaled")


def test_tracker_merge_prefixes_locations_and_collects_notes():
    tracker = ResidualTracker()
    tracker.merge(CheckOutcome(True, 0, None, ("first",)), "l=1")
    tracker.merge(CheckOutcome(False, Fraction(1, 4), "(i=0, j=1)", ("second",)), "l=2")
    tracker.merge(CheckOutcome(False, Fraction(1, 5), None), "l=3")
    assert tracker.result() == CheckOutcome(
        False, Fraction(1, 4), "l=2 (i=0, j=1)", ("first", "second")
    )


def test_tracker_record_gap_scales_by_the_larger_side():
    tracker = ResidualTracker(Tolerance(abs_tol=0.0, rel_tol=1e-3))
    tracker.record_gap([[1000.0]], [[1000.5]], "close", FLOAT)
    assert tracker.passed and tracker.residual == 0.5
    tracker.record_gap([[1.0]], [[1.5]], "far", FLOAT)
    assert not tracker.passed and tracker.worst == "close"


def test_tracker_record_gap_takes_no_scale_of_an_exact_gap(monkeypatch):
    norms = []

    def counted(a, _fn=numerics.matrix_residual_norm):
        norms.append(a)
        return _fn(a)

    monkeypatch.setattr(numerics, "matrix_residual_norm", counted)
    tracker = ResidualTracker()
    tracker.record_gap(
        [[Fraction(10**9)]], [[Fraction(10**9) + Fraction(1, 10**9)]], "exact", EXACT
    )
    assert len(norms) == 1 and not tracker.passed
    tracker.record_gap([[1.0]], [[1.0 + 1e-12]], "float", FLOAT)
    assert len(norms) == 4 and not tracker.passed and tracker.worst == "exact"


def test_float_gaps_never_settle_by_equality():
    """inf == inf, and a list comparison finds one NaN object equal to
    itself, but both gaps are NaN and fail the check."""
    nan = math.nan
    for lhs, rhs in (([[math.inf]], [[math.inf]]), ([[nan]], [[nan]])):
        assert lhs == rhs
        tracker = ResidualTracker()
        tracker.record_gap(lhs, rhs, "x", FLOAT)
        assert not tracker.passed and math.isnan(tracker.residual)
        p, q = MatrixPolynomial.of(1, [lhs]), MatrixPolynomial.of(1, [rhs])
        assert math.isnan(poly_residual(p, q, FLOAT))
        assert math.isnan(poly_residual(p, q))


def test_exact_gaps_settle_by_equality(monkeypatch):
    """Exact sides that agree give 0 without a subtraction, whatever their
    row containers; sides that differ are subtracted."""
    real_sub = numerics.mat_sub
    subtracted = []

    def counted(a, b):
        subtracted.append(1)
        return real_sub(a, b)

    monkeypatch.setattr(numerics, "mat_sub", counted)
    same = [[Fraction(1, 3), 2], [0, Fraction(-5, 7)]]
    assert gap_norm(same, tuple(map(tuple, same)), EXACT) == 0 and not subtracted
    assert gap_norm(same, [[Fraction(1, 3), 2], [0, Fraction(5, 7)]], EXACT) == Fraction(10, 7)
    assert subtracted == [1]


MIXED = [[Fraction(1, 3), 0], [2, Fraction(-5, 7)]]


@pytest.mark.parametrize(
    "lhs,rhs,gap",
    [
        (MIXED, [[Fraction(1, 3), Fraction(0)], [Fraction(2), Fraction(-5, 7)]], 0),
        (MIXED, [[Fraction(1, 3), Fraction(0)], [2, -1]], Fraction(2, 7)),
        ([[Fraction(2), Fraction(1, 2)]], [[2, Fraction(1, 2)]], 0),
        ([[Fraction(1, 3), Fraction(2, 3)]], [[Fraction(1, 3), Fraction(2, 5)]], Fraction(4, 15)),
        ([[0, Fraction(1, 2)], [1, 1]], [[0, Fraction(1, 2)], [1, Fraction(3, 2)]], Fraction(1, 2)),
        ([[Fraction(3)]], [[3]], 0),
        ([[Fraction(-3)]], [[3]], 6),
    ],
)
def test_exact_gaps_compare_fractions_and_ints_by_value(lhs, rhs, gap):
    """Fractions compare by their (numerator, denominator) slots, and a row
    holding an int by value: the gap is that of a subtraction, and 0 (an
    int) exactly when the sides agree, either way round."""
    for a, b in ((lhs, rhs), (rhs, lhs)):
        result = gap_norm(a, b, EXACT)
        assert result == gap == matrix_residual_norm(mat_sub(a, b))
        assert (type(result) is int) == (gap == 0)


def test_residual_norm_propagates_nan():
    assert math.isnan(matrix_residual_norm([[math.nan, 1.0]]))
    assert math.isnan(matrix_residual_norm([[2.0], [math.nan], [3.0]]))


def test_tracker_record_gap_fails_on_nan():
    tracker = ResidualTracker()
    tracker.record_gap([[math.nan]], [[1.0]], "x", FLOAT)
    outcome = tracker.result()
    assert not outcome.passed
    assert math.isnan(outcome.residual) and outcome.worst == "x"


def test_tracker_keeps_nan_as_the_worst_residual():
    tracker = ResidualTracker()
    tracker.record(0.5, 1.0, "a")
    tracker.record(math.nan, 1.0, "b")
    tracker.record(2.0, 1.0, "c")
    tracker.record(math.nan, 1.0, "d")
    assert math.isnan(tracker.residual) and tracker.worst == "b"
    assert not tracker.passed


def test_tracker_merge_fails_on_nan_residual():
    tracker = ResidualTracker()
    tracker.merge(CheckOutcome(True, 0.25, "(i=0)"), "l=1")
    tracker.merge(CheckOutcome(True, math.nan, "(i=1)"), "l=2")
    tracker.merge(CheckOutcome(True, 1.0, "(i=2)"), "l=3")
    outcome = tracker.result()
    assert not outcome.passed
    assert math.isnan(outcome.residual) and outcome.worst == "l=2 (i=1)"


# ---------------------------------------------------------------------------
# The fraction-free exact solve against the Gauss-Jordan elimination it
# replaced, kept here as the oracle.
# ---------------------------------------------------------------------------


def gauss_jordan_exact(a, b) -> list:
    """Exact Gauss-Jordan elimination on Fractions, first-nonzero pivot."""
    n = len(a)
    m = [[Fraction(v) for v in row] for row in a]
    rhs = [[Fraction(v) for v in row] for row in b]
    width = len(rhs[0]) if rhs else 0
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("singular matrix (no pivot in column %d)" % col)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        rhs[col] = [v * inv for v in rhs[col]]
        for r in range(n):
            if r == col:
                continue
            factor = m[r][col]
            if factor == 0:
                continue
            m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
            rhs[r] = [v - factor * w for v, w in zip(rhs[r], rhs[col])]
    return [row[:width] for row in rhs]


small_rationals = st.builds(
    Fraction, st.integers(-12, 12), st.integers(1, 12)
) | st.integers(-3, 3)


@st.composite
def exact_systems(draw, deficient=False, sparse=False):
    n = draw(st.integers(2 if sparse else 1 if deficient else 0, 8))
    width = draw(st.integers(0, 3))
    entries = st.lists(small_rationals, min_size=n, max_size=n)
    a = draw(st.lists(entries, min_size=n, max_size=n))
    if deficient:
        # Overwrite one row with a combination of the others (or zero).
        target = draw(st.integers(0, n - 1))
        weights = draw(st.lists(small_rationals, min_size=n, max_size=n))
        a[target] = [
            sum((weights[r] * a[r][c] for r in range(n) if r != target), Fraction(0))
            for c in range(n)
        ]
    if sparse:
        # An upper triangle with a nonzero diagonal and at most n^2/2 - n
        # other nonzero entries, rows and columns permuted: nonsingular,
        # with at least half its entries zero.
        above = [(r, c) for r in range(n) for c in range(r + 1, n)]
        kept = draw(st.sets(st.sampled_from(above), max_size=n * n // 2 - n))
        diagonal = draw(st.lists(small_rationals.filter(bool), min_size=n, max_size=n))
        u = [
            [diagonal[r] if r == c else a[r][c] if (r, c) in kept else 0 for c in range(n)]
            for r in range(n)
        ]
        rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        a = [[u[r][c] for c in cols] for r in rows]
    rows = st.lists(small_rationals, min_size=width, max_size=width)
    b = draw(st.lists(rows, min_size=n, max_size=n))
    return a, b


def _outcome(solve, a, b):
    try:
        return solve(a, b)
    except SingularMatrixError as exc:
        return ("singular", str(exc))


def gauss_jordan_float(a, b) -> list:
    """Float Gauss-Jordan on the whole of [A | B], pivoting on the largest
    magnitude: the float solve before it was split into elimination and
    substitution."""
    n = len(a)
    m = [[float(v) for v in row] for row in a]
    rhs = [[float(v) for v in row] for row in b]
    scale = matrix_residual_norm(m)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot_row][col]) <= numerics.SINGULAR_PIVOT_RTOL * scale:
            raise SingularMatrixError("singular matrix (no pivot in column %d)" % col)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        rhs[col] = [v * inv for v in rhs[col]]
        for r in range(n):
            if r == col:
                continue
            factor = m[r][col]
            if factor == 0:
                continue
            m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
            rhs[r] = [v - factor * w for v, w in zip(rhs[r], rhs[col])]
    return rhs


def substituted_by_blocks(a, b, backend):
    """One elimination of A, then its first column of B and the rest
    substituted separately and put side by side."""
    elim = eliminate(a, backend)
    width = len(b[0]) if b else 0
    cuts = (0, min(1, width), width)
    parts = [substitute(elim, [row[lo:hi] for row in b]) for lo, hi in zip(cuts, cuts[1:])]
    return [first + rest for first, rest in zip(*parts)]


def assert_blocks_match_the_whole_solve(a, b):
    """Block-by-block substitution equals one whole-RHS solve, by type and
    value, or fails the same way, in both backends; the float solve is
    bit-identical to Gauss-Jordan on the whole of [A | B]."""
    typed_outcome = lambda got: typed(got) if isinstance(got, list) else got
    floats = ([[float(v) for v in row] for row in m] for m in (a, b))
    for backend, (a_, b_) in ((EXACT, (a, b)), (FLOAT, floats)):
        whole = typed_outcome(_outcome(lambda a, b: solve_dense(a, b, backend), a_, b_))
        blocks = _outcome(lambda a, b: substituted_by_blocks(a, b, backend), a_, b_)
        assert typed_outcome(blocks) == whole
        if backend == FLOAT:
            assert whole == typed_outcome(_outcome(gauss_jordan_float, a_, b_))


@given(exact_systems())
def test_fraction_free_solve_matches_gauss_jordan(system):
    got = _outcome(lambda a, b: solve_dense(a, b, EXACT), *system)
    assert got == _outcome(gauss_jordan_exact, *system)
    if isinstance(got, list):
        assert all(type(v) is Fraction for row in got for v in row)
    assert_blocks_match_the_whole_solve(*system)


@given(exact_systems(deficient=True))
def test_fraction_free_solve_matches_gauss_jordan_on_rank_deficient(system):
    a, b = system
    with pytest.raises(SingularMatrixError) as caught:
        gauss_jordan_exact(a, b)
    with pytest.raises(SingularMatrixError) as got:
        solve_dense(a, b, EXACT)
    assert str(got.value) == str(caught.value)
    assert_blocks_match_the_whole_solve(a, b)


@given(exact_systems(sparse=True))
def test_fraction_free_solve_matches_gauss_jordan_on_sparse_systems(system):
    """Rows that meet a zero multiplier, in the elimination of A and in the
    substitution of B, take the one Bareiss update with f = 0."""
    a, b = system
    assert 2 * sum(v == 0 for row in a for v in row) >= len(a) ** 2
    assert typed(substitute(eliminate(a, EXACT), b)) == typed(gauss_jordan_exact(a, b))


def canonical(m) -> list:
    """Entries as (type, numerator, denominator, hash, repr, str)."""
    return [
        [(type(v), v.numerator, v.denominator, hash(v), repr(v), str(v)) for v in row] for row in m
    ]


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
@example(0, 1)
@example(0, 12)
@example(-6, 4)
@example(-1, 1)
def test_the_fraction_constructor_matches_fraction(n, d):
    assert canonical([[fraction(n, d)]]) == canonical([[Fraction(n, d)]])


def test_a_negative_determinant_solves_to_canonical_fractions():
    """A negative last Bareiss pivot (after a row swap, or on scaled rows
    too) still gives positive denominators in lowest terms."""
    negative = ([[2, 1], [1, -3]], [[0, 1], [-3, 0]], [[Fraction(1, 2), 1], [1, Fraction(-1, 3)]])
    for a in negative:
        b = [[1, 0, Fraction(-2, 5)], [0, 1, 0]]
        elim = eliminate(a, EXACT)
        assert elim.rows[-1][elim.n - 1] < 0  # the last pivot, left of the S part
        got = substitute(elim, b)
        assert canonical(got) == canonical(gauss_jordan_exact(a, b))


def test_fraction_free_solve_edge_shapes():
    assert solve_dense([], [], EXACT) == []
    assert solve_dense([[Fraction(2)]], [[]], EXACT) == [[]]
    sol = solve_dense([[0, 1], [2, 0]], [[1], [1]], EXACT)
    assert sol == [[Fraction(1, 2)], [Fraction(1)]]
    assert all(type(v) is Fraction for row in sol for v in row)
    with pytest.raises(SingularMatrixError, match=r"no pivot in column 1"):
        solve_dense([[1, 2, 3], [2, 4, 5], [0, 0, 1]], [[]] * 3, EXACT)


@st.composite
def blocked_systems(draw):
    """(A, B, block): A square of 0 to 3 blocks of 1 to 3 rows, its entries
    often 0 or +-1 so that leading block minors are often singular."""
    block = draw(st.integers(1, 3))
    size = block * draw(st.integers(0, 3))
    entries = st.sampled_from([0, 0, 1, -1]) | small_rationals
    square = st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size)
    rhs = st.lists(st.lists(small_rationals, min_size=2, max_size=2), min_size=size, max_size=size)
    return draw(square), draw(rhs), block


@given(blocked_systems())
def test_a_blocked_pass_is_the_elimination_of_each_leading_minor(system):
    """`bareiss_pass` stops exactly at the first singular leading block
    minor; the rows of each block minor before it, read as a view, solve
    like `eliminate` of that minor, by type and value; and a pass of one
    block is `eliminate`, or fails with its error."""
    a, b, block = system
    size = len(a)
    _, elim, error = numerics.bareiss_pass(numerics._integer_vectors(a), block)
    minor = lambda k: [row[:k] for row in a[:k]]
    singular = [
        k
        for k in range(block, size + 1, block)
        if isinstance(_outcome(gauss_jordan_exact, minor(k), [[]] * k), tuple)
    ]
    assert elim.n == (singular[0] - block if singular else size)
    assert (error is None) == (not singular)
    for k in range(0, elim.n + 1, block):
        view = numerics.Elimination(EXACT, k, elim.rows[:k])
        want = substitute(eliminate(minor(k), EXACT), b[:k])
        assert typed(substitute(view, b[:k])) == typed(want)
    _, whole, error = numerics.bareiss_pass(numerics._integer_vectors(a), size or 1)
    assert _outcome(lambda a, _: eliminate(a, EXACT), a, b) == (
        ("singular", str(error)) if error else whole
    )


# ---------------------------------------------------------------------------
# The fraction-free exact product against the plain sum of scalar products,
# kept here as the oracle; the exact oracle sums from Fraction(0).
# ---------------------------------------------------------------------------

shapes = st.integers(0, 6)
ints = st.integers(-50, 50)


@st.composite
def products(draw, scalars=small_rationals, inner=shapes):
    m, k, p = draw(shapes), draw(inner), draw(shapes)
    return draw(matrices(m, k, scalars)), draw(matrices(k, p, scalars))


@given(products())
def test_fraction_free_product_matches_sum_of_products(operands):
    a, b = operands
    assert typed(block_sum(0, [a], [b], EXACT)) == typed(sum_of_products(a, b, Fraction(0)))


@given(products(small_rationals | st.floats(-100, 100)))
def test_product_with_a_float_anywhere_is_the_plain_sum(operands):
    a, b = operands
    assert typed(block_sum(0, [a], [b], FLOAT)) == typed(sum_of_products(a, b))


@st.composite
def block_sums(draw, scalars=small_rationals):
    # Inner widths start at 1: a 0 x p right factor is `[]` and has no width.
    m, p, count = draw(shapes), draw(shapes), draw(st.integers(1, 4))
    inner = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
    lefts = [draw(matrices(m, k, scalars)) for k in inner]
    rights = [draw(matrices(k, p, scalars)) for k in inner]
    return lefts, rights


@given(block_sums())
def test_exact_block_sum_matches_blockwise_oracle(operands):
    assert typed(block_sum(0, *operands, EXACT)) == typed(blockwise_sum(*operands, Fraction(0)))


@given(block_sums(small_rationals | st.floats(-100, 100)))
def test_block_sum_with_a_float_anywhere_keeps_the_blockwise_order(operands):
    assert typed(block_sum(0, *operands, FLOAT)) == typed(blockwise_sum(*operands))


@given(products(ints, inner=st.integers(1, 6)), block_sums(ints))
def test_exact_products_of_ints_are_fractions(product, pairs):
    """One rule at every inner dimension: an exact product is Fractions."""
    for got, oracle in (
        (block_sum(0, [product[0]], [product[1]], EXACT), sum_of_products(*product)),
        (block_sum(0, *pairs, EXACT), blockwise_sum(*pairs)),
    ):
        assert got == oracle
        assert all(type(v) is Fraction for row in got for v in row)


def test_product_edge_shapes():
    two = [[Fraction(1, 2), 1], [3, Fraction(-1, 3)]]
    for backend in (EXACT, FLOAT):
        assert block_sum(2, [[]], [two], backend) == []
        assert block_sum(2, [two], [[]], backend) == [[], []]
        assert block_sum(2, [two], [[[], []]], backend) == [[], []]
        assert block_sum(2, [[[], []]], [[]], backend) == [[], []]


def test_fraction_block_with_a_late_float_takes_the_float_path():
    a = [[Fraction(1, 3), Fraction(2, 7)], [Fraction(1), 0.25]]
    b = [[Fraction(5, 2), 1], [Fraction(-1, 9), Fraction(3)]]
    assert typed(block_sum(2, [a], [b], FLOAT)) == typed(sum_of_products(a, b))
    assert typed(block_sum(2, [a, b], [b, a], FLOAT)) == typed(blockwise_sum([a, b], [b, a]))


def test_a_float_in_an_exact_kernel_raises_type_error():
    """The exact path splits scalars by numerator and denominator, which a
    float lacks, so a late float fails instead of being rationalized."""
    a = [[Fraction(1, 3), Fraction(2, 7)], [Fraction(1), 0.25]]
    b = [[Fraction(5, 2), 1], [Fraction(-1, 9), Fraction(3)]]
    with pytest.raises(TypeError, match="float"):
        block_sum(2, [a], [b], EXACT)
    with pytest.raises(TypeError, match="float"):
        block_sum(2, [b], [a], EXACT)
    with pytest.raises(TypeError, match="float"):
        block_sum(2, [b, a], [b, b], EXACT)
    with pytest.raises(TypeError, match="float"):
        solve_dense(b, a, EXACT)
    with pytest.raises(TypeError, match="float"):
        solve_dense(a, b, EXACT)


def test_a_float_in_a_one_column_exact_product_raises_type_error():
    """Inner dimension 1 takes the fraction-free path too."""
    with pytest.raises(TypeError, match="float"):
        block_sum(1, [[[Fraction(1, 2)]]], [[[0.5]]], EXACT)
    with pytest.raises(TypeError, match="float"):
        block_sum(2, [[[0.5], [Fraction(1, 3)]]], [[[Fraction(2), 3]]], EXACT)
    with pytest.raises(TypeError, match="float"):
        block_sum(2, [[[Fraction(1, 2)], [1]]], [[[Fraction(1, 3), 0.25]]], EXACT)


def test_dense_kernels_never_scan_their_operands(monkeypatch):
    """The backend is the caller's: no product or solve looks for floats."""

    def scan(*mats):
        raise AssertionError("a dense kernel scanned its operands")

    monkeypatch.setattr(numerics, "has_float", scan)
    lefts = [[[Fraction(1, 2), 3]], [[Fraction(-2, 7), 1]]]
    rights = [[[1], [Fraction(1, 3)]], [[Fraction(5, 4)], [2]]]
    square = [[Fraction(2), Fraction(1, 3)], [Fraction(-1), 5]]
    for backend, cast in ((EXACT, Fraction), (FLOAT, float)):
        ls = [[[cast(v) for v in row] for row in m] for m in lefts]
        rs = [[[cast(v) for v in row] for row in m] for m in rights]
        a = [[cast(v) for v in row] for row in square]
        assert block_sum(1, ls, rs, backend) == blockwise_sum(ls, rs)
        assert block_sum(1, ls[:1], rs[:1], backend) == sum_of_products(ls[0], rs[0])
        solved = solve_dense(a, mat_eye(2, backend), backend)
        assert substitute(eliminate_leading(a, backend, 0), mat_eye(2, backend)) == solved


def test_only_a_matrix_backend_and_invert_dense_scan_for_floats():
    """The backend is decided once per run: `has_float` is referenced only
    in `BlockMatrix.backend` and in `invert_dense`, which has no caller."""

    def references(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and getattr(node, "id", getattr(node, "attr", None)) == "has_float"
        ]

    users, stray = set(), {}
    for path in sorted(pathlib.Path(numerics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        seen = set()
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = references(func)
                if found:
                    users.add((path.stem, func.name))
                    seen.update(found)
        outside = [node.lineno for node in references(tree) if node not in seen]
        if outside:
            stray[path.stem] = outside
    assert users == {("blockops", "backend"), ("numerics", "invert_dense")} and stray == {}


def test_no_module_keeps_a_fraction_product_of_the_factors():
    """Exact product checks settle on integers: no module defines, imports or
    reads `_reproduced`, the `lower_inv @ upper` of Fractions once kept per run."""
    found = []
    for path in sorted(pathlib.Path(numerics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [getattr(node, key, None) for key in ("id", "attr", "name")]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            if "_reproduced" in names:
                found.append((path.stem, node.lineno))
    assert found == []


def test_no_module_defines_or_imports_a_retired_dense_entry():
    """One entry per dense operation: a product of one pair is `block_sum`, a
    pivot-block inverse is `substitute(eliminate_leading(...))`, and a
    negation is written inline, so no module defines, assigns or imports
    `mat_mul`, `mat_scale` or `solve_leading`."""
    retired, found = {"mat_mul", "mat_scale", "solve_leading"}, []
    for path in sorted(pathlib.Path(numerics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                names = [getattr(node, "name", None)]
            found += [(path.stem, node.lineno, name) for name in retired.intersection(names)]
    assert found == []


def test_block_sum_starts_from_a_zero_of_the_backend():
    assert typed(block_sum(2, [], [], FLOAT)) == typed([[0.0, 0.0], [0.0, 0.0]])
    assert typed(block_sum(1, [], [], EXACT)) == typed([[Fraction(0)]])
    # exact products of ints are Fractions; a float sum of products is never -0.0
    assert typed(block_sum(1, [[[2]], [[1]]], [[[3]], [[1]]], EXACT)) == typed([[Fraction(7)]])
    assert typed(block_sum(1, [[[-0.0]]], [[[1]]], FLOAT)) == typed([[0.0]])


def test_has_float_finds_a_float_anywhere():
    assert not has_float([[Fraction(1, 2), 3]], [], [[]])
    assert has_float([[0.5]])
    assert has_float([[Fraction(1), 2]], [[3, 4], [5, 6.0]])


_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "deque"}
_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear", "add", "discard",
    "update", "setdefault", "sort", "reverse", "difference_update", "intersection_update",
    "symmetric_difference_update", "appendleft", "extendleft", "popleft",
    "__setitem__", "__delitem__",
}


def _module_containers(tree) -> set:
    """Names a module binds, at its top level, to a dict, list or set."""
    names = set()
    for node in tree.body:
        targets, value = (), None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = (node.target,), node.value
        func = getattr(value, "func", None)
        mutable = isinstance(value, _CONTAINER_NODES) or (
            isinstance(value, ast.Call)
            and getattr(func, "id", getattr(func, "attr", None)) in _CONTAINER_CALLS
        )
        if mutable:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _module_writes(tree) -> list:
    """(line, name) of each function's `global` statement, and of each write
    into one of the module's top-level dicts, lists and sets."""
    shared, writes = _module_containers(tree), []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            name = None
            if isinstance(node, ast.Global):
                writes.append((node.lineno, ", ".join(node.names)))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                name = getattr(node.value, "id", None)
            elif isinstance(node, ast.AugAssign):
                name = getattr(node.target, "id", None)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    name = getattr(node.func.value, "id", None)
            if name in shared:
                writes.append((node.lineno, name))
    return writes


def test_no_function_writes_module_state():
    """Every cache lives on a run's objects: no function in the library
    rebinds a module global or writes into a module-level dict, list or set,
    so nothing a run memoizes outlives it."""
    writes = {}
    for path in sorted(pathlib.Path(numerics.__file__).parent.glob("*.py")):
        found = _module_writes(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            writes[path.name] = found
    assert writes == {}


def test_the_module_state_guard_finds_each_kind_of_write():
    source = (
        "CACHE = {}\nSEEN = set()\nORDER = list()\nN: list = []\nNAMES = ('a',)\n"
        "def f(k):\n    CACHE[k] = 1\n    SEEN.add(k)\n    ORDER.append(k)\n"
        "    del CACHE[k]\n    NAMES.count(k)\n"
        "def g(k):\n    global N\n    N += [k]\n    local = {}\n    local[1] = 2\n"
        "h = lambda k: CACHE.setdefault(k, k)\n"
    )
    assert sorted(_module_writes(ast.parse(source))) == [
        (7, "CACHE"),
        (8, "SEEN"),
        (9, "ORDER"),
        (10, "CACHE"),
        (13, "N"),
        (14, "N"),
        (17, "CACHE"),
    ]


def _top_level_names(tree) -> set:
    """Names a module defines at its top level: functions, classes and
    assignment targets (imports do not count)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _borrowed_imports(sources: dict) -> list:
    """(module, line, name, source) of each `from .source import name`, outside
    `__init__`, where `source` does not define `name` itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {module: _top_level_names(tree) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if alias.name not in defined[node.module]:
                        found.append((module, node.lineno, alias.name, node.module))
    return found


def test_every_library_import_names_the_defining_module():
    """A name is imported from the module that defines it, never passed on
    through another module's imports."""
    package = pathlib.Path(numerics.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert _borrowed_imports(sources) == []


def test_the_import_guard_finds_each_borrowed_name():
    sources = {
        "__init__": "from .b import f\n",
        "a": "def f():\n    pass\nclass K:\n    pass\nX, Y = 1, 2\nZ: int = 3\n",
        "b": "from .a import K, X, Y, Z, f\n",
        "c": "from .b import f\nfrom . import a\nfrom .a import f, g\n",
    }
    assert _borrowed_imports(sources) == [("c", 1, "f", "b"), ("c", 3, "g", "a")]


def test_memoized_none_and_zero_are_computed_once():
    """A memoized value that is None, 0 or empty is still a stored value."""
    calls = []

    class Owner:
        def __init__(self):
            self._memo = {}

        @memoized
        def value(self, k):
            calls.append(k)
            return (None, 0, Fraction(0), 0.0, ())[k]

    owner = Owner()
    for _ in range(3):
        assert [owner.value(k) for k in range(5)] == [None, 0, 0, 0.0, ()]
    assert calls == [0, 1, 2, 3, 4]


def _two_argument_fractions(tree) -> list:
    """Lines of each call of `Fraction` or `fractions.Fraction` with two or more arguments."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
        and len(node.args) + len(node.keywords) >= 2
    ]


def test_numerics_builds_two_argument_fractions_only_through_its_constructor():
    """Every fraction-free output of `numerics` is made by `numerics.fraction`."""
    tree = ast.parse(pathlib.Path(numerics.__file__).read_text(encoding="utf-8"))
    assert _two_argument_fractions(tree) == []


def test_the_fraction_guard_finds_each_two_argument_call():
    source = (
        "from fractions import Fraction\nimport fractions\nFraction(1)\nFraction(1, 2)\n"
        "fractions.Fraction(3, d)\nFraction(n, denominator=2)\nfraction(1, 2)\nFraction('1/2')\n"
    )
    assert _two_argument_fractions(ast.parse(source)) == [4, 5, 6]
