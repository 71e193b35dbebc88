"""The associated families read off the factorization's eliminations.

Every member of the four associated families at order l is a block of the
solution of (h^{[l]})^T X = [I | h[l+i, 0..l-1]^T], with h = g or g^T.  An
exact factorization eliminates [g | I] and [g^T | I] once each, n rows at a
time, and the leading l*n rows of each pass are the elimination of the
minor with every block column of that right-hand side already eliminated
beside it: the builders back-substitute each block column they read once,
and no minor is eliminated again.  A minor past a singular pivot block, and
every float minor, keeps its own elimination per (order, side).  The
per-call route, one elimination per builder call, survives in `conftest` as
the oracle: entries, types and singular verdicts must agree with it
exactly, in both backends.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mghankel import factorize, families
from mghankel.blockops import BlockMatrix, build_moment_matrix
from mghankel.cdkernel import KernelEvaluator, PointTable
from mghankel.factorize import lu_factorize
from mghankel.families import (
    associated_minus,
    associated_plus,
    dual_associated_minus,
    dual_associated_plus,
)
from mghankel.harness import builtin_config, run
from mghankel.numerics import (
    SingularLeadingMinorError,
    SingularMatrixError,
    eliminate_leading,
    mat_transpose,
    substitute,
)

from conftest import (
    PerCoordinateEvaluator,
    drawn_configs,
    solved_dual_minus,
    solved_dual_plus,
    solved_minus,
    solved_plus,
    typed,
)

PLUS = ((associated_plus, solved_plus), (dual_associated_plus, solved_dual_plus))
MINUS = ((associated_minus, solved_minus), (dual_associated_minus, solved_dual_minus))


def outcome(build, g, level, j):
    """Coefficients by type and repr, or the singular verdict with its cause."""
    try:
        p = build(g, level, j)
    except SingularLeadingMinorError as exc:
        return type(exc), exc.level, str(exc), type(exc.__cause__)
    return [typed(c) for c in p.coeffs]


def assert_builders_match_the_oracle(g):
    """All four builders at every valid (level, j), against the per-call route."""
    total = g.nrows
    for level in range(total):
        for j in range(total - level):
            for build, oracle in PLUS:
                assert outcome(build, g, level, j) == outcome(oracle, g, level, j), (
                    build.__name__,
                    level,
                    j,
                )
        for j in range(level + 1):
            for build, oracle in MINUS:
                assert outcome(build, g, level, j) == outcome(oracle, g, level, j), (
                    build.__name__,
                    level,
                    j,
                )


def moments(case, backend, truncation=None):
    config = dataclasses.replace(builtin_config(case), backend=backend)
    return build_moment_matrix(config.family(), truncation or config.truncation)


@pytest.mark.parametrize("case", ["legendre", "multigraded-12", "multigraded-n2", "singular"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_builders_match_the_per_call_solves(case, backend):
    assert_builders_match_the_oracle(moments(case, backend))


def drawn_families(backend):
    return drawn_configs(backend).map(lambda c: build_moment_matrix(c.family(), c.truncation))


@pytest.mark.parametrize("backend", ["exact", "float"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_builders_match_the_per_call_solves_on_drawn_families(backend, data):
    assert_builders_match_the_oracle(data.draw(drawn_families(backend)))


def test_singular_minors_keep_their_level_and_message():
    g = moments("legendre", "float", truncation=12)
    order_11 = (SingularLeadingMinorError, 11, "leading minor of order 11 is singular")
    for build, level in (
        (associated_plus, 11),
        (dual_associated_plus, 11),
        (associated_minus, 10),
        (dual_associated_minus, 10),
    ):
        assert outcome(build, g, level, 0)[:3] == order_11
    assert outcome(associated_plus, g, 10, 1)[0] is not SingularLeadingMinorError
    # Every level at L=14: whichever check reaches the minor first, the
    # evaluator or a builder, reports it the same way.
    every_level = dataclasses.replace(
        builtin_config("legendre"), truncation=14, levels=None, backend="float"
    )
    for checks in (("abc",), ("proposition",), every_level.checks):
        with pytest.raises(SingularLeadingMinorError) as info:
            run(dataclasses.replace(every_level, checks=checks))
        assert (type(info.value), info.value.level, str(info.value)) == order_11, checks
        assert type(info.value.__cause__) is SingularMatrixError, checks
    for backend in ("exact", "float"):
        config = dataclasses.replace(builtin_config("singular"), backend=backend)
        with pytest.raises(SingularLeadingMinorError) as info:
            run(config)
        assert info.value.level == 0
        assert str(info.value) == "singular leading block minor at level 0"


def recorded_calls(monkeypatch, memo_name, seam_name):
    """Arguments of the `families.<memo_name>` call behind each call of
    `families.<seam_name>`, None for one outside it."""
    calls, requested = [], []
    real_memo, real_seam = getattr(families, memo_name), getattr(families, seam_name)

    def memo(g, *args):
        requested.append(args)
        try:
            return real_memo(g, *args)
        finally:
            requested.pop()

    def seam(*args):
        calls.append(requested[-1] if requested else None)
        return real_seam(*args)

    monkeypatch.setattr(families, memo_name, memo)
    monkeypatch.setattr(families, seam_name, seam)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """(order, dual) of every elimination, None for one outside `_lead_solution`."""
    return recorded_calls(monkeypatch, "_lead_solution", "eliminate_leading")


@pytest.fixture
def substitutions(monkeypatch):
    """(order, dual, column) of every forward replay and substitution, None
    for one outside `_solution_column`."""
    return recorded_calls(monkeypatch, "_solution_column", "substitute")


@pytest.fixture
def back_substitutions(monkeypatch):
    """(order, dual, column) of every back-substitution on a kept
    elimination, None for one outside `_solution_column`."""
    return recorded_calls(monkeypatch, "_solution_column", "_back_substitute")


@pytest.fixture
def passes(monkeypatch):
    """Rows of h scaled by each exact factorization pass: one entry per pass."""
    calls, real = [], factorize._integer_vectors

    def counted(vectors):
        calls.append(len(vectors))
        return real(vectors)

    monkeypatch.setattr(factorize, "_integer_vectors", counted)
    return calls


def kept_sides(g) -> set:
    """The sides (transposed or not) whose factorization pass is kept on g."""
    return {args for fn, args in g._memo if fn is factorize._bareiss_pass.__wrapped__}


def test_two_moment_matrices_never_share_a_memo(eliminations, passes):
    first, second = moments("multigraded-n2", "exact"), moments("multigraded-n2", "exact")
    assert first == second and first is not second
    for g in (first, second):
        for j in range(3):
            associated_plus(g, 3, j)
            associated_minus(g, 2, j)
            dual_associated_plus(g, 3, j)
    assert kept_sides(first) == kept_sides(second) == {(False,), (True,)}
    assert passes == [first.nrows * first.n] * 4 and eliminations == []
    assert associated_plus(first, 3, 2) == associated_plus(second, 3, 2)


def test_each_order_and_side_is_eliminated_once_per_run(
    eliminations, substitutions, back_substitutions, passes
):
    """One run with every check: the factorization's two passes are the only
    eliminations of a leading minor, so the builders of every check and
    every kernel level eliminate nothing more and replay no member column;
    each (order, side, block column) is back-substituted once."""
    report = run(builtin_config("multigraded-n2"))
    assert report.exit_code == 0
    assert len(passes) == 2
    assert eliminations == [] and substitutions == []
    assert back_substitutions and None not in back_substitutions
    assert max(Counter(back_substitutions).values()) == 1
    assert {order for order, _, _ in back_substitutions} == set(range(1, 9))


def test_a_coefficient_run_substitutes_only_the_columns_it_reads(
    eliminations, substitutions, back_substitutions
):
    """Shaped like the deep-structural benchmark configs (coefficient checks
    only, two levels): far fewer block columns are back-substituted than the
    whole right-hand side [I | h[order+i, 0..order-1]^T] of every (order,
    side) read."""
    checks = (
        "factorization",
        "biorthogonality",
        "matrix-notation",
        "connection",
        "modified-orthogonality",
    )
    config = dataclasses.replace(builtin_config("multigraded-n2"), checks=checks, levels=(3, 7))
    assert run(config).exit_code == 0
    assert eliminations == [] and substitutions == []
    assert max(Counter(back_substitutions).values()) == 1
    read = {(order, dual) for order, dual, _ in back_substitutions}
    assert len(back_substitutions) < config.truncation * len(read)


# -- kept eliminations against standalone solves -----------------------------


def standalone_column(g, order: int, dual: bool, i: int) -> list:
    """Oracle: block column i of `_solution_column` from the minor's own
    `eliminate_leading` and a full `substitute` of its right-hand side."""
    n, head = g.n, range(order)
    dense = g.slice(head, head).to_dense()
    message = "leading minor of order %d is singular" % order
    elim = eliminate_leading(dense if dual else mat_transpose(dense), g.backend, order, message)
    if i < order:
        rhs = [[int(k == i and r == c) for c in range(n)] for k in head for r in range(n)]
    else:
        rhs = (g.slice(head, (i,)) if dual else g.slice((i,), head).transpose()).to_dense()
    column = substitute(elim, rhs)
    blocks = [column[k * n : (k + 1) * n] for k in head]
    return blocks if dual else [mat_transpose(b) for b in blocks]


def read_off_a_pass(g, order: int, dual: bool) -> bool:
    """Whether `_lead_solution` is a view of a factorization pass, whose rows
    run on past the minor."""
    elim = families._lead_solution(g, order, dual)
    return len(elim.rows[0]) > elim.n


def column_outcome(solve, g, order, dual, i):
    """Blocks by type and repr, or the singular verdict with its cause."""
    try:
        blocks = solve(g, order, dual, i)
    except SingularLeadingMinorError as exc:
        return type(exc), exc.level, str(exc), type(exc.__cause__)
    return [typed(b) for b in blocks]


def assert_columns_match_standalone_solves(g):
    for dual in (False, True):
        for order in range(1, g.nrows + 1):
            for i in range(g.nrows):
                want = column_outcome(standalone_column, g, order, dual, i)
                got = column_outcome(families._solution_column, g, order, dual, i)
                assert got == want, (order, dual, i)


@pytest.mark.parametrize("case", ["legendre", "multigraded-12", "multigraded-n2"])
def test_kept_views_solve_as_standalone_eliminations(case):
    """Every exact built-in: each order and side is a view of the kept pass,
    and every block column and every kernel level's solve per coordinate
    (`KernelEvaluator._right_piece`, `_left_piece`) equals its standalone
    solve by type and value."""
    config = builtin_config(case)
    fam, g = config.family(), moments(case, "exact")
    every = [(order, dual) for order in range(1, g.nrows + 1) for dual in (False, True)]
    assert all(read_off_a_pass(g, *side) for side in every)
    assert_columns_match_standalone_solves(g)
    factors = lu_factorize(g)
    coords = [Fraction(k, 7) for k in (1, 3, 6)]
    table = PointTable(fam, g, factors, [(x, y) for x in coords for y in coords])
    for level in range(g.nrows - fam.max_shift()):
        ev = KernelEvaluator(fam, g, factors, level, table=table)
        oracle = PerCoordinateEvaluator(fam, g, factors, level)
        for c in coords:
            assert typed(ev._right_piece(c)) == typed(oracle._right_piece(c)), (level, c)
            assert typed(ev._left_piece(c)) == typed(oracle._left_piece(c)), (level, c)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kept_views_solve_as_standalone_eliminations_on_drawn_families(data):
    g = data.draw(drawn_families("exact"))
    assert_columns_match_standalone_solves(g)


def pivot_block_one_singular() -> BlockMatrix:
    """N = 2, L = 3: g^{[1]} and g^{[3]} are nonsingular, g^{[2]} is not."""
    rows = [
        [2, 1, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 1],
        [3, 2, 1, 1, Fraction(1, 2), 0],
        [1, 0, 1, -1, 0, 2],
        [0, 1, Fraction(1, 3), 0, 1, 1],
        [1, 0, 0, 2, 1, 0],
    ]
    return BlockMatrix.from_dense(2, [[Fraction(v) for v in row] for row in rows])


@pytest.mark.parametrize("factorize_first", [True, False])
def test_a_singular_pivot_block_leaves_larger_minors_to_their_own_elimination(factorize_first):
    """Block minor 2 is singular and block minor 3 is not: order 1 is read
    off the passes, order 2 keeps its singular verdict, and order 3 is
    eliminated by itself and solves; `lu_factorize` still raises at pivot
    block 1 with its message and cause, whichever caller runs the passes."""
    g = pivot_block_one_singular()
    if not factorize_first:
        assert_columns_match_standalone_solves(g)
    with pytest.raises(SingularLeadingMinorError) as info:
        lu_factorize(g)
    assert (info.value.level, str(info.value)) == (1, "singular leading block minor at level 1")
    assert type(info.value.__cause__) is SingularMatrixError
    for dual in (False, True):
        assert factorize._bareiss_pass(g, dual)[1].n == g.n  # one block completed
        assert read_off_a_pass(g, 1, dual) and not read_off_a_pass(g, 3, dual)
    assert_columns_match_standalone_solves(g)
    assert column_outcome(families._solution_column, g, 2, True, 0)[:3] == (
        SingularLeadingMinorError,
        2,
        "leading minor of order 2 is singular",
    )
    assert isinstance(column_outcome(families._solution_column, g, 3, False, 1), list)
    for build, oracle in MINUS:
        assert outcome(build, g, 2, 1) == outcome(oracle, g, 2, 1)
