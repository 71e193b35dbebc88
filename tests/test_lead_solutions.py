"""The associated families read off one elimination per leading minor and side.

Every member of the four associated families at order l is a block of the
solution of (h^{[l]})^T X = [I | h[l+i, 0..l-1]^T], with h = g or g^T, so
the builders share one elimination per (order, side), kept on the moment
matrix, and each block column of X is substituted once, when a builder
first reads it.  The per-call route, one elimination per builder call,
survives in `conftest` as the oracle: entries, types and singular verdicts
must agree with it exactly, in both backends.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mghankel import families
from mghankel.blockops import build_moment_matrix
from mghankel.families import (
    associated_minus,
    associated_plus,
    dual_associated_minus,
    dual_associated_plus,
)
from mghankel.harness import builtin_config, run
from mghankel.numerics import SingularLeadingMinorError, SingularMatrixError

from conftest import (
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
    """(order, dual, column) of every substitution, None for one outside
    `_solution_column`."""
    return recorded_calls(monkeypatch, "_solution_column", "substitute")


def test_two_moment_matrices_never_share_a_memo(eliminations):
    first, second = moments("multigraded-n2", "exact"), moments("multigraded-n2", "exact")
    assert first == second and first is not second
    for g in (first, second):
        for j in range(3):
            associated_plus(g, 3, j)
            associated_minus(g, 2, j)
            dual_associated_plus(g, 3, j)
    assert eliminations == [(3, False), (3, True)] * 2
    assert associated_plus(first, 3, 2) == associated_plus(second, 3, 2)


def test_each_order_and_side_is_eliminated_once_per_run(eliminations, substitutions):
    """One run with every check: the builders of every check and every
    kernel level share one elimination per (order, side), and one
    substitution per (order, side, block column)."""
    report = run(builtin_config("multigraded-n2"))
    assert report.exit_code == 0
    assert eliminations and None not in eliminations
    assert max(Counter(eliminations).values()) == 1
    assert {order for order, _ in eliminations} == set(range(1, 9))
    assert substitutions and None not in substitutions
    assert max(Counter(substitutions).values()) == 1


def test_a_coefficient_run_substitutes_only_the_columns_it_reads(eliminations, substitutions):
    """Shaped like the deep-structural benchmark configs (coefficient checks
    only, two levels): far fewer block columns are substituted than the
    whole right-hand side [I | h[order+i, 0..order-1]^T] of every elimination."""
    checks = (
        "factorization",
        "biorthogonality",
        "matrix-notation",
        "connection",
        "modified-orthogonality",
    )
    config = dataclasses.replace(builtin_config("multigraded-n2"), checks=checks, levels=(3, 7))
    assert run(config).exit_code == 0
    assert max(Counter(substitutions).values()) == 1
    assert len(substitutions) < config.truncation * len(eliminations)
