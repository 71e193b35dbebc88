"""Kernel work shared across levels and grid points.

Each level substitutes once per side and coordinate, on the elimination of
its leading minor that the associated families of the run share, and takes
each pointwise product once for every pair of a product grid; standalone
per-coordinate solves and per-point products survive in `conftest` as
oracles.  Every level reads the one point table of its run, and the
projections of family members and monomials read their weights off it, so a
run's residuals must not depend on the order its levels come in.  Every
comparison is by type and repr, in both backends.
"""

import dataclasses
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mghankel import cdkernel, families, harness, numerics
from mghankel.blockops import build_moment_matrix
from mghankel.cdkernel import KernelEvaluator, PointTable
from mghankel.factorize import lu_factorize
from mghankel.families import pair_with_moments
from mghankel.harness import DEFAULT_GRID_COORDS, builtin_config, run
from mghankel.numerics import (
    FLOAT,
    ResidualTracker,
    SingularLeadingMinorError,
    as_backend,
    block_sum,
    mat_mul,
    mat_sub,
)

from conftest import (
    PerCoordinateEvaluator,
    PerPointEvaluator,
    drawn_configs,
    ieee_floats,
    matrices,
    typed,
)

BACKENDS = ("exact", "float")


def problem(config):
    """(family, g, factors) of a config, factorized at its truncation."""
    fam = config.family()
    g = build_moment_matrix(fam, config.truncation)
    return fam, g, lu_factorize(g)


def lattice(backend, coords=DEFAULT_GRID_COORDS) -> list:
    return [(as_backend(x, backend), as_backend(y, backend)) for x in coords for y in coords]


def outcome(fn, *args):
    """Entries by type and repr, or the singular verdict with its level."""
    try:
        return typed(fn(*args))
    except SingularLeadingMinorError as exc:
        return type(exc), exc.level, str(exc)


def assert_batched_solves_match(fam, g, factors, points, levels):
    """Evaluators on a table with the grid, and evaluators with no grid asked
    for one coordinate at a time, against one solve per coordinate and call."""
    table = PointTable(fam, g, factors, points)
    xs, ys = sorted({x for x, _ in points}), sorted({y for _, y in points})
    for level in levels:
        oracle = PerCoordinateEvaluator(fam, g, factors, level)
        gridded = KernelEvaluator(fam, g, factors, level, table=table)
        for ev in (gridded, KernelEvaluator(fam, g, factors, level)):
            for y in ys:
                want = outcome(oracle._right_piece, y)
                assert outcome(ev._right_piece, y) == want, (level, y)
            for x in xs:
                want = outcome(oracle._left_piece, x)
                assert outcome(ev._left_piece, x) == want, (level, x)
            for x, y in points:
                for name in ("kernel_abc", "cd_rhs_schur"):
                    want = outcome(getattr(oracle, name), x, y)
                    assert outcome(getattr(ev, name), x, y) == want, (level, name, x, y)


@pytest.mark.parametrize("case", ["legendre", "multigraded-12", "multigraded-n2"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_solves_match_per_coordinate_solves(case, backend):
    config = dataclasses.replace(builtin_config(case), backend=backend)
    fam, g, factors = problem(config)
    levels = range(g.nrows - fam.max_shift())
    assert_batched_solves_match(fam, g, factors, lattice(backend), levels)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_batched_solves_match_on_drawn_families(backend, data):
    """Quasi-definite drawn families (a singular moment matrix is redrawn),
    on a 3 x 3 grid inside the unit interval."""
    config = data.draw(drawn_configs(backend))
    try:
        fam, g, factors = problem(config)
    except SingularLeadingMinorError:
        assume(False)
    levels = range(g.nrows - fam.max_shift())
    points = lattice(backend, DEFAULT_GRID_COORDS[::2])
    assert_batched_solves_match(fam, g, factors, points, levels)


POINTWISE = (
    "kernel_sum",
    "kernel_abc",
    "cd_lhs",
    "cd_rhs_schur",
    "cd_rhs_associated",
    "reproducing_residual",
)
# Three pairs over three x's and two y's: a grid that is no product.
SCATTERED = ((Fraction(1, 7), Fraction(2, 9)), (Fraction(3, 7), Fraction(5, 9)), (Fraction(6, 7), Fraction(2, 9)))
OFF_GRID = (Fraction(1, 11), Fraction(4, 13))


def pointwise(ev, name, x, y):
    """The value by type and repr, and itself where exact; or the refusal."""
    try:
        value = getattr(ev, name)(x, y)
    except ValueError as exc:
        return ValueError, str(exc)
    typed_value = typed(value) if isinstance(value, list) else (type(value), repr(value))
    return typed_value, value if ev.fam.backend == "exact" else None


@pytest.mark.parametrize(
    "case,backend",
    [(c, b) for c in ("legendre", "multigraded-12", "multigraded-n2") for b in BACKENDS]
    + [("hermite", "float")],
)
def test_grid_products_match_per_point_products(monkeypatch, case, backend):
    """The kernel sum, the inverse-minor kernel, both partition terms, the
    associated form and the reproducing sum, taken once over the grid, equal
    the per-point products: exact values by == and type, floats by repr, at
    level 0 and every level of the config.  On the default lattice a level
    takes each with one block sum for all 25 pairs; a grid that is no
    product, and a point off the grid, fall back to a block sum per pair."""
    config = dataclasses.replace(builtin_config(case), backend=backend)
    fam, g, factors = problem(config)
    batches = []

    def spy(n, lefts, rights, backend, _fn=cdkernel.block_sum):
        if lefts:
            batches.append((len(lefts[0]) // n, len(rights[0][0]) // n))
        return _fn(n, lefts, rights, backend)

    monkeypatch.setattr(cdkernel, "block_sum", spy)
    scattered = [tuple(as_backend(c, backend) for c in pair) for pair in SCATTERED]
    off_grid = tuple(as_backend(c, backend) for c in OFF_GRID)
    for grid, batch in ((lattice(backend), (5, 5)), (scattered, (1, 1))):
        table = PointTable(fam, g, factors, grid)
        for level in (0, *config.levels):
            ev = KernelEvaluator(fam, g, factors, level, table=table)
            oracle = PerPointEvaluator(fam, g, factors, level, table=table)
            del batches[:]
            for x, y in grid:
                for name in POINTWISE:
                    want = pointwise(oracle, name, x, y)
                    assert pointwise(ev, name, x, y) == want, (level, name, x, y)
            assert set(batches) <= {batch} and bool(batches) == (level > 0), level
            del batches[:]
            for name in POINTWISE:
                want = pointwise(oracle, name, *off_grid)
                assert pointwise(ev, name, *off_grid) == want, (level, name)
            assert set(batches) <= {(1, 1)} and bool(batches) == (level > 0), level


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_partition_form_is_one_block_sum(monkeypatch, backend):
    """One `cd_rhs_schur` call at a lattice point of a fresh evaluator takes
    one block sum, of two pairs per coordinate, for all 25 pairs; the value
    returned is a fresh copy."""
    config = dataclasses.replace(builtin_config("multigraded-n2"), backend=backend)
    fam, g, factors = problem(config)
    pairs = []

    def spy(n, lefts, rights, backend, _fn=cdkernel.block_sum):
        pairs.append(len(lefts))
        return _fn(n, lefts, rights, backend)

    monkeypatch.setattr(cdkernel, "block_sum", spy)
    grid = lattice(backend)
    ev = KernelEvaluator(fam, g, factors, 4, table=PointTable(fam, g, factors, grid))
    x, y = grid[7]
    first = ev.cd_rhs_schur(x, y)
    assert pairs == [2]
    first[0][0] = None
    assert None not in ev.cd_rhs_schur(x, y)[0] and pairs == [2]


@st.composite
def partition_operands(draw):
    """n x p and p x n, n x q and two q x n float blocks."""
    n, p, q = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    block = lambda rows, cols: draw(matrices(rows, cols, ieee_floats))
    return block(n, p), block(p, n), block(n, q), block(q, n), block(q, n)


@given(partition_operands())
def test_two_pair_partition_sum_keeps_the_bits_of_the_difference(operands):
    """A Lambda R - W Lambda (chi - B R), as two products and a difference,
    equals the one two-pair sum of A Lambda R and W Lambda (B R - chi): every
    dot starts from int 0, so none is -0.0, and IEEE negation and
    subtraction are sign-symmetric.  Entries compare by type and repr, so a
    NaN compares by position."""
    a_lam, right, w_lam, chi, b_right = operands
    two_products = mat_sub(
        mat_mul(a_lam, right, FLOAT), mat_mul(w_lam, mat_sub(chi, b_right), FLOAT)
    )
    one_sum = block_sum(len(a_lam), [a_lam, w_lam], [right, mat_sub(b_right, chi)], FLOAT)
    assert typed(one_sum) == typed(two_products)


def test_a_run_substitutes_once_per_level_and_side(monkeypatch):
    """Exact multigraded-n2, with every check and with `abc` and `proposition`
    alone: every evaluator level substitutes once per side and grid
    coordinate, N columns wide, on the run's one elimination of that side
    (`families._lead_solution`, a view of the factorization's pass), and no
    leading minor is eliminated by itself: the only eliminations left are
    the N x N pivot blocks of the factorization."""
    eliminated, substitutions, leads, coordinate = [], [], {}, []

    def eliminate(a, backend, _fn=numerics.eliminate):
        eliminated.append(len(a))
        return _fn(a, backend)

    def lead_solution(g, order, dual, _fn=families._lead_solution):
        elim = _fn(g, order, dual)
        leads.setdefault(id(elim), ((order, dual), elim))
        return elim

    def substitute(elim, b, _fn=cdkernel.substitute):
        substitutions.append((leads[id(elim)][0] + (coordinate[-1],), len(b[0])))
        return _fn(elim, b)

    def naming(piece):
        def named(self, c):
            coordinate.append(c)
            try:
                return piece(self, c)
            finally:
                coordinate.pop()

        return named

    monkeypatch.setattr(numerics, "eliminate", eliminate)
    monkeypatch.setattr(families, "_lead_solution", lead_solution)
    monkeypatch.setattr(cdkernel, "substitute", substitute)
    for name in ("_right_piece", "_left_piece"):
        monkeypatch.setattr(KernelEvaluator, name, naming(getattr(KernelEvaluator, name)))
    base = builtin_config("multigraded-n2")
    assert base.checks == harness.CHECK_NAMES
    n = base.size
    per_coordinate = {
        (level, dual, c): 1
        for level in base.levels
        for dual in (False, True)
        for c in DEFAULT_GRID_COORDS
    }
    for checks in (base.checks, ("abc", "proposition")):
        del eliminated[:], substitutions[:]
        leads.clear()
        assert run(dataclasses.replace(base, checks=checks)).exit_code == 0
        assert set(eliminated) == {n}, checks
        keys = [key for key, _ in leads.values()]
        assert len(keys) == len(set(keys)), checks
        assert Counter(key for key, _ in substitutions) == per_coordinate, checks
        assert {width for _, width in substitutions} == {n}


def test_each_chi2_row_is_built_once_per_evaluator(monkeypatch):
    """Exact multigraded-n2 with every check: the inverse-minor kernel and
    the solve per coordinate both read a level's chi2 row at x, and the
    partition form reads its tail, but each (evaluator, count, x, offset)
    is built once: every read of a key returns the same rows."""
    reads, real = {}, KernelEvaluator._chi2_row

    def read(self, *args):
        rows = real(self, *args)
        count, x, offset = (*args, 0)[:3]
        reads.setdefault((self, count, x, offset), []).append(rows)
        return rows

    monkeypatch.setattr(KernelEvaluator, "_chi2_row", read)
    assert run(builtin_config("multigraded-n2")).exit_code == 0
    assert max(map(len, reads.values())) > 1  # some key is read again
    assert all(rows is got[0] for got in reads.values() for rows in got)


LEVEL_PREFIX = re.compile(r"l=(\d+)\b")


def per_level_records(monkeypatch, config) -> dict:
    """check -> level -> the records of that level, in the order recorded:
    (location, type and repr of the residual) for each `record` and each
    merged sub-check, whose worst location is kept too."""
    trackers = []

    class Recording(ResidualTracker):
        def __init__(self, tol):
            super().__init__(tol)
            self.log = []
            trackers.append(self)

        def record(self, residual, scale, where):
            self.log.append((where, type(residual), repr(residual)))
            super().record(residual, scale, where)

        def merge(self, sub, where):
            self.log.append((where, type(sub.residual), repr(sub.residual), sub.worst))
            super().merge(sub, where)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "ResidualTracker", Recording)
        report = run(config)
    grouped = {}
    for entry, tracker in zip(report.entries, trackers, strict=True):
        levels = grouped.setdefault(entry.check, {})
        for item in tracker.log:
            match = LEVEL_PREFIX.match(item[0])
            levels.setdefault(int(match.group(1)) if match else None, []).append(item)
    return grouped


@pytest.mark.parametrize("case", ["legendre", "multigraded-n2"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_level_order_and_repeats_change_no_residual(monkeypatch, case, backend):
    """Levels (6, 2, 4, 4) against (2, 4, 6): per check and per level, the
    same residuals at the same locations, so the same per-level residual
    and worst point; a repeated level repeats its records."""
    base = dataclasses.replace(builtin_config(case), backend=backend)
    shuffled = per_level_records(monkeypatch, dataclasses.replace(base, levels=(6, 2, 4, 4)))
    ordered = per_level_records(monkeypatch, dataclasses.replace(base, levels=(2, 4, 6)))
    assert shuffled.keys() == ordered.keys()
    for check, levels in ordered.items():
        assert shuffled[check].keys() == levels.keys(), check
        for level, records in levels.items():
            repeats = 2 if level == 4 else 1
            assert shuffled[check][level] == records * repeats, (check, level)


@pytest.mark.parametrize(
    "case,backend",
    [("hermite", "float")]
    + [(case, b) for case in ("legendre", "multigraded-12", "multigraded-n2") for b in BACKENDS],
)
def test_monomial_weights_are_the_form_moments(case, backend):
    """Pairing the table's monomial x^d I with the moments of form k gives
    form_moment(k, d), by type and repr, for every k and d: the weights the
    projections of monomials read off the table."""
    config = dataclasses.replace(builtin_config(case), backend=backend)
    table = PointTable(*problem(config))
    for k in range(len(table.forms)):
        for d, monomial in enumerate(table.monomials):
            moments = [table.form_moment(k, t) for t in range(d + 1)]
            want = typed(table.form_moment(k, d))
            assert typed(pair_with_moments(monomial, moments, backend)) == want, (k, d)
