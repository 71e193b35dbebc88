"""Kernel work shared across levels and grid points.

Each level solves its leading minor once per side, for every grid
coordinate the run's point table names; the per-coordinate route survives
in `conftest` as the oracle.  Every level reads the one point table of its
run, and the projections of family members and monomials read their
weights off it, so a run's residuals must not depend on the order its
levels come in.  Every comparison is by type and repr, in both backends.
"""

import dataclasses
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mghankel import cdkernel, harness
from mghankel.blockops import build_moment_matrix
from mghankel.cdkernel import KernelEvaluator, PointTable
from mghankel.factorize import lu_factorize
from mghankel.families import pair_with_moments
from mghankel.harness import DEFAULT_GRID_COORDS, builtin_config, run
from mghankel.numerics import ResidualTracker, SingularLeadingMinorError, as_backend

from conftest import PerCoordinateEvaluator, drawn_configs, typed

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


def test_a_run_solves_once_per_level_and_side(monkeypatch):
    """Exact multigraded-n2 with every check: the evaluators call
    `solve_leading` once per (level, side), for all five grid coordinates."""
    calls = []

    def counted(a, b, level, *args, _fn=cdkernel.solve_leading):
        calls.append((level, id(a), len(b[0])))
        return _fn(a, b, level, *args)

    monkeypatch.setattr(cdkernel, "solve_leading", counted)
    config = builtin_config("multigraded-n2")
    assert config.checks == harness.CHECK_NAMES
    assert run(config).exit_code == 0
    n, coords = config.size, len(DEFAULT_GRID_COORDS)
    assert Counter(level for level, _, _ in calls) == {level: 2 for level in config.levels}
    assert len({(level, minor) for level, minor, _ in calls}) == len(calls)
    assert {width for _, _, width in calls} == {coords * n}


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
            assert typed(pair_with_moments(monomial, moments)) == want, (k, d)
