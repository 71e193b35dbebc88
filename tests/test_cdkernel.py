import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from mghankel.blockops import build_moment_matrix
from mghankel import cdkernel, factorize, harness
from mghankel.cdkernel import KernelEvaluator, PointTable, classical_cd, diag_power
from mghankel.factorize import lu_factorize
from mghankel.families import (
    MatrixPolynomial,
    associated_minus,
    associated_plus,
    dual_associated_minus,
    dual_associated_plus,
    eval_form,
    eval_poly,
    form_residual,
    pair_poly_form,
    poly_residual,
    primary_family,
    dual_family,
)
from mghankel.harness import DEFAULT_GRID_COORDS, builtin_config
from mghankel.numerics import (
    SingularLocusError,
    as_backend,
    mat_mul,
    mat_sub,
    matrix_residual_norm,
)
from mghankel.weights import BaseMeasure, SeedWeight, hankel_family

from conftest import (
    interval_seed,
    mat_add,
    term_associated,
    term_kernel,
    term_project_form,
    term_project_poly,
    term_reproducing,
    typed,
)

F = Fraction


def hilbert_kernel_value(x, y):
    return 12 * x * y - 6 * x - 6 * y + 4


@pytest.fixture(scope="module")
def hilbert_ev(hilbert_bundle):
    fam, g, factors = hilbert_bundle
    return KernelEvaluator(fam, g, factors, 2)


def test_kernel_empty_sum(hilbert_bundle):
    fam, g, factors = hilbert_bundle
    ev = KernelEvaluator(fam, g, factors, 0)
    assert ev.kernel_sum(F(1, 3), F(1, 5)) == [[0]]
    assert ev.kernel_abc(F(1, 3), F(1, 5)) == [[0]]
    assert ev.cd_lhs(F(1, 3), F(1, 5)) == [[0]]
    assert ev.cd_rhs_schur(F(1, 3), F(1, 5)) == [[0]]


def test_kernel_single_term(hilbert_bundle):
    fam, g, factors = hilbert_bundle
    ev = KernelEvaluator(fam, g, factors, 1)
    assert ev.kernel_sum(F(1, 3), F(2, 3)) == [[1]]
    assert ev.kernel_abc(F(1, 3), F(2, 3)) == [[1]]


def test_kernel_level_two_closed_form(hilbert_ev, rational_grid):
    for x in rational_grid:
        for y in rational_grid:
            expected = hilbert_kernel_value(x, y)
            assert hilbert_ev.kernel_sum(x, y) == [[expected]]
            assert hilbert_ev.kernel_abc(x, y) == [[expected]]


def test_kernel_abc_at_origin(hilbert_ev):
    assert hilbert_ev.kernel_abc(F(0), F(0)) == [[4]]


def test_budget_guard(hilbert_bundle):
    fam, g, factors = hilbert_bundle
    with pytest.raises(ValueError):
        KernelEvaluator(fam, g, factors, 4)


def test_projection_fixes_span(hilbert_ev, hilbert_bundle):
    _, _, factors = hilbert_bundle
    polys = primary_family(factors)
    assert poly_residual(hilbert_ev.project_poly(polys[0]), polys[0]) == 0
    assert poly_residual(hilbert_ev.project_poly(polys[1]), polys[1]) == 0


def test_projection_annihilates_tail(hilbert_ev, hilbert_bundle):
    _, _, factors = hilbert_bundle
    polys = primary_family(factors)
    projected = hilbert_ev.project_poly(polys[2])
    assert all(matrix_residual_norm(c) == 0 for c in projected.coeffs)


def test_projection_linearity(hilbert_bundle):
    fam, g, factors = hilbert_bundle
    ev = KernelEvaluator(fam, g, factors, 1)
    polys = primary_family(factors)
    combined = MatrixPolynomial.of(
        1, [mat_add(polys[0].coeffs[0], polys[1].coeffs[0]), polys[1].coeffs[1]]
    )
    assert poly_residual(ev.project_poly(combined), polys[0]) == 0


def test_dual_projection(hilbert_ev, hilbert_bundle):
    _, _, factors = hilbert_bundle
    forms = dual_family(factors)
    assert form_residual(hilbert_ev.project_form(forms[1]), forms[1]) == 0
    killed = hilbert_ev.project_form(forms[3])
    assert all(matrix_residual_norm(c) == 0 for c in killed.coeffs)


def test_reproducing_property(hilbert_bundle, rational_grid):
    fam, g, factors = hilbert_bundle
    for level in (0, 1, 2):
        ev = KernelEvaluator(fam, g, factors, level)
        for x in rational_grid[:3]:
            for y in rational_grid[:3]:
                assert ev.reproducing_residual(x, y) == 0


def test_cd_lhs_vanishes_on_diagonal(hilbert_ev):
    assert hilbert_ev.cd_lhs(F(2, 7), F(2, 7)) == [[0]]


def test_cd_lhs_closed_form(hilbert_ev, rational_grid):
    for x in rational_grid[:3]:
        y = rational_grid[4]
        expected = (x - y) * hilbert_kernel_value(x, y)
        assert hilbert_ev.cd_lhs(x, y) == [[expected]]


def test_diag_power_mixes_components():
    d = diag_power(F(1, 2), (1, 3))
    assert d == [[F(1, 2), 0], [0, F(1, 8)]]


def test_diag_power_takes_the_backend_of_the_point():
    assert {type(v) for row in diag_power(0.5, (1, 3)) for v in row} == {float}
    assert diag_power(F(1, 2), (2,)) == [[F(1, 4)]]


def test_schur_form_matches_lhs(mg12_bundle, rational_grid):
    fam, g, factors = mg12_bundle
    for level in (1, 2, 3):
        ev = KernelEvaluator(fam, g, factors, level)
        for x in rational_grid:
            for y in rational_grid:
                assert ev.cd_lhs(x, y) == ev.cd_rhs_schur(x, y)


def test_associated_form_matches_lhs(mg12_bundle, rational_grid):
    fam, g, factors = mg12_bundle
    for level in (2, 3, 4):
        ev = KernelEvaluator(fam, g, factors, level)
        for x in rational_grid:
            for y in rational_grid:
                assert ev.cd_lhs(x, y) == ev.cd_rhs_associated(x, y)


def test_associated_form_two_components(mgn2_bundle, rational_grid):
    fam, g, factors = mgn2_bundle
    pts = [(rational_grid[0], rational_grid[3]), (rational_grid[2], rational_grid[1])]
    for level in (2, 3, 4):
        ev = KernelEvaluator(fam, g, factors, level)
        for x, y in pts:
            assert ev.cd_lhs(x, y) == ev.cd_rhs_associated(x, y)


def test_associated_form_needs_dominating_level(mg12_bundle):
    fam, g, factors = mg12_bundle
    ev = KernelEvaluator(fam, g, factors, 1)
    with pytest.raises(ValueError):
        ev.cd_rhs_associated(F(1, 7), F(2, 7))


def test_hankel_collapse_of_associated_form(legendre_bundle, rational_grid):
    # With unit shifts the bilinear form reduces to the classical two-term
    # numerator, so it must equal (x - y) K(x, y).
    fam, g, factors = legendre_bundle
    for level in (1, 2, 3):
        ev = KernelEvaluator(fam, g, factors, level)
        x, y = rational_grid[0], rational_grid[3]
        assert ev.cd_rhs_associated(x, y) == ev.cd_lhs(x, y)


def test_corollary_entry_hilbert(hilbert_ev):
    assert hilbert_ev.cd_entry_quotient(0, 0, F(1), F(0)) == -2
    assert hilbert_ev.kernel_sum(F(1), F(0)) == [[-2]]


def test_corollary_singular_locus(hilbert_ev):
    with pytest.raises(SingularLocusError):
        hilbert_ev.cd_entry_quotient(0, 0, F(1, 3), F(1, 3))


def test_corollary_matches_kernel(mg12_bundle, rational_grid):
    fam, g, factors = mg12_bundle
    ev = KernelEvaluator(fam, g, factors, 2)
    for x in rational_grid:
        for y in rational_grid:
            if x == y:
                continue
            assert ev.cd_entry_quotient(0, 0, x, y) == ev.kernel_sum(x, y)[0][0]


def test_kernel_matches_classical_sum(legendre_bundle):
    # With unit shifts and a flat density the kernel is the classical sum
    # of squared monic polynomials over the level normalizations.
    fam, g, factors = legendre_bundle
    polys = primary_family(factors)
    norms = [factors.normalization(k)[0][0] for k in range(3)]
    ev = KernelEvaluator(fam, g, factors, 3)
    x, y = F(1, 7), F(3, 7)
    expected = sum(
        eval_poly(polys[k], x)[0][0] * eval_poly(polys[k], y)[0][0] / norms[k]
        for k in range(3)
    )
    assert ev.kernel_sum(x, y) == [[expected]]


def test_classical_legendre_value():
    r = classical_cd(interval_seed(1), 2, F(0), F(1))
    assert r.lhs == ((F(-2),),) and r.rhs == ((F(-2),),)
    assert r.residual == 0


def test_classical_single_term():
    r = classical_cd(interval_seed(1), 1, F(1, 4), F(3, 4))
    assert r.lhs == ((1,),)
    assert r.residual == 0


def test_classical_hermite_float():
    seed = SeedWeight.of([1], BaseMeasure.gaussian())
    r = classical_cd(seed, 3, 0.7, -0.2, backend="float")
    assert r.residual <= 1e-9


def test_classical_rejects_diagonal():
    with pytest.raises(SingularLocusError):
        classical_cd(interval_seed(1), 2, F(1, 2), F(1, 2))


def test_kernel_routes_are_independent(hilbert_bundle):
    # feeding the evaluator factors of a different matrix must break the
    # agreement between the sum route and the solve route
    from mghankel.blockops import BlockMatrix

    fam, g, _ = hilbert_bundle
    skewed = lu_factorize(BlockMatrix.identity(1, 4))
    ev = KernelEvaluator(fam, g, skewed, 2)
    assert ev.kernel_sum(F(1, 7), F(2, 7)) != ev.kernel_abc(F(1, 7), F(2, 7))


# -- per-point tables ------------------------------------------------------

TABLE_LEVEL = 3
POINT_METHODS = (
    "kernel_sum",
    "kernel_abc",
    "cd_lhs",
    "cd_rhs_schur",
    "cd_rhs_associated",
    "reproducing_residual",
)


def lattice_case(case, backend) -> tuple:
    """(family, g, factors, lattice points) of a built-in case in one backend."""
    config = dataclasses.replace(builtin_config(case), backend=backend)
    fam = config.family()
    g = build_moment_matrix(fam, config.truncation)
    points = [
        (as_backend(x, backend), as_backend(y, backend))
        for x in DEFAULT_GRID_COORDS
        for y in DEFAULT_GRID_COORDS
    ]
    return fam, g, lu_factorize(g), points


@pytest.fixture(
    scope="module",
    params=[
        ("legendre", "exact"),
        ("legendre", "float"),
        ("multigraded-n2", "exact"),
        ("multigraded-n2", "float"),
    ],
    ids=lambda p: "-".join(p),
)
def table_case(request):
    return lattice_case(*request.param)


def direct_kernel(fam, polys, forms, level, x, y):
    return term_kernel(
        fam,
        [eval_form(forms[k], fam, x) for k in range(level)],
        [eval_poly(polys[k], y) for k in range(level)],
    )


def associated_members(fam, g, level) -> tuple:
    """The associated families of `level`, in the evaluator's order."""
    m, nn = max(fam.mvec), max(fam.nvec)
    return (
        [dual_associated_plus(g, level, j) for j in range(m)],
        [associated_minus(g, level - 1, k) for k in range(m)],
        [dual_associated_minus(g, level - 1, k) for k in range(nn)],
        [associated_plus(g, level, j) for j in range(nn)],
    )


def associated_values(fam, members, x, y) -> tuple:
    plus_forms, minus_polys, minus_forms, plus_polys = members
    return (
        [eval_form(f, fam, x) for f in plus_forms],
        [eval_poly(p, y) for p in minus_polys],
        [eval_form(f, fam, x) for f in minus_forms],
        [eval_poly(p, y) for p in plus_polys],
    )


def direct_reproducing(fam, g, polys, forms, level, x, y):
    pairs = [[pair_poly_form(g, polys[j], forms[k]) for k in range(level)] for j in range(level)]
    return term_reproducing(
        fam,
        [eval_form(forms[k], fam, x) for k in range(level)],
        [eval_poly(polys[k], y) for k in range(level)],
        pairs,
    )


def test_tables_match_direct_composition(table_case):
    fam, g, factors, points = table_case
    polys, forms = primary_family(factors), dual_family(factors)
    ev = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
    members = associated_members(fam, g, TABLE_LEVEL)
    nvec = fam.nvec
    for _ in range(2):  # the second sweep reads every value from the tables
        for x, y in points:
            kernel = direct_kernel(fam, polys, forms, TABLE_LEVEL, x, y)
            assoc = term_associated(fam, *associated_values(fam, members, x, y))
            lhs = mat_sub(
                mat_mul(diag_power(x, nvec), kernel, fam.backend),
                mat_mul(kernel, diag_power(y, nvec), fam.backend),
            )
            assert ev.kernel_sum(x, y) == kernel
            assert ev.cd_lhs(x, y) == lhs
            assert ev.cd_rhs_associated(x, y) == assoc
            assert ev.reproducing_residual(x, y) == direct_reproducing(
                fam, g, polys, forms, TABLE_LEVEL, x, y
            )
            for a in range(fam.size):
                for b in range(fam.size):
                    if x ** nvec[a] != y ** nvec[b]:
                        assert ev.cd_entry_quotient(a, b, x, y) == assoc[a][b] / (
                            x ** nvec[a] - y ** nvec[b]
                        )


def typed_outcome(ev, name, x, y):
    """(type, repr) of every entry of a point method's value.

    Below every-shift dominance the associated form must raise; its error
    is the outcome there.  Any other error fails the test.
    """
    fam = ev.fam
    if name == "cd_rhs_associated" and ev.level < max(*fam.nvec, *fam.mvec):
        with pytest.raises(ValueError, match="every-shift dominance") as info:
            ev.cd_rhs_associated(x, y)
        return repr(info.value)
    value = getattr(ev, name)(x, y)
    return typed(value) if isinstance(value, list) else (type(value), repr(value))


def test_tables_match_fresh_evaluator(table_case):
    """One point table shared by every level of the budget, warmed by all of
    them, gives each level the values of a standalone evaluator, bit for bit,
    at every point."""
    fam, g, factors, points = table_case
    table = PointTable(fam, g, factors)
    levels = range(g.nrows - fam.max_shift())
    assert TABLE_LEVEL in levels
    warm = {level: KernelEvaluator(fam, g, factors, level, table=table) for level in levels}
    for name in POINT_METHODS:
        for x, y in points:
            for level in levels:
                typed_outcome(warm[level], name, x, y)
    for level in levels:
        for x, y in points:
            fresh = KernelEvaluator(fam, g, factors, level)
            for name in POINT_METHODS:
                assert typed_outcome(warm[level], name, x, y) == typed_outcome(
                    fresh, name, x, y
                ), (level, name, x, y)


def test_table_of_other_inputs_is_refused(hilbert_bundle, mgn2_bundle):
    fam, g, factors = hilbert_bundle
    with pytest.raises(ValueError, match="point table"):
        KernelEvaluator(fam, g, factors, 1, table=PointTable(*mgn2_bundle))
    # equal factors of another factorization are not the table's factors
    with pytest.raises(ValueError, match="point table"):
        KernelEvaluator(fam, g, lu_factorize(g), 1, table=PointTable(fam, g, factors))
    table = PointTable(fam, g, factors)
    assert KernelEvaluator(fam, g, factors, 1, table=table).table is table


@pytest.mark.parametrize("case,backend", [("legendre", "exact"), ("multigraded-n2", "float")])
def test_run_evaluates_each_member_once_per_point(monkeypatch, case, backend):
    """Across every level of a run, each family member is evaluated once per
    point, from the one point table the run builds.

    Calls are keyed by function, member value and point, so evaluators
    that each hold their own copy of the families would count repeats.
    The associated families (theorem, corollary) belong to one level each
    and may equal a family member by value, so those checks stay out.
    """
    calls, tables = Counter(), []
    # eval_form(form, fam, x, weight) and eval_poly(poly, y)
    for name, at in (("eval_form", 1), ("eval_poly", 0)):
        def counted(member, *args, _fn=getattr(cdkernel, name), _at=at, **kwargs):
            calls[_fn.__name__, member, args[_at]] += 1
            return _fn(member, *args, **kwargs)

        monkeypatch.setattr(cdkernel, name, counted)

    class CountedTable(PointTable):
        def __init__(self, *args):
            tables.append(self)
            super().__init__(*args)

    monkeypatch.setattr(harness, "PointTable", CountedTable)
    monkeypatch.setattr(cdkernel, "PointTable", CountedTable)
    checks = ("abc", "reproducing", "projections", "proposition")
    config = dataclasses.replace(builtin_config(case), backend=backend, checks=checks)
    assert len(config.levels) > 1
    harness.run(config)
    assert len(tables) == 1
    assert calls and set(calls.values()) == {1}


def test_projections_match_direct_pairings(table_case):
    fam, g, factors, _ = table_case
    polys, forms = primary_family(factors), dual_family(factors)
    ev = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
    for _ in range(2):  # the second sweep reads the memoized moments
        for k in range(g.nrows):
            once = ev.project_poly(polys[k])
            assert once == term_project_poly(g, polys, forms, TABLE_LEVEL, polys[k])
            assert ev.project_poly(once) == term_project_poly(g, polys, forms, TABLE_LEVEL, once)
            assert ev.project_form(forms[k]) == term_project_form(
                g, polys, forms, TABLE_LEVEL, forms[k]
            )


@pytest.fixture(
    scope="module",
    params=[
        (case, backend)
        for case in ("legendre", "multigraded-12", "multigraded-n2")
        for backend in ("exact", "float")
    ],
    ids=lambda p: "-".join(p),
)
def loop_case(request):
    return lattice_case(*request.param)


def typed_poly(p) -> list:
    return [typed(c) for c in p.coeffs]


def test_block_sums_match_term_loops(loop_case):
    """Kernel sum, reproducing residual, associated form and both projections
    equal their per-term loops by type and repr, at every level of the budget
    and every grid point.  The levels share one point table with the grid and
    come out of order (even levels downwards, then odd levels), so no level
    may read what another left on the table."""
    fam, g, factors, points = loop_case
    table = PointTable(fam, g, factors, points)
    polys, forms = table.polys, table.forms
    levels = range(g.nrows - fam.max_shift())
    forms_at = {x: [eval_form(f, fam, x) for f in forms[: len(levels)]] for x, _ in points}
    polys_at = {y: [eval_poly(p, y) for p in polys[: len(levels)]] for _, y in points}
    pairs = [[pair_poly_form(g, p, f) for f in forms[: len(levels)]] for p in polys[: len(levels)]]
    # the harness projects monomials, whose entries are ints
    eye = [[int(r == c) for c in range(fam.size)] for r in range(fam.size)]
    monomial = MatrixPolynomial.of(fam.size, [[[0] * fam.size] * fam.size, eye])
    for level in sorted(levels, key=lambda level: (level % 2, -level)):
        ev = KernelEvaluator(fam, g, factors, level, table=table)
        members = associated_members(fam, g, level) if level >= fam.max_shift() else None
        for x, y in points:
            fx, py = forms_at[x][:level], polys_at[y][:level]
            assert typed(ev.kernel_sum(x, y)) == typed(term_kernel(fam, fx, py)), (level, x, y)
            got = ev.reproducing_residual(x, y)
            want = term_reproducing(fam, fx, py, [row[:level] for row in pairs[:level]])
            assert (type(got), repr(got)) == (type(want), repr(want)), (level, x, y)
            if members is not None:
                want = term_associated(fam, *associated_values(fam, members, x, y))
                assert typed(ev.cd_rhs_associated(x, y)) == typed(want), (level, x, y)
        for p in [*polys, *table.monomials, monomial]:
            want = term_project_poly(g, polys, forms, level, p)
            assert typed_poly(ev.project_poly(p)) == typed_poly(want), level
        for f in forms:
            want = term_project_form(g, polys, forms, level, f)
            assert typed_poly(ev.project_form(f)) == typed_poly(want), level


def test_returned_matrices_are_fresh(mgn2_bundle, rational_grid):
    fam, g, factors = mgn2_bundle
    ev = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
    x, y = rational_grid[0], rational_grid[3]
    for name in ("kernel_sum", "cd_lhs", "cd_rhs_associated"):
        first = getattr(ev, name)(x, y)
        expected = [list(row) for row in first]
        first[0][0] += 1
        first[1].append(0)
        assert getattr(ev, name)(x, y) == expected
    quotient = ev.cd_entry_quotient(0, 1, x, y)
    assert quotient == expected[0][1] / (x - y**2)


def test_cd_lhs_is_computed_once_per_point(monkeypatch, mgn2_bundle, rational_grid):
    calls = []

    def counted(x, nvec, _fn=cdkernel.diag_power):
        calls.append(x)
        return _fn(x, nvec)

    monkeypatch.setattr(cdkernel, "diag_power", counted)
    ev = KernelEvaluator(*mgn2_bundle, TABLE_LEVEL)
    x, y = rational_grid[0], rational_grid[3]
    first = ev.cd_lhs(x, y)
    assert ev.cd_lhs(x, y) == first and calls == [x, y]


def test_classical_reuses_top_factorization():
    cases = [
        (interval_seed(1), "exact", [(F(1, 7), F(5, 7)), (F(0), F(1))]),
        (SeedWeight.of([1], BaseMeasure.gaussian()), "float", [(0.7, -0.2), (1.5, 0.3)]),
    ]
    for seed, backend, points in cases:
        fam = hankel_family(seed, backend)
        g = build_moment_matrix(fam, 7)
        top = PointTable(fam, g, lu_factorize(g))
        for degree in range(1, 7):
            for x, y in points:
                assert classical_cd(seed, degree, x, y, backend, table=top) == classical_cd(
                    seed, degree, x, y, backend
                )
        with pytest.raises(ValueError):
            classical_cd(seed, 7, *points[0], backend, table=top)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_classical_check_evaluates_each_pair_once(monkeypatch, backend):
    """The classical check builds its family once and evaluates each
    (polynomial, point) pair once, across every degree and point.  The
    run's point table builds the family of the run's own factors."""
    calls, families = Counter(), Counter()

    def counted_eval(poly, x, _fn=cdkernel.eval_poly):
        calls[poly, x] += 1
        return _fn(poly, x)

    def counted_family(factors, _fn=cdkernel.primary_family):
        families[id(factors)] += 1
        return _fn(factors)

    monkeypatch.setattr(cdkernel, "eval_poly", counted_eval)
    monkeypatch.setattr(cdkernel, "primary_family", counted_family)
    config = dataclasses.replace(builtin_config("legendre"), backend=backend, checks=("classical",))
    report = harness.run(config)
    assert [e.status for e in report.entries] == ["pass"]
    assert set(families.values()) == {1}
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_run_factorizes_once_with_the_classical_check(monkeypatch, backend):
    """The classical check reads the run's own factors: one factorization per run."""
    calls = Counter()

    def counted(g, _fn=factorize.lu_factorize):
        calls["lu_factorize"] += 1
        return _fn(g)

    for module in (factorize, cdkernel, harness):
        monkeypatch.setattr(module, "lu_factorize", counted)
    config = dataclasses.replace(builtin_config("legendre"), backend=backend)
    assert "classical" in config.checks
    report = harness.run(config)
    assert report.entries[-1].check == "classical" and report.entries[-1].status == "pass"
    assert calls["lu_factorize"] == 1


@pytest.mark.parametrize("case", ["legendre", "multigraded-n2"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_table_pairs_are_the_moment_pairings(case, backend):
    """pair(j, k) is pair_poly_form(g, polys[j], forms[k]) from the memoized
    form moments: by type and repr, for every j and k."""
    config = dataclasses.replace(builtin_config(case), backend=backend)
    fam = config.family()
    g = build_moment_matrix(fam, config.truncation)
    table = PointTable(fam, g, lu_factorize(g))
    for j, p in enumerate(table.polys):
        for k, f in enumerate(table.forms):
            assert typed(table.pair(j, k)) == typed(pair_poly_form(g, p, f)), (j, k)


def test_entry_quotients_take_each_power_once_per_point(monkeypatch, mgn2_bundle, rational_grid):
    """Every entry (a, b) at one point reads x^{n_a} and y^{n_b} taken once
    for the point, and its value is that of the quotient written out."""
    fam, g, factors = mgn2_bundle
    ev = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
    x, y, nvec = rational_grid[1], rational_grid[4], fam.nvec
    assoc = ev.cd_rhs_associated(x, y)
    powers, real = [], Fraction.__pow__

    def counted(a, b):
        powers.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Fraction, "__pow__", counted)
    entries = range(fam.size)
    quotients = [[ev.cd_entry_quotient(a, b, x, y) for b in entries] for a in entries]
    assert sorted(powers) == sorted([(x, k) for k in nvec] + [(y, k) for k in nvec])
    monkeypatch.undo()
    quotient = lambda a, b: assoc[a][b] / (x ** nvec[a] - y ** nvec[b])
    assert quotients == [[quotient(a, b) for b in entries] for a in entries]
