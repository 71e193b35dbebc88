import dataclasses
from fractions import Fraction

import pytest

from mghankel.blockops import build_moment_matrix
from mghankel.cdkernel import KernelEvaluator, classical_cd, diag_power
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
    mat_add,
    mat_mul,
    mat_sub,
    mat_zeros,
    matrix_residual_norm,
)
from mghankel.weights import BaseMeasure, SeedWeight, hankel_family

from conftest import interval_seed

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
    """(family, g, factors, lattice points) of a built-in case in one backend."""
    case, backend = request.param
    config = dataclasses.replace(builtin_config(case), backend=backend)
    fam = config.family()
    g = build_moment_matrix(fam, config.truncation)
    points = [
        (as_backend(x, backend), as_backend(y, backend))
        for x in DEFAULT_GRID_COORDS
        for y in DEFAULT_GRID_COORDS
    ]
    return fam, g, lu_factorize(g), points


def direct_kernel(fam, polys, forms, level, x, y):
    acc = mat_zeros(fam.size, fam.size, fam.backend)
    for k in range(level):
        acc = mat_add(acc, mat_mul(eval_form(forms[k], fam, x), eval_poly(polys[k], y)))
    return acc


def direct_associated(fam, g, level, x, y):
    n = fam.size
    plus_forms = [eval_form(dual_associated_plus(g, level, j), fam, x) for j in range(max(fam.mvec))]
    minus_polys = [eval_poly(associated_minus(g, level - 1, k), y) for k in range(max(fam.mvec))]
    minus_forms = [eval_form(dual_associated_minus(g, level - 1, k), fam, x) for k in range(max(fam.nvec))]
    plus_polys = [eval_poly(associated_plus(g, level, j), y) for j in range(max(fam.nvec))]
    acc = mat_zeros(n, n, fam.backend)
    for a in range(n):
        ma, na = fam.mvec[a], fam.nvec[a]
        for j in range(ma):
            for r in range(n):
                for c in range(n):
                    acc[r][c] += plus_forms[j][r][a] * minus_polys[ma - j - 1][a][c]
        for j in range(na):
            for r in range(n):
                for c in range(n):
                    acc[r][c] -= minus_forms[na - j - 1][r][a] * plus_polys[j][a][c]
    return acc


def direct_reproducing(fam, g, polys, forms, level, x, y):
    forms_x = [eval_form(forms[k], fam, x) for k in range(level)]
    polys_y = [eval_poly(polys[k], y) for k in range(level)]
    acc = mat_zeros(fam.size, fam.size, fam.backend)
    for j in range(level):
        for k in range(level):
            pair = pair_poly_form(g, polys[j], forms[k])
            acc = mat_add(acc, mat_mul(forms_x[j], mat_mul(pair, polys_y[k])))
    kernel = direct_kernel(fam, polys, forms, level, x, y)
    return matrix_residual_norm(mat_sub(acc, kernel))


def test_tables_match_direct_composition(table_case):
    fam, g, factors, points = table_case
    polys, forms = primary_family(factors), dual_family(factors)
    ev = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
    nvec = fam.nvec
    for _ in range(2):  # the second sweep reads every value from the tables
        for x, y in points:
            kernel = direct_kernel(fam, polys, forms, TABLE_LEVEL, x, y)
            assoc = direct_associated(fam, g, TABLE_LEVEL, x, y)
            lhs = mat_sub(mat_mul(diag_power(x, nvec), kernel), mat_mul(kernel, diag_power(y, nvec)))
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


def test_tables_match_fresh_evaluator(table_case):
    fam, g, factors, points = table_case
    warm = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
    for name in POINT_METHODS:
        for x, y in points:
            getattr(warm, name)(x, y)
    for name in POINT_METHODS:
        for x, y in points:
            fresh = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
            assert getattr(warm, name)(x, y) == getattr(fresh, name)(x, y), (name, x, y)


def test_returned_matrices_are_fresh(mgn2_bundle, rational_grid):
    fam, g, factors = mgn2_bundle
    ev = KernelEvaluator(fam, g, factors, TABLE_LEVEL)
    x, y = rational_grid[0], rational_grid[3]
    for name in ("kernel_sum", "cd_rhs_associated"):
        first = getattr(ev, name)(x, y)
        expected = [list(row) for row in first]
        first[0][0] += 1
        first[1].append(0)
        assert getattr(ev, name)(x, y) == expected
    quotient = ev.cd_entry_quotient(0, 1, x, y)
    assert quotient == expected[0][1] / (x - y**2)


def test_classical_reuses_top_factorization():
    cases = [
        (interval_seed(1), "exact", [(F(1, 7), F(5, 7)), (F(0), F(1))]),
        (SeedWeight.of([1], BaseMeasure.gaussian()), "float", [(0.7, -0.2), (1.5, 0.3)]),
    ]
    for seed, backend, points in cases:
        top = lu_factorize(build_moment_matrix(hankel_family(seed, backend), 7))
        for degree in range(1, 7):
            for x, y in points:
                assert classical_cd(seed, degree, x, y, backend, factors=top) == classical_cd(
                    seed, degree, x, y, backend
                )
        with pytest.raises(ValueError):
            classical_cd(seed, 7, *points[0], backend, factors=top)
