import ast
import dataclasses
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mghankel import families, numerics
from mghankel.blockops import BlockMatrix, build_moment_matrix, shift_power
from mghankel.factorize import lu_factorize
from mghankel.families import (
    LinearForm,
    MatrixPolynomial,
    associated_minus,
    associated_plus,
    check_biorthogonality,
    check_connection_formulas,
    check_matrix_notation,
    check_modified_orthogonality,
    dual_associated_minus,
    dual_associated_plus,
    dual_family,
    eval_form,
    eval_poly,
    form_against_monomial,
    form_residual,
    pair_poly_form,
    pair_with_moments,
    poly_against_weight,
    poly_residual,
    primary_family,
)
from mghankel.harness import builtin_config, run
from mghankel.numerics import (
    EXACT,
    FLOAT,
    SingularLeadingMinorError,
    as_backend,
    mat_eye,
    mat_sub,
    mat_transpose,
    mat_zeros,
)
from mghankel.weights import BaseMeasure, SeedWeight, hankel_family

from conftest import (
    exact_scalars,
    ieee_floats,
    is_monic,
    level_zero_plus,
    mat_add,
    matrices,
    sum_of_products,
    term_combine,
    typed,
)

F = Fraction


def coeffs_of(p):
    return [c[0][0] for c in p.coeffs]


def test_primary_family_hilbert(hilbert_bundle):
    _, _, factors = hilbert_bundle
    polys = primary_family(factors)
    assert coeffs_of(polys[0]) == [1]
    assert coeffs_of(polys[1]) == [F(-1, 2), 1]
    assert all(is_monic(p) for p in polys)


def test_primary_family_identity_moments():
    factors = lu_factorize(BlockMatrix.identity(2, 4))
    for level, p in enumerate(primary_family(factors)):
        assert p.degree() == level
        assert eval_poly(p, F(1, 3)) == [[F(1, 3) ** level, 0], [0, F(1, 3) ** level]]


def test_primary_family_monic_hermite(hermite_bundle):
    _, _, factors = hermite_bundle
    p2 = primary_family(factors)[2]
    assert abs(p2.coeffs[0][0][0] + 0.5) < 1e-12
    assert abs(p2.coeffs[1][0][0]) < 1e-12


def test_dual_family_identity_moments(legendre_family):
    factors = lu_factorize(BlockMatrix.identity(1, 4))
    forms = dual_family(factors)
    x = F(2, 7)
    for level, form in enumerate(forms):
        assert eval_form(form, legendre_family, x) == [[x**level]]


def test_dual_family_hilbert(hilbert_bundle, legendre_family):
    _, _, factors = hilbert_bundle
    forms = dual_family(factors)
    assert [d[0][0] for d in forms[1].coeffs] == [-6, 12]
    assert eval_form(forms[1], legendre_family, F(1, 2)) == [[0]]
    assert eval_form(forms[1], legendre_family, F(1, 4)) == [[-3]]


def test_families_biorthogonal(hilbert_bundle):
    _, g, factors = hilbert_bundle
    polys, forms = primary_family(factors), dual_family(factors)
    for i in range(g.nrows):
        for j in range(g.ncols):
            expected = mat_eye(1) if i == j else mat_zeros(1, 1)
            assert pair_poly_form(g, polys[i], forms[j]) == expected
    assert check_biorthogonality(g, factors).passed


def test_eval_poly_examples():
    p = MatrixPolynomial.of(1, [[[F(-1, 2)]], [[F(1)]]])
    assert eval_poly(p, F(1, 2)) == [[0]]
    q = MatrixPolynomial.of(1, [[[F(-1, 2)]], [[0]], [[1]]])
    assert eval_poly(q, 0) == [[F(-1, 2)]]
    const = MatrixPolynomial.of(2, [[[1, 2], [3, 4]]])
    assert eval_poly(const, F(7, 3)) == [[1, 2], [3, 4]]


@pytest.mark.parametrize("x", [F(2, 3), 0, 0.5])
def test_eval_poly_with_no_coefficients_is_the_zero_of_the_point(x):
    """The zero projection of `check_projections` has no coefficients (degree -1)."""
    zero = MatrixPolynomial.of(2, [])
    assert zero.degree() == -1
    scalar = float if isinstance(x, float) else F
    assert typed(eval_poly(zero, x)) == typed([[scalar(0)] * 2] * 2)


@given(st.data())
def test_exact_horner_on_integers_matches_fraction_horner(data):
    """Exact points evaluate on the member's kept integer row; the values
    equal Horner's rule on Fractions, and every entry is a Fraction."""
    n, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    coeffs = [data.draw(matrices(n, n)) for _ in range(count)]
    x = data.draw(st.integers(-9, 9) | st.fractions(max_denominator=50))
    p = MatrixPolynomial.of(n, coeffs)
    want = [[F(v) for v in row] for row in horner_oracle(p, F(x))]
    assert typed(eval_poly(p, x)) == typed(want)


def horner_oracle(p: MatrixPolynomial, x) -> list:
    """Horner's rule with one scaled and one summed matrix per coefficient."""
    acc = [list(row) for row in p.coeffs[-1]]
    for c in reversed(p.coeffs[:-1]):
        acc = mat_add([[x * v for v in row] for row in acc], c)
    return acc


@given(st.data())
def test_float_horner_keeps_its_bits_at_ieee_edges(data):
    n, count = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 4))
    coeffs = [data.draw(matrices(n, n, ieee_floats)) for _ in range(count)]
    x = data.draw(ieee_floats)
    p = MatrixPolynomial.of(n, coeffs)
    assert typed(eval_poly(p, x)) == typed(horner_oracle(p, x))


def test_eval_form_zero(legendre_family):
    zero = LinearForm.of(1, [mat_zeros(1, 1)])
    assert eval_form(zero, legendre_family, F(1, 3)) == [[0]]


def test_associated_plus_is_family_at_zero(hilbert_bundle):
    _, g, factors = hilbert_bundle
    polys = primary_family(factors)
    for level in range(3):
        assert poly_residual(associated_plus(g, level, 0), polys[level]) == 0


def test_associated_plus_hilbert():
    g = build_moment_matrix(hankel_family(SeedWeight.of([1], BaseMeasure.finite_interval(0, 1))), 4)
    p = associated_plus(g, 1, 1)
    assert coeffs_of(p) == [F(-1, 3), 0, 1]
    assert is_monic(p) and p.degree() == 2
    assert poly_against_weight(g, p, 0) == [[0]]


def test_associated_plus_empty_constraints(hilbert_bundle):
    _, g, _ = hilbert_bundle
    p = associated_plus(g, 0, 2)
    assert coeffs_of(p) == [0, 0, 1]


def test_associated_minus_scaled_family(hilbert_bundle):
    _, g, factors = hilbert_bundle
    polys = primary_family(factors)
    for level in range(3):
        direct = associated_minus(g, level, 0)
        h = factors.normalization(level)[0][0]
        assert [h * c for c in coeffs_of(direct)] == coeffs_of(polys[level])


def test_associated_minus_hilbert(hilbert_bundle):
    _, g, _ = hilbert_bundle
    p = associated_minus(g, 1, 1)
    assert coeffs_of(p) == [4, -6]
    assert poly_against_weight(g, p, 0) == [[1]]
    assert poly_against_weight(g, p, 1) == [[0]]


def test_associated_minus_identity_moments():
    g = BlockMatrix.identity(1, 5)
    for level in range(4):
        for j in range(level + 1):
            p = associated_minus(g, level, j)
            assert coeffs_of(p) == [1 if k == level - j else 0 for k in range(level + 1)]
            # exact degree can drop below the level bound (recorded, not forced)
            assert p.degree() == level - j <= level


def test_associated_minus_rejects_large_j(hilbert_bundle):
    _, g, _ = hilbert_bundle
    with pytest.raises(ValueError):
        associated_minus(g, 1, 2)


def test_dual_associated_minus_is_dual_family(hilbert_bundle):
    _, g, factors = hilbert_bundle
    forms = dual_family(factors)
    for level in range(3):
        direct = dual_associated_minus(g, level, 0)
        assert [d[0][0] for d in direct.coeffs] == [d[0][0] for d in forms[level].coeffs]


def test_dual_associated_minus_hilbert(hilbert_bundle, legendre_family):
    _, g, _ = hilbert_bundle
    f = dual_associated_minus(g, 1, 1)
    assert [d[0][0] for d in f.coeffs] == [4, -6]
    assert form_against_monomial(g, 0, f) == [[1]]
    assert form_against_monomial(g, 1, f) == [[0]]
    assert eval_form(f, legendre_family, F(1, 2)) == [[1]]


def test_dual_associated_identity_moments():
    g = BlockMatrix.identity(1, 5)
    f = dual_associated_minus(g, 3, 2)
    assert [d[0][0] for d in f.coeffs] == [0, 1, 0, 0]


def test_dual_associated_plus_annihilates(hilbert_bundle):
    _, g, _ = hilbert_bundle
    f = dual_associated_plus(g, 1, 1)
    assert [d[0][0] for d in f.coeffs] == [F(-1, 3), 0, 1]
    assert form_against_monomial(g, 0, f) == [[0]]


def test_connection_identity_at_zero(hilbert_bundle):
    _, g, factors = hilbert_bundle
    outcome = check_connection_formulas(g, factors, 2, 0)
    assert outcome.passed and outcome.residual == 0


def test_connection_reads_lower_inverse(hilbert_bundle):
    _, g, factors = hilbert_bundle
    polys = primary_family(factors)
    direct = associated_plus(g, 1, 1)
    mix = factors.lower_inv.block(2, 1)[0][0]
    assert mix == 1
    combined = [
        polys[2].coeffs[k][0][0] + mix * (polys[1].coeffs[k][0][0] if k < 2 else 0)
        for k in range(3)
    ]
    assert coeffs_of(direct) == combined
    assert check_connection_formulas(g, factors, 1, 1).residual == 0


def test_connection_identity_moments():
    g = BlockMatrix.identity(1, 5)
    factors = lu_factorize(g)
    for level in range(1, 3):
        for j in range(level + 1):
            assert check_connection_formulas(g, factors, level, j).residual == 0


def test_corrected_minus_pairing(legendre_bundle):
    # pairing the minus family against the duals reads off a row of the
    # inverse upper factor at index level - j
    _, g, factors = legendre_bundle
    forms = dual_family(factors)
    level, j = 3, 2
    minus = associated_minus(g, level, j)
    for k in range(level + 1):
        expected = factors.upper_inv.block(level - j, k)
        assert pair_poly_form(g, minus, forms[k]) == [list(r) for r in expected]


def test_modified_orthogonality_examples(hilbert_bundle):
    _, g, _ = hilbert_bundle
    assert check_modified_orthogonality(g, 1, 1).residual == 0
    assert check_modified_orthogonality(g, 0, 0).passed  # vacuous plus constraints
    with pytest.raises(ValueError):
        check_modified_orthogonality(g, 0, 2)  # minus family undefined for j > l


def test_matrix_notation_agreement(mg12_bundle):
    _, g, factors = mg12_bundle
    for level in range(1, 6):
        outcome = check_matrix_notation(g, factors, level)
        assert outcome.passed and outcome.residual == 0


def test_plus_family_monic_of_stated_degree(mgn2_bundle):
    _, g, _ = mgn2_bundle
    for level in range(3):
        for j in range(3):
            p = associated_plus(g, level, j)
            assert is_monic(p) and p.degree() == level + j


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_plus_families_at_level_zero_match_the_oracle(backend):
    config = dataclasses.replace(builtin_config("multigraded-n2"), backend=backend)
    g = build_moment_matrix(config.family(), config.truncation)
    for j in range(4):
        expected = level_zero_plus(g.n, j, backend)
        for build in (associated_plus, dual_associated_plus):
            got = build(g, 0, j)
            assert [typed(c) for c in got.coeffs] == [typed(c) for c in expected.coeffs]


@pytest.mark.parametrize("case", ["legendre", "multigraded-n2"])
def test_float_families_and_checks_hold_only_floats(monkeypatch, case):
    """Padding, identities and targets take the run's backend: every block a
    float check subtracts, and every associated coefficient, is all floats."""
    config = dataclasses.replace(builtin_config(case), backend="float")
    g = build_moment_matrix(config.family(), config.truncation)
    factors = lu_factorize(g)
    kinds = set()
    entry_types = lambda m: {type(v) for row in m for v in row}
    builders = (associated_plus, associated_minus, dual_associated_plus, dual_associated_minus)

    def recorded(a, b):
        kinds.update(entry_types(a) | entry_types(b))
        return mat_sub(a, b)

    monkeypatch.setattr(numerics, "mat_sub", recorded)
    check_biorthogonality(g, factors)
    for level in range(1, g.nrows - 3):
        check_matrix_notation(g, factors, level)
        for j in range(min(level, 3) + 1):
            check_connection_formulas(g, factors, level, j)
            check_modified_orthogonality(g, level, j)
            for build in builders:
                kinds.update(t for c in build(g, level, j).coeffs for t in entry_types(c))
    assert kinds == {float}


def test_poly_residual_pads_with_the_other_side_and_keeps_nan():
    nan = float("nan")
    one = MatrixPolynomial.of(1, [[[1.0]]])
    assert poly_residual(MatrixPolynomial.of(1, [[[1.0]], [[-3.0]]]), one) == 3.0
    assert poly_residual(one, MatrixPolynomial.of(1, [[[1.0]], [[0.0]], [[-2.5]]])) == 2.5
    assert poly_residual(MatrixPolynomial.of(1, []), MatrixPolynomial.of(1, [])) == 0
    for p in ([[[nan]], [[2.0]]], [[[1.0]], [[nan]]], [[[0.0]], [[5.0]], [[nan]]]):
        assert math.isnan(poly_residual(MatrixPolynomial.of(1, p), one))


def test_forms_share_the_polynomial_container():
    assert LinearForm is MatrixPolynomial
    assert form_residual is poly_residual


def built(build, *args):
    """build(*args), or the level of the singular leading minor it met."""
    try:
        return build(*args)
    except SingularLeadingMinorError as exc:
        return "singular at %d" % exc.level


def transposed_blocks(p):
    if isinstance(p, str):
        return p
    return MatrixPolynomial.of(p.n, [mat_transpose(c) for c in p.coeffs])


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_dual_associated_families_are_the_transposed_problem(backend):
    config = dataclasses.replace(builtin_config("multigraded-n2"), backend=backend)
    g = build_moment_matrix(config.family(), config.truncation)
    gt = g.transpose()
    assert gt != g
    for level in range(g.nrows):
        for j in range(g.nrows - level):
            assert built(dual_associated_plus, g, level, j) == transposed_blocks(
                built(associated_plus, gt, level, j)
            )
        for j in range(level + 1):
            assert built(dual_associated_minus, g, level, j) == transposed_blocks(
                built(associated_minus, gt, level, j)
            )


def test_dual_associated_range_checks(hilbert_bundle):
    _, g, _ = hilbert_bundle
    for bad in ((g.nrows - 1, 1), (-1, 0), (1, -1)):
        with pytest.raises(ValueError, match="l \\+ j < truncation"):
            dual_associated_plus(g, *bad)
    with pytest.raises(ValueError, match="l \\+ 1 <= truncation"):
        dual_associated_minus(g, g.nrows, 0)
    with pytest.raises(ValueError, match="0 <= j <= l"):
        dual_associated_minus(g, 1, 2)


def running_pairing(n, lefts, rights):
    """Oracle: add each plain product to an exact zero, one at a time."""
    acc = mat_zeros(n, n)
    for a, b in zip(lefts, rights):
        acc = mat_add(acc, sum_of_products(a, b))
    return acc


@pytest.mark.parametrize("case", ["legendre", "multigraded-n2"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_moment_pairings_match_the_running_sum(case, backend):
    config = dataclasses.replace(builtin_config(case), backend=backend)
    g = build_moment_matrix(config.family(), 6)
    factors = lu_factorize(g)
    polys, forms = primary_family(factors), dual_family(factors)
    for p, f in zip(polys, forms):
        top = range(len(p.coeffs))
        for k in range(g.nrows):
            want = running_pairing(g.n, p.coeffs, [g.block(t, k) for t in top])
            assert typed(poly_against_weight(g, p, k)) == typed(want)
            want = running_pairing(g.n, [g.block(k, s) for s in top], f.coeffs)
            assert typed(form_against_monomial(g, k, f)) == typed(want)
        moments = [form_against_monomial(g, t, f) for t in range(g.nrows)]
        for q in polys:
            want = running_pairing(g.n, q.coeffs, moments)
            assert typed(pair_with_moments(q, moments, g.backend)) == typed(want)


@pytest.mark.parametrize("case", ["legendre", "multigraded-12", "multigraded-n2"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_form_values_match_the_running_sum(case, backend):
    """eval_form adds rho_j(x) @ coeffs[j] over the nonzero blocks, in order,
    to a zero of the backend; by type and repr."""
    config = dataclasses.replace(builtin_config(case), backend=backend)
    fam = config.family()
    forms = dual_family(lu_factorize(build_moment_matrix(fam, 8)))
    for x in (Fraction(1, 7), Fraction(3, 7), Fraction(6, 7)):
        x = as_backend(x, backend)
        for f in forms:
            acc = mat_zeros(f.n, f.n, backend)
            for j, d in enumerate(f.coeffs):
                if any(v != 0 for row in d for v in row):
                    acc = mat_add(acc, sum_of_products(fam.eval_weight(j, x), d))
            assert typed(eval_form(f, fam, x)) == typed(acc)


def test_moment_pairings_start_from_an_exact_zero():
    # Int operands still pair to Fractions; a -0.0 product still sums to 0.0.
    lam = shift_power((1,), 3)
    p = MatrixPolynomial.of(1, [[[1]], [[2]]])
    got = poly_against_weight(lam, p, 1)
    assert typed(got) == typed([[Fraction(1)]])
    g = BlockMatrix(1, [[[[1.0]]]])
    assert typed(poly_against_weight(g, MatrixPolynomial.of(1, [[[-0.0]]]), 0)) == typed([[0.0]])


@pytest.mark.parametrize(
    "case,backend",
    [(c, b) for c in ("legendre", "multigraded-12", "multigraded-n2") for b in ("exact", "float")]
    + [("hermite", "float")],
)
def test_combined_routes_match_the_per_term_loop(monkeypatch, case, backend):
    """Each coefficient of a combination is one block sum over the terms that
    have it, in order: by type and repr, the per-term loop's value.  The dual
    routes multiply stored form coefficients on the right."""
    combined, sides = [], set()

    def recorded(terms, backend, right=False, _fn=families._combine):
        terms = list(terms)
        sides.add(right)
        combined.append((_fn(terms, backend, right), term_combine(terms, right)))
        return combined[-1][0]

    monkeypatch.setattr(families, "_combine", recorded)
    config = dataclasses.replace(
        builtin_config(case), backend=backend, checks=("matrix-notation", "connection")
    )
    run(config)
    assert len(combined) > 2 * len(config.levels)
    assert sides == {False, True}
    for got, want in combined:
        assert [typed(c) for c in got.coeffs] == [typed(c) for c in want.coeffs]


# Finite floats: thirds and sevenths, three draws in five, whose sums round
# differently in another order; -0.0; and any other finite 64-bit float.
_ratios = st.builds(float.__truediv__, st.integers(-999, 999).map(float), st.sampled_from([3.0, 7.0]))
finite_floats = st.one_of(
    *[_ratios] * 3, st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def combine_terms(draw):
    """(backend, terms): one to three (factor, member) terms of one block
    size, members of one to four coefficients.  Float factors are floats, so
    every product is a float, and a float member's blocks may be int blocks."""
    backend, n = draw(st.sampled_from([EXACT, FLOAT])), draw(st.integers(1, 3))
    if backend == EXACT:
        factors = blocks = matrices(n, n, exact_scalars)
    else:
        factors = matrices(n, n, finite_floats)
        blocks = factors | matrices(n, n, st.integers(-9, 9))
    members = st.lists(blocks, min_size=1, max_size=4).map(lambda cs: MatrixPolynomial.of(n, cs))
    return backend, draw(st.lists(st.tuples(factors, members), min_size=1, max_size=3))


@given(case=combine_terms(), right=st.booleans())
def test_combine_is_the_per_term_loop_on_drawn_terms(case, right):
    """One zero-padded block sum gives, by type and repr, the sum of the
    terms each coefficient has: a padded float product adds +0.0 to a sum
    that is never -0.0."""
    backend, terms = case
    got, want = families._combine(terms, backend, right), term_combine(terms, right)
    assert [typed(c) for c in got.coeffs] == [typed(c) for c in want.coeffs]


def _functions(path) -> dict:
    """name -> FunctionDef node, for every function and method of a module."""
    tree = ast.parse(pathlib.Path(path).read_text())
    return {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}


def _called(function) -> set:
    return {
        c.func.id for c in ast.walk(function)
        if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
    }


def test_each_backend_has_one_product_path():
    """`_combine` compares no backend, exact `BlockMatrix.matmul` is one
    `_dots`, and `numerics.product_gaps` is the only chained product: no
    `product_rows`, and nothing else calls `_span`."""
    package = pathlib.Path(families.__file__).parent
    combine = _functions(families.__file__)["_combine"]
    compared = {
        name.id for node in ast.walk(combine) if isinstance(node, ast.Compare)
        for name in ast.walk(node) if isinstance(name, ast.Name)
    }
    assert not compared & {"backend", "EXACT", "FLOAT"}
    assert "_dots" in _called(_functions(package / "blockops.py")["matmul"])
    assert "product_rows" not in _functions(numerics.__file__)
    spans = {
        name
        for module in sorted(package.glob("*.py"))
        for name, function in _functions(module).items()
        if "_span" in _called(function)
    }
    assert spans == {"product_gaps"}
