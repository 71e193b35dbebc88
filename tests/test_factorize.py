import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mghankel import factorize, numerics
from mghankel.blockops import BlockMatrix, build_moment_matrix
from mghankel.factorize import (
    LOWER,
    UPPER,
    factorization_residual,
    invert_block_triangular,
    lu_factorize,
    nested_truncation_residual,
)
from mghankel.families import check_biorthogonality
from mghankel.harness import BUILTIN_CASES, builtin_config
from mghankel.numerics import (
    SingularLeadingMinorError,
    invert_dense,
    mat_scale,
    mat_sub,
    mat_zeros,
    matrix_residual_norm,
)
from mghankel.weights import WeightFamily

from conftest import (
    block_doolittle,
    blockwise_sum,
    dense_biorthogonality,
    dense_factorization_residual,
    dense_nested_truncation_residual,
    dense_product,
    drawn_configs,
    exact_scalars,
    ieee_floats,
    interval_seed,
    matrices,
    sum_of_products,
    typed,
)

F = Fraction


def scalar_block(rows):
    return BlockMatrix(1, [[[[v]] for v in row] for row in rows])


def test_hilbert_two_by_two():
    g = scalar_block([[1, F(1, 2)], [F(1, 2), F(1, 3)]])
    factors = lu_factorize(g)
    assert factors.lower == scalar_block([[1, 0], [F(-1, 2), 1]])
    assert factors.upper == scalar_block([[1, F(1, 2)], [0, F(1, 12)]])
    assert factorization_residual(g, factors) == 0


def test_multigraded_normalizations(spec_mg_family):
    g = build_moment_matrix(spec_mg_family, 3)
    factors = lu_factorize(g)
    diag = [factors.normalization(k)[0][0] for k in range(3)]
    assert diag == [1, F(1, 12), F(-1, 180)]


def test_identity_fixed_point():
    g = BlockMatrix.identity(2, 3)
    factors = lu_factorize(g)
    assert factors.lower == g and factors.upper == g


def test_invert_unit_lower():
    t = scalar_block([[1, 0], [F(-1, 2), 1]])
    assert invert_block_triangular(t, LOWER) == scalar_block([[1, 0], [F(1, 2), 1]])


def test_invert_upper_back_substitution():
    t = scalar_block([[1, F(1, 2)], [0, F(1, 12)]])
    assert invert_block_triangular(t, UPPER) == scalar_block([[1, -6], [0, 12]])


def test_invert_identity():
    eye = BlockMatrix.identity(2, 3)
    assert invert_block_triangular(eye, LOWER) == eye
    assert invert_block_triangular(eye, UPPER) == eye


def test_invert_reports_singular_diagonal():
    t = scalar_block([[1, 0], [2, 0]])
    with pytest.raises(SingularLeadingMinorError) as info:
        invert_block_triangular(t, LOWER)
    assert info.value.level == 1


def test_factors_shape_invariants(legendre_bundle):
    _, g, factors = legendre_bundle
    for i in range(g.nrows):
        assert factors.lower.block(i, i) == BlockMatrix.identity(1, 1).block(0, 0)
        for j in range(i + 1, g.ncols):
            assert factors.lower.block(i, j) == ((0,),)
            assert factors.upper.block(j, i) == ((0,),)


def test_biorthogonality_in_matrix_form(legendre_bundle):
    _, g, factors = legendre_bundle
    product = factors.lower.matmul(g).matmul(factors.upper_inv)
    assert product == BlockMatrix.identity(1, g.nrows)


def test_nested_consistency(mg12_bundle):
    _, g, factors = mg12_bundle
    residual, _ = nested_truncation_residual(g, factors)
    assert residual == 0
    # cached inverses truncate consistently too
    for level in (2, 5, 8):
        rows = range(level)
        assert factors.lower_inv.slice(rows, rows) == invert_block_triangular(
            factors.lower.slice(rows, rows), LOWER
        )
        tail = range(level, g.nrows)
        assert factors.upper_inv.slice(tail, tail) == invert_block_triangular(
            factors.upper.slice(tail, tail), UPPER
        )


def reinverted_truncation_residual(g, factors):
    """Oracle: re-invert every leading truncation of `lower` from scratch."""
    worst, worst_level = 0, None
    for level in range(1, g.nrows + 1):
        rows = range(level)
        inverse = invert_block_triangular(factors.lower.slice(rows, rows), LOWER)
        product = inverse.matmul(factors.upper.slice(rows, rows)).to_dense()
        res = matrix_residual_norm(mat_sub(product, g.slice(rows, rows).to_dense()))
        if res > worst:
            worst, worst_level = res, level
    return worst, worst_level


def case_bundle(case, backend):
    config = dataclasses.replace(builtin_config(case), backend=backend)
    g = build_moment_matrix(config.family(), config.truncation)
    return g, lu_factorize(g)


@pytest.mark.parametrize("case,level", [("legendre", 8), ("multigraded-n2", 10)])
def test_nested_truncation_matches_reinversion_in_float(case, level):
    g, factors = case_bundle(case, "float")
    residual, worst_level = nested_truncation_residual(g, factors)
    assert residual > 0
    assert (residual, worst_level) == reinverted_truncation_residual(g, factors)
    assert worst_level == level


@pytest.mark.parametrize(
    "case,block,level", [("legendre", (2, 0), 6), ("multigraded-n2", (1, 0), 4)]
)
def test_nested_truncation_matches_reinversion_with_perturbed_lower(case, block, level):
    g, factors = case_bundle(case, "exact")
    blocks = [list(row) for row in factors.lower.blocks]
    i, j = block
    blocks[i][j] = [[v + 1 for v in row] for row in blocks[i][j]]
    perturbed = dataclasses.replace(factors, lower=BlockMatrix(g.n, blocks))
    residual, worst_level = nested_truncation_residual(g, perturbed)
    assert residual != 0
    assert (residual, worst_level) == reinverted_truncation_residual(g, perturbed)
    assert worst_level == level


@pytest.mark.parametrize("backend,products", [("exact", 1), ("float", 2)])
def test_factorization_check_forms_lower_inv_times_upper_once(monkeypatch, backend, products):
    """Exact checks settle lower_inv @ upper against g once, on integers, for
    both residuals: they never re-invert lower, form no `BlockMatrix.matmul`
    and, on a passing built-in, build no Fraction.  Float factors form two
    products with upper and re-invert lower once."""
    g, factors = case_bundle("multigraded-n2", backend)
    chains, products_formed, inversions, fractions = [], [], [], []
    real_gaps, real_matmul, real_fraction = BlockMatrix.gaps, BlockMatrix.matmul, numerics.fraction

    def gaps(self, others, target=None):
        chains.append(self is factors.lower_inv and others == [factors.upper])
        return real_gaps(self, others, target)

    def matmul(self, other):
        products_formed.append(other is factors.upper)
        return real_matmul(self, other)

    def fraction(n, d):
        fractions.append((n, d))
        return real_fraction(n, d)

    def inverted(t, orientation, _fn=factorize.invert_block_triangular):
        inversions.append(t is factors.lower)
        return _fn(t, orientation)

    monkeypatch.setattr(BlockMatrix, "gaps", gaps)
    monkeypatch.setattr(BlockMatrix, "matmul", matmul)
    monkeypatch.setattr(numerics, "fraction", fraction)
    monkeypatch.setattr(factorize, "invert_block_triangular", inverted)
    residuals = factorization_residual(g, factors), nested_truncation_residual(g, factors)[0]
    if backend == "exact":
        assert residuals == (0, 0) and check_biorthogonality(g, factors).residual == 0
        assert sum(chains) == products and products_formed == [] and inversions == []
        assert fractions == []
    else:
        assert sum(products_formed) == products and inversions == [True]


@pytest.mark.parametrize("case", ["legendre", "multigraded-n2"])
@pytest.mark.parametrize("name", ["g", "lower_inv", "upper", "lower", "upper_inv"])
@pytest.mark.parametrize("block", [(3, 1), (2, 2), (1, 3)], ids=["below", "on", "above"])
def test_integer_gaps_equal_the_dense_route(monkeypatch, case, name, block):
    """One entry of g or of a factor moved, in a block below, on or above the
    block diagonal, so also in a block that is zero by structure: every
    residual and location the checks settle on integers equals the dense
    route's, so the dot ranges come from the data, not from the orientation.
    Each product entry that differs from its target builds one Fraction."""
    config = builtin_config(case)
    g = build_moment_matrix(config.family(), 5)
    factors = lu_factorize(g)
    i, j = block
    matrix = g if name == "g" else getattr(factors, name)
    blocks = [[[list(row) for row in blk] for blk in row] for row in matrix.blocks]
    blocks[i][j][-1][0] += Fraction(1, 3)
    moved = BlockMatrix(g.n, blocks)
    if name == "g":
        g = moved
    else:
        factors = dataclasses.replace(factors, **{name: moved})
    fractions, real_fraction = [], numerics.fraction

    def fraction(n, d):
        fractions.append((n, d))
        return real_fraction(n, d)

    monkeypatch.setattr(numerics, "fraction", fraction)
    residual = factorization_residual(g, factors)
    outcome = check_biorthogonality(g, factors)
    monkeypatch.undo()
    nested = nested_truncation_residual(g, factors)
    assert residual == dense_factorization_residual(g, factors)
    assert nested == dense_nested_truncation_residual(g, factors)
    assert (outcome.residual, outcome.worst) == dense_biorthogonality(g, factors)
    assert residual or nested[0] or outcome.residual

    def differing(chain, target):
        pairs = zip(dense_product(chain).to_dense(), target.to_dense())
        return sum(x != y for p, q in pairs for x, y in zip(p, q))

    eye = BlockMatrix.identity(g.n, g.nrows)
    assert len(fractions) == differing([factors.lower_inv, factors.upper], g) + differing(
        [factors.lower, g, factors.upper_inv], eye
    )


def test_nested_truncation_reports_a_nan_border_block():
    config = dataclasses.replace(builtin_config("legendre"), backend="float")
    g = build_moment_matrix(config.family(), 6)
    factors = lu_factorize(g)
    blocks = [list(row) for row in g.blocks]
    blocks[3][2] = [[math.nan]]
    residual, worst_level = nested_truncation_residual(BlockMatrix(1, blocks), factors)
    assert math.isnan(residual) and worst_level == 4


def substitution_inverse(t: BlockMatrix) -> BlockMatrix:
    """Oracle: lower block substitution with blockwise sums of plain products.

    The unused triangle is zero in the operand's backend: float when any
    entry of t is a float.
    """
    n, levels = t.n, t.nrows
    floats = any(isinstance(v, float) for row in t.blocks for b in row for r in b for v in r)
    backend = "float" if floats else "exact"
    inv = [[mat_zeros(n, n, backend) for _ in range(levels)] for _ in range(levels)]
    diag = [invert_dense(t.block(i, i)) for i in range(levels)]
    for i in range(levels):
        inv[i][i] = diag[i]
        for j in range(i - 1, -1, -1):
            ks = range(j, i)
            acc = blockwise_sum([t.block(i, k) for k in ks], [inv[k][j] for k in ks])
            inv[i][j] = sum_of_products(mat_scale(-1, diag[i]), acc)
    return BlockMatrix(n, inv)


@st.composite
def lower_triangular(draw, scalars):
    """Block lower-triangular with diagonally dominant diagonal blocks."""
    n, levels = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    blocks = []
    for i in range(levels):
        row = [draw(matrices(n, n, scalars)) for _ in range(i)]
        diag = draw(matrices(n, n, scalars))
        shrunk = [[v * F(1, 100) for v in x] for x in diag]
        row.append([[v + (4 if r == c else 0) for c, v in enumerate(x)] for r, x in enumerate(shrunk)])
        row += [mat_zeros(n, n) for _ in range(i + 1, levels)]
        blocks.append(row)
    return BlockMatrix(n, blocks)


@pytest.mark.parametrize("scalars", [exact_scalars, st.floats(-10, 10)], ids=["exact", "float"])
@given(data=st.data())
def test_triangular_inverse_matches_substitution_oracle(scalars, data):
    t = data.draw(lower_triangular(scalars))
    for got, want in (
        (invert_block_triangular(t, LOWER), substitution_inverse(t)),
        (invert_block_triangular(t.transpose(), UPPER), substitution_inverse(t).transpose()),
    ):
        assert [[typed(b) for b in row] for row in got.blocks] == [
            [typed(b) for b in row] for row in want.blocks
        ]


@pytest.mark.parametrize("case", ["legendre", "multigraded-n2"])
def test_float_triangular_factors_hold_only_floats(case):
    config = dataclasses.replace(builtin_config(case), backend="float")
    factors = lu_factorize(build_moment_matrix(config.family(), 6))
    for matrix in (factors.lower, factors.upper_inv):
        kinds = {type(v) for row in matrix.blocks for b in row for r in b for v in r}
        assert kinds == {float}


def test_uniqueness_by_refactorization():
    rng = random.Random(11)
    size, blocks = 2, 3
    total = size * blocks
    m = [[F(rng.randint(-4, 4)) for _ in range(total)] for _ in range(total)]
    spd = [
        [sum(m[k][i] * m[k][j] for k in range(total)) + (total if i == j else 0) for j in range(total)]
        for i in range(total)
    ]
    g = BlockMatrix.from_dense(size, spd)
    factors = lu_factorize(g)
    assert factorization_residual(g, factors) == 0
    again = lu_factorize(factors.lower_inv.matmul(factors.upper))
    assert again.lower == factors.lower and again.upper == factors.upper


def test_singular_leading_minor_reported():
    # duplicate seed columns at N=2 force a singular first pivot block
    one = interval_seed(1)
    fam = WeightFamily((1, 1), (1, 1), [[[one], [one]], [[one], [one]]])
    g = build_moment_matrix(fam, 3)
    with pytest.raises(SingularLeadingMinorError) as info:
        lu_factorize(g)
    assert info.value.level == 0


def test_degenerate_two_seed_family_hits_level_four(spec_mg_family):
    # The two-seed example family duplicates its second seed at index 4
    # (x^2 * rho_0 == rho_1), so leading minors of order >= 5 are singular.
    g = build_moment_matrix(spec_mg_family, 10)
    with pytest.raises(SingularLeadingMinorError) as info:
        lu_factorize(g)
    assert info.value.level == 4


def test_float_pivot_threshold_inside_block():
    # the rejection rule is relative to the pivot block's own max-norm
    g = BlockMatrix(2, [[[[1.0, 1.0], [1.0, 1.0 + 1e-13]]]])
    with pytest.raises(SingularLeadingMinorError) as info:
        lu_factorize(g)
    assert info.value.level == 0


def test_float_zero_pivot():
    g = BlockMatrix(1, [[[[1.0]], [[1.0]]], [[[1.0]], [[1.0]]]])
    with pytest.raises(SingularLeadingMinorError) as info:
        lu_factorize(g)
    assert info.value.level == 1


# -- lu_factorize against block Doolittle elimination ------------------------


def outcome(factor, g):
    """The four factors with their entry types, or the singular pivot reported."""
    try:
        factors = factor(g)
    except SingularLeadingMinorError as exc:
        return exc.level, str(exc), repr(exc.__cause__)
    return [
        [[typed(b) for b in row] for row in matrix.blocks]
        for matrix in (factors.lower, factors.lower_inv, factors.upper, factors.upper_inv)
    ]


BUILTIN_BACKENDS = [
    (case, backend)
    for case in BUILTIN_CASES
    for backend in ("exact", "float")
    if (case, backend) != ("hermite", "exact")  # gaussian moments are irrational
]


@pytest.mark.parametrize("case,backend", BUILTIN_BACKENDS)
def test_builtin_factors_match_block_doolittle(case, backend):
    config = dataclasses.replace(builtin_config(case), backend=backend)
    g = build_moment_matrix(config.family(), config.truncation)
    assert outcome(lu_factorize, g) == outcome(block_doolittle, g)


# Ids: the size alone for exact draws, float-<size> for float draws.
DRAWN_SIZES = [
    pytest.param(size, backend, id=str(size) if backend == "exact" else "float-%d" % size)
    for backend in ("exact", "float")
    for size in (1, 2, 3)
]


@pytest.mark.parametrize("size,backend", DRAWN_SIZES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_drawn_factors_match_block_doolittle(size, backend, data):
    config = data.draw(drawn_configs(backend, st.just(size)))
    g = build_moment_matrix(config.family(), config.truncation)
    assert outcome(lu_factorize, g) == outcome(block_doolittle, g)


def ieee_outcome(factor, g):
    """`outcome`, or the arithmetic error that NaN and infinite pivots raise."""
    try:
        return outcome(factor, g)
    except ArithmeticError as exc:
        return repr(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_schur_updates_keep_their_bits_at_ieee_edges(data):
    n, levels = data.draw(st.integers(1, 2)), data.draw(st.integers(2, 3))
    block = matrices(n, n, ieee_floats)
    g = BlockMatrix(n, [[data.draw(block) for _ in range(levels)] for _ in range(levels)])
    assert ieee_outcome(lu_factorize, g) == ieee_outcome(block_doolittle, g)


@st.composite
def block_sparse_matrices(draw):
    """Exact g with at most half of its off-diagonal blocks nonzero, about
    half the entries of those zero, and each diagonal block a permutation
    matrix with nonzero entries, so eliminating it meets many zero
    multipliers; a later pivot block may still be singular."""
    n, levels = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    off = [(i, j) for i in range(levels) for j in range(levels) if i != j]
    filled = draw(st.sets(st.sampled_from(off), max_size=len(off) // 2))
    blocks = [[mat_zeros(n, n) for _ in range(levels)] for _ in range(levels)]
    for i in range(levels):
        for r, c in enumerate(draw(st.permutations(range(n)))):
            blocks[i][i][r][c] = Fraction(draw(exact_scalars.filter(bool)))
    for i, j in filled:
        entries = draw(matrices(n, n, st.just(0) | exact_scalars))
        blocks[i][j] = [[Fraction(v) for v in row] for row in entries]
    return BlockMatrix(n, blocks)


@settings(max_examples=40, deadline=None)
@given(block_sparse_matrices())
def test_block_sparse_factors_match_block_doolittle(g):
    assert outcome(lu_factorize, g) == outcome(block_doolittle, g)


def test_pivot_rows_swap_inside_each_block():
    """Both pivot blocks, [[0, 1], [1, 0]] and the Schur complement
    [[0, 1], [1, 1/2]], need a row swap inside their block."""
    g = BlockMatrix(
        2,
        [
            [[[F(0), F(1)], [F(1), F(0)]], [[F(1), F(2)], [F(3), F(4)]]],
            [[[F(1), F(0)], [F(0), F(1)]], [[F(3), F(5)], [F(2), F(5, 2)]]],
        ],
    )
    factors = lu_factorize(g)
    assert factors.upper.block(1, 1) == ((0, 1), (1, F(1, 2)))
    assert factorization_residual(g, factors) == 0
    assert outcome(lu_factorize, g) == outcome(block_doolittle, g)


def test_exact_factorization_releases_its_block_rows():
    """The Bareiss passes keep their eliminations on g for the solves, but
    not the block-row snapshots the factors are read from; a second
    factorization of g reads the kept factors."""
    g = build_moment_matrix(builtin_config("multigraded-n2").family(), 6)
    first = lu_factorize(g)
    passes = [v for (fn, _), v in g._memo.items() if fn is factorize._bareiss_pass.__wrapped__]
    assert len(passes) == 2 and [heads for heads, _ in passes] == [[], []]
    assert all(elim.n == g.n * g.nrows for _, elim in passes)
    second = lu_factorize(g)
    assert second == first and second is not first and second.lower is first.lower


def test_exact_factorization_inverts_no_triangle(monkeypatch, mgn2_bundle):
    """The exact factors come from the two eliminations alone."""

    def refuse(t, orientation):
        raise AssertionError("invert_block_triangular called")

    monkeypatch.setattr(factorize, "invert_block_triangular", refuse)
    _, g, factors = mgn2_bundle
    assert lu_factorize(g) == factors
