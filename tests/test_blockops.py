import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mghankel import blockops
from mghankel.blockops import (
    BlockMatrix,
    build_moment_matrix,
    check_multigraded_symmetry,
    partition,
    shift_power,
)
from mghankel.numerics import EXACT, mat_eye, mat_zeros
from mghankel.weights import WeightFamily

from conftest import (
    block_zeros,
    blockwise_matmul,
    ieee_floats,
    interval_seed,
    matrices,
    matrix_unit,
    sum_of_products,
    typed,
    unit_column,
)

F = Fraction


def hilbert_block(size):
    return BlockMatrix(
        1, [[[[F(1, i + j + 1)]] for j in range(size)] for i in range(size)]
    )


def test_moment_matrix_hilbert(legendre_family):
    g = build_moment_matrix(legendre_family, 3)
    assert g == hilbert_block(3)


def test_moment_matrix_multigraded(spec_mg_family):
    g = build_moment_matrix(spec_mg_family, 3)
    expected = [[1, F(1, 3), F(1, 2)], [F(1, 2), F(1, 4), F(1, 3)], [F(1, 3), F(1, 5), F(1, 4)]]
    assert [[g.entry(i, j, 0, 0) for j in range(3)] for i in range(3)] == expected


def test_moment_matrix_single_block(legendre_family):
    g = build_moment_matrix(legendre_family, 1)
    assert g.nrows == g.ncols == 1
    assert g.entry(0, 0, 0, 0) == 1


def test_moment_matrix_rejects_invalid_family():
    bad = WeightFamily((1,), (2,), [[[interval_seed(1)]]])
    with pytest.raises(ValueError):
        build_moment_matrix(bad, 3)


def shift_power_oracle(nvec, total: int) -> BlockMatrix:
    """Block (i, i + n_a) gets E_aa, one component at a time, on int zeros."""
    n = len(nvec)
    blocks = [[[[0] * n for _ in range(n)] for _ in range(total)] for _ in range(total)]
    for i in range(total):
        for a, na in enumerate(nvec):
            if i + na < total:
                blocks[i][i + na][a][a] = 1
    return BlockMatrix(n, blocks)


@pytest.mark.parametrize("nvec", [(1,), (2,), (1, 2), (2, 1), (3, 1, 2)])
def test_shift_tiles_are_tiles_of_the_shift_power(nvec):
    """The kernel evaluator's head x tail tiles, built without the whole power."""
    for total in range(7):
        oracle = shift_power_oracle(nvec, total)
        assert block_typed(shift_power(nvec, total)) == block_typed(oracle)
        for level in range(total + 1):
            head, tail = range(level), range(level, total)
            tile = blockops._shift_tile(nvec, head, tail)
            assert typed(tile) == typed(oracle.slice(head, tail).to_dense())


def test_shift_power_plain():
    lam = shift_power((1,), 3)
    assert [[lam.entry(i, j, 0, 0) for j in range(3)] for i in range(3)] == [
        [0, 1, 0],
        [0, 0, 1],
        [0, 0, 0],
    ]


def test_shift_power_two_components():
    lam = shift_power((1, 2), 4)
    for i in range(4):
        for j in range(4):
            for a in range(2):
                for b in range(2):
                    hit = a == b and j == i + (1 if a == 0 else 2)
                    assert lam.entry(i, j, a, b) == (1 if hit else 0)


def test_shift_power_square():
    lam = shift_power((2,), 3)
    assert [[lam.entry(i, j, 0, 0) for j in range(3)] for i in range(3)] == [
        [0, 0, 1],
        [0, 0, 0],
        [0, 0, 0],
    ]


def test_symmetry_of_multigraded_moments(spec_mg_family):
    g = build_moment_matrix(spec_mg_family, 6)
    outcome = check_multigraded_symmetry(g, (1,), (2,))
    assert outcome.passed and outcome.residual == 0


def test_symmetry_hankel_matrix():
    outcome = check_multigraded_symmetry(hilbert_block(4), (1,), (1,))
    assert outcome.passed and outcome.residual == 0


def test_symmetry_violation_located():
    outcome = check_multigraded_symmetry(hilbert_block(4), (2,), (1,))
    assert not outcome.passed
    assert outcome.residual == F(1, 6)  # |g[2,0] - g[0,1]| = |1/3 - 1/2|
    assert outcome.notes and "(i=0, j=0" in outcome.notes[0]


def test_partition_degenerate_levels():
    g = hilbert_block(3)
    low = partition(g, 0)
    assert low.tl.nrows == 0 and low.br == g
    high = partition(g, 3)
    assert high.tl == g and high.br.nrows == 0


def test_partition_tiles():
    g = hilbert_block(3)
    p = partition(g, 2)
    assert p.tl == hilbert_block(2)
    assert [p.tr.entry(i, 0, 0, 0) for i in range(2)] == [F(1, 3), F(1, 4)]
    assert [p.bl.entry(0, j, 0, 0) for j in range(2)] == [F(1, 3), F(1, 4)]
    assert p.br.entry(0, 0, 0, 0) == F(1, 5)


def test_partition_out_of_range():
    with pytest.raises(ValueError):
        partition(hilbert_block(3), 4)


def test_unit_vectors():
    e1 = unit_column(2, 3, 1)
    assert e1.block(1, 0) == ((1, 0), (0, 1))
    assert e1.block(0, 0) == ((0, 0), (0, 0))
    assert e1.transpose().matmul(e1) == BlockMatrix.identity(2, 1)
    e0 = unit_column(2, 3, 0)
    assert e0.transpose().matmul(e1) == block_zeros(2, 1, 1)
    e_aa = matrix_unit(2, 1)
    assert sum_of_products(e_aa, e_aa) == [[0, 0], [0, 1]]
    assert sum_of_products(matrix_unit(2, 0), e_aa) == [[0, 0], [0, 0]]


def chi1_blocks(x, count, size=1):
    return [[[x**i if r == c else 0 for c in range(size)] for r in range(size)] for i in range(count)]


def test_eigenvalue_property_monomials():
    nvec = (1, 2)
    total = 6
    lam = shift_power(nvec, total)
    x = F(2, 5)
    chi = chi1_blocks(x, total, 2)
    interior = total - max(nvec)
    for i in range(interior):
        shifted = [[sum(lam.entry(i, j, a, b) * chi[j][b][c] for j in range(total) for b in range(2))
                    for c in range(2)] for a in range(2)]
        expected = [[x ** nvec[a] * chi[i][a][c] for c in range(2)] for a in range(2)]
        assert shifted == expected


def test_eigenvalue_property_weights(mgn2_bundle):
    # Componentwise: applying the column-shift power to the weight blocks
    # multiplies entry (a, b) by x^{n_a}; in the transposed storage of the
    # weight vector this is right-multiplication by diag(x^{n_a}).
    fam, g, _ = mgn2_bundle
    total = 6
    lam = shift_power(fam.mvec, total)
    x = F(3, 7)
    chi2 = [[[fam.eval_weight(j, x)[a][b] for a in range(2)] for b in range(2)] for j in range(total)]
    # chi2[j][r][c] holds the transposed weight block: rho_j(x)^T
    interior = total - max(fam.mvec)
    for jj in range(interior):
        shifted = [[sum(lam.entry(jj, k, r, s) * chi2[k][s][c] for k in range(total) for s in range(2))
                    for c in range(2)] for r in range(2)]
        expected = [[chi2[jj][r][c] * x ** fam.nvec[c] for c in range(2)] for r in range(2)]
        assert shifted == expected


def test_shift_tail_is_sum_of_unit_outer_products():
    # The [l, >=l] slice of a plain shift power of exponent n collapses to
    # unit-vector outer products once l >= n.
    n, total = 2, 7
    for level in range(n, total - n):
        tail = shift_power((n,), total).slice(range(level), range(level, total))
        expected = [[0] * (total - level) for _ in range(level)]
        for j in range(n):
            expected[level - n + j][j] = 1
        got = [[tail.entry(i, j, 0, 0) for j in range(total - level)] for i in range(level)]
        assert got == expected


def test_block_roundtrip_dense():
    g = hilbert_block(3)
    assert BlockMatrix.from_dense(1, g.to_dense()) == g


def test_maxnorm_propagates_nan():
    blocks = [[[[1.0]], [[math.nan]]], [[[5.0]], [[2.0]]]]
    assert math.isnan(BlockMatrix(1, blocks).maxnorm())
    assert BlockMatrix(1, [[[[Fraction(-3, 2)]], [[1]]], [[[0]], [[1]]]]).maxnorm() == Fraction(3, 2)


def test_maxnorm_is_cached_and_matches_a_fresh_matrix(mgn2_bundle):
    _, g, _ = mgn2_bundle
    first = g.maxnorm()
    assert g.maxnorm() is first
    assert BlockMatrix(g.n, g.blocks).maxnorm() == first


def test_backend_is_scanned_once_per_matrix(monkeypatch, mgn2_bundle):
    _, g, _ = mgn2_bundle
    exact = BlockMatrix(g.n, g.blocks)
    scans = []
    monkeypatch.setattr(blockops, "has_float", lambda *m: scans.append(m) or False)
    assert [exact.backend for _ in range(3)] == ["exact"] * 3
    assert len(scans) == 1


@st.composite
def block_products(draw, block):
    n = draw(st.integers(1, 2))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))
    grid = lambda r, c: [[draw(block(n)) for _ in range(c)] for _ in range(r)]
    return BlockMatrix(n, grid(rows, inner)), BlockMatrix(n, grid(inner, cols))


def exact_block(n):
    return matrices(n, n)


def float_or_exact_block(n):
    # Float runs multiply float blocks against exact zero, identity and int
    # blocks; float entries include NaN, the infinities and -0.0.
    return (
        matrices(n, n, ieee_floats)
        | st.just(mat_zeros(n, n))
        | st.just(mat_eye(n))
        | st.just(mat_zeros(n, n, "float"))
        | matrices(n, n, st.integers(-3, 3))
    )


def block_typed(m: BlockMatrix) -> list:
    return [[typed(blk) for blk in row] for row in m.blocks]


def test_gaps_refuse_a_chain_that_does_not_multiply_to_its_target():
    square, wide = block_zeros(1, 2, 2), block_zeros(1, 2, 3)
    for others, target in (([wide], None), ([wide], square), ([wide, square], square)):
        with pytest.raises(ValueError, match="incompatible block shapes"):
            square.gaps(others, target)
    assert square.gaps([wide], block_zeros(1, 2, 3)) == [[0, 0, 0], [0, 0, 0]]
    assert square.gaps([square]) == [[1, 0], [0, 1]]


@given(block_products(exact_block))
def test_exact_block_product_matches_blockwise_oracle(operands):
    p, q = operands
    assert block_typed(p.matmul(q)) == block_typed(blockwise_matmul(p, q, Fraction(0)))


@given(block_products(float_or_exact_block))
def test_float_block_product_is_bit_identical_to_blockwise_oracle(operands):
    p, q = operands
    # Operands drawn without a float multiply exactly, into Fractions.
    start = Fraction(0) if p.backend == q.backend == EXACT else 0
    assert block_typed(p.matmul(q)) == block_typed(blockwise_matmul(p, q, start))
