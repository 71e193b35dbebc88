"""Kept integer forms of exact operands.

An exact product scales every row of its left operand and every column of
its right operand to integers.  Operands that a run reads many times keep
that form on their owner (`integer_row`, `integer_col`) and pass it to
`block_sum`.  These tests pin the products against the plain
ones, floats bit for bit against the products as they were before kept forms
existed, and count how often a run scales each owner's operand.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mghankel import harness, numerics
from mghankel.blockops import build_moment_matrix, partition
from mghankel.factorize import lu_factorize
from mghankel.families import (
    associated_minus,
    associated_plus,
    dual_associated_minus,
    dual_associated_plus,
    dual_family,
    primary_family,
)
from mghankel.harness import builtin_config
from mghankel.numerics import (
    EXACT,
    FLOAT,
    block_sum,
    integer_col,
    integer_row,
    mat_zeros,
)

from conftest import (
    blockwise_sum,
    exact_scalars,
    ieee_floats,
    matrices,
    sum_of_products,
    typed,
)

# Float products ignore kept forms and must match, bit for bit, the plain
# products of conftest (`sum_of_products`, `blockwise_sum`): the products
# as they were before kept forms existed.


def bits(m) -> list:
    """Entries by type and repr, so -0.0 and NaN compare as themselves."""
    return [[(type(v), repr(v)) for v in row] for row in m]


@st.composite
def block_pairs(draw, scalars=exact_scalars):
    """(n, lefts, rights, extra): pairs of n x n blocks, and one more block per side."""
    n, count = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    block = matrices(n, n, scalars)
    lefts = [draw(block) for _ in range(count)]
    rights = [draw(block) for _ in range(count)]
    return n, lefts, rights, (draw(block), draw(block))


@given(block_pairs(), st.integers(0, 3))
def test_kept_forms_give_the_plain_exact_sum(pairs, lead):
    """A kept form may cover more pairs than the sum: leading pairs whose
    product is zero, or a longer stack on one side, each dot stopping at the
    shorter vector."""
    n, lefts, rights, (extra_left, extra_right) = pairs
    expected = block_sum(n, lefts, rights, EXACT)
    assert all(type(v) is Fraction for row in expected for v in row)
    zero = mat_zeros(n, n)
    padded_lefts = [extra_left] * lead + lefts
    padded_rights = [zero] * lead + rights
    rows, cols = integer_row(padded_lefts, EXACT), integer_col(padded_rights, EXACT)
    longer_rows = integer_row(padded_lefts + [extra_left], EXACT)
    longer_cols = integer_col(padded_rights + [extra_right], EXACT)
    one_side = integer_row(lefts, EXACT), integer_col(rights + [extra_right], EXACT)
    for r, c in (
        (rows, cols),
        (rows, longer_cols),
        (longer_rows, cols),
        (one_side[0], None),
        (None, one_side[1]),
    ):
        assert typed(block_sum(n, lefts, rights, EXACT, r, c)) == typed(expected)
    a, b = lefts[0], rights[0]
    product = sum_of_products(a, b, Fraction(0))
    kept_a, kept_b = integer_row([a], EXACT), integer_col([b, extra_right], EXACT)
    assert typed(block_sum(n, [a], [b], EXACT, kept_a, kept_b)) == typed(product)
    assert typed(block_sum(n, [a], [b], EXACT, cols=kept_b)) == typed(product)


@given(block_pairs(ieee_floats))
def test_floats_ignore_kept_forms_and_keep_their_bits(pairs):
    n, lefts, rights, _ = pairs
    rows, cols = integer_row(lefts, FLOAT), integer_col(rights, FLOAT)
    assert rows is None and cols is None
    expected = blockwise_sum(lefts, rights)
    assert bits(block_sum(n, lefts, rights, FLOAT, rows, cols)) == bits(expected)
    a, b = lefts[0], rights[0]
    assert bits(block_sum(n, [a], [b], FLOAT, rows, cols)) == bits(sum_of_products(a, b))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[matrices(n, n, ieee_floats)] * 2)))
def test_one_float_pair_is_its_plain_product(pair):
    """One pair skips the fold: its plain product is 0 + p_0 bit for bit."""
    a, b = pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_fold_dots", None)
        got = block_sum(len(a), [a], [b], FLOAT)
    assert bits(got) == bits(blockwise_sum([a], [b])) == bits(sum_of_products(a, b))


def test_float_runs_never_read_the_operands_of_a_form():
    def unread():
        raise AssertionError("a float form read its operand")
        yield

    assert integer_row(unread(), FLOAT) is None and integer_col(unread(), FLOAT) is None


def test_a_float_in_an_exact_product_with_kept_forms_raises_type_error():
    a = [[Fraction(1, 3), 0.25]]
    b = [[Fraction(2)], [Fraction(1, 5)]]
    with pytest.raises(TypeError, match="float"):
        integer_row([a], EXACT)
    with pytest.raises(TypeError, match="float"):
        integer_col([a], EXACT)
    kept_b = integer_col([b], EXACT)
    with pytest.raises(TypeError, match="float"):
        block_sum(1, [a], [b], EXACT, cols=kept_b)
    with pytest.raises(TypeError, match="float"):
        block_sum(1, [[[0.5]]], [[[Fraction(1, 2)]]], EXACT, cols=integer_col([[[1]]], EXACT))


# ---------------------------------------------------------------------------
# Each owner's operand is scaled at most once per run.
# ---------------------------------------------------------------------------


def _key(vector) -> tuple:
    vector = tuple(vector)
    return tuple(map(type, vector)), vector


def _owned_vectors(config) -> Counter:
    """Every vector longer than one block of the operands whose owners keep
    an integer form, by content, counted once per owner: the dense rows and
    columns of g and of the four factors, the coefficients of each
    polynomial side by side and of each dual form stacked (the associated
    members of every (level, j) of the associated checks included), and
    the tiles of each level's partition form."""
    g = build_moment_matrix(config.family(), config.truncation)
    factors = lu_factorize(g)
    owned = []
    for m in (g, factors.lower, factors.lower_inv, factors.upper, factors.upper_inv):
        dense = m.to_dense()
        owned += [*dense, *zip(*dense)]
    polys, forms = list(primary_family(factors)), list(dual_family(factors))
    members = set()  # (level, j) of the associated checks and of the associated form
    for level in config.levels:
        members.update((level, j) for j in range(min(level, 3, config.truncation - 1 - level) + 1))
        if level >= config.max_shift():
            members.update((level, j) for j in range(config.max_shift()))
            members.update((level - 1, j) for j in range(config.max_shift()))
    for level, j in sorted(members):
        polys += [associated_plus(g, level, j), associated_minus(g, level, j)]
        forms += [dual_associated_plus(g, level, j), dual_associated_minus(g, level, j)]
    for p in polys:
        owned += [[x for c in p.coeffs for x in c[r]] for r in range(p.n)]
    for f in forms:
        owned += zip(*[row for c in f.coeffs for row in c])
    for level in config.levels:
        parts = partition(g, level)
        owned += zip(*parts.tr.to_dense())
        owned += parts.bl.to_dense()
    return Counter(_key(v) for v in owned if len(v) > g.n)


def test_a_run_scales_each_owned_operand_at_most_once(monkeypatch):
    """Exact multigraded-n2 with every check: no vector of an owner's operand
    is scaled more often than there are owners holding it."""
    config = builtin_config("multigraded-n2")
    owned = _owned_vectors(config)
    scaled = Counter()

    def counted(vectors, _fn=numerics._integer_vectors):
        vectors = [tuple(v) for v in vectors]
        scaled.update(map(_key, vectors))
        return _fn(vectors)

    monkeypatch.setattr(numerics, "_integer_vectors", counted)
    report = harness.run(config)
    assert all(e.status in ("pass", "skipped") for e in report.entries)
    over = {key: (scaled[key], owners) for key, owners in owned.items() if scaled[key] > owners}
    assert not over, "%d owned vectors scaled too often, e.g. %s" % (
        len(over),
        sorted(over.values(), reverse=True)[:5],
    )
    assert sum(owned[key] for key in scaled) > 0
