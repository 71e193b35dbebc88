from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mghankel.numerics import (
    DEFAULT_TOLERANCE,
    CheckOutcome,
    ResidualTracker,
    SingularMatrixError,
    Tolerance,
    approx_zero,
    invert_dense,
    mat_eye,
    mat_mul,
    mat_sub,
    matrix_residual_norm,
    parse_rational,
    scalar_str,
    solve_dense,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


def test_approx_zero_exact_zero():
    assert approx_zero(Fraction(0), 1, DEFAULT_TOLERANCE)


def test_approx_zero_exact_cancellation():
    assert approx_zero(Fraction(1, 180) - Fraction(1, 180), 1, DEFAULT_TOLERANCE)


def test_approx_zero_float_below_threshold():
    assert approx_zero(1e-14, 1.0, Tolerance(abs_tol=1e-12, rel_tol=0.0))


def test_approx_zero_exact_nonzero_ignores_tolerance():
    assert not approx_zero(Fraction(1, 10**30), 1, Tolerance(abs_tol=1.0, rel_tol=1.0))


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)


@given(x=st.floats(0, 1e-6), s=st.floats(0, 10), bump=st.floats(0, 1e-3))
def test_approx_zero_monotone_in_tolerance(x, s, bump):
    t1 = Tolerance(1e-9, 1e-9)
    t2 = Tolerance(1e-9 + bump, 1e-9 + bump)
    if approx_zero(x, s, t1):
        assert approx_zero(x, s, t2)


@given(a=rationals, b=rationals, c=rationals)
def test_exact_field_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(a=rationals)
def test_exact_field_inverse(a):
    if a != 0:
        assert a * (1 / a) == 1


def test_residual_norm_zero_matrix():
    assert matrix_residual_norm([[0, 0], [0, 0]]) == 0


def test_residual_norm_max_entry():
    assert matrix_residual_norm([[1, -2], [0, Fraction(1, 2)]]) == 2


def test_residual_norm_identity_difference():
    eye = mat_eye(3)
    assert matrix_residual_norm(mat_sub(eye, eye)) == 0


def test_parse_rational():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(4) == Fraction(4)
    with pytest.raises(ValueError):
        parse_rational(0.5)


def test_scalar_str_exact_zero():
    assert scalar_str(Fraction(0)) == "0"
    assert scalar_str(0) == "0"


def test_solve_dense_exact_hilbert():
    hilbert = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    inv = invert_dense(hilbert)
    assert mat_mul(hilbert, inv) == mat_eye(4)


def test_solve_dense_requires_pivot():
    with pytest.raises(SingularMatrixError):
        solve_dense([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], mat_eye(2))


def test_solve_dense_float_relative_threshold():
    # After eliminating the first row the trailing pivot is ~1e-13 of the
    # matrix scale, which the policy treats as singular.
    with pytest.raises(SingularMatrixError):
        solve_dense([[1.0, 1.0], [1.0, 1.0 + 1e-13]], mat_eye(2, "float"))


def test_solve_dense_zero_off_pivot_stays_exact():
    # Identity systems must not leak floats into exact results.
    sol = solve_dense(mat_eye(2), [[Fraction(1, 3)], [Fraction(2, 5)]])
    assert all(isinstance(v, Fraction) for row in sol for v in row)


def test_tracker_keeps_first_location_of_largest_residual():
    tracker = ResidualTracker()
    for residual, where in ((Fraction(1, 3), "a"), (Fraction(1, 2), "b"), (Fraction(1, 2), "c")):
        tracker.record(residual, 1, where)
    outcome = tracker.result()
    assert (outcome.residual, outcome.worst) == (Fraction(1, 2), "b")
    assert not outcome.passed


def test_tracker_worst_is_none_while_all_residuals_are_zero():
    tracker = ResidualTracker()
    tracker.record(Fraction(0), 1, "a")
    tracker.record(0.0, 1.0, "b")
    assert tracker.result() == CheckOutcome(True, 0, None, ())
    assert scalar_str(tracker.result().residual) == "0"


def test_tracker_verdict_judges_every_residual_against_its_scale():
    tol = Tolerance(abs_tol=0.0, rel_tol=1e-9)
    tracker = ResidualTracker(tol)
    tracker.record(1e-6, 1e6, "large but well scaled")
    assert tracker.passed
    tracker.record(1e-7, 1.0, "small but poorly scaled")
    outcome = tracker.result()
    assert not outcome.passed
    assert (outcome.residual, outcome.worst) == (1e-6, "large but well scaled")


def test_tracker_merge_prefixes_locations_and_collects_notes():
    tracker = ResidualTracker()
    tracker.merge(CheckOutcome(True, 0, None, ("first",)), "l=1")
    tracker.merge(CheckOutcome(False, Fraction(1, 4), "(i=0, j=1)", ("second",)), "l=2")
    tracker.merge(CheckOutcome(False, Fraction(1, 5), None), "l=3")
    assert tracker.result() == CheckOutcome(
        False, Fraction(1, 4), "l=2 (i=0, j=1)", ("first", "second")
    )


def test_tracker_record_gap_scales_by_the_larger_side():
    tracker = ResidualTracker(Tolerance(abs_tol=0.0, rel_tol=1e-3))
    tracker.record_gap([[1000.0]], [[1000.5]], "close")
    assert tracker.passed and tracker.residual == 0.5
    tracker.record_gap([[1.0]], [[1.5]], "far")
    assert not tracker.passed and tracker.worst == "close"
