import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from mghankel.numerics import EXACT, FLOAT
from mghankel.weights import (
    BaseMeasure,
    MeasureBackendError,
    SeedWeight,
    SupportError,
    WeightFamily,
    hankel_family,
    validate_family,
)

from conftest import UNIT_INTERVAL, interval_seed


@pytest.fixture(scope="module")
def two_seed_family():
    # densities 1 and x^2 on [0, 1], shifts n=(1), m=(2)
    return WeightFamily((1,), (2,), [[[interval_seed(1), interval_seed(0, 0, 1)]]])


def test_eval_one_periodicity_step(two_seed_family):
    assert two_seed_family.eval_weight(2, Fraction(1, 2))[0][0] == Fraction(1, 2)


def test_eval_periodicity_on_second_seed(two_seed_family):
    assert two_seed_family.eval_weight(3, Fraction(1, 2))[0][0] == Fraction(1, 8)


def test_eval_gaussian_at_origin():
    fam = hankel_family(SeedWeight.of([1], BaseMeasure.gaussian()), backend=FLOAT)
    assert fam.eval_weight(1, 0.0)[0][0] == 0.0


def test_eval_includes_measure_density():
    fam = hankel_family(SeedWeight.of([1], BaseMeasure.gaussian()), backend=FLOAT)
    assert fam.eval_weight(0, 1.0)[0][0] == pytest.approx(math.exp(-1.0))


def test_eval_outside_support_exact(two_seed_family):
    with pytest.raises(SupportError):
        two_seed_family.eval_weight(0, Fraction(3, 2))


def test_eval_boundary_is_in_support(two_seed_family):
    assert two_seed_family.eval_weight(0, Fraction(1)) == [[Fraction(1)]]


def test_moments_of_two_seed_family(two_seed_family):
    assert two_seed_family.moment(0, 0)[0][0] == 1
    assert two_seed_family.moment(1, 0)[0][0] == Fraction(1, 2)
    assert two_seed_family.moment(0, 1)[0][0] == Fraction(1, 3)
    assert two_seed_family.moment(0, 2)[0][0] == Fraction(1, 2)


def test_gaussian_moment_against_quadrature():
    fam = hankel_family(SeedWeight.of([1], BaseMeasure.gaussian()), backend=FLOAT)
    value = fam.moment(1, 1)[0][0]
    assert value == pytest.approx(math.sqrt(math.pi) / 2)
    numeric, _ = integrate.quad(lambda x: x * x * math.exp(-x * x), -40, 40)
    assert value == pytest.approx(numeric, abs=1e-12)


def test_laguerre_moments_are_factorials():
    fam = hankel_family(SeedWeight.of([1], BaseMeasure.laguerre()))
    assert fam.moment(3, 1)[0][0] == math.factorial(4)


def test_validate_wellformed(two_seed_family):
    assert validate_family(two_seed_family, 8).ok


def test_validate_probes_only_the_seeds_a_truncation_reads():
    """At L=1 the moment matrix reads seed 0 alone; seeds 1 and 2 would be
    probed at a negative order, whose interval moment divides by zero."""
    fam = WeightFamily((1,), (3,), [[[interval_seed(1)] * 3]], backend=FLOAT)
    assert validate_family(fam, 1).ok


def test_validating_an_exact_family_evaluates_no_moment(monkeypatch):
    """A rational moment cannot overflow, so an exact family is checked by
    its seed counts and measures alone; a float family probes each seed."""
    calls = []

    def counted(measure, k, backend, _fn=BaseMeasure.moment):
        calls.append((k, backend))
        return _fn(measure, k, backend)

    monkeypatch.setattr(BaseMeasure, "moment", counted)
    seeds = [[[interval_seed(1), interval_seed(0, 1)]]]
    laguerre = [[[SeedWeight.of([1], BaseMeasure.laguerre())] * 2]]
    for family_seeds in (seeds, laguerre):
        assert validate_family(WeightFamily((1,), (2,), family_seeds), 8).ok
    assert calls == []
    assert validate_family(WeightFamily((1,), (2,), seeds, backend=FLOAT), 8).ok
    assert calls


def test_validate_seed_count():
    fam = WeightFamily((1,), (2,), [[[interval_seed(1)]]])
    report = validate_family(fam, 4)
    assert not report.ok
    assert "seed count" in report.first_problem()


def test_validate_exact_gaussian():
    fam = hankel_family(SeedWeight.of([1], BaseMeasure.gaussian()), backend=EXACT)
    report = validate_family(fam, 4)
    assert not report.ok
    assert "irrational" in report.first_problem()


def test_gaussian_measure_moment_rejects_exact():
    with pytest.raises(MeasureBackendError):
        BaseMeasure.gaussian().moment(2, EXACT)


def test_interval_needs_a_below_b():
    with pytest.raises(ValueError):
        BaseMeasure.finite_interval(1, 1)


def test_float_backend_rejected_for_exact_points():
    fam = hankel_family(interval_seed(1))
    with pytest.raises(TypeError):
        fam.eval_weight(0, 0.25)


small_coeffs = st.lists(
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    c0=small_coeffs,
    c1=small_coeffs,
    j=st.integers(0, 6),
    k=st.integers(1, 6),
)
def test_periodicity_closure(n, m, c0, c1, j, k):
    seeds = [SeedWeight.of(c, UNIT_INTERVAL) for c in ([c0] + [c1] * (m - 1))]
    fam = WeightFamily((n,), (m,), [[seeds]])
    x = Fraction(k, 7)
    lifted = fam.eval_weight(j + m, x)[0][0]
    assert lifted == x**n * fam.eval_weight(j, x)[0][0]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    c0=small_coeffs,
    c1=small_coeffs,
    i=st.integers(0, 5),
    j=st.integers(0, 5),
)
def test_moment_periodicity_consistency(n, m, c0, c1, i, j):
    seeds = [SeedWeight.of(c, UNIT_INTERVAL) for c in ([c0] + [c1] * (m - 1))]
    fam = WeightFamily((n,), (m,), [[seeds]])
    assert fam.moment(i, j + m)[0][0] == fam.moment(i + n, j)[0][0]


def test_hankel_specialization_matrix_weight():
    # A 2x2 matrix weight rho, stored transposed in the seed table, makes
    # the moments plain powers: moment(i, j) == integral of x^{i+j} rho^T.
    rho = [[interval_seed(1), interval_seed(0, 1)], [interval_seed(1, 1), interval_seed(2)]]
    seeds = [[[rho[b][a]] for b in range(2)] for a in range(2)]
    fam = WeightFamily((1, 1), (1, 1), seeds)
    for i in range(3):
        for j in range(3):
            got = fam.moment(i, j)
            for a in range(2):
                for b in range(2):
                    expected = rho[b][a].moment(i + j, EXACT)
                    assert got[a][b] == expected


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_each_seed_integral_is_computed_once_per_family(monkeypatch, backend):
    """Moments keep every seed integral, keyed by (a, b, r, order), for the
    family's lifetime; the values are those of the seeds themselves."""
    seeds = [
        [[interval_seed(1), interval_seed(0, 1)], [interval_seed(1, 1)]],
        [[interval_seed(1, 1), interval_seed(0, 0, 1)], [interval_seed(2, -1)]],
    ]
    nvec, mvec = (1, 2), (2, 1)
    direct = SeedWeight.moment
    calls = []

    def counted(seed, k, b):
        calls.append((seed, k))
        return direct(seed, k, b)

    monkeypatch.setattr(SeedWeight, "moment", counted)
    fams = [WeightFamily(nvec, mvec, seeds, backend=backend) for _ in range(2)]
    keys = set()
    for fam in fams:
        for i in range(6):
            for j in range(6):
                got = fam.moment(i, j)
                for a in range(2):
                    for b in range(2):
                        q, r = divmod(j, mvec[b])
                        keys.add((id(fam), a, b, r, i + q * nvec[a]))
                        want = direct(seeds[a][b][r], i + q * nvec[a], backend)
                        assert (type(got[a][b]), repr(got[a][b])) == (type(want), repr(want))
    assert len(calls) == len(keys)

