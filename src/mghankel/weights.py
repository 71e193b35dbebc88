"""Weight families generated from seeds by a periodicity rule.

A family holds, for every entry (a, b), the seed weights
rho_{0,ab}, ..., rho_{m_b-1,ab}; the rest of the sequence is generated by

    rho_{j+m_b, ab}(x) = x^{n_a} * rho_{j, ab}(x).

Seeds are polynomial densities against one of three base measures
(Lebesgue on a finite interval, exp(-x^2) on R, exp(-x) on [0, inf)),
so every moment integral x^i * rho_j has a closed form and no quadrature
enters the verification path.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction

from .numerics import (
    EXACT,
    BACKENDS,
    Scalar,
    as_backend,
    gaussian_moment,
    memoized,
    parse_rational,
)

FINITE_INTERVAL = "finite_interval"
GAUSSIAN = "gaussian"
LAGUERRE = "laguerre"
MEASURE_KINDS = (FINITE_INTERVAL, GAUSSIAN, LAGUERRE)


class SupportError(ValueError):
    """Pointwise evaluation requested outside a measure's support."""


class MeasureBackendError(ValueError):
    """Measure/backend combination with no exact representation."""


@dataclass(frozen=True)
class BaseMeasure:
    """One of the three admissible base measures."""

    kind: str
    a: Fraction | None = None
    b: Fraction | None = None

    @classmethod
    def finite_interval(cls, a, b) -> "BaseMeasure":
        a, b = parse_rational(a), parse_rational(b)
        if not a < b:
            raise ValueError("finite interval needs a < b, got [%s, %s]" % (a, b))
        return cls(FINITE_INTERVAL, a, b)

    @classmethod
    def gaussian(cls) -> "BaseMeasure":
        return cls(GAUSSIAN)

    @classmethod
    def laguerre(cls) -> "BaseMeasure":
        return cls(LAGUERRE)

    def moment(self, k: int, backend: str) -> Scalar:
        """Closed-form k-th moment of the bare measure."""
        if self.kind == FINITE_INTERVAL:
            value = (self.b ** (k + 1) - self.a ** (k + 1)) / Fraction(k + 1)
            return as_backend(value, backend)
        if self.kind == LAGUERRE:
            return as_backend(Fraction(math.factorial(k)), backend)
        if self.kind == GAUSSIAN:
            if backend == EXACT:
                raise MeasureBackendError("gaussian moments are irrational; use the float backend")
            return gaussian_moment(k)
        raise ValueError("unknown measure kind %r" % self.kind)

    def density_at(self, x: Scalar, backend: str) -> Scalar:
        if self.kind == FINITE_INTERVAL:
            return as_backend(Fraction(1), backend)
        if backend == EXACT:
            raise MeasureBackendError(
                "%s density has no exact value at a generic point" % self.kind
            )
        if self.kind == GAUSSIAN:
            return math.exp(-float(x) * float(x))
        return math.exp(-float(x))

    def in_support(self, x) -> bool:
        # Interval boundaries count as in-support.
        if self.kind == FINITE_INTERVAL:
            return self.a <= x <= self.b
        if self.kind == LAGUERRE:
            return x >= 0
        return True

    def exact_compatible(self) -> bool:
        return self.kind in (FINITE_INTERVAL, LAGUERRE)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == FINITE_INTERVAL:
            d["a"] = str(self.a)
            d["b"] = str(self.b)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BaseMeasure":
        kind = d.get("kind")
        if kind == FINITE_INTERVAL:
            return cls.finite_interval(d["a"], d["b"])
        if kind == GAUSSIAN:
            return cls.gaussian()
        if kind == LAGUERRE:
            return cls.laguerre()
        raise ValueError("unknown measure kind %r" % kind)


@dataclass(frozen=True)
class SeedWeight:
    """One scalar weight: polynomial density times a base measure density."""

    coeffs: tuple  # ascending powers, rational
    measure: BaseMeasure

    @classmethod
    def of(cls, coeffs, measure: BaseMeasure) -> "SeedWeight":
        parsed = tuple(parse_rational(c) for c in _listed(coeffs, "coeffs: "))
        if not parsed:
            parsed = (Fraction(0),)
        return cls(parsed, measure)

    def density_at(self, x: Scalar) -> Scalar:
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def moment(self, k: int, backend: str) -> Scalar:
        """Integral of x^k times this weight against its measure."""
        total = 0
        for t, c in enumerate(self.coeffs):
            if c:
                total += as_backend(c, backend) * self.measure.moment(k + t, backend)
        return total if total != 0 else as_backend(Fraction(0), backend)

    def value_at(self, x: Scalar, backend: str) -> Scalar:
        # x is already backend-typed; Fraction coefficients promote cleanly.
        return self.density_at(x) * self.measure.density_at(x, backend)


class ConfigError(ValueError):
    """Invalid run configuration or family input; includes the offending field path."""


@contextmanager
def _field(name: str):
    """Re-raise a malformed or unreadable value as a ConfigError naming its field."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, OSError) as exc:
        raise ConfigError("%s: %s" % (name, exc)) from exc


def _integer(value) -> int:
    """int(value), rejecting a bool and a float or Fraction with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, (float, Fraction)) and value % 1):
        raise ValueError("not an integer: %r" % (value,))
    return int(value)


def _listed(value, prefix: str = ""):
    """`value`, unless it is a str, bytes or dict, which would be read item by item."""
    if isinstance(value, (str, bytes, dict)):
        raise TypeError(prefix + "must be a list")
    return value


def validate_multi_indices(nvec, mvec) -> tuple:
    """(nvec, mvec) as integer tuples, nonempty, of equal length, with components >= 1."""
    with _field("nvec/mvec"):
        nvec, mvec = (tuple(map(_integer, _listed(v))) for v in (nvec, mvec))
    if len(nvec) != len(mvec) or not nvec:
        raise ConfigError("nvec/mvec: must be nonempty and of equal length")
    if any(v < 1 for v in (*nvec, *mvec)):
        raise ConfigError("nvec/mvec: components must be >= 1")
    return nvec, mvec


def validate_backend(backend) -> str:
    """The backend, one of BACKENDS."""
    if backend not in BACKENDS:
        raise ConfigError("backend: must be one of %s" % (BACKENDS,))
    return backend


def _seed_table(seeds, size: int) -> tuple:
    """The size x size table of SeedWeight lists, as tuples."""
    with suppress(TypeError):
        table = tuple(tuple(tuple(entry) for entry in row) for row in seeds)
        if len(table) == size and all(
            len(row) == size and all(isinstance(s, SeedWeight) for e in row for s in e)
            for row in table
        ):
            return table
    raise ConfigError("seeds: must be an %d x %d table of seed lists" % (size, size))


def validate_levels(levels, max_shift: int, truncation: int) -> tuple:
    """The level budget: every level l must satisfy 0 <= l and l + max_shift < L."""
    for l in levels:
        if l < 0 or l + max_shift >= truncation:
            raise ConfigError(
                "levels: l=%d violates the truncation budget (need l + %d < L=%d)"
                % (l, max_shift, truncation)
            )
    return tuple(levels)


@dataclass(frozen=True)
class FamilyValidation:
    ok: bool
    problems: tuple = ()

    def first_problem(self) -> str | None:
        return self.problems[0] if self.problems else None


class WeightFamily:
    """Seed weights plus the two shift multi-indices generating all rho_j.

    Immutable after construction; evaluation and moments are pure, and
    each seed integral is computed once per family.  The constructor applies
    `RunConfig`'s type and shape rules, with its ConfigError messages: integer
    multi-indices, a known backend and an N x N table of SeedWeight lists.
    The per-seed rules (m_b seeds per entry, seeds the backend can integrate
    up to the orders a truncation reads) are `validate_family`'s to report;
    `build_moment_matrix` raises the first as a ConfigError.
    """

    def __init__(self, nvec, mvec, seeds, backend: str = EXACT):
        self.nvec, self.mvec = validate_multi_indices(nvec, mvec)
        self.size = len(self.nvec)
        self.backend = validate_backend(backend)
        self.seeds = _seed_table(seeds, self.size)
        self._memo = {}

    def max_shift(self) -> int:
        return max(max(self.nvec), max(self.mvec))

    def eval_weight(self, j: int, x) -> list:
        """Value of rho_j at x as an N x N matrix (measure density included)."""
        x = as_backend(x, self.backend)
        out = []
        for a in range(self.size):
            row = []
            for b in range(self.size):
                q, r = divmod(j, self.mvec[b])
                seed = self.seeds[a][b][r]
                if self.backend == EXACT and not seed.measure.in_support(x):
                    raise SupportError(
                        "x=%s outside the support of seed (%d,%d)" % (x, a, b)
                    )
                row.append(x ** (q * self.nvec[a]) * seed.value_at(x, self.backend))
            out.append(row)
        return out

    @memoized
    def _seed_moment(self, a: int, b: int, r: int, order: int) -> Scalar:
        return self.seeds[a][b][r].moment(order, self.backend)

    def moment(self, i: int, j: int) -> list:
        """Closed-form integral of x^i rho_j as an N x N matrix."""
        out = []
        for a in range(self.size):
            row = []
            for b in range(self.size):
                q, r = divmod(j, self.mvec[b])
                row.append(self._seed_moment(a, b, r, i + q * self.nvec[a]))
            out.append(row)
        return out


def validate_family(fam: WeightFamily, truncation: int) -> FamilyValidation:
    """Check seed counts, backend compatibility and moment availability.

    Each seed r of entry (a, b) of a float family is probed at the highest
    order the truncated moment matrix reads from it, (L-1) + ((L-1-r) // m_b)
    * n_a, where a float moment can overflow; a seed the matrix never reads
    (r >= L) is not probed, and neither is an exact family's rational one.
    """
    problems = []
    for a in range(fam.size):
        for b in range(fam.size):
            entry = fam.seeds[a][b]
            if len(entry) != fam.mvec[b]:
                problems.append(
                    "seed count: entry (%d,%d) has %d seeds, expected m_b=%d"
                    % (a, b, len(entry), fam.mvec[b])
                )
                continue
            for r, seed in enumerate(entry):
                if fam.backend == EXACT and not seed.measure.exact_compatible():
                    problems.append(
                        "backend: seed %d of entry (%d,%d) has irrational moments in exact mode"
                        % (r, a, b)
                    )
    if not problems and fam.backend != EXACT:
        for a in range(fam.size):
            for b in range(fam.size):
                for r, seed in enumerate(fam.seeds[a][b][:truncation]):
                    top = truncation - 1 + (truncation - 1 - r) // fam.mvec[b] * fam.nvec[a]
                    try:
                        seed.moment(top, fam.backend)
                    except OverflowError as exc:
                        problems.append(
                            "moment: order %d of seed %d at (%d,%d): %s"
                            % (top, r, a, b, exc)
                        )
    return FamilyValidation(not problems, tuple(problems))


def hankel_family(seed: SeedWeight, backend: str = EXACT) -> WeightFamily:
    """Scalar Hankel special case: N=1, n=m=(1), a single seed weight."""
    return WeightFamily((1,), (1,), [[[seed]]], backend=backend)
