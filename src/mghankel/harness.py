"""Config-driven verification pipeline and report writer.

Loads a JSON description of a weight family and a check plan, runs the
pipeline (moments -> factorization -> families -> identities) and emits a
structured report.  A failed check is a report entry; only structural
problems (singular leading minor, invalid config) abort a run.

Exit-code contract: 0 all requested checks pass, 1 at least one check
fails, 2 structural error.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import __version__
from .blockops import build_moment_matrix, check_multigraded_symmetry
from .cdkernel import KernelEvaluator, classical_cd
from .factorize import (
    factorization_residual,
    lu_factorize,
    nested_truncation_residual,
)
from .families import (
    MatrixPolynomial,
    check_biorthogonality,
    check_connection_formulas,
    check_matrix_notation,
    check_modified_orthogonality,
    form_residual,
    poly_residual,
    primary_family,
    dual_family,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    BACKENDS,
    Tolerance,
    approx_zero,
    as_backend,
    mat_sub,
    matrix_residual_norm,
    parse_rational,
    scalar_str,
)
from .weights import (
    BaseMeasure,
    GAUSSIAN,
    LAGUERRE,
    SeedWeight,
    WeightFamily,
    hankel_family,
    validate_family,
)

CHECK_NAMES = (
    "symmetry",
    "factorization",
    "biorthogonality",
    "matrix-notation",
    "abc",
    "reproducing",
    "projections",
    "proposition",
    "theorem",
    "corollary",
    "connection",
    "modified-orthogonality",
    "classical",
)

# Checks that evaluate weights pointwise (unavailable for exact laguerre).
POINTWISE_CHECKS = ("abc", "reproducing", "proposition", "theorem", "corollary")

DEFAULT_GRID_COORDS = (
    Fraction(1, 7),
    Fraction(2, 7),
    Fraction(3, 7),
    Fraction(5, 7),
    Fraction(6, 7),
)

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"


class ConfigError(ValueError):
    """Invalid run configuration; includes the offending field path."""


@dataclass
class RunConfig:
    nvec: tuple
    mvec: tuple
    seeds: tuple  # [a][b] -> tuple of SeedWeight (rational coefficients)
    truncation: int
    levels: tuple
    backend: str = EXACT
    tolerance: Tolerance = DEFAULT_TOLERANCE
    grid: tuple | None = None  # explicit rational (x, y) pairs, or None for the lattice
    checks: tuple = CHECK_NAMES
    name: str = "custom"

    @property
    def size(self) -> int:
        return len(self.nvec)

    def max_shift(self) -> int:
        return max(max(self.nvec), max(self.mvec))

    def family(self) -> WeightFamily:
        return WeightFamily(self.nvec, self.mvec, self.seeds, backend=self.backend)

    def grid_pairs(self) -> list:
        """Rational (x, y) pairs: the explicit grid, or the default lattice."""
        if self.grid is not None:
            return list(self.grid)
        return [(x, y) for x in DEFAULT_GRID_COORDS for y in DEFAULT_GRID_COORDS]

    def off_locus_pairs(self) -> list:
        """Grid pairs avoiding x^{n_a} == y^{n_b} for all component pairs."""
        return [
            (x, y)
            for x, y in self.grid_pairs()
            if all(x**na != y**nb for na in self.nvec for nb in self.nvec)
        ]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "N": self.size,
            "nvec": list(self.nvec),
            "mvec": list(self.mvec),
            "seeds": [
                [
                    [
                        {"coeffs": [str(c) for c in s.coeffs], "measure": s.measure.to_dict()}
                        for s in entry
                    ]
                    for entry in row
                ]
                for row in self.seeds
            ],
            "L": self.truncation,
            "levels": list(self.levels),
            "backend": self.backend,
            "tolerance": {"abs": self.tolerance.abs_tol, "rel": self.tolerance.rel_tol},
            "grid": None
            if self.grid is None
            else [[str(x), str(y)] for x, y in self.grid],
            "checks": list(self.checks),
        }


def validate_levels(levels, max_shift: int, truncation: int) -> tuple:
    """The level budget: every level l must satisfy 0 <= l and l + max_shift < L."""
    for l in levels:
        if l < 0 or l + max_shift >= truncation:
            raise ConfigError(
                "levels: l=%d violates the truncation budget (need l + %d < L=%d)"
                % (l, max_shift, truncation)
            )
    return tuple(levels)


def _parse_seed(entry, path: str) -> SeedWeight:
    if not isinstance(entry, dict) or "coeffs" not in entry or "measure" not in entry:
        raise ConfigError("%s: seed needs 'coeffs' and 'measure'" % path)
    try:
        measure = BaseMeasure.from_dict(entry["measure"])
        return SeedWeight.of(entry["coeffs"], measure)
    except (ValueError, KeyError) as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc


def config_from_dict(data: dict, name: str = "custom") -> RunConfig:
    """Build and validate a RunConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    try:
        nvec = tuple(int(v) for v in data["nvec"])
        mvec = tuple(int(v) for v in data["mvec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("nvec/mvec: %s" % exc) from exc
    if len(nvec) != len(mvec) or not nvec:
        raise ConfigError("nvec/mvec: must be nonempty and of equal length")
    if any(v < 1 for v in nvec + mvec):
        raise ConfigError("nvec/mvec: components must be >= 1")
    size = len(nvec)
    if "N" in data and int(data["N"]) != size:
        raise ConfigError("N: does not match multi-index length %d" % size)

    raw_seeds = data.get("seeds")
    if (
        not isinstance(raw_seeds, list)
        or len(raw_seeds) != size
        or any(not isinstance(row, list) or len(row) != size for row in raw_seeds)
    ):
        raise ConfigError("seeds: must be an %d x %d table" % (size, size))
    seeds = tuple(
        tuple(
            tuple(
                _parse_seed(s, "seeds[%d][%d][%d]" % (a, b, r))
                for r, s in enumerate(raw_seeds[a][b])
            )
            for b in range(size)
        )
        for a in range(size)
    )

    try:
        truncation = int(data["L"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("L: %s" % exc) from exc
    if truncation < 1:
        raise ConfigError("L: must be >= 1")

    backend = data.get("backend", EXACT)
    if backend not in BACKENDS:
        raise ConfigError("backend: must be one of %s" % (BACKENDS,))

    max_shift = max(max(nvec), max(mvec))
    if "levels" in data and data["levels"] is not None:
        levels = tuple(int(v) for v in data["levels"])
    else:
        levels = tuple(range(1, truncation - max_shift))
    levels = validate_levels(levels, max_shift, truncation)

    tol = DEFAULT_TOLERANCE
    if "tolerance" in data and data["tolerance"] is not None:
        t = data["tolerance"]
        try:
            tol = Tolerance(float(t.get("abs", 1e-9)), float(t.get("rel", 1e-9)))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError("tolerance: %s" % exc) from exc

    checks = tuple(data.get("checks") or CHECK_NAMES)
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError("checks: unknown check %r" % c)

    grid = None
    if data.get("grid") is not None:
        if not data["grid"]:
            raise ConfigError("grid: must be nonempty when given")
        pairs = []
        for idx, pair in enumerate(data["grid"]):
            try:
                x, y = (parse_rational(v) for v in pair)
            except (TypeError, ValueError) as exc:
                raise ConfigError("grid[%d]: %s" % (idx, exc)) from exc
            pairs.append((x, y))
        grid = tuple(pairs)
        if "corollary" in checks:
            for idx, (x, y) in enumerate(grid):
                if any(x**na == y**nb for na in nvec for nb in nvec):
                    raise ConfigError(
                        "grid[%d]: (%s, %s) lies on the singular locus with corollary enabled"
                        % (idx, x, y)
                    )

    return RunConfig(
        nvec=nvec,
        mvec=mvec,
        seeds=seeds,
        truncation=truncation,
        levels=levels,
        backend=backend,
        tolerance=tol,
        grid=grid,
        checks=checks,
        name=str(data.get("name", name)),
    )


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("parse error at line %d: %s" % (exc.lineno, exc.msg)) from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Built-in configurations.
# ---------------------------------------------------------------------------


def _interval_seed(*coeffs) -> SeedWeight:
    return SeedWeight.of(list(coeffs), BaseMeasure.finite_interval(0, 1))


def builtin_config(name: str) -> RunConfig:
    """Built-in demo configurations.

    The `singular` case is deliberately rank-deficient: its duplicate seed
    columns make the very first pivot block singular.
    """
    if name == "legendre":
        return RunConfig(
            nvec=(1,),
            mvec=(1,),
            seeds=(((_interval_seed(1),),),),
            truncation=8,
            levels=tuple(range(1, 7)),
            backend=EXACT,
            name="legendre",
        )
    if name == "hermite":
        return RunConfig(
            nvec=(1,),
            mvec=(1,),
            seeds=(((SeedWeight.of([1], BaseMeasure.gaussian()),),),),
            truncation=10,
            levels=tuple(range(1, 7)),
            backend=FLOAT,
            name="hermite",
        )
    if name == "multigraded-12":
        return RunConfig(
            nvec=(1,),
            mvec=(2,),
            seeds=(((_interval_seed(1), _interval_seed(0, 0, 0, 0, 0, 1)),),),
            truncation=10,
            levels=tuple(range(1, 8)),
            backend=EXACT,
            name="multigraded-12",
        )
    if name == "multigraded-n2":
        return RunConfig(
            nvec=(1, 2),
            mvec=(2, 1),
            seeds=(
                (
                    (_interval_seed(1), _interval_seed(0, 1)),
                    (_interval_seed(1, 1),),
                ),
                (
                    (_interval_seed(1, 1), _interval_seed(0, 0, 1)),
                    (_interval_seed(2, -1),),
                ),
            ),
            truncation=10,
            levels=tuple(range(1, 8)),
            backend=EXACT,
            name="multigraded-n2",
        )
    if name == "singular":
        one = _interval_seed(1)
        return RunConfig(
            nvec=(1, 1),
            mvec=(1, 1),
            seeds=(((one,), (one,)), ((one,), (one,))),
            truncation=4,
            levels=(1,),
            backend=EXACT,
            name="singular",
        )
    raise ConfigError("unknown built-in case %r" % name)


BUILTIN_CASES = ("hermite", "legendre", "multigraded-12", "multigraded-n2", "singular")


# ---------------------------------------------------------------------------
# Report types.
# ---------------------------------------------------------------------------


@dataclass
class CheckEntry:
    check: str
    status: str
    residual: str
    worst_point: str | None
    elapsed_ms: int
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "residual": self.residual,
            "worst_point": self.worst_point,
            "elapsed_ms": self.elapsed_ms,
            "notes": list(self.notes),
        }


@dataclass
class CheckReport:
    backend: str
    config: dict
    entries: list

    @property
    def all_passed(self) -> bool:
        return all(e.status != STATUS_FAIL for e in self.entries)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_dict(self) -> dict:
        return {
            "artifact": {"name": "mghankel", "version": __version__},
            "backend": self.backend,
            "status": STATUS_PASS if self.all_passed else STATUS_FAIL,
            "config": self.config,
            "checks": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            "mghankel %s  backend=%s  config=%s"
            % (__version__, self.backend, self.config.get("name", "?")),
            "%-24s %-8s %-14s %-34s %s" % ("check", "status", "residual", "worst", "ms"),
            "-" * 92,
        ]
        for e in self.entries:
            lines.append(
                "%-24s %-8s %-14s %-34s %d"
                % (e.check, e.status, e.residual, e.worst_point or "-", e.elapsed_ms)
            )
            for note in e.notes:
                lines.append("    note: %s" % note)
        lines.append("-" * 92)
        lines.append("overall: %s" % (STATUS_PASS if self.all_passed else STATUS_FAIL))
        return "\n".join(lines) + "\n"


def write_report(report: CheckReport, path, fmt: str = "json") -> None:
    if fmt not in ("json", "text"):
        raise ValueError("format must be 'json' or 'text'")
    payload = report.to_json() if fmt == "json" else report.to_text()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


# ---------------------------------------------------------------------------
# The runner.
# ---------------------------------------------------------------------------


class _Accumulator:
    """Tracks per-check verdicts, the max residual and its location."""

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.passed = True
        self.residual = 0
        self.worst = None
        self.notes = []

    def record(self, residual, scale, where: str):
        if residual > self.residual:
            self.residual = residual
            self.worst = where
        if not approx_zero(residual, scale, self.tol):
            self.passed = False

    def outcome(self, outcome, where: str):
        if outcome.residual > self.residual:
            self.residual = outcome.residual
            self.worst = where if outcome.worst is None else "%s %s" % (where, outcome.worst)
        if not outcome.passed:
            self.passed = False
        self.notes.extend(outcome.notes)


class _Runner:
    """One run's family, factors and evaluators; every cache lives here."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.fam = config.family()
        report = validate_family(self.fam, config.truncation)
        if not report.ok:
            raise ConfigError("family: %s" % report.first_problem())
        self.pointwise_ok = not (
            config.backend == EXACT
            and any(
                s.measure.kind in (GAUSSIAN, LAGUERRE)
                for row in self.fam.seeds
                for entry in row
                for s in entry
            )
        )
        if (
            config.backend == EXACT
            and self.pointwise_ok
            and any(c in POINTWISE_CHECKS for c in config.checks)
        ):
            self._check_grid_support()
        self.tol = config.tolerance
        self.g = build_moment_matrix(self.fam, config.truncation)
        self.factors = lu_factorize(self.g)
        self.polys = primary_family(self.factors)
        self.forms = dual_family(self.factors)
        self._evaluators = {}

    def _check_grid_support(self):
        """Exact weights have no value outside their support, and the
        pointwise checks take every seed weight at every grid x."""
        where = "grid[%d]" if self.config.grid is not None else "grid (default lattice, pair %d)"
        for idx, (x, _) in enumerate(self.config.grid_pairs()):
            for a, row in enumerate(self.fam.seeds):
                for b, entry in enumerate(row):
                    for r, seed in enumerate(entry):
                        if not seed.measure.in_support(x):
                            raise ConfigError(
                                "%s: x=%s lies outside the support of seed %d of entry (%d,%d)"
                                % (where % idx, x, r, a, b)
                            )

    def evaluator(self, level: int) -> KernelEvaluator:
        if level not in self._evaluators:
            self._evaluators[level] = KernelEvaluator(self.fam, self.g, self.factors, level)
        return self._evaluators[level]

    @cached_property
    def scale(self):
        """Max-norm of g: the magnitude reference of coefficient-space residuals."""
        return self.g.maxnorm()

    @cached_property
    def points(self) -> list:
        return [
            (as_backend(x, self.config.backend), as_backend(y, self.config.backend))
            for x, y in self.config.grid_pairs()
        ]

    @cached_property
    def off_locus_points(self) -> list:
        return [
            (as_backend(x, self.config.backend), as_backend(y, self.config.backend))
            for x, y in self.config.off_locus_pairs()
        ]

    # -- individual checks ---------------------------------------------------

    def check_symmetry(self, acc: _Accumulator):
        acc.outcome(
            check_multigraded_symmetry(self.g, self.fam.nvec, self.fam.mvec, self.tol), ""
        )

    def check_factorization(self, acc: _Accumulator):
        acc.record(factorization_residual(self.g, self.factors), self.scale, "full product")
        nested, level = nested_truncation_residual(self.g, self.factors)
        acc.record(nested, self.scale, "truncation l=%s" % level)

    def check_biorthogonality(self, acc: _Accumulator):
        acc.outcome(check_biorthogonality(self.g, self.factors, self.tol), "")

    def check_matrix_notation(self, acc: _Accumulator):
        for level in self.config.levels:
            acc.outcome(
                check_matrix_notation(self.g, self.factors, level, self.tol), "l=%d" % level
            )

    def check_abc(self, acc: _Accumulator):
        for level in self.config.levels:
            ev = self.evaluator(level)
            for x, y in self.points:
                lhs = ev.kernel_sum(x, y)
                rhs = ev.kernel_abc(x, y)
                scale = max(matrix_residual_norm(lhs), matrix_residual_norm(rhs))
                acc.record(
                    matrix_residual_norm(mat_sub(lhs, rhs)),
                    scale,
                    "l=%d (x,y)=(%s,%s)" % (level, x, y),
                )

    def check_reproducing(self, acc: _Accumulator):
        for level in self.config.levels:
            ev = self.evaluator(level)
            for x, y in self.points:
                acc.record(
                    ev.reproducing_residual(x, y),
                    self.scale,
                    "l=%d (x,y)=(%s,%s)" % (level, x, y),
                )

    def check_projections(self, acc: _Accumulator):
        total = self.config.truncation
        for level in self.config.levels:
            ev = self.evaluator(level)
            for k in range(total):
                projected = ev.project_poly(self.polys[k])
                expect = self.polys[k] if k < level else None
                r = (
                    poly_residual(projected, expect)
                    if expect is not None
                    else max(matrix_residual_norm(c) for c in projected.coeffs)
                )
                acc.record(r, self.scale, "l=%d polynomial k=%d" % (level, k))
                dual_projected = ev.project_form(self.forms[k])
                expect_f = self.forms[k] if k < level else None
                r = (
                    form_residual(dual_projected, expect_f)
                    if expect_f is not None
                    else max(matrix_residual_norm(c) for c in dual_projected.coeffs)
                )
                acc.record(r, self.scale, "l=%d dual k=%d" % (level, k))
            for deg in range(total):
                mono = MatrixPolynomial.of(
                    self.fam.size,
                    [
                        [
                            [
                                (1 if (r == c and t == deg) else 0)
                                for c in range(self.fam.size)
                            ]
                            for r in range(self.fam.size)
                        ]
                        for t in range(deg + 1)
                    ],
                )
                once = ev.project_poly(mono)
                twice = ev.project_poly(once)
                acc.record(
                    poly_residual(once, twice),
                    self.scale,
                    "l=%d idempotence deg=%d" % (level, deg),
                )

    def check_proposition(self, acc: _Accumulator):
        for level in self.config.levels:
            ev = self.evaluator(level)
            for x, y in self.points:
                lhs = ev.cd_lhs(x, y)
                rhs = ev.cd_rhs_schur(x, y)
                scale = max(matrix_residual_norm(lhs), matrix_residual_norm(rhs))
                acc.record(
                    matrix_residual_norm(mat_sub(lhs, rhs)),
                    scale,
                    "l=%d (x,y)=(%s,%s)" % (level, x, y),
                )

    def check_theorem(self, acc: _Accumulator):
        threshold = self.config.max_shift()
        for level in self.config.levels:
            ev = self.evaluator(level)
            if level < threshold:
                try:
                    ev.cd_rhs_associated(*self.points[0])
                    acc.notes.append(
                        "l=%d below the shift bound but the associated form evaluated" % level
                    )
                except ValueError as exc:
                    acc.notes.append("l=%d not asserted: %s" % (level, exc))
                continue
            for x, y in self.points:
                lhs = ev.cd_lhs(x, y)
                rhs = ev.cd_rhs_associated(x, y)
                scale = max(matrix_residual_norm(lhs), matrix_residual_norm(rhs))
                acc.record(
                    matrix_residual_norm(mat_sub(lhs, rhs)),
                    scale,
                    "l=%d (x,y)=(%s,%s)" % (level, x, y),
                )

    def check_corollary(self, acc: _Accumulator):
        threshold = self.config.max_shift()
        on_locus = len(self.points) - len(self.off_locus_points)
        if on_locus:
            acc.notes.append("skipped %d on-locus grid points" % on_locus)
        for level in self.config.levels:
            if level < threshold:
                acc.notes.append("l=%d below the shift bound, not asserted" % level)
                continue
            ev = self.evaluator(level)
            for x, y in self.off_locus_points:
                kernel = ev.kernel_sum(x, y)
                for a in range(self.fam.size):
                    for b in range(self.fam.size):
                        q = ev.cd_entry_quotient(a, b, x, y)
                        acc.record(
                            abs(q - kernel[a][b]),
                            max(abs(q), matrix_residual_norm(kernel)),
                            "l=%d (a,b)=(%d,%d) (x,y)=(%s,%s)" % (level, a, b, x, y),
                        )

    def check_connection(self, acc: _Accumulator):
        self._associated_loop(acc, check_connection_formulas, with_factors=True)

    def check_modified_orthogonality(self, acc: _Accumulator):
        self._associated_loop(acc, check_modified_orthogonality, with_factors=False)

    def _associated_loop(self, acc: _Accumulator, fn, with_factors: bool):
        total = self.config.truncation
        for level in self.config.levels:
            top = min(level, 3, total - 1 - level)
            for j in range(top + 1):
                outcome = (
                    fn(self.g, self.factors, level, j, self.tol)
                    if with_factors
                    else fn(self.g, level, j, self.tol)
                )
                acc.outcome(outcome, "l=%d j=%d" % (level, j))

    def check_classical(self, acc: _Accumulator):
        fam = self.fam
        applicable = (
            fam.size == 1
            and fam.nvec == (1,)
            and fam.mvec == (1,)
            and len(fam.seeds[0][0]) == 1
        )
        if not applicable:
            raise _Skip("classical identity needs a scalar one-seed family with unit shifts")
        seed = fam.seeds[0][0][0]
        rng = random.Random(7)
        points = []
        while len(points) < 10:
            if self.config.backend == EXACT:
                x = Fraction(rng.randrange(0, 101), 101)
                y = Fraction(rng.randrange(0, 101), 101)
                if seed.measure.kind == "finite_interval":
                    span = seed.measure.b - seed.measure.a
                    x = seed.measure.a + x * span
                    y = seed.measure.a + y * span
            else:
                x = rng.uniform(-2.0, 2.0)
                y = rng.uniform(-2.0, 2.0)
            if x != y:
                points.append((x, y))
        top = min(6, self.config.truncation - 2)
        backend = self.config.backend
        factors = lu_factorize(build_moment_matrix(hankel_family(seed, backend), top + 1))
        for degree in range(1, top + 1):
            for x, y in points:
                res = classical_cd(seed, degree, x, y, backend=backend, factors=factors)
                scale = max(
                    matrix_residual_norm(res.lhs), matrix_residual_norm(res.rhs)
                )
                acc.record(res.residual, scale, "n=%d (x,y)=(%s,%s)" % (degree, x, y))


class _Skip(Exception):
    pass


def run(config: RunConfig) -> CheckReport:
    """Execute the requested checks in declaration order.

    Raises ConfigError for invalid family/backend combinations and
    SingularLeadingMinorError when the moment matrix is not factorizable.
    """
    runner = _Runner(config)
    entries = []
    handlers = {
        "symmetry": runner.check_symmetry,
        "factorization": runner.check_factorization,
        "biorthogonality": runner.check_biorthogonality,
        "matrix-notation": runner.check_matrix_notation,
        "abc": runner.check_abc,
        "reproducing": runner.check_reproducing,
        "projections": runner.check_projections,
        "proposition": runner.check_proposition,
        "theorem": runner.check_theorem,
        "corollary": runner.check_corollary,
        "connection": runner.check_connection,
        "modified-orthogonality": runner.check_modified_orthogonality,
        "classical": runner.check_classical,
    }
    for name in CHECK_NAMES:
        if name not in config.checks:
            continue
        acc = _Accumulator(config.tolerance)
        started = time.monotonic()
        status = STATUS_PASS
        if name in POINTWISE_CHECKS and not runner.pointwise_ok:
            status = STATUS_SKIPPED
            acc.notes.append("pointwise weight values are irrational in exact mode")
        else:
            try:
                handlers[name](acc)
                status = STATUS_PASS if acc.passed else STATUS_FAIL
            except _Skip as skip:
                status = STATUS_SKIPPED
                acc.notes.append(str(skip))
        elapsed = int((time.monotonic() - started) * 1000)
        entries.append(
            CheckEntry(
                check=name,
                status=status,
                residual=scalar_str(acc.residual),
                worst_point=acc.worst,
                elapsed_ms=elapsed,
                notes=acc.notes,
            )
        )
    return CheckReport(backend=config.backend, config=config.to_dict(), entries=entries)
