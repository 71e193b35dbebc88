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
from dataclasses import asdict, dataclass, field
from functools import cached_property
from fractions import Fraction

from . import __version__
from .blockops import build_moment_matrix, check_multigraded_symmetry
from .cdkernel import KernelEvaluator, PointTable, below_shift_bound, classical_cd
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
    poly_residual,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    EXACT,
    FLOAT,
    ResidualTracker,
    Tolerance,
    as_backend,
    matrix_residual_norm,
    memoized,
    parse_rational,
    scalar_str,
)
from .weights import (
    BaseMeasure,
    ConfigError,
    FINITE_INTERVAL,
    SeedWeight,
    WeightFamily,
    _field,
    _integer,
    _listed,
    _seed_table,
    validate_backend,
    validate_levels,
    validate_multi_indices,
)

# The check registry: name -> whether the check evaluates weights pointwise
# (unavailable for exact gaussian or laguerre seeds).  Checks run, and are
# reported, in this order; check `name` is `_Runner.check_<name>` with dashes
# as underscores.
CHECK_REGISTRY = {
    "symmetry": False,
    "factorization": False,
    "biorthogonality": False,
    "matrix-notation": False,
    "abc": True,
    "reproducing": True,
    "projections": False,
    "proposition": True,
    "theorem": True,
    "corollary": True,
    "connection": False,
    "modified-orthogonality": False,
    "classical": False,
}

CHECK_NAMES = tuple(CHECK_REGISTRY)

# The checks that read no level: a config selecting no level runs only these.
LEVEL_FREE_CHECKS = frozenset({"symmetry", "factorization", "biorthogonality", "classical"})

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


@dataclass
class RunConfig:
    """One run: the weight family, the truncation, the levels, the grid and the checks.

    Every rule that needs only these fields, types and shapes included, is
    checked here, shape rules first: a file, code, `dataclasses.replace` and
    CLI overrides get one ConfigError.  Fields are stored as ints, tuples and
    Fractions; `levels=None` selects every level of the budget.  The
    multi-index, backend and seed-table rules are the ones `WeightFamily`
    applies.  Rules that need the family (seed counts, seeds the backend
    cannot integrate) are checked once per run by `build_moment_matrix`,
    then grid support by `run()`.
    """

    nvec: tuple
    mvec: tuple
    seeds: tuple  # [a][b] -> tuple of SeedWeight (rational coefficients)
    truncation: int
    levels: tuple | None
    backend: str = EXACT
    tolerance: Tolerance = DEFAULT_TOLERANCE
    grid: tuple | None = None  # explicit rational (x, y) pairs, or None for the lattice
    checks: tuple = CHECK_NAMES
    name: str = "custom"

    def __post_init__(self):
        self.nvec, self.mvec = validate_multi_indices(self.nvec, self.mvec)
        with _field("L"):
            self.truncation = _integer(self.truncation)
        if self.truncation < 1:
            raise ConfigError("L: must be >= 1")
        self.backend = validate_backend(self.backend)
        self.seeds = _seed_table(self.seeds, self.size)
        if not isinstance(self.tolerance, Tolerance):
            raise ConfigError("tolerance: must be a Tolerance, got %r" % (self.tolerance,))
        shift = self.max_shift()
        levels = range(1, self.truncation - shift) if self.levels is None else self.levels
        with _field("levels"):
            levels = tuple(map(_integer, _listed(levels)))
        self.levels = validate_levels(levels, shift, self.truncation)
        self.checks = validate_checks(self.checks)
        if not self.levels and not LEVEL_FREE_CHECKS.issuperset(self.checks):
            raise ConfigError("levels: no level selected")
        if self.grid is not None:
            if not isinstance(self.grid, (list, tuple)) or not self.grid:
                raise ConfigError("grid: must be a nonempty list when given")
            pairs = []
            for idx, pair in enumerate(self.grid):
                with _field("grid[%d]" % idx):
                    x, y = map(parse_rational, _listed(pair))
                    if "corollary" in self.checks and self._on_locus(x, y):
                        raise ValueError(
                            "(%s, %s) lies on the singular locus with corollary enabled" % (x, y)
                        )
                pairs.append((x, y))
            self.grid = tuple(pairs)

    @property
    def size(self) -> int:
        return len(self.nvec)

    def max_shift(self) -> int:
        return max(max(self.nvec), max(self.mvec))

    def family(self) -> WeightFamily:
        return WeightFamily(self.nvec, self.mvec, self.seeds, backend=self.backend)

    def grid_pairs(self) -> list:
        """Rational (x, y) pairs: the explicit grid (never empty), or the default lattice."""
        return list(self.grid or ((x, y) for x in DEFAULT_GRID_COORDS for y in DEFAULT_GRID_COORDS))

    def _on_locus(self, x, y) -> bool:
        return any(x**na == y**nb for na in self.nvec for nb in self.nvec)

    def off_locus_pairs(self) -> list:
        """Grid pairs avoiding x^{n_a} == y^{n_b} for all component pairs."""
        return [(x, y) for x, y in self.grid_pairs() if not self._on_locus(x, y)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "N": self.size,
            "nvec": list(self.nvec),
            "mvec": list(self.mvec),
            "seeds": [[[_seed_object(s) for s in entry] for entry in row] for row in self.seeds],
            "L": self.truncation,
            "levels": list(self.levels),
            "backend": self.backend,
            "tolerance": {"abs": self.tolerance.abs_tol, "rel": self.tolerance.rel_tol},
            "grid": None if self.grid is None else [[str(x), str(y)] for x, y in self.grid],
            "checks": list(self.checks),
        }


def validate_checks(checks) -> tuple:
    """At least one check, each in the registry."""
    with _field("checks"):
        checks = tuple(_listed(checks))
        unknown = [c for c in checks if c not in CHECK_REGISTRY]
    if unknown:
        raise ConfigError("checks: unknown check %r" % unknown[0])
    if not checks:
        raise ConfigError("checks: no check selected")
    return checks


# The keys each object of a config file may have, as `config.schema.json` defines them.
SCHEMA_KEYS = {
    "config": frozenset("name N nvec mvec seeds L levels backend tolerance grid checks".split()),
    "tolerance": frozenset("abs rel".split()),
    "seed": frozenset("coeffs measure".split()),
    "measure": frozenset("kind a b".split()),
}


def _known_keys(data: dict, level: str, where: str) -> None:
    unknown = [key for key in data if key not in SCHEMA_KEYS[level]]
    if unknown:
        raise ConfigError("%s: unknown key %r" % (where, unknown[0]))


def _seed_object(seed: SeedWeight) -> dict:
    """The config-file object of a seed, as `_parse_seeds` reads it back."""
    return {"coeffs": [str(c) for c in seed.coeffs], "measure": seed.measure.to_dict()}


def _parse_seeds(node, path: str = "seeds", depth: int = 0):
    """Seed objects -> SeedWeight three lists deep; RunConfig checks the table's shape."""
    if depth < 3:
        if not isinstance(node, list):
            return node
        return [_parse_seeds(v, "%s[%d]" % (path, i), depth + 1) for i, v in enumerate(node)]
    if not isinstance(node, dict) or "coeffs" not in node or "measure" not in node:
        raise ConfigError("%s: seed needs 'coeffs' and 'measure'" % path)
    _known_keys(node, "seed", path)
    with _field(path):
        seed = SeedWeight.of(node["coeffs"], BaseMeasure.from_dict(node["measure"]))
    _known_keys(node["measure"], "measure", path + ".measure")
    return seed


def config_from_dict(data: dict) -> RunConfig:
    """Translate a config file's JSON into a RunConfig, which checks every field; the
    reader owns only its keys (`L` is `truncation`), seed and tolerance objects and `N`."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _known_keys(data, "config", "config")
    missing = [key for key in ("nvec", "mvec", "seeds", "L") if key not in data]
    if missing:
        raise ConfigError("config: missing key %r" % missing[0])
    tol = data.get("tolerance")
    if tol is not None:
        with _field("tolerance"):
            bounds = [tol.get("abs", 1e-9), tol.get("rel", 1e-9)]
            for value in bounds:
                if isinstance(value, (bool, str)):  # float() would read them as numbers
                    raise ValueError("not a number: %r" % (value,))
            tol = Tolerance(*map(float, bounds))
        _known_keys(data["tolerance"], "tolerance", "tolerance")
    config = RunConfig(
        data["nvec"],
        data["mvec"],
        _parse_seeds(data["seeds"]),
        data["L"],
        data.get("levels"),
        backend=data.get("backend", EXACT),
        tolerance=DEFAULT_TOLERANCE if tol is None else tol,
        grid=data.get("grid"),
        checks=CHECK_NAMES if data.get("checks") in (None, []) else data["checks"],
        name=str(data.get("name", "custom")),
    )
    with _field("N"):
        if _integer(data.get("N", config.size)) != config.size:
            raise ValueError("does not match multi-index length %d" % config.size)
    return config


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file."""
    with _field("config"), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("parse error at line %d: %s" % (exc.lineno, exc.msg)) from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Built-in configurations.
# ---------------------------------------------------------------------------


_UNIT_INTERVAL = BaseMeasure.finite_interval(0, 1)

# Built-in demo cases: name -> (nvec, mvec, measure, seed coefficients, L,
# levels, backend).  Seed coefficients are [a][b] -> one ascending
# coefficient list per seed; levels None is every level of the budget.
# `singular` is deliberately rank-deficient: its duplicate seed columns make
# the very first pivot block singular.
_BUILTINS = {
    "hermite": ((1,), (1,), BaseMeasure.gaussian(), [[[[1]]]], 10, range(1, 7), FLOAT),
    "legendre": ((1,), (1,), _UNIT_INTERVAL, [[[[1]]]], 8, None, EXACT),
    "multigraded-12": ((1,), (2,), _UNIT_INTERVAL, [[[[1], [0, 0, 0, 0, 0, 1]]]], 10, None, EXACT),
    "multigraded-n2": (
        (1, 2),
        (2, 1),
        _UNIT_INTERVAL,
        [[[[1], [0, 1]], [[1, 1]]], [[[1, 1], [0, 0, 1]], [[2, -1]]]],
        10,
        None,
        EXACT,
    ),
    "singular": ((1, 1), (1, 1), _UNIT_INTERVAL, [[[[1]], [[1]]], [[[1]], [[1]]]], 4, (1,), EXACT),
}

BUILTIN_CASES = tuple(_BUILTINS)


def builtin_config(name: str) -> RunConfig:
    """The built-in demo configuration `name`, one of `BUILTIN_CASES`."""
    if name not in _BUILTINS:
        raise ConfigError("unknown built-in case %r" % name)
    nvec, mvec, measure, coeffs, truncation, levels, backend = _BUILTINS[name]
    seeds = [[[SeedWeight.of(c, measure) for c in entry] for entry in row] for row in coeffs]
    return RunConfig(nvec, mvec, seeds, truncation, levels, backend=backend, name=name)


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
            "checks": [asdict(e) for e in self.entries],
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


class _Runner:
    """One run's family, factors, point table and evaluators; every cache lives here."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._memo = {}
        self.fam = config.family()
        # The family's rules are checked by the build, before the grid's.
        self.g = build_moment_matrix(self.fam, config.truncation)
        seeds = [
            ((a, b, r), seed)
            for a, row in enumerate(self.fam.seeds)
            for b, entry in enumerate(row)
            for r, seed in enumerate(entry)
        ]
        # Exact weights have values only on finite intervals, and only inside them.
        exact = config.backend == EXACT
        self.pointwise_ok = not exact or all(s.measure.kind == FINITE_INTERVAL for _, s in seeds)
        if exact and self.pointwise_ok and any(CHECK_REGISTRY[c] for c in config.checks):
            where = "grid[%d]" if config.grid is not None else "grid (default lattice, pair %d)"
            for idx, (x, _) in enumerate(config.grid_pairs()):
                for (a, b, r), seed in seeds:
                    if not seed.measure.in_support(x):
                        raise ConfigError(
                            "%s: x=%s lies outside the support of seed %d of entry (%d,%d)"
                            % (where % idx, x, r, a, b)
                        )
        self.tol = config.tolerance
        self.factors = lu_factorize(self.g)
        self.table = PointTable(self.fam, self.g, self.factors, self.points)

    @memoized
    def evaluator(self, level: int) -> KernelEvaluator:
        return KernelEvaluator(self.fam, self.g, self.factors, level, table=self.table)

    @cached_property
    def points(self) -> list:
        return [(self._coord(x), self._coord(y)) for x, y in self.config.grid_pairs()]

    @cached_property
    def off_locus_points(self) -> list:
        return [(self._coord(x), self._coord(y)) for x, y in self.config.off_locus_pairs()]

    @memoized
    def _coord(self, v):
        """v in the run's backend, one object per value, so table lookups match by identity."""
        return as_backend(v, self.config.backend)

    def _located(self, levels=None):
        """(evaluator, x, y, location) per level, then per grid point."""
        for level in self.config.levels if levels is None else levels:
            ev = self.evaluator(level)
            for x, y in self.points:
                yield ev, x, y, "l=%d (x,y)=(%s,%s)" % (level, x, y)

    # -- individual checks ---------------------------------------------------

    def check_symmetry(self, acc: ResidualTracker):
        acc.merge(
            check_multigraded_symmetry(self.g, self.fam.nvec, self.fam.mvec, self.tol), ""
        )

    def check_factorization(self, acc: ResidualTracker):
        acc.record(factorization_residual(self.g, self.factors), self.g.maxnorm(), "full product")
        nested, level = nested_truncation_residual(self.g, self.factors)
        acc.record(nested, self.g.maxnorm(), "truncation l=%s" % level)

    def check_biorthogonality(self, acc: ResidualTracker):
        acc.merge(check_biorthogonality(self.g, self.factors, self.tol), "")

    def check_matrix_notation(self, acc: ResidualTracker):
        for level in self.config.levels:
            acc.merge(
                check_matrix_notation(self.g, self.factors, level, self.tol), "l=%d" % level
            )

    def check_abc(self, acc: ResidualTracker):
        for ev, x, y, where in self._located():
            acc.record_gap(ev.kernel_sum(x, y), ev.kernel_abc(x, y), where, self.config.backend)

    def check_reproducing(self, acc: ResidualTracker):
        for ev, x, y, where in self._located():
            acc.record(ev.reproducing_residual(x, y), self.g.maxnorm(), where)

    def check_projections(self, acc: ResidualTracker):
        total = self.config.truncation
        polys, forms = self.table.polys, self.table.forms
        zero = MatrixPolynomial.of(self.fam.size, [])
        for level in self.config.levels:
            ev = self.evaluator(level)
            for k in range(total):
                for kind, project, member in (
                    ("polynomial", ev.project_poly, polys[k]),
                    ("dual", ev.project_form, forms[k]),
                ):
                    acc.record(
                        poly_residual(
                            project(member), member if k < level else zero, self.config.backend
                        ),
                        self.g.maxnorm(),
                        "l=%d %s k=%d" % (level, kind, k),
                    )
            for deg in range(total):
                once = ev.project_poly(self.table.monomials[deg])
                twice = ev.project_poly(once)
                acc.record(
                    poly_residual(once, twice, self.config.backend),
                    self.g.maxnorm(),
                    "l=%d idempotence deg=%d" % (level, deg),
                )

    def check_proposition(self, acc: ResidualTracker):
        for ev, x, y, where in self._located():
            acc.record_gap(ev.cd_lhs(x, y), ev.cd_rhs_schur(x, y), where, self.config.backend)

    def check_theorem(self, acc: ResidualTracker):
        threshold = self.config.max_shift()
        for level in self.config.levels:
            if level < threshold:
                note = below_shift_bound(level, threshold)
                acc.notes.append("l=%d not asserted: %s" % (level, note))
                continue
            for ev, x, y, where in self._located((level,)):
                acc.record_gap(
                    ev.cd_lhs(x, y), ev.cd_rhs_associated(x, y), where, self.config.backend
                )

    def check_corollary(self, acc: ResidualTracker):
        threshold = self.config.max_shift()
        exact = self.config.backend == EXACT  # `approx_zero` ignores an exact scale
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
                norm = 0 if exact else matrix_residual_norm(kernel)
                for a in range(self.fam.size):
                    for b in range(self.fam.size):
                        q = ev.cd_entry_quotient(a, b, x, y)
                        acc.record(
                            abs(q - kernel[a][b]),
                            0 if exact else max(abs(q), norm),
                            "l=%d (a,b)=(%d,%d) (x,y)=(%s,%s)" % (level, a, b, x, y),
                        )

    def check_connection(self, acc: ResidualTracker):
        self._associated_loop(
            acc,
            lambda level, j: check_connection_formulas(self.g, self.factors, level, j, self.tol),
        )

    def check_modified_orthogonality(self, acc: ResidualTracker):
        self._associated_loop(
            acc, lambda level, j: check_modified_orthogonality(self.g, level, j, self.tol)
        )

    def _associated_loop(self, acc: ResidualTracker, outcome):
        """Merge outcome(level, j) for every level and j <= min(level, 3, L - 1 - level)."""
        total = self.config.truncation
        for level in self.config.levels:
            for j in range(min(level, 3, total - 1 - level) + 1):
                acc.merge(outcome(level, j), "l=%d j=%d" % (level, j))

    def check_classical(self, acc: ResidualTracker):
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
                if seed.measure.kind == FINITE_INTERVAL:
                    span = seed.measure.b - seed.measure.a
                    x = seed.measure.a + x * span
                    y = seed.measure.a + y * span
            else:
                x = rng.uniform(-2.0, 2.0)
                y = rng.uniform(-2.0, 2.0)
            if x != y:
                points.append((x, y))
        # The run's moment matrix is the seed's Hankel matrix, truncated at L > top.
        for degree in range(1, min(6, self.config.truncation - 2) + 1):
            for x, y in points:
                res = classical_cd(seed, degree, x, y, self.config.backend, table=self.table)
                where = "n=%d (x,y)=(%s,%s)" % (degree, x, y)
                acc.record_gap(res.lhs, res.rhs, where, self.config.backend)


class _Skip(Exception):
    pass


def run(config: RunConfig) -> CheckReport:
    """Execute the requested checks in declaration order.

    Raises ConfigError for invalid family/backend combinations and
    SingularLeadingMinorError when the moment matrix is not factorizable.
    """
    runner = _Runner(config)
    entries = []
    for name, pointwise in CHECK_REGISTRY.items():
        if name not in config.checks:
            continue
        acc = ResidualTracker(config.tolerance)
        started = time.monotonic()
        status = STATUS_PASS
        if pointwise and not runner.pointwise_ok:
            status = STATUS_SKIPPED
            acc.notes.append("pointwise weight values are irrational in exact mode")
        else:
            # Looked up at call time, so a wrapper installed on the class counts.
            check = getattr(runner, "check_" + name.replace("-", "_"))
            try:
                check(acc)
                status = STATUS_PASS if acc.passed else STATUS_FAIL
            except _Skip as skip:
                status = STATUS_SKIPPED
                acc.notes.append(str(skip))
        elapsed = int((time.monotonic() - started) * 1000)
        outcome = acc.result()
        entries.append(
            CheckEntry(
                check=name,
                status=status,
                residual=scalar_str(outcome.residual),
                worst_point=outcome.worst,
                elapsed_ms=elapsed,
                notes=list(outcome.notes),
            )
        )
    return CheckReport(backend=config.backend, config=config.to_dict(), entries=entries)
