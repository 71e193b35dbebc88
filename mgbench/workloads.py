"""Seeded workload generator.

Every workload is a list of `RunConfig`s built from the workload seed
alone; the library receives only these configs.  Each config can also be
written in the `config.schema.json` format, so `mghankel verify --config`
reproduces it.

Workloads:

* ``exact-demos``: the exact built-ins legendre, multigraded-12 and
  multigraded-n2 with every check, on a seeded 5x5 grid (pointwise path).
* ``deep-structural``: seeded exact families with N=1, 2, 3 and only the
  coefficient-space checks (factorization, associated solves, no kernels).
* ``float-demos``: hermite plus the three exact built-ins with the float
  backend, every check, on the same seeded grid.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from fractions import Fraction

from mghankel import (
    BaseMeasure,
    SeedWeight,
    SingularLeadingMinorError,
    build_moment_matrix,
    builtin_config,
    lu_factorize,
)
from mghankel.harness import RunConfig

EXACT_DEMOS = "exact-demos"
DEEP_STRUCTURAL = "deep-structural"
FLOAT_DEMOS = "float-demos"
WORKLOADS = (EXACT_DEMOS, DEEP_STRUCTURAL, FLOAT_DEMOS)

# Kernel levels checked on the demo cases.  The built-ins default to every
# level of their budget, which makes one exact pass take about 17 s; three
# levels spread from low to high keep each pass near 6 s and keep the
# pointwise path dominant.
DEMO_LEVELS = (2, 4, 6)

# Grid coordinates are x = p/7 and y = q/9 in lowest terms.  Coprime
# denominators keep every pair off the locus x^a == y^b, and fixed
# denominators keep the amount of rational work the same for every seed.
GRID_X_DENOMINATOR = 7
GRID_Y_DENOMINATOR = 9
GRID_SIDE = 5

COEFFICIENT_CHECKS = (
    "symmetry",
    "factorization",
    "biorthogonality",
    "matrix-notation",
    "connection",
    "modified-orthogonality",
)

# (name, nvec, mvec, L, levels): one seeded family per shape.  Every level
# of each budget would make a pass take about 26 s; these keep it near 5 s
# and still reach the largest leading truncations.
DEEP_SHAPES = (
    ("deep-n1-L20", (1,), (1,), 20, (10, 18)),
    ("deep-n2-L12", (1, 2), (2, 1), 12, (4, 9)),
    ("deep-n3-L10", (1, 1, 1), (1, 1, 1), 10, (7,)),
)

MAX_DRAWS = 50


def seeded_grid(rng: random.Random) -> tuple:
    """5x5 grid of small-denominator rationals in (0, 1)."""
    def numerators(denominator):
        coprime = [p for p in range(1, denominator) if math.gcd(p, denominator) == 1]
        return sorted(rng.sample(coprime, GRID_SIDE))

    xs = numerators(GRID_X_DENOMINATOR)
    ys = numerators(GRID_Y_DENOMINATOR)
    return tuple(
        (Fraction(p, GRID_X_DENOMINATOR), Fraction(q, GRID_Y_DENOMINATOR))
        for p in xs
        for q in ys
    )


def demo_configs(seed: int, backend: str) -> list:
    names = ["legendre", "multigraded-12", "multigraded-n2"]
    if backend == "float":
        names.insert(0, "hermite")
    grid = seeded_grid(random.Random("grid-%d" % seed))
    return [
        dataclasses.replace(
            builtin_config(name), backend=backend, grid=grid, levels=DEMO_LEVELS
        )
        for name in names
    ]


def _seed_weight(rng: random.Random) -> SeedWeight:
    """Small-integer quadratic density on [0, 1]."""
    coeffs = [rng.randint(1, 4), rng.randint(-2, 3), rng.randint(-2, 3)]
    return SeedWeight.of(coeffs, BaseMeasure.finite_interval(0, 1))


def draw_family(rng: random.Random, name, nvec, mvec, truncation, levels) -> tuple:
    """Draw seeds until the moment matrix factorizes; returns (config, redraws)."""
    size = len(nvec)
    for redraws in range(MAX_DRAWS):
        seeds = tuple(
            tuple(tuple(_seed_weight(rng) for _ in range(mvec[b])) for b in range(size))
            for _ in range(size)
        )
        config = RunConfig(
            nvec=nvec,
            mvec=mvec,
            seeds=seeds,
            truncation=truncation,
            levels=levels,
            checks=COEFFICIENT_CHECKS,
            name=name,
        )
        try:
            lu_factorize(build_moment_matrix(config.family(), truncation))
        except SingularLeadingMinorError:
            continue
        return config, redraws
    raise RuntimeError("%s: no factorizable family in %d draws" % (name, MAX_DRAWS))


def deep_configs(seed: int) -> tuple:
    """Seeded deep families and the number of singular draws thrown away."""
    rng = random.Random("deep-%d" % seed)
    configs, redraws = [], 0
    for shape in DEEP_SHAPES:
        config, wasted = draw_family(rng, *shape)
        configs.append(config)
        redraws += wasted
    return configs, redraws


def generate(workload: str, seed: int) -> tuple:
    """(configs, redraws) for a workload and seed."""
    if workload == EXACT_DEMOS:
        return demo_configs(seed, "exact"), 0
    if workload == FLOAT_DEMOS:
        return demo_configs(seed, "float"), 0
    if workload == DEEP_STRUCTURAL:
        return deep_configs(seed)
    raise ValueError("unknown workload %r" % workload)


def write_configs(configs, directory: str) -> list:
    """Write each config as `<name>.json` in the config-file format."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for config in configs:
        path = os.path.join(directory, "%s.json" % config.name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config.to_dict(), fh, indent=2)
            fh.write("\n")
        paths.append(path)
    return paths
