"""The report contract: refactors must leave every report byte-identical.

Each digest is the SHA-256 of a report's JSON with the `elapsed_ms` fields
removed (keys sorted, compact separators), for a built-in case at levels
(2, 4).  The exact cases cover every check along the rational path; float
legendre and float multigraded-12 cover the tolerance path, including checks
that fail.  hermite is left out: its moments go through `math.exp`, whose
last bit may differ between libm builds.

One seeded exact family (N=3, shifts (1,1,1)/(1,1,1), L=10, level 7, the
coefficient checks only) guards the coefficient path: its associated
families solve against the largest leading block minors.  A second one
(N=1, density 1 - x on [0, 1], L=20, levels (10, 18)) runs the largest
dense exact products.  Float multigraded-n2 at levels (2, 4) covers float
blocks multiplied against exact zero and identity blocks; at every level of
its budget (1..7) it covers one point table shared by many levels in float.
Exact multigraded-n2 at every level of its budget, every check, covers every
kernel block sum (kernel, reproducing, projections, associated form) at
every level it can take, on the rational path; exact legendre and exact
multigraded-n2 at L=14 and L=20, and exact legendre at L=10, every level
and every check, cover every kernel level's substitutions on the leading
minors of larger runs.
Float legendre at L=12 with only the classical check covers the classical
identity read off a run's factors larger than the classical problem: its
float bits are those of the leading blocks.  multigraded-n2 at levels (0, 1, 2), every
check, exact and float, covers the plus families at level 0 (primal and
dual), the zero kernels of level 0 and the theorem's notes for levels
below the shift bound.  multigraded-n2 at levels (2, 4), every check, exact
and float, over the default lattice without its diagonal (off the singular
locus, and no product of its coordinates: 20 of 25 pairs) covers the
pointwise products taken one pair at a time.

A digest changes only when a report changes.  That is a contract change,
not a refactor: update the digest together with the code that changes the
report, and say so in the changelog.
"""

import dataclasses
import hashlib
import json

import pytest

from mghankel.harness import CHECK_NAMES, DEFAULT_GRID_COORDS, RunConfig, builtin_config, run
from mghankel.weights import BaseMeasure, SeedWeight

PINNED = {
    ("legendre", "exact"): "e4902165b36dd6cb031ecea3d651d41c23a522d2670d97aa18c4a7513b5de51d",
    ("multigraded-12", "exact"): "cbf3048021ce970d6d95df667a90d0a9c7f8fb12e5340b98fb10c604ab688b08",
    ("multigraded-n2", "exact"): "d96ef857d1f59bddba51496c7c9a92b194eba0ab7be88d2dcc097c60b343994b",
    ("legendre", "float"): "e85b30955f91506ec4f2e5cf8543056ffd678ebad3ec6d5bc7f24f7b2c3dda0e",
    ("multigraded-12", "float"): "b9904909919914f31d0da05ee247564803cfedd311b3db198b8c7a3161354481",
}

FLOAT_MGN2_DIGEST = "e1853daa499b4c6338dfa1a76c744b629b51d5782359ba015c8648e37df1808b"
FLOAT_MGN2_ALL_LEVELS_DIGEST = "4fdc9e5107f89e6f890e960f5d729b43820d030d69fd49ea35c48078d94aed28"
EXACT_MGN2_ALL_LEVELS_DIGEST = "a07b33990f61982614a43c114ae342221b1fe9ab6761f5313afa2dae8de0d32e"
FULL_LEVEL_DIGESTS = {
    ("legendre", 10): "94f90f036a2e4fb75db6b1ea67b4954ba144277bd7b47a72035ef36e3edcb479",
    ("legendre", 14): "838900e2e42e2e5e08bd7f752e3799bbac247083cb7b6dd58cdcce3c20672020",
    ("multigraded-n2", 14): "5c39c04ea7cbc0a47a7a3c03ce1bc36a4e87c6f3386ba7f2e57adb5454b185b1",
    ("legendre", 20): "28ead47065038be5837be21c5b3cde93247b9de3ebbc6939000e69a52fe35b37",
    ("multigraded-n2", 20): "5c6bbb2243e92245e49e3c70345575cab87bbb921d61cc17c153aef3cc5e183f",
}
FLOAT_CLASSICAL_L12_DIGEST = "130e69f4a9cb749c7d84865c20270a1de2f7ad50f9de46bd0dc9abd6f41c30f5"
LOW_LEVELS_MGN2_DIGESTS = {
    "exact": "c55fc963ad4dadf90675eb7c0cae18d5674a06fc0b40d90bef089227eded33e1",
    "float": "689b5aca718c0302aa695f175c7f834a9f348399d096ed275f72f506ecf39650",
}
OFF_DIAGONAL_MGN2_DIGESTS = {
    "exact": "cfe707f61ae2c22179d7f7cf89dcab33c15180d811e6323394b078d0635c8b34",
    "float": "2c8b1b5437fa098cace10730f21b39e48cdf5d600fbf618929017e8bde157c13",
}

# Quadratic densities on [0, 1], ascending coefficients, one per (a, b).
DEEP_N3_COEFFS = (
    ((4, 2, 2), (4, 3, -2), (1, -1, -1)),
    ((4, 0, 3), (4, -1, 1), (1, -2, 2)),
    ((4, -1, -1), (4, 0, -1), (1, -2, -1)),
)
DEEP_N3_DIGEST = "9bc5e75e179bd10659a04a04bd151fa7a90424a3e44d37a87425a9384f8e5ce0"
DEEP_N1_DIGEST = "ac6175ed479a523612f8cd22746a81f189e6040ad2fce7af604217e0f4eb3b30"

COEFFICIENT_CHECKS = (
    "symmetry",
    "factorization",
    "biorthogonality",
    "matrix-notation",
    "connection",
    "modified-orthogonality",
)


def deep_n3_config() -> RunConfig:
    unit = BaseMeasure.finite_interval(0, 1)
    return RunConfig(
        nvec=(1, 1, 1),
        mvec=(1, 1, 1),
        seeds=tuple(tuple((SeedWeight.of(c, unit),) for c in row) for row in DEEP_N3_COEFFS),
        truncation=10,
        levels=(7,),
        checks=COEFFICIENT_CHECKS,
        name="deep-n3-L10",
    )


def deep_n1_config() -> RunConfig:
    return RunConfig(
        nvec=(1,),
        mvec=(1,),
        seeds=(((SeedWeight.of((1, -1, 0), BaseMeasure.finite_interval(0, 1)),),),),
        truncation=20,
        levels=(10, 18),
        checks=COEFFICIENT_CHECKS,
        name="deep-n1-L20",
    )


def report_digest(report: dict) -> str:
    for entry in report["checks"]:
        del entry["elapsed_ms"]
    payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case,backend", sorted(PINNED))
def test_report_digest_is_pinned(case, backend):
    config = dataclasses.replace(builtin_config(case), levels=(2, 4), backend=backend)
    assert report_digest(run(config).to_dict()) == PINNED[case, backend]


def test_coefficient_path_report_digest_is_pinned():
    assert report_digest(run(deep_n3_config()).to_dict()) == DEEP_N3_DIGEST


def test_large_dense_product_report_digest_is_pinned():
    assert report_digest(run(deep_n1_config()).to_dict()) == DEEP_N1_DIGEST


def test_float_blocks_against_exact_blocks_report_digest_is_pinned():
    config = dataclasses.replace(builtin_config("multigraded-n2"), levels=(2, 4), backend="float")
    assert report_digest(run(config).to_dict()) == FLOAT_MGN2_DIGEST


def test_float_table_shared_by_every_level_report_digest_is_pinned():
    config = dataclasses.replace(
        builtin_config("multigraded-n2"), levels=tuple(range(1, 8)), backend="float"
    )
    assert report_digest(run(config).to_dict()) == FLOAT_MGN2_ALL_LEVELS_DIGEST


def test_exact_block_sums_at_every_level_report_digest_is_pinned():
    config = dataclasses.replace(builtin_config("multigraded-n2"), levels=tuple(range(1, 8)))
    assert config.backend == "exact" and len(config.checks) == len(CHECK_NAMES)
    assert report_digest(run(config).to_dict()) == EXACT_MGN2_ALL_LEVELS_DIGEST


@pytest.mark.parametrize("case,truncation", sorted(FULL_LEVEL_DIGESTS))
def test_every_level_of_a_larger_run_report_digest_is_pinned(case, truncation):
    config = dataclasses.replace(builtin_config(case), truncation=truncation, levels=None)
    assert config.backend == "exact" and len(config.checks) == len(CHECK_NAMES)
    assert report_digest(run(config).to_dict()) == FULL_LEVEL_DIGESTS[case, truncation]


def test_float_classical_from_a_larger_run_report_digest_is_pinned():
    config = dataclasses.replace(
        builtin_config("legendre"), truncation=12, backend="float", checks=("classical",)
    )
    assert report_digest(run(config).to_dict()) == FLOAT_CLASSICAL_L12_DIGEST


@pytest.mark.parametrize("backend", sorted(LOW_LEVELS_MGN2_DIGESTS))
def test_levels_from_zero_report_digest_is_pinned(backend):
    config = dataclasses.replace(
        builtin_config("multigraded-n2"), levels=(0, 1, 2), backend=backend
    )
    assert len(config.checks) == len(CHECK_NAMES)
    assert report_digest(run(config).to_dict()) == LOW_LEVELS_MGN2_DIGESTS[backend]


@pytest.mark.parametrize("backend", sorted(OFF_DIAGONAL_MGN2_DIGESTS))
def test_grid_that_is_no_product_report_digest_is_pinned(backend):
    coords = DEFAULT_GRID_COORDS
    grid = tuple((x, y) for x in coords for y in coords if x != y)
    config = dataclasses.replace(
        builtin_config("multigraded-n2"), levels=(2, 4), backend=backend, grid=grid
    )
    assert len(config.checks) == len(CHECK_NAMES)
    assert report_digest(run(config).to_dict()) == OFF_DIAGONAL_MGN2_DIGESTS[backend]
