"""A RunConfig obeys one set of rules however it is made, and the built-in
configs stay as they were.

The rules live in `RunConfig.__post_init__`; a config file, command-line
overrides, `dataclasses.replace` and a direct constructor call all reach
them.  A rejected config never reaches `run()`.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from mghankel import cli
from mghankel.harness import (
    BUILTIN_CASES,
    ConfigError,
    RunConfig,
    builtin_config,
    config_from_dict,
    run,
)

# SHA-256 of each built-in's `to_dict()` (keys sorted, compact separators).
BUILTIN_CONFIG_DIGESTS = {
    "hermite": "e3572e4a15833970478bb722d009f4bb0f841663585398ea595cfe91cd69d331",
    "legendre": "3b8a921db705774ca77cd01ad8c570dba56e678f8246666c31668c410ed622aa",
    "multigraded-12": "3080afe981e90a7969b851dca26ca396c672e6c6a5e1da3d6474113d08bfac54",
    "multigraded-n2": "776d7a7c7ac161694003bb0a13d6c7de4081b36a519c02b439a7e9494f14a37e",
    "singular": "d3e469492ebe957ff35e820603bba3fda46f1bb33402a7665d98835ea783d91a",
}


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_builtin_config_is_pinned(name):
    payload = json.dumps(builtin_config(name).to_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == BUILTIN_CONFIG_DIGESTS[name]


def test_builtin_cases_are_the_pinned_ones():
    assert BUILTIN_CASES == tuple(BUILTIN_CONFIG_DIGESTS)
    with pytest.raises(ConfigError, match="^unknown built-in case 'nope'$"):
        builtin_config("nope")


BUDGET = "levels: l=%d violates the truncation budget (need l + 1 < L=8)"

# (changes to exact legendre, L = 8 and max shift 1; the message every route raises)
CASES = {
    "level 50": ({"levels": (50,)}, BUDGET % 50),
    "level 7": ({"levels": (7,)}, BUDGET % 7),
    "level -1": ({"levels": (-1,)}, BUDGET % -1),
    "no level": ({"levels": (), "checks": ("abc",)}, "levels: no level selected"),
    "no check": ({"checks": ()}, "checks: no check selected"),
    "on-locus grid": (
        {"grid": ((Fraction(1, 2), Fraction(1, 2)),), "checks": ("corollary",)},
        "grid[0]: (1/2, 1/2) lies on the singular locus with corollary enabled",
    ),
    "no multi-index": (
        {"nvec": (), "mvec": ()},
        "nvec/mvec: must be nonempty and of equal length",
    ),
    "unknown backend": ({"backend": "bogus"}, "backend: must be one of ('exact', 'float')"),
    "empty matrix": (
        {"truncation": 0, "levels": (), "checks": ("symmetry",)},
        "L: must be >= 1",
    ),
}

# RunConfig field -> config-file key, where they differ.
FILE_KEYS = {"truncation": "L"}


def file_form(config: RunConfig, changes: dict) -> dict:
    """The config-file form of `config` with `changes` applied."""
    data = config.to_dict()
    for key, value in changes.items():
        if key == "grid":
            value = [[str(x), str(y)] for x, y in value]
        elif isinstance(value, tuple):
            value = list(value)
        data[FILE_KEYS.get(key, key)] = value
    return data


def from_file(changes, tmp_path, capsys):
    return config_from_dict(file_form(builtin_config("legendre"), changes))


def from_cli(changes, tmp_path, capsys):
    """`verify`: nonempty levels and checks come as overrides, everything
    else from the file, whose own check is level-free."""
    in_file = {k: v for k, v in changes.items() if k not in ("levels", "checks") or v == ()}
    in_file = dict(in_file, checks=("symmetry",))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(file_form(builtin_config("legendre"), in_file)))
    argv = ["verify", "--config", str(path)]
    if changes.get("levels"):
        argv += ["--levels", ",".join(str(l) for l in changes["levels"])]
    if "checks" in changes:
        argv += ["--checks", ",".join(changes["checks"]) or ","]
    assert cli.main(argv) == 2
    raise ConfigError(capsys.readouterr().err.removeprefix("error: ").removesuffix("\n"))


def from_replace(changes, tmp_path, capsys):
    return dataclasses.replace(builtin_config("legendre"), **changes)


def from_constructor(changes, tmp_path, capsys):
    base = builtin_config("legendre")
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(RunConfig)}
    return RunConfig(**dict(fields, **changes))


ROUTES = {
    "file": from_file,
    "cli": from_cli,
    "replace": from_replace,
    "constructor": from_constructor,
}

# A config file reads `"checks": []` as every check, so it has no empty check list.
ROUTE_CASES = [(r, c) for r in ROUTES for c in CASES if (r, c) != ("file", "no check")]


@pytest.mark.parametrize("route,case", ROUTE_CASES)
def test_every_route_applies_the_same_rules(route, case, tmp_path, capsys, monkeypatch):
    def refuse(config):
        raise AssertionError("run() started on a rejected config")

    monkeypatch.setattr(cli, "run", refuse)
    changes, message = CASES[case]
    with pytest.raises(ConfigError) as info:
        ROUTES[route](changes, tmp_path, capsys)
    assert str(info.value) == message


@pytest.mark.parametrize("levels", [(), None])
def test_level_free_checks_run_without_levels(levels):
    """With no level selected, the four level-free checks still run; None
    selects the whole budget."""
    checks = ("symmetry", "factorization", "biorthogonality", "classical")
    config = dataclasses.replace(builtin_config("legendre"), levels=levels, checks=checks)
    assert config.levels == (() if levels == () else tuple(range(1, 7)))
    report = run(config)
    assert [e.check for e in report.entries] == list(checks)
    assert report.exit_code == 0
