"""A RunConfig obeys one set of rules however it is made, and the built-in
configs stay as they were.

The rules live in `RunConfig.__post_init__`, type and shape rules included;
a config file, command-line overrides, `dataclasses.replace` and a direct
constructor call all reach them.  A rejected config never reaches `run()`.
The file reader adds only the rules of its own format: the keys
`config.schema.json` defines and requires, and `N`.  A direct
`WeightFamily(...)` applies the multi-index, backend and seed-table rules
with the same messages.
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mghankel import cli
from mghankel.harness import (
    BUILTIN_CASES,
    SCHEMA_KEYS,
    ConfigError,
    RunConfig,
    builtin_config,
    config_from_dict,
    run,
)
from mghankel.numerics import Tolerance
from mghankel.weights import BaseMeasure, SeedWeight, WeightFamily

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
    # With no grid point, the pointwise checks would pass over nothing.
    "empty grid": (
        {"grid": (), "checks": ("abc",)},
        "grid: must be a nonempty list when given",
    ),
    "level not a number": (
        {"levels": ("a",)},
        "levels: invalid literal for int() with base 10: 'a'",
    ),
    "L not a number": (
        {"truncation": "x"},
        "L: invalid literal for int() with base 10: 'x'",
    ),
    "multi-index not a number": (
        {"nvec": ("x",), "mvec": ("x",)},
        "nvec/mvec: invalid literal for int() with base 10: 'x'",
    ),
    "fractional multi-index": ({"nvec": (1.5,)}, "nvec/mvec: not an integer: 1.5"),
    "bool multi-index": ({"nvec": (True,)}, "nvec/mvec: not an integer: True"),
    "unequal multi-indices": (
        {"nvec": (1, 1)},
        "nvec/mvec: must be nonempty and of equal length",
    ),
    "bool grid pair": (
        {"grid": ([True, False],)},
        "grid[0]: not a rational: True (use ints or 'p/q' strings)",
    ),
    "bool coefficient": (
        {"coeffs": ("1", True)},
        "seeds[0][0][0]: not a rational: True (use ints or 'p/q' strings)",
    ),
    "bool interval end": (
        {"measure": {"b": True}},
        "seeds[0][0][0]: not a rational: True (use ints or 'p/q' strings)",
    ),
    "zero-denominator grid": (
        {"grid": (("1/0", "1/2"),)},
        "grid[0]: zero denominator in '1/0'",
    ),
    "zero-denominator coefficient": (
        {"coeffs": ("1", "1/0")},
        "seeds[0][0][0]: zero denominator in '1/0'",
    ),
    "zero-denominator interval end": (
        {"measure": {"a": "-1/0"}},
        "seeds[0][0][0]: zero denominator in '-1/0'",
    ),
    # A str, bytes or dict would be read item by item.
    "levels as text": ({"levels": "12"}, "levels: must be a list"),
    "coefficients as text": ({"coeffs": "12"}, "seeds[0][0][0]: coeffs: must be a list"),
    "grid pair as text": ({"grid": ("12",)}, "grid[0]: must be a list"),
    "multi-indices as text": ({"nvec": "1", "mvec": "1"}, "nvec/mvec: must be a list"),
    "checks as text": ({"checks": "abc"}, "checks: must be a list"),
    "checks as an object": ({"checks": {"abc": 1}}, "checks: must be a list"),
}

# RunConfig field -> config-file key, where they differ.
FILE_KEYS = {"truncation": "L"}

# Keys of the legendre seed object (seeds[0][0][0]) in its file form, which
# only a config file can set; a code route passes SeedWeight objects.
SEED_KEYS = frozenset({"coeffs", "measure"})


def file_form(config: RunConfig, changes: dict) -> dict:
    """The config-file form of `config` with `changes` applied."""
    data = config.to_dict()
    seed = data["seeds"][0][0][0]
    for key, value in changes.items():
        if key == "grid":
            value = [[str(v) for v in p] if isinstance(p, tuple) else p for p in value]
        elif isinstance(value, tuple):
            value = list(value)
        if key == "measure":
            seed["measure"].update(value)
        elif key in SEED_KEYS:
            seed[key] = value
        else:
            data[FILE_KEYS.get(key, key)] = value
    return data


def from_file(changes, tmp_path, capsys):
    return config_from_dict(file_form(builtin_config("legendre"), changes))


def from_cli(changes, tmp_path, capsys):
    """`verify`: nonempty level lists and check lists come as overrides,
    everything else from the file, whose own check is level-free unless the
    file holds the case's checks."""
    overrides = {
        k: v
        for k, v in changes.items()
        if isinstance(v, tuple) and (k == "checks" or (k == "levels" and v))
    }
    in_file = {k: v for k, v in changes.items() if k not in overrides}
    path = tmp_path / "config.json"
    file_data = file_form(builtin_config("legendre"), dict({"checks": ("symmetry",)}, **in_file))
    path.write_text(json.dumps(file_data))
    argv = ["verify", "--config", str(path)]
    if "levels" in overrides:
        argv += ["--levels", ",".join(str(l) for l in overrides["levels"])]
    if "checks" in overrides:
        argv += ["--checks", ",".join(overrides["checks"]) or ","]
    assert cli.main(argv) == 2
    raise ConfigError(capsys.readouterr().err.removeprefix("error: ").removesuffix("\n"))


def from_replace(changes, tmp_path, capsys):
    return dataclasses.replace(builtin_config("legendre"), **changes)


def from_constructor(changes, tmp_path, capsys):
    base = builtin_config("legendre")
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(RunConfig)}
    return RunConfig(**dict(fields, **changes))


# The RunConfig fields a WeightFamily takes, under the same names.
FAMILY_FIELDS = frozenset({"nvec", "mvec", "seeds", "backend"})


def from_family(changes, tmp_path, capsys):
    """A direct WeightFamily(...) of the changed config's family fields."""
    base = builtin_config("legendre")
    return WeightFamily(**{key: changes.get(key, getattr(base, key)) for key in FAMILY_FIELDS})


ROUTES = {
    "file": from_file,
    "cli": from_cli,
    "replace": from_replace,
    "constructor": from_constructor,
    "family": from_family,
}


def applies(route: str, changes: dict) -> bool:
    """The family route takes only the cases that change family fields, and
    only the file and CLI routes take changes to the seed object."""
    if route == "family":
        return FAMILY_FIELDS.issuperset(changes)
    return route in ("file", "cli") or SEED_KEYS.isdisjoint(changes)


# A config file reads `"checks": []` as every check, so it has no empty check list.
ROUTE_CASES = [
    (r, c)
    for r in ROUTES
    for c in CASES
    if (r, c) != ("file", "no check") and applies(r, CASES[c][0])
]


@pytest.mark.parametrize("route,case", ROUTE_CASES)
def test_every_route_applies_the_same_rules(route, case, tmp_path, capsys, monkeypatch):
    def refuse(config):
        raise AssertionError("run() started on a rejected config")

    monkeypatch.setattr(cli, "run", refuse)
    changes, message = CASES[case]
    with pytest.raises(ConfigError) as info:
        ROUTES[route](changes, tmp_path, capsys)
    assert str(info.value) == message


# (changes a code route can make to exact legendre; the message)
CODE_ONLY_CASES = {
    "bool level": ({"levels": (True,)}, "levels: not an integer: True"),
    "fractional level": ({"levels": (Fraction(5, 2),)}, "levels: not an integer: Fraction(5, 2)"),
    "fractional L": ({"truncation": Fraction(17, 2)}, "L: not an integer: Fraction(17, 2)"),
    "empty seed row": ({"seeds": ((),)}, "seeds: must be an 1 x 1 table of seed lists"),
    "seed not a SeedWeight": (
        {"seeds": ((("1",),),)},
        "seeds: must be an 1 x 1 table of seed lists",
    ),
    "tolerance pair": (
        {"tolerance": (1e-9, 1e-9)},
        "tolerance: must be a Tolerance, got (1e-09, 1e-09)",
    ),
    "float grid in a float run": (
        {"grid": ((0.25, 0.5),), "backend": "float"},
        "grid[0]: not a rational: 0.25 (use ints or 'p/q' strings)",
    ),
    "grid pair of three": (
        {"grid": ((Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),)},
        "grid[0]: too many values to unpack (expected 2)",
    ),
}


@pytest.mark.parametrize(
    "case,route",
    [
        (c, r)
        for c in CODE_ONLY_CASES
        for r in ("replace", "constructor", "family")
        if applies(r, CODE_ONLY_CASES[c][0])
    ],
)
def test_code_routes_refuse_what_a_file_cannot_say(route, case, tmp_path, capsys):
    changes, message = CODE_ONLY_CASES[case]
    with pytest.raises(ConfigError) as info:
        ROUTES[route](changes, tmp_path, capsys)
    assert str(info.value) == message


def test_code_routes_store_normalized_fields():
    """Numeric strings and integral floats are read as a file reads them, and
    every table is stored as tuples."""
    base = builtin_config("legendre")
    config = dataclasses.replace(
        base,
        nvec=["1"],
        mvec=(1.0,),
        truncation="8",
        levels=["3", 4.0],
        seeds=[[list(base.seeds[0][0])]],
        grid=[["1/3", 2]],
    )
    assert (config.nvec, config.mvec, config.truncation, config.levels) == ((1,), (1,), 8, (3, 4))
    assert config.seeds == base.seeds
    assert config.grid == ((Fraction(1, 3), Fraction(2)),)


SCHEMA = json.loads((Path(__file__).parent.parent / "config.schema.json").read_text())


def test_the_reader_knows_the_schema_keys_at_every_closed_level():
    seed = SCHEMA["$defs"]["seed"]
    levels = {
        "config": SCHEMA,
        "tolerance": SCHEMA["properties"]["tolerance"],
        "seed": seed,
        "measure": seed["properties"]["measure"],
    }
    assert set(SCHEMA_KEYS) == set(levels)
    for level, node in levels.items():
        assert node["additionalProperties"] is False, level
        assert SCHEMA_KEYS[level] == set(node["properties"]), level


def test_the_reader_requires_the_schema_required_keys():
    """Each key the schema requires is refused by name when absent; without
    every optional key the file still loads."""
    full = builtin_config("legendre").to_dict()
    for key in SCHEMA["required"]:
        data = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert str(info.value) == "config: missing key %r" % key
    required = {k: v for k, v in full.items() if k in SCHEMA["required"]}
    assert config_from_dict(required).truncation == 8


def with_seed_keys(**extra) -> dict:
    data = builtin_config("legendre").to_dict()
    seed = data["seeds"][0][0][0]
    seed.update(extra.get("seed", {}))
    seed["measure"].update(extra.get("measure", {}))
    return data


# (config file, the message): a key the schema does not define, at each level
UNKNOWN_KEYS = {
    "config": (
        dict(builtin_config("legendre").to_dict(), level=[3]),
        "config: unknown key 'level'",
    ),
    "tolerance": (
        dict(builtin_config("legendre").to_dict(), tolerance={"abs": 1e-9, "relative": 1e-6}),
        "tolerance: unknown key 'relative'",
    ),
    "seed": (with_seed_keys(seed={"weight": 2}), "seeds[0][0][0]: unknown key 'weight'"),
    "measure": (
        with_seed_keys(measure={"c": "2"}),
        "seeds[0][0][0].measure: unknown key 'c'",
    ),
}


@pytest.mark.parametrize("level", UNKNOWN_KEYS)
def test_a_key_the_schema_does_not_define_is_refused(level, tmp_path, capsys):
    data, message = UNKNOWN_KEYS[level]
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("key", ["abs", "rel"])
def test_a_nan_tolerance_is_refused(key, tmp_path, capsys):
    """NaN compares false with everything, so it would fail every float check."""
    data = builtin_config("hermite").to_dict()
    data["tolerance"][key] = float("nan")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: tolerance: tolerances must be nonnegative\n"
    with pytest.raises(ValueError, match="^tolerances must be nonnegative$"):
        Tolerance(**{key + "_tol": float("nan")})


@pytest.mark.parametrize("key", ["abs", "rel"])
def test_an_infinite_tolerance_is_refused(key, tmp_path, capsys):
    """JSON reads 1e999 as inf, which would pass every finite float residual."""
    data = dataclasses.replace(builtin_config("legendre"), backend="float").to_dict()
    data["tolerance"][key] = "INF"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data).replace('"INF"', "1e999"))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: tolerance: tolerances must be finite\n"
    with pytest.raises(ValueError, match="^tolerances must be finite$"):
        Tolerance(**{key + "_tol": math.inf})


@pytest.mark.parametrize("key", ["abs", "rel"])
@pytest.mark.parametrize("value", [True, False, "1e-3", "0"])
def test_a_bool_or_text_tolerance_is_refused(key, value, tmp_path, capsys):
    """`float()` reads true as 1.0, which would pass every float residual
    under 1, and numeric text as its number; the schema takes numbers only."""
    data = dataclasses.replace(builtin_config("legendre"), backend="float").to_dict()
    data["tolerance"][key] = value
    message = "tolerance: not a number: %r" % (value,)
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    with pytest.raises(ValueError, match="^tolerances must be numbers, not bools or text$"):
        Tolerance(**{key + "_tol": value})


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


def test_a_seed_refuses_text_coefficients_and_zero_denominators():
    """The code route of the seed object's rules: `SeedWeight.of` itself."""
    unit = BaseMeasure.finite_interval(0, 1)
    with pytest.raises(TypeError, match="^coeffs: must be a list$"):
        SeedWeight.of("12", unit)
    with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
        SeedWeight.of(["1/0"], unit)
    with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
        BaseMeasure.finite_interval("1/0", 1)
    not_rational = "^not a rational: True \\(use ints or 'p/q' strings\\)$"
    with pytest.raises(ValueError, match=not_rational):
        SeedWeight.of([1, True], unit)
    with pytest.raises(ValueError, match=not_rational):
        BaseMeasure.finite_interval(0, True)


# A valid config whose every check runs in milliseconds; one field, or one
# item of a field, is replaced by junk.
JUNK_BASE = {
    "name": "junk",
    "N": 1,
    "nvec": [1],
    "mvec": [1],
    "seeds": [[[{"coeffs": ["1", "1/2"], "measure": {"kind": "finite_interval", "a": 0, "b": 1}}]]],
    "L": 5,
    "levels": [1, 2],
    "backend": "exact",
    "tolerance": {"abs": 1e-9, "rel": 1e-9},
    "grid": [["1/3", "2/3"]],
    "checks": ["symmetry", "abc", "theorem", "corollary", "classical"],
}
SEED = ("seeds", 0, 0, 0)
JUNK_PATHS = [(key,) for key in JUNK_BASE] + [
    (*SEED, "coeffs"),
    (*SEED, "coeffs", 1),
    (*SEED, "measure"),
    (*SEED, "measure", "kind"),
    (*SEED, "measure", "a"),
    (*SEED, "measure", "b"),
    ("tolerance", "abs"),
    ("nvec", 0),
    ("levels", 0),
    ("grid", 0),
    ("grid", 0, 0),
    ("grid", 0, 1),
    ("checks", 0),
]
# No digits in free text: a numeric string could name a truncation too large to run.
junk_scalars = (
    st.text(alphabet="ab x/.-e", max_size=5)
    | st.integers(-9, 9).map("{}/0".format)
    | st.floats(-12, 12)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.booleans()
    | st.integers(-3, 12)
    | st.none()
)
junk = st.recursive(
    junk_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abk", max_size=3), inner, max_size=2),
    max_leaves=5,
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(JUNK_PATHS), junk)
def test_no_config_file_ends_in_a_traceback(tmp_path_factory, path, value):
    """Junk in any field of a valid config exits 0, 1 or 2, and a 2 writes
    exactly one `error:` line."""
    data = copy.deepcopy(JUNK_BASE)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path_factory.mktemp("junk") / "config.json"
    config.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--config", str(config)])
    assert code in (0, 1, 2)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 2), err.getvalue()
