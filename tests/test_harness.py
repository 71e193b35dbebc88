import dataclasses
import json
import sys
from fractions import Fraction

import pytest

from mghankel import harness
from mghankel.cdkernel import KernelEvaluator
from mghankel.cli import main as cli_main
from mghankel.harness import (
    CHECK_NAMES,
    CHECK_REGISTRY,
    ConfigError,
    _Runner,
    builtin_config,
    config_from_dict,
    load_config,
    run,
    validate_checks,
    write_report,
)
from mghankel.numerics import SingularLeadingMinorError
from mghankel.weights import validate_family

MINIMAL = {
    "nvec": [1],
    "mvec": [1],
    "seeds": [[[{"coeffs": ["1"], "measure": {"kind": "finite_interval", "a": "0", "b": "1"}}]]],
    "L": 6,
    "levels": [2, 3],
}


def write_json(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_load_minimal_config(tmp_path):
    config = load_config(write_json(tmp_path, MINIMAL))
    assert config.size == 1
    assert config.truncation == 6
    assert config.levels == (2, 3)
    assert config.backend == "exact"
    assert config.checks == CHECK_NAMES


def test_load_rejects_budget_violation(tmp_path):
    bad = dict(MINIMAL, L=3, levels=[3], mvec=[2])
    with pytest.raises(ConfigError, match="truncation budget"):
        load_config(write_json(tmp_path, bad))


def test_load_rejects_singular_locus_grid(tmp_path):
    bad = dict(MINIMAL, grid=[["1/2", "1/2"]])
    with pytest.raises(ConfigError, match="singular locus"):
        load_config(write_json(tmp_path, bad))


def test_offdiagonal_grid_accepted_for_corollary(tmp_path):
    ok = dict(MINIMAL, grid=[["1/3", "2/3"]])
    config = load_config(write_json(tmp_path, ok))
    assert config.grid == ((Fraction(1, 3), Fraction(2, 3)),)


def test_load_reports_parse_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "nvec": [1],\n  oops\n}')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(path))


def test_load_rejects_unknown_check():
    with pytest.raises(ConfigError, match="unknown check"):
        config_from_dict(dict(MINIMAL, checks=["abc", "nonsense"]))


def test_check_registry_order_and_pointwise_flags():
    assert CHECK_NAMES == (
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
    pointwise = tuple(name for name, flag in CHECK_REGISTRY.items() if flag)
    assert pointwise == ("abc", "reproducing", "proposition", "theorem", "corollary")
    for name in CHECK_NAMES:
        assert callable(getattr(_Runner, "check_" + name.replace("-", "_")))


def test_run_dispatches_through_the_runner_class(monkeypatch):
    calls = []

    def spy(self, acc):
        calls.append(self.config.name)
        acc.record(Fraction(1, 8), 1, "spy")

    monkeypatch.setattr(_Runner, "check_symmetry", spy)
    config = config_from_dict(dict(MINIMAL, checks=["symmetry", "factorization"]))
    report = run(config)
    assert calls == ["custom"]
    entry = report.entries[0]
    assert (entry.check, entry.status, entry.residual, entry.worst_point) == (
        "symmetry",
        "fail",
        "0.125",
        "spy",
    )
    assert report.entries[1].status == "pass"


def test_validate_checks_accepts_any_iterable_of_known_names():
    assert validate_checks(c for c in ("abc", "classical")) == ("abc", "classical")
    with pytest.raises(ConfigError) as info:
        validate_checks(["abc", "nonsense"])
    assert str(info.value) == "checks: unknown check 'nonsense'"


def test_cli_unknown_check_message(capsys):
    assert cli_main(["demo", "--case", "legendre", "--checks", "abc,nonsense"]) == 2
    assert capsys.readouterr().err == "error: checks: unknown check 'nonsense'\n"


@pytest.mark.parametrize("checks", [",", " , ,"])
def test_cli_empty_check_list_exits_two(tmp_path, capsys, checks):
    """A --checks list naming no check is a config error, not a vacuous pass."""
    out = tmp_path / "err.json"
    assert cli_main(["demo", "--case", "legendre", "--checks", checks, "--report", str(out)]) == 2
    assert capsys.readouterr().err == "error: checks: no check selected\n"
    assert json.loads(out.read_text()) == {
        "status": "error",
        "error": "config",
        "message": "checks: no check selected",
    }


def test_empty_config_check_list_selects_every_check():
    assert config_from_dict(dict(MINIMAL, checks=[])).checks == CHECK_NAMES
    with pytest.raises(ConfigError, match="^checks: no check selected$"):
        validate_checks(())


def test_load_rejects_bad_seed_shape():
    with pytest.raises(ConfigError, match="seeds"):
        config_from_dict(dict(MINIMAL, seeds=[[]]))


def test_load_rejects_float_grid_in_exact_mode():
    with pytest.raises(ConfigError, match="grid"):
        config_from_dict(dict(MINIMAL, grid=[[0.25, 0.5]]))


def test_default_levels_fill_budget():
    config = config_from_dict(dict(MINIMAL, levels=None))
    assert config.levels == (1, 2, 3, 4)


def test_run_legendre_all_pass():
    report = run(builtin_config("legendre"))
    assert report.all_passed and report.exit_code == 0
    by_name = {e.check: e for e in report.entries}
    assert set(by_name) == set(CHECK_NAMES)
    for name in ("symmetry", "factorization", "abc", "theorem", "corollary"):
        assert by_name[name].status == "pass"
        assert by_name[name].residual == "0"


def test_run_multigraded_all_pass():
    report = run(builtin_config("multigraded-12"))
    assert report.all_passed
    theorem = next(e for e in report.entries if e.check == "theorem")
    assert theorem.residual == "0"
    assert any("l=1" in note for note in theorem.notes)


def test_run_singular_raises_level_zero():
    with pytest.raises(SingularLeadingMinorError) as info:
        run(builtin_config("singular"))
    assert info.value.level == 0


def test_run_respects_check_subset_and_independence():
    import dataclasses

    full = run(builtin_config("legendre"))
    subset = run(dataclasses.replace(builtin_config("legendre"), checks=("abc", "theorem")))
    assert [e.check for e in subset.entries] == ["abc", "theorem"]
    full_by = {e.check: e.residual for e in full.entries}
    for entry in subset.entries:
        assert entry.residual == full_by[entry.check]


def test_exact_laguerre_skips_pointwise_checks():
    config = config_from_dict(
        {
            "nvec": [1],
            "mvec": [1],
            "seeds": [[[{"coeffs": ["1"], "measure": {"kind": "laguerre"}}]]],
            "L": 6,
            "levels": [1, 2],
        }
    )
    report = run(config)
    by_name = {e.check: e for e in report.entries}
    assert by_name["abc"].status == "skipped"
    assert by_name["factorization"].status == "pass"
    assert by_name["biorthogonality"].status == "pass"
    assert by_name["classical"].status == "pass"
    assert report.exit_code == 0


def test_report_roundtrip_and_determinism(tmp_path):
    config = builtin_config("legendre")
    first, second = run(config), run(config)

    def stripped(report):
        data = report.to_dict()
        for entry in data["checks"]:
            entry.pop("elapsed_ms")
        return json.dumps(data, sort_keys=True)

    assert stripped(first) == stripped(second)
    json_path = tmp_path / "report.json"
    write_report(first, str(json_path), "json")
    loaded = json.loads(json_path.read_text())
    assert loaded["status"] == "pass"
    assert loaded["artifact"]["name"] == "mghankel"
    text_path = tmp_path / "report.txt"
    write_report(first, str(text_path), "text")
    assert "overall: pass" in text_path.read_text()


def test_cli_demo_exit_codes(tmp_path, capsys):
    assert cli_main(["demo", "--case", "legendre", "--checks", "symmetry,factorization"]) == 0
    capsys.readouterr()
    assert cli_main(["demo", "--case", "singular"]) == 2
    err = capsys.readouterr().err
    assert "singular leading block minor at level 0" in err


def test_cli_verify_with_report_file(tmp_path, capsys):
    cfg = write_json(tmp_path, dict(MINIMAL, checks=["symmetry", "abc", "classical"]))
    out = tmp_path / "report.json"
    assert cli_main(["verify", "--config", cfg, "--report", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert [e["check"] for e in data["checks"]] == ["symmetry", "abc", "classical"]


def test_cli_failing_tolerance_exits_one(tmp_path, capsys):
    cfg = write_json(
        tmp_path,
        {
            "nvec": [1],
            "mvec": [1],
            "seeds": [[[{"coeffs": ["1"], "measure": {"kind": "gaussian"}}]]],
            "L": 8,
            "levels": [2],
            "backend": "float",
            "tolerance": {"abs": 0.0, "rel": 0.0},
            "checks": ["factorization"],
        },
    )
    assert cli_main(["verify", "--config", cfg]) == 1
    assert "fail" in capsys.readouterr().out


def test_cli_config_error_exits_two(tmp_path, capsys):
    cfg = write_json(tmp_path, dict(MINIMAL, levels=[9]))
    assert cli_main(["verify", "--config", cfg]) == 2
    assert "truncation budget" in capsys.readouterr().err


def test_cli_backend_override_rejects_gaussian_exact(tmp_path, capsys):
    cfg = write_json(
        tmp_path,
        {
            "nvec": [1],
            "mvec": [1],
            "seeds": [[[{"coeffs": ["1"], "measure": {"kind": "gaussian"}}]]],
            "L": 6,
            "backend": "float",
        },
    )
    assert cli_main(["verify", "--config", cfg, "--backend", "exact"]) == 2
    assert "irrational" in capsys.readouterr().err


def test_cli_levels_override(capsys):
    assert cli_main(["demo", "--case", "legendre", "--levels", "2", "--checks", "abc"]) == 0
    out = capsys.readouterr().out
    assert "abc" in out and "overall: pass" in out


def test_cli_singular_error_report_file(tmp_path, capsys):
    out = tmp_path / "err.json"
    assert cli_main(["demo", "--case", "singular", "--report", str(out)]) == 2
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["status"] == "error"
    assert data["error"] == "singular-leading-minor"


UNWRITABLE_REPORT_CASES = {
    "passing run": (["--case", "legendre", "--checks", "symmetry"], ()),
    "text report": (["--case", "legendre", "--checks", "symmetry", "--format", "text"], ()),
    "error payload": (["--case", "singular"], ("singular leading block minor at level 0",)),
}


@pytest.mark.parametrize("case", UNWRITABLE_REPORT_CASES)
def test_cli_unwritable_report_exits_two(tmp_path, capsys, case):
    """A report file that cannot be written is an input error: exit 2 with
    `error: report: ...`, after the run's own error line if it had one."""
    argv, first = UNWRITABLE_REPORT_CASES[case]
    out = tmp_path / "missing" / "out.json"
    assert cli_main(["demo", *argv, "--report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = ["error: %s" % line for line in first]
    lines.append("error: report: [Errno 2] No such file or directory: %r" % str(out))
    assert captured.err.splitlines() == lines
    assert not out.parent.exists()


def test_cli_levels_override_budget_message(capsys):
    assert cli_main(["demo", "--case", "legendre", "--levels", "2,7", "--checks", "abc"]) == 2
    assert capsys.readouterr().err == (
        "error: levels: l=7 violates the truncation budget (need l + 1 < L=8)\n"
    )


def seed_with(**fields) -> dict:
    seed = dict(MINIMAL["seeds"][0][0][0], **fields)
    return dict(MINIMAL, seeds=[[[seed]]])


@pytest.mark.parametrize(
    "field,config",
    [
        ("N", dict(MINIMAL, N="x")),
        ("levels", dict(MINIMAL, levels=["a"])),
        ("levels", dict(MINIMAL, levels=3)),
        ("checks", dict(MINIMAL, checks=5)),
        ("checks", dict(MINIMAL, checks=[["abc"]])),
        ("seeds[0][0][0]", seed_with(coeffs=5)),
        ("seeds[0][0][0]", seed_with(measure=5)),
        ("seeds", dict(MINIMAL, seeds=[[5]])),
        ("grid", dict(MINIMAL, grid=5)),
        ("config", None),
        ("nvec/mvec", dict(MINIMAL, nvec=[1.9])),
        ("nvec/mvec", dict(MINIMAL, mvec=[1.5])),
        ("N", dict(MINIMAL, N=1.5)),
        ("L", dict(MINIMAL, L=6.7)),
        ("L", dict(MINIMAL, L=True, levels=None)),
        ("levels", dict(MINIMAL, levels=[2.5])),
        ("levels", dict(MINIMAL, levels=[True])),
    ],
)
def test_cli_malformed_config_field_exits_two(tmp_path, capsys, field, config):
    """A malformed field is an input error: exit 2, naming the field, with
    the error payload in the report file."""
    path = write_json(tmp_path, config) if config is not None else str(tmp_path / "absent.json")
    out = tmp_path / "err.json"
    assert cli_main(["verify", "--config", path, "--report", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: %s: " % field)
    data = json.loads(out.read_text())
    assert data["status"] == "error" and data["error"] == "config"
    assert data["message"].startswith("%s: " % field)


def test_integral_floats_and_numeric_strings_load_as_integers():
    config = config_from_dict(dict(MINIMAL, N=1.0, L=6.0, levels=[2.0, "3"], nvec=["1"]))
    assert (config.nvec, config.truncation, config.levels) == ((1,), 6, (2, 3))
    assert config_from_dict(dict(MINIMAL, L="6")).truncation == 6


OUT_OF_SUPPORT = dict(
    MINIMAL, levels=[2], checks=["abc"], grid=[["1/3", "1/3"], ["3/2", "1/3"]]
)


def test_cli_out_of_support_grid_exits_two(tmp_path, capsys):
    cfg = write_json(tmp_path, OUT_OF_SUPPORT)
    assert cli_main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: grid[1]: x=3/2 lies outside the support of seed 0 of entry (0,0)\n"
    )


def test_family_error_comes_before_grid_support(tmp_path, capsys):
    """Two seeds are missing (m_b=2) and the grid leaves the support: the
    family's rule is reported."""
    cfg = write_json(tmp_path, dict(OUT_OF_SUPPORT, mvec=[2], L=8, levels=[3]))
    assert cli_main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: family: seed count: entry (0,0) has 1 seeds, expected m_b=2\n"
    )


def test_moments_are_probed_at_the_highest_order_the_build_reads(tmp_path, capsys):
    """Float laguerre moments overflow past order 170; with n=(2), m=(1) and
    L=60 the build reads order 59 + 59*2 = 177, so the run stops with exit 2."""
    laguerre = {"coeffs": ["1"], "measure": {"kind": "laguerre"}}
    data = dict(MINIMAL, nvec=[2], seeds=[[[laguerre]]], L=60, levels=None, backend="float")
    assert cli_main(["verify", "--config", write_json(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: family: moment: order 177 of seed 0 at (0,0): "
    )


def test_run_validates_the_family_once(monkeypatch):
    calls = []

    def counted(fam, truncation):
        calls.append(truncation)
        return validate_family(fam, truncation)

    for name, module in list(sys.modules.items()):
        if name.startswith("mghankel") and hasattr(module, "validate_family"):
            monkeypatch.setattr(module, "validate_family", counted)
    run(builtin_config("legendre"))
    assert calls == [8]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_corollary_takes_the_kernel_norm_once_per_point(monkeypatch, backend):
    """The float scale of every entry at a point shares one kernel norm; an
    exact residual ignores its scale, so none is taken."""
    calls = []

    def counted(m, _fn=harness.matrix_residual_norm):
        calls.append(len(m))
        return _fn(m)

    monkeypatch.setattr(harness, "matrix_residual_norm", counted)
    config = dataclasses.replace(
        builtin_config("multigraded-n2"), backend=backend, checks=("corollary",)
    )
    entry = run(config).entries[0]
    assert entry.status in ("pass", "fail")
    asserted = [level for level in config.levels if level >= config.max_shift()]
    points = len(config.off_locus_pairs())
    assert asserted and points
    assert len(calls) == (0 if backend == "exact" else len(asserted) * points)


def test_cli_backend_override_rejects_out_of_support_grid(tmp_path, capsys):
    cfg = write_json(tmp_path, dict(OUT_OF_SUPPORT, backend="float"))
    assert cli_main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli_main(["verify", "--config", cfg, "--backend", "exact"]) == 2
    assert "grid[1]: x=3/2 lies outside the support" in capsys.readouterr().err


def test_run_rejects_default_lattice_outside_support():
    shifted = {"coeffs": ["1"], "measure": {"kind": "finite_interval", "a": "1", "b": "2"}}
    config = config_from_dict(dict(MINIMAL, seeds=[[[shifted]]], checks=["theorem"]))
    with pytest.raises(ConfigError, match=r"grid \(default lattice, pair 0\): x=1/7"):
        run(config)
    # coefficient-space checks never evaluate a weight, so the grid is irrelevant
    config = config_from_dict(dict(MINIMAL, seeds=[[[shifted]]], checks=["biorthogonality"]))
    assert run(config).exit_code == 0


def test_theorem_builds_no_evaluator_below_the_shift_bound(monkeypatch):
    """Levels below the shift bound get their note without a kernel
    evaluator; only the level asserted builds one."""
    built = []

    class CountedEvaluator(KernelEvaluator):
        def __init__(self, fam, g, factors, level, **kwargs):
            built.append(level)
            super().__init__(fam, g, factors, level, **kwargs)

    monkeypatch.setattr(harness, "KernelEvaluator", CountedEvaluator)
    config = dataclasses.replace(
        builtin_config("multigraded-n2"), levels=(0, 1, 2), checks=("theorem",)
    )
    (entry,) = run(config).entries
    assert built == [2]
    assert entry.notes == [
        "l=%d not asserted: level %d is below every-shift dominance (max shift 2); "
        "the associated-family form is undefined" % (level, level)
        for level in (0, 1)
    ]
