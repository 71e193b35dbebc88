import json
from fractions import Fraction

import pytest

from mghankel.cli import main as cli_main
from mghankel.harness import (
    CHECK_NAMES,
    ConfigError,
    builtin_config,
    config_from_dict,
    load_config,
    run,
    write_report,
)
from mghankel.numerics import SingularLeadingMinorError

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


def test_cli_levels_override_budget_message(capsys):
    assert cli_main(["demo", "--case", "legendre", "--levels", "2,7", "--checks", "abc"]) == 2
    assert capsys.readouterr().err == (
        "error: levels: l=7 violates the truncation budget (need l + 1 < L=8)\n"
    )


OUT_OF_SUPPORT = dict(
    MINIMAL, levels=[2], checks=["abc"], grid=[["1/3", "1/3"], ["3/2", "1/3"]]
)


def test_cli_out_of_support_grid_exits_two(tmp_path, capsys):
    cfg = write_json(tmp_path, OUT_OF_SUPPORT)
    assert cli_main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: grid[1]: x=3/2 lies outside the support of seed 0 of entry (0,0)\n"
    )


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
