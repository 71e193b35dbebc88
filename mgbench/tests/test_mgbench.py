"""Tests of the benchmark's own parts: generator, gate, tracing, contract.

Run from the repository root:  python -m pytest -q mgbench/tests
"""

import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import mghankel  # noqa: E402
from mghankel.harness import config_from_dict  # noqa: E402

import gate as gate_mod  # noqa: E402
import run as bench_run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_config(**changes):
    config = dataclasses.replace(
        mghankel.builtin_config("legendre"),
        truncation=5,
        levels=(1, 2),
        grid=((Fraction(1, 7), Fraction(2, 9)), (Fraction(3, 7), Fraction(4, 9))),
        checks=("symmetry", "factorization", "abc", "classical"),
    )
    return dataclasses.replace(config, **changes)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first, redraws = workloads.generate(workload, 11)
    again, redraws_again = workloads.generate(workload, 11)
    assert first == again and redraws == redraws_again
    other, _ = workloads.generate(workload, 12)
    assert other != first


def test_grid_is_5x5_in_unit_interval_and_off_every_locus():
    configs, _ = workloads.generate(workloads.EXACT_DEMOS, 3)
    grid = configs[0].grid
    assert len(set(grid)) == 25
    assert len({x for x, _ in grid}) == 5 and len({y for _, y in grid}) == 5
    assert all(0 < x < 1 and 0 < y < 1 for x, y in grid)
    for config in configs:
        assert config.grid == grid and config.off_locus_pairs() == list(grid)


def test_deep_families_are_balanced_small_integer_and_factorizable():
    configs, _ = workloads.generate(workloads.DEEP_STRUCTURAL, 5)
    assert [len(c.nvec) for c in configs] == [1, 2, 3]
    for config in configs:
        assert sum(config.nvec) == sum(config.mvec)
        assert config.checks == workloads.COEFFICIENT_CHECKS
        for row in config.seeds:
            for entry in row:
                for seed in entry:
                    assert all(c.denominator == 1 and abs(c) <= 4 for c in seed.coeffs)
                    assert seed.measure.kind == "finite_interval"
        mghankel.lu_factorize(mghankel.build_moment_matrix(config.family(), config.truncation))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_written_configs_reproduce_the_generated_ones(workload, tmp_path):
    configs, _ = workloads.generate(workload, 4)
    paths = workloads.write_configs(configs, str(tmp_path))
    for config, path in zip(configs, paths):
        with open(path, encoding="utf-8") as fh:
            assert config_from_dict(json.load(fh)) == config


# -- gate --------------------------------------------------------------------


def report_of(config):
    return mghankel.run(config).to_dict()


def test_gate_accepts_a_passing_exact_report_twice():
    gate = gate_mod.Gate()
    report = report_of(small_config())
    assert gate.inspect("c", report, exact=True) == set()
    assert gate.inspect("c", json.loads(json.dumps(report)), exact=True) == set()
    assert gate.ok and gate.digests["c"] == gate_mod.report_digest(report)


def test_gate_flags_a_failing_exact_check():
    report = report_of(small_config())
    report["checks"][1]["status"] = "fail"
    gate = gate_mod.Gate()
    assert gate.inspect("c", report, exact=True) == {"factorization"}
    assert not gate.ok


def test_gate_flags_a_nonzero_exact_residual():
    report = report_of(small_config())
    report["checks"][2]["residual"] = "1/3"
    assert gate_mod.Gate().inspect("c", report, exact=True) == {"abc"}


def test_gate_flags_a_check_altered_between_passes():
    gate = gate_mod.Gate()
    report = report_of(small_config(backend="float"))
    assert gate.inspect("c", report, exact=False) == set()
    altered = json.loads(json.dumps(report))
    altered["checks"][0]["worst_point"] = "elsewhere"
    assert gate.inspect("c", altered, exact=False) == {"symmetry"}
    assert gate.digests["c"] == gate_mod.report_digest(report)
    assert any("digest" in v for v in gate.violations)


def test_gate_flags_a_missing_check_and_ignores_elapsed_time():
    report = report_of(small_config())
    timing_only = json.loads(json.dumps(report))
    timing_only["checks"][0]["elapsed_ms"] += 5
    assert gate_mod.report_digest(timing_only) == gate_mod.report_digest(report)
    del report["checks"][3]
    assert "*" in gate_mod.Gate().inspect("c", report, exact=True)


def test_float_failures_are_verdicts_not_gate_violations():
    config = dataclasses.replace(
        mghankel.builtin_config("legendre"), backend="float", levels=(6,), checks=("matrix-notation",)
    )
    report = report_of(config)
    assert report["checks"][0]["status"] == "fail"
    tally = bench_run.Tally(gate_mod.Gate())
    tally.judge(config, mghankel.run(config))
    assert (tally.ops, tally.ops_failed, tally.checks, tally.checks_failed) == (1, 0, 1, 1)


def test_tally_counts_a_raising_run_as_failed():
    config = small_config()
    tally = bench_run.Tally(gate_mod.Gate())
    tally.judge(config, mghankel.SingularLeadingMinorError(0))
    assert (tally.ops, tally.ops_failed, tally.checks, tally.checks_failed) == (1, 1, 4, 4)
    assert not tally.gate.ok


# -- tracing -----------------------------------------------------------------


def test_span_self_times_are_nonnegative_and_within_traced_wall_time():
    config = small_config(checks=mghankel.harness.CHECK_NAMES)
    tracer = tracing.Tracer()
    with tracer.installed():
        start = time.perf_counter_ns()
        mghankel.run(config)
        wall = time.perf_counter_ns() - start
    totals = tracing.self_times(tracer.spans)
    assert totals and all(seconds >= 0 for seconds, _ in totals.values())
    assert sum(seconds for seconds, _ in totals.values()) <= wall / 1e9
    assert totals[tracing.RUN_SPAN][1] == 1
    run_ids = {span[2] for span in tracer.spans}
    assert len(run_ids) == 1 and run_ids != {-1}


def test_tracer_restores_every_original_function():
    before = (mghankel.run, mghankel.harness.lu_factorize, mghankel.cdkernel.eval_form,
              mghankel.WeightFamily.eval_weight, mghankel.KernelEvaluator.__init__)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert mghankel.harness.lu_factorize is not before[1]
        mghankel.run(small_config())
    after = (mghankel.run, mghankel.harness.lu_factorize, mghankel.cdkernel.eval_form,
             mghankel.WeightFamily.eval_weight, mghankel.KernelEvaluator.__init__)
    assert after == before


def test_layer_metrics_report_every_metric_and_zero_for_absent_spans():
    config = small_config(checks=("symmetry", "factorization"))
    tracer = tracing.Tracer()
    with tracer.installed():
        mghankel.run(config)
    values = tracing.layer_metrics(tracer.spans)
    assert set(values) == {name for name, _ in tracing.LAYER_METRICS}
    assert values["weights.eval_weight.calls"] == 0
    assert values["cdkernel.kernel_sum.s"] == 0
    assert values["factorize.nested_truncation_residual.s"] > 0


# -- speed probe -------------------------------------------------------------


def test_speed_probe_samples_during_work_and_removes_itself():
    previous = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()

    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass

    wall, scaled = probe.timed(busy)
    assert len(probe.samples) >= 3
    assert 0 < wall <= 0.2 + 0.05 and probe.probe_s > 0
    assert scaled == wall * speed.NOMINAL_REFERENCE_S / speed.trimmed_mean(probe.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_trimmed_mean_drops_the_extremes():
    assert speed.trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    values = [1.0] * 18 + [0.0, 100.0]
    assert speed.trimmed_mean(values, 0.05) == 1.0
    assert speed.trimmed_mean(values, 0.0) == statistics.mean(values)


# -- contract ----------------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    layers = tracing.LAYER_METRICS + bench_run.PER_LAYER_EXTRA
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "mgbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mgbench/run.py", "--workload", "exact-demos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
