#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of mghankel.

Run from the repository root:

    python3 mgbench/run.py --workload exact-demos --seed 1 --seconds 35 --trace 0
    python3 mgbench/run.py --workload all --seed 1 --seconds 35

Workloads are listed in `workloads.py`.  One process, one thread.

With ``--trace 0`` the run alternates a set-up block and a pass for about
``--seconds`` seconds (at least MIN_PASSES of each).  A set-up block repeats,
for every config, the work run() does before its first check (validated
family -> moment matrix -> factors -> primary and dual families, through
the public functions) for SETUP_BLOCK_S; ``setup_s`` is the median time of
one such round over the blocks.  A pass sends every config through
``mghankel.run()`` once; ``verify_s`` is the median pass time.  Both are
timed with `speed.SpeedProbe` and reported at reference speed, so that the
drift of a shared host cancels; the wall times are printed beside them and
kept in the result file.  Every report goes through the correctness gate in
`gate.py`.

With ``--trace 1`` the run alternates untraced and traced passes (see
`tracing.py`) and reports the per-layer metrics of the traced passes
(median over passes) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an operation is one
``run(config)`` call, and it fails when it raises or the gate rejects its
report.  Generated configs, the environment record, span dumps and a full
result file go to ``mgbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_BLOCK_S = 0.5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 600

END_TO_END = (
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checks_passed_frac", "ratio"),
)
# Per-layer metrics besides the span metrics of tracing.LAYER_METRICS.
PER_LAYER_EXTRA = (("numerics.factor_bits_max", "bits"), ("trace.overhead_s", "s"))


def load_library() -> None:
    """Put the checkout's `src/` first on the path; exit 1 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "mghankel", "__init__.py")):
        sys.exit("mgbench: no mghankel sources under %s" % SRC)
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Set-up, passes and the tally of outcomes.
# ---------------------------------------------------------------------------


def set_up(config):
    """The work run() does before its first check; returns the factors."""
    from mghankel import (
        ConfigError,
        build_moment_matrix,
        dual_family,
        lu_factorize,
        primary_family,
        validate_family,
    )

    fam = config.family()
    validation = validate_family(fam, config.truncation)
    if not validation.ok:
        raise ConfigError("family: %s" % validation.first_problem())
    factors = lu_factorize(build_moment_matrix(fam, config.truncation))
    primary_family(factors)
    dual_family(factors)
    return factors


def factor_bits(factors) -> int:
    """Largest numerator or denominator bit length in the factors."""
    best = 0
    for matrix in (factors.lower, factors.lower_inv, factors.upper, factors.upper_inv):
        for row in matrix.blocks:
            for block in row:
                for entries in block:
                    for v in entries:
                        if isinstance(v, Fraction):
                            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tally:
    """Operations and checks over all passes of a run, judged by the gate."""

    def __init__(self, gate):
        self.gate = gate
        self.ops = self.ops_failed = 0
        self.checks = self.checks_failed = 0

    def judge(self, config, result) -> None:
        self.ops += 1
        if isinstance(result, Exception):
            self.gate.raised(config.name, result)
            self.ops_failed += 1
            self.checks += len(config.checks)
            self.checks_failed += len(config.checks)
            return
        report = result.to_dict()
        rejected = self.gate.inspect(config.name, report, exact=config.backend == "exact")
        if rejected:
            self.ops_failed += 1
        for entry in report["checks"]:
            bad = entry["check"] in rejected or "*" in rejected
            if entry["status"] == "skipped" and not bad:
                continue
            self.checks += 1
            if entry["status"] == "fail" or bad:
                self.checks_failed += 1


def run_all(configs, run) -> list:
    """Send every config through run() once; a raised exception is its result."""
    results = []
    for config in configs:
        try:
            results.append(run(config))
        except Exception as exc:  # a raising run() is a failed operation, not a crash
            results.append(exc)
    return results


def one_pass(configs, run, tally, timer) -> tuple:
    """One pass timed by `timer` (a callable that runs a function and returns its times)."""
    results = []
    times = timer(lambda: results.extend(run_all(configs, run)))
    for config, result in zip(configs, results):
        tally.judge(config, result)
    return times


def wall_timer(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def repeat_for(seconds: float, step, minimum: int) -> list:
    """Call step() until another call would overrun `seconds`; returns its values."""
    values, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        values.append(step())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(values) >= minimum and elapsed + statistics.median(durations) > seconds:
            return values


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------


def timed_run(configs, seconds, tally) -> tuple:
    """Alternate a set-up block and a pass until `seconds` are used up."""
    import mghankel
    import speed

    probe = speed.SpeedProbe()
    setups, passes = [], []  # (wall s, reference-speed s) per sample

    def set_up_block():
        rounds = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < SETUP_BLOCK_S:
            for config in configs:
                set_up(config)
            rounds += 1
        return rounds

    def step():
        rounds = []
        wall, ref = probe.timed(lambda: rounds.append(set_up_block()))
        setups.append((wall / rounds[0], ref / rounds[0]))
        passes.append(one_pass(configs, mghankel.run, tally, probe.timed))

    repeat_for(seconds, step, MIN_PASSES)
    wall_s = statistics.median(w for w, _ in passes)
    metrics = {
        "verify_s": statistics.median(r for _, r in passes),
        "setup_s": statistics.median(r for _, r in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_passed_frac": (tally.checks - tally.checks_failed) / max(tally.checks, 1),
    }
    notes = {
        "verify_s": "median of %d passes at reference speed; wall median %.4f s"
        % (len(passes), wall_s),
        "setup_s": "median of %d set-up blocks at reference speed; wall median %.4f s"
        % (len(setups), statistics.median(w for w, _ in setups)),
        "peak_rss_mb": "ru_maxrss of this process",
        "checks_passed_frac": "1 - checks_failed_frac",
    }
    detail = {
        "passes_s": [{"wall": w, "reference_speed": r} for w, r in passes],
        "setup_blocks_s": [{"wall": w, "reference_speed": r} for w, r in setups],
        "reference_samples": len(probe.samples),
        "reference_median_s": statistics.median(probe.samples) if probe.samples else None,
    }
    return metrics, notes, detail, []


def traced_run(configs, seconds, tally) -> tuple:
    import mghankel
    import tracing

    bits = max([factor_bits(set_up(c)) for c in configs if c.backend == "exact"] or [0])

    def pair():
        untraced = one_pass(configs, mghankel.run, tally, wall_timer)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = one_pass(configs, mghankel.run, tally, wall_timer)
        return untraced, traced, tracer.spans

    pairs = repeat_for(seconds, pair, 1)
    per_pass = [tracing.layer_metrics(spans) for _, _, spans in pairs]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name, _ in tracing.LAYER_METRICS}
    metrics["numerics.factor_bits_max"] = bits
    untraced = statistics.median(u for u, _, _ in pairs)
    traced = statistics.median(t for _, t, _ in pairs)
    metrics["trace.overhead_s"] = traced - untraced
    notes = {
        "numerics.factor_bits_max": "largest numerator/denominator in the factors",
        "trace.overhead_s": "traced %.4f s - untraced %.4f s verify pass, median of %d pairs"
        % (traced, untraced, len(pairs)),
    }
    detail = {"untraced_passes_s": [u for u, _, _ in pairs], "traced_passes_s": [t for _, t, _ in pairs]}
    return metrics, notes, detail, [spans for _, _, spans in pairs]


# Span groups whose share of the self time shows which path a workload takes.
PATHS = {
    "pointwise path": ("cdkernel.", "families.eval_form.", "families.eval_poly.",
                       "families.pair_poly_form.", "weights.eval_weight."),
    "coefficient path": ("factorize.", "families.associated.", "numerics.solve_dense."),
}


def self_time_shares(metrics: dict) -> dict:
    """Share of the summed self time per module and per entry of PATHS."""
    selfs = {n: v for n, v in metrics.items() if n.endswith(".s") and not n.startswith("trace.")}
    total = sum(selfs.values()) or 1.0
    shares = {}
    for name, value in sorted(selfs.items()):
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + value / total
    for path, prefixes in PATHS.items():
        shares[path] = sum(v for n, v in selfs.items() if n.startswith(prefixes)) / total
    return shares


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def bench(args) -> int:
    import envrecord
    import gate as gate_mod
    import tracing
    import workloads

    env = envrecord.EnvRecord(ROOT)
    configs, redraws = workloads.generate(args.workload, args.seed)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    config_paths = workloads.write_configs(configs, os.path.join(OUT, "configs", tag))
    tally = Tally(gate_mod.Gate())
    kind = traced_run if args.trace else timed_run
    metrics, notes, detail, span_passes = kind(configs, args.seconds, tally)
    units = dict(tracing.LAYER_METRICS + PER_LAYER_EXTRA if args.trace else END_TO_END)
    gate = tally.gate
    failed_frac = tally.checks_failed / max(tally.checks, 1)

    print("mgbench %s seed=%d trace=%d: %d configs (%d singular draws discarded), %d run() calls"
          % (args.workload, args.seed, args.trace, len(configs), redraws, tally.ops))
    for name, unit in units.items():
        print("  %-42s %14.6g %-6s %s" % (name, metrics[name], unit, notes.get(name, "")))
    print("  %-42s %14.6g %-6s %d of %d attempted checks failed"
          % ("checks_failed_frac", failed_frac, "ratio", tally.checks_failed, tally.checks))
    if args.trace:
        for group, share in self_time_shares(metrics).items():
            print("  self-time share %-25s %6.1f%%" % (group, 100 * share))
    for name, digest in sorted(gate.digests.items()):
        print("  report digest %-28s %s" % (name, digest))
    for violation in gate.violations[:20]:
        print("  GATE: %s" % violation)
    record = env.finish()
    print("  env " + json.dumps(record, sort_keys=True))

    result_dir = os.path.join(OUT, "results")
    os.makedirs(result_dir, exist_ok=True)
    if span_passes:
        tracing.write_spans(os.path.join(result_dir, tag + ".spans.csv.gz"), span_passes)
    with open(os.path.join(result_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "env": record,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
                "checks_failed_frac": failed_frac,
                "checks_attempted": tally.checks,
                "checks_failed": tally.checks_failed,
                "report_digests": gate.digests,
                "violations": gate.violations,
                "configs": [os.path.relpath(p, ROOT) for p in config_paths],
                "singular_draws": redraws,
                **detail,
            },
            fh,
            indent=2,
        )
    print(json.dumps({
        "correct": gate.ok,
        "attempted": tally.ops,
        "failed": tally.ops_failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


def bench_all(args) -> int:
    """Run every workload in its own process; the last line sums their results."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit("mgbench: workload %s exited with %d" % (workload, proc.returncode))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][workload] = result["metrics"]
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    import workloads

    if args.workload == "all":
        return bench_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s or all" % (args.workload, workloads.WORKLOADS))
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
