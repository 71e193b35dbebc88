"""Full-level sweep over the truncation L and the block size N.

Runs `mghankel.run()` on exact `legendre` (N=1) and exact `multigraded-n2`
(N=2) at L in {10, 14, 20}, every level of the budget (1 <= l and
l + max shift < L) and every check.  For each config it prints the name,
N, L, the level count, the wall seconds, the milliseconds of the
`projections` check (its `elapsed_ms`), the exit code (2 for a config
error or a singular leading minor) and a 12-hex SHA-256 digest of the
report with its `elapsed_ms` fields removed, so two checkouts can be
compared line by line.

    python3 scripts/level_sweep.py

Standard library only; the checkout's `src/` goes first on the path.
"""

import dataclasses
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mghankel import ConfigError, SingularLeadingMinorError, builtin_config, run  # noqa: E402

CASES = ("legendre", "multigraded-n2")
TRUNCATIONS = (10, 14, 20)


def report_digest(report: dict) -> str:
    for entry in report["checks"]:
        del entry["elapsed_ms"]
    payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def main() -> int:
    columns = ("config", "N", "L", "levels", "wall_s", "proj_ms", "exit", "digest")
    print("%-16s %2s %3s %6s %9s %7s %4s %s" % columns)
    for case in CASES:
        base = builtin_config(case)
        for truncation in TRUNCATIONS:
            config = dataclasses.replace(base, truncation=truncation, levels=None)
            started, proj_ms = time.perf_counter(), "-"
            try:
                report = run(config)
                proj_ms = next(e.elapsed_ms for e in report.entries if e.check == "projections")
                code, digest = report.exit_code, report_digest(report.to_dict())
            except (ConfigError, SingularLeadingMinorError) as exc:
                code, digest = 2, "error: %s" % exc
            wall = time.perf_counter() - started
            print(
                "%-16s %2d %3d %6d %9.2f %7s %4d %s"
                % (case, config.size, truncation, len(config.levels), wall, proj_ms, code, digest)
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
