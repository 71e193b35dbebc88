"""Correctness gate for the reports a benchmark run produces.

* On an exact workload every attempted check (status not ``skipped``) must
  be ``pass`` with residual ``"0"``.
* Every report must list exactly the requested checks with a known status.
* Every check entry, and the digest of the whole report, with ``elapsed_ms``
  removed, must be identical in every pass of a run.  The first pass sets the
  reference.  The digests are printed so the reports of two commits can be
  compared.
"""

from __future__ import annotations

import hashlib
import json

from mghankel.harness import CHECK_NAMES

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"
STATUSES = (PASS, FAIL, SKIPPED)


def _stable(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k != "elapsed_ms"}


def report_digest(report: dict) -> str:
    """SHA-256 of the report JSON with every `elapsed_ms` removed."""
    stable = dict(report, checks=[_stable(e) for e in report["checks"]])
    payload = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Gate:
    """Judges the reports of one run; keeps the first pass as reference."""

    def __init__(self):
        self.reference = {}  # (config name, check) -> stable entry
        self.digests = {}  # config name -> digest of its first report
        self.violations = []

    def inspect(self, name: str, report: dict, exact: bool) -> set:
        """Record violations for one report; return the rejected check names."""
        rejected = set()

        def reject(check, why):
            rejected.add(check)
            self.violations.append("%s/%s: %s" % (name, check, why))

        requested = [c for c in CHECK_NAMES if c in report["config"]["checks"]]
        reported = [e["check"] for e in report["checks"]]
        if reported != requested:
            reject("*", "report lists %s, expected %s" % (reported, requested))
        for entry in report["checks"]:
            check, status = entry["check"], entry["status"]
            if status not in STATUSES:
                reject(check, "unknown status %r" % status)
            elif exact and status != SKIPPED and (status != PASS or entry["residual"] != "0"):
                reject(check, "exact check is %s with residual %s" % (status, entry["residual"]))
            ref = self.reference.setdefault((name, check), _stable(entry))
            if _stable(entry) != ref:
                reject(check, "entry differs from the first pass")
        digest = report_digest(report)
        if self.digests.setdefault(name, digest) != digest:
            self.violations.append("%s: report digest %s differs from the first pass" % (name, digest))
        return rejected

    def raised(self, name: str, exc: BaseException) -> None:
        self.violations.append("%s: run() raised %s: %s" % (name, type(exc).__name__, exc))

    @property
    def ok(self) -> bool:
        return not self.violations
