"""Command-line front end.

Two subcommands:

  verify --config cfg.json [--backend exact|float] [--report out.json]
         [--format json|text] [--checks a,b,...] [--levels 1,2,...]
  demo   --case hermite|legendre|multigraded-12|multigraded-n2|singular
         [same output flags]

Exit codes: 0 every requested check passed, 1 at least one check failed,
2 structural error (bad config, singular leading minor, unwritable --report).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    BUILTIN_CASES,
    CHECK_NAMES,
    RunConfig,
    builtin_config,
    load_config,
    run,
)
from .numerics import BACKENDS, SingularLeadingMinorError
from .weights import ConfigError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=BACKENDS, help="override the config backend")
    parser.add_argument("--report", metavar="PATH", help="write the report to a file")
    parser.add_argument(
        "--format", choices=("json", "text"), default=None, help="report format"
    )
    parser.add_argument(
        "--checks", metavar="LIST", help="comma-separated subset of: %s" % ",".join(CHECK_NAMES)
    )
    parser.add_argument("--levels", metavar="LIST", help="comma-separated level overrides")


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    """The config with the command-line overrides; RunConfig checks the result."""
    updates = {}
    if args.backend:
        updates["backend"] = args.backend
    if args.checks:
        updates["checks"] = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    if args.levels:
        updates["levels"] = tuple(args.levels.split(","))
    return dataclasses.replace(config, **updates)


def _write(path: str, payload: str) -> int:
    """Write a --report payload: exit code 0, or 2 with `error: report: ...`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        sys.stderr.write("error: report: %s\n" % exc)
        return 2
    return 0


def _emit(report, args) -> int:
    fmt = args.format or ("json" if args.report else "text")
    payload = report.to_json() if fmt == "json" else report.to_text()
    if args.report:
        return _write(args.report, payload) or report.exit_code
    sys.stdout.write(payload)
    return report.exit_code


def _emit_error(kind: str, message: str, args) -> None:
    sys.stderr.write("error: %s\n" % message)
    if getattr(args, "report", None):
        payload = json.dumps({"status": "error", "error": kind, "message": message}, indent=2)
        _write(args.report, payload + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mghankel",
        description="Verify factorization, biorthogonality and kernel identities "
        "for multigraded block moment matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the checks described by a JSON config")
    p_verify.add_argument("--config", required=True, metavar="PATH")
    _add_common(p_verify)

    p_demo = sub.add_parser("demo", help="run a built-in configuration")
    p_demo.add_argument("--case", required=True, choices=BUILTIN_CASES)
    _add_common(p_demo)

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.command == "verify" else builtin_config(args.case)
        config = _apply_overrides(config, args)
        report = run(config)
    except ConfigError as exc:
        _emit_error("config", str(exc), args)
        return 2
    except SingularLeadingMinorError as exc:
        _emit_error("singular-leading-minor", "%s" % exc, args)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    raise SystemExit(main())
