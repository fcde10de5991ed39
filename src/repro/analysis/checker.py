"""The ``repro check`` driver: whole-engine concurrency lint.

Runs :mod:`repro.analysis.concurrency` over the engine sources (or any
paths given on the command line) and renders the findings — guard
violations, lock-order/cycle errors, sleeps under a lock — with file:line
anchors, or as one JSON document (``--format json``) for CI artifact
upload.  Exit code 1 on any error-severity finding.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from repro.analysis.concurrency import check_paths


def default_check_path() -> str:
    """The installed ``repro`` package source tree."""
    import repro

    return str(Path(repro.__file__).resolve().parent)


def run_check_cli(argv: list[str], out=None) -> int:
    """``repro check`` entry point; returns a process exit code."""
    import sys

    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="whole-engine static concurrency lint: guarded-by "
        "annotations, lock-acquisition order, engine invariants",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="Python files or directories to check (default: the "
        "installed repro package sources)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits one machine-readable document)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress warnings, print errors only"
    )
    args = parser.parse_args(argv)

    for raw in args.paths:
        if not Path(raw).exists():
            print(f"repro check: {raw!r} does not exist", file=out)
            return 2
    result = check_paths(args.paths or [default_check_path()])
    report = result.report

    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2), file=out)
        return 0 if report.ok else 1

    shown = report.errors() if args.quiet else report.diagnostics
    for diagnostic in shown:
        print(diagnostic.render(), file=out)
    errors = len(report.errors())
    warnings = len(report.warnings())
    edges = len({(e.src, e.dst) for e in result.edges})
    print(
        f"repro check: {len(result.files)} files, {edges} lock-order "
        f"edge{'s' if edges != 1 else ''}, {errors} error"
        f"{'s' if errors != 1 else ''}, {warnings} warning"
        f"{'s' if warnings != 1 else ''}",
        file=out,
    )
    return 1 if errors else 0
