"""``python -m repro.analysis`` — run dplint from the command line."""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.analysis.parallel import analyze_paths_parallel
from repro.analysis.reporting import FORMATS, format_report, format_rule_catalog
from repro.exceptions import ValidationError


def build_parser(
    prog: str = "python -m repro.analysis",
) -> argparse.ArgumentParser:
    """The one dplint argument parser, behind both ``python -m
    repro.analysis`` and ``repro lint``.

    Parameters
    ----------
    prog:
        Program name shown in usage and help text.
    """
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "dplint: static analysis of differential-privacy invariants "
            "(RNG discipline, parameter validation, sampler hygiene, "
            "whole-program data-flow)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the installed "
        "repro package)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def default_target() -> str:
    """The installed ``repro`` package directory (lintable from anywhere)."""
    import repro

    return str(next(iter(repro.__path__)))


def run(
    argv: Sequence[str] | None = None, *, prog: str = "python -m repro.analysis"
) -> int:
    """Parse arguments, run the analyzer and print its report; return a
    process exit code (0 clean, 1 findings, 2 usage). Both ``python -m
    repro.analysis`` and ``repro lint`` land here.

    Parameters
    ----------
    argv:
        Argument list (defaults to ``sys.argv[1:]``).
    prog:
        Program name shown in usage and help text (``repro lint`` passes
        its own).
    """
    args = build_parser(prog).parse_args(argv)
    if args.list_rules:
        print(format_rule_catalog())
        return 0
    paths = args.paths or [default_target()]
    try:
        report = analyze_paths_parallel(paths, jobs=os.cpu_count() or 1)
    except ValidationError as error:
        print(f"dplint: {error}", file=sys.stderr)
        return 2
    print(format_report(report, args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(run())
