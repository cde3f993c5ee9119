"""``python -m repro.analysis`` — run dplint from the command line."""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from dataclasses import replace

from repro.analysis.config import (
    HAVE_TOML,
    AnalysisConfig,
    discover_pyproject,
    load_pyproject_config,
)
from repro.analysis.engine import Analyzer
from repro.analysis.registry import known_rule_keys
from repro.analysis.reporting import FORMATS, format_report, format_rule_catalog
from repro.exceptions import ConfigurationError, ValidationError


def build_parser() -> argparse.ArgumentParser:
    """Argument parser shared with the ``repro lint`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
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
        "--select",
        action="append",
        default=[],
        metavar="RULE",
        help="run only these rules (id or name; repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE",
        help="skip these rules (id or name; repeatable)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help="analyze files across N processes (output is identical to "
        "serial; default: the CPU count)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline JSON file; "
        "stale entries are reported",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current findings to FILE as a baseline (merging "
        "justifications from an existing file) and exit 0",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="read [tool.dplint] from this pyproject.toml instead of "
        "auto-discovering one",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore any pyproject.toml [tool.dplint] section",
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


def _load_config(args: argparse.Namespace) -> AnalysisConfig:
    """Resolve the effective config from flags and pyproject discovery.

    Parameters
    ----------
    args:
        Parsed command-line arguments.
    """
    config: AnalysisConfig | None = None
    if not args.no_config:
        if args.config is not None:
            config = load_pyproject_config(args.config)
            if config is None:
                raise ConfigurationError(
                    f"{args.config} has no [tool.dplint] section"
                )
        elif HAVE_TOML:
            pyproject = discover_pyproject()
            if pyproject is not None:
                config = load_pyproject_config(pyproject)
    if config is None:
        config = AnalysisConfig()
    if args.select or args.ignore:
        config = replace(
            config,
            select=config.select | frozenset(args.select),
            ignore=config.ignore | frozenset(args.ignore),
        )
    return config


def execute(args: argparse.Namespace) -> int:
    """Shared implementation behind ``python -m repro.analysis`` and
    ``repro lint``: run the analyzer per parsed arguments, print the
    report, return a process exit code (0 clean, 1 findings, 2 usage).
    """
    if args.list_rules:
        print(format_rule_catalog())
        return 0
    known = known_rule_keys()
    unknown = sorted(
        {key for key in [*args.select, *args.ignore] if key not in known}
    )
    if unknown:
        # A typo'd --select would otherwise select nothing and exit 0,
        # silently passing a CI gate.
        print(
            f"dplint: unknown rule(s): {', '.join(unknown)}; "
            "see --list-rules for the catalog",
            file=sys.stderr,
        )
        return 2
    paths = args.paths or [default_target()]
    try:
        config = _load_config(args)
        if args.jobs > 1:
            from repro.analysis.parallel import analyze_paths_parallel

            report = analyze_paths_parallel(paths, config, jobs=args.jobs)
        else:
            report = Analyzer(config=config).analyze_paths(paths)
        if args.write_baseline:
            from repro.analysis.baseline import Baseline

            justifications = {}
            existing = None
            try:
                existing = Baseline.load(args.write_baseline)
            except ConfigurationError:
                existing = None
            if existing is not None:
                justifications = {
                    entry.key: entry.justification for entry in existing.entries
                }
            Baseline.from_findings(
                report.findings, justifications=justifications
            ).save(args.write_baseline)
            print(
                f"dplint: wrote baseline with "
                f"{len(report.findings)} finding(s) to {args.write_baseline}"
            )
            return 0
        if args.baseline:
            from repro.analysis.baseline import Baseline, apply_baseline

            report = apply_baseline(report, Baseline.load(args.baseline))
    except ValidationError as error:
        # ConfigurationError subclasses ValidationError: both are usage
        # problems, not findings, so they share exit code 2.
        print(f"dplint: {error}", file=sys.stderr)
        return 2
    print(format_report(report, args.format))
    return report.exit_code


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and run the analyzer (console entry point).

    Parameters
    ----------
    argv:
        Argument list (defaults to ``sys.argv[1:]``).
    """
    return execute(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(run())
