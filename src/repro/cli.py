"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``
    List the reproduction's experiments and their bench files (the range
    is derived from the registry, never hard-coded).
``bench``
    Drive the registered benchmark experiments through the parallel,
    cached engine and write machine-readable ``BENCH_<id>.json``
    manifests. Exit code 0 when every configuration succeeded, 1 when
    any failed, 2 on usage errors — the same contract as
    ``lint``/``audit``. Parent-vs-change timing lives in ``perf/``
    (see ``perf/README.md``), not here.
``audit``
    Statistical verification of every mechanism family's claimed ε:
    Monte-Carlo audits with certified Clopper–Pearson lower bounds, plus
    an exact enumeration audit of the Gibbs estimator. Exit code 0 when
    every claim holds, 1 on a certified violation, 2 on usage errors —
    the same contract as ``lint``.
``audit-summary``
    Render a ``repro audit --format json`` report as a GitHub-flavoured
    markdown summary (the nightly CI job appends it to
    ``$GITHUB_STEP_SUMMARY``).
``tradeoff``
    Print the privacy–information–risk frontier (Theorem 4.2) for a
    Bernoulli instance.
``release``
    One differentially-private Gibbs release on freshly sampled data.
``lint``
    Run dplint, the bundled static analyzer for differential-privacy
    invariants, over the source tree.
``serve``
    Live demo of the serving front door: a small client fleet against
    the budget-enforcing, batching :class:`ReleaseService` on the real
    clock, summarized when it finishes.
``loadtest``
    The deterministic load-test harness: a seeded simulated-clock fleet,
    a schema-versioned ``LOADTEST_<id>.json`` report, and optionally a
    batched-vs-unbatched speedup comparison. Exit code 0 when the run is
    clean, 1 when any tenant over-spent or any batch failed, 2 on usage
    errors.
``trace``
    Validate and pretty-print a trace JSON document written by
    ``bench``/``audit`` ``--trace-json`` (span tree, counters, and the
    privacy-ledger composition totals). Exit code 0 on a well-formed
    trace, 2 on a missing or malformed one.

``bench`` and ``audit`` accept ``--trace`` (print a trace summary to
stderr when done) and ``--trace-json PATH`` (write the full
schema-versioned trace document); see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Differentially-private learning via PAC-Bayes and information "
            "theory (reproduction of Mir, PAIS/EDBT 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.experiments.registry import experiment_span

    sub.add_parser(
        "experiments",
        help=f"list the reproduction's experiments ({experiment_span()})",
    )

    bench = sub.add_parser(
        "bench",
        help="run benchmark experiments through the parallel cached "
        "engine and write BENCH_<id>.json manifests",
    )
    bench.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids or globs, case-insensitive (e.g. E4 'e1?' "
        "'E*'); default: all registered experiments",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size per experiment sweep (default: 1, serial)",
    )
    bench.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every configuration, ignoring the result cache",
    )
    bench.add_argument(
        "--cache-dir",
        default=".repro_bench_cache",
        help="result-cache directory (default: .repro_bench_cache)",
    )
    bench.add_argument(
        "--output-dir",
        default="bench_results",
        help="directory receiving BENCH_<id>.json (default: bench_results)",
    )
    bench.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    bench.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="print the experiments the selection resolves to and exit",
    )
    _add_trace_flags(bench)

    audit = sub.add_parser(
        "audit",
        help="statistical audit of every mechanism's claimed ε "
        "(plus an exact Gibbs enumeration audit)",
    )
    audit.add_argument(
        "families",
        nargs="*",
        metavar="FAMILY",
        help="mechanism families to audit (default: all; see --list)",
    )
    audit.add_argument("--epsilon", type=float, default=1.0)
    audit.add_argument("--n", type=int, default=3)
    audit.add_argument("--samples", type=int, default=12_000)
    audit.add_argument("--confidence", type=float, default=0.999)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--format", choices=("text", "json"), default="text")
    audit.add_argument(
        "--noise-scale",
        type=float,
        default=1.0,
        help="deliberately rescale mechanism noise (< 1 weakens privacy) "
        "to demonstrate that the auditor catches mis-calibration",
    )
    audit.add_argument(
        "--skip-exact",
        action="store_true",
        help="skip the exact enumeration audit of the Gibbs estimator",
    )
    audit.add_argument(
        "--list",
        action="store_true",
        dest="list_families",
        help="print the audit-family registry and exit",
    )
    _add_trace_flags(audit)

    audit_summary = sub.add_parser(
        "audit-summary",
        help="render a markdown summary of a `repro audit --format json` "
        "report (CI writes it to $GITHUB_STEP_SUMMARY)",
    )
    audit_summary.add_argument(
        "path", help="path to an audit.json written by audit --format json"
    )

    trace = sub.add_parser(
        "trace",
        help="validate and pretty-print a trace JSON document written "
        "by bench/audit --trace-json",
    )
    trace.add_argument("path", help="path to a trace JSON document")
    trace.add_argument("--format", choices=("text", "json"), default="text")

    tradeoff = sub.add_parser(
        "tradeoff", help="print the Theorem 4.2 frontier"
    )
    tradeoff.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=[0.1, 0.5, 1.0, 2.0, 5.0, 20.0],
    )
    tradeoff.add_argument("--n", type=int, default=2)
    tradeoff.add_argument("--grid-size", type=int, default=5)
    tradeoff.add_argument("--p", type=float, default=0.7)

    release = sub.add_parser(
        "release", help="one ε-DP Gibbs release on sampled data"
    )
    release.add_argument("--epsilon", type=float, default=1.0)
    release.add_argument("--n", type=int, default=100)
    release.add_argument("--grid-size", type=int, default=21)
    release.add_argument("--p", type=float, default=0.8)
    release.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="live demo of the serving front door on the real clock",
    )
    _add_workload_flags(serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="deterministic simulated-clock load test writing "
        "LOADTEST_<id>.json",
    )
    _add_workload_flags(loadtest)
    loadtest.add_argument(
        "--output-dir",
        default="loadtest_results",
        help="directory receiving LOADTEST_<id>.json "
        "(default: loadtest_results)",
    )
    loadtest.add_argument(
        "--compare-unbatched",
        action="store_true",
        help="also run the workload with batching disabled and report "
        "the wall-clock speedup batching delivered",
    )
    loadtest.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    # Listed here for ``repro --help`` only: ``main`` hands everything after
    # ``lint`` to dplint's own parser (``repro.analysis.__main__``), so its
    # flags are declared once.
    sub.add_parser(
        "lint",
        help="run the dplint static analyzer over the source tree "
        "(see repro lint --help)",
    )
    return parser


def _add_workload_flags(subparser) -> None:
    """Attach the shared serving-workload flags (``serve``/``loadtest``).

    Parameters
    ----------
    subparser:
        The ``serve`` or ``loadtest`` argparse subparser.
    """
    subparser.add_argument(
        "--id", default="smoke", dest="loadtest_id",
        help="workload id stamped on the report (default: smoke)",
    )
    subparser.add_argument("--clients", type=int, default=8)
    subparser.add_argument("--requests-per-client", type=int, default=4)
    subparser.add_argument("--tenants", type=int, default=2)
    subparser.add_argument("--seed", type=int, default=0)
    subparser.add_argument(
        "--mechanism", choices=("laplace", "exponential"), default="laplace"
    )
    subparser.add_argument(
        "--epsilon", type=float, default=0.05, help="per-release ε"
    )
    subparser.add_argument(
        "--budget", type=float, default=50.0, help="per-tenant ε budget"
    )
    subparser.add_argument(
        "--candidates", type=int, default=64,
        help="candidate-range size for --mechanism exponential",
    )
    subparser.add_argument(
        "--mean-think", type=float, default=0.01,
        help="mean client think time in clock seconds",
    )
    subparser.add_argument("--flush-window", type=float, default=0.02)
    subparser.add_argument("--max-batch", type=int, default=256)
    subparser.add_argument(
        "--timeout", type=float, default=None,
        help="per-request clock timeout in seconds",
    )
    subparser.add_argument(
        "--retries", type=int, default=0, help="batch retry budget"
    )
    subparser.add_argument(
        "--no-batching", action="store_true",
        help="serve every request as its own immediate batch",
    )


def _workload_spec(args):
    """Build a :class:`LoadTestSpec` from parsed workload flags."""
    from repro.serving import LoadTestSpec

    return LoadTestSpec(
        loadtest_id=args.loadtest_id,
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        tenants=args.tenants,
        seed=args.seed,
        mechanism=args.mechanism,
        epsilon=args.epsilon,
        budget_epsilon=args.budget,
        candidates=args.candidates,
        mean_think=args.mean_think,
        flush_window=args.flush_window,
        max_batch=args.max_batch,
        request_timeout=args.timeout,
        max_retries=args.retries,
        batching=not args.no_batching,
    )


def _summarize_workload(report, title) -> None:
    """Print the run summary table shared by ``serve`` and ``loadtest``."""
    from repro.experiments import ResultTable

    deterministic = report["deterministic"]
    serving = deterministic["serving"]
    table = ResultTable(
        ["requests", "flushes", "released", "timeouts", "refusals",
         "failures"],
        title=title,
    )
    table.add_row(
        deterministic["requests"],
        serving["flushes"],
        serving["released"],
        serving["timeouts"],
        serving["refusals"],
        serving["batch_failures"],
    )
    print(table)
    tenant_table = ResultTable(
        ["tenant", "budget ε", "spent ε", "over-spend"],
        title="Tenant budgets",
    )
    for tenant in deterministic["tenants"]:
        tenant_table.add_row(
            tenant["tenant_id"],
            tenant["budget_epsilon"],
            round(tenant["spent_epsilon"], 6),
            "YES" if tenant["over_spend"] else "no",
        )
    print(tenant_table)
    wall = report["wall_clock"]
    print(
        f"wall clock: {wall['seconds']:.4f}s "
        f"({wall['requests_per_second']:.0f} req/s)"
    )


def _workload_ok(report) -> bool:
    """Whether a run is clean: no tenant over-spend, no failed batch."""
    deterministic = report["deterministic"]
    over = any(t["over_spend"] for t in deterministic["tenants"])
    return not over and deterministic["serving"]["batch_failures"] == 0


def _cmd_serve(args) -> int:
    from repro.exceptions import ValidationError
    from repro.serving import run_loadtest

    try:
        spec = _workload_spec(args)
        report = run_loadtest(spec, simulated=False)
    except ValidationError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    _summarize_workload(
        report, f"Serving demo (real clock, id={spec.loadtest_id})"
    )
    return 0 if _workload_ok(report) else 1


def _cmd_loadtest(args) -> int:
    import json

    from repro.exceptions import ValidationError
    from repro.serving import measure_speedup, run_loadtest, write_report

    try:
        spec = _workload_spec(args)
        if args.compare_unbatched:
            report, unbatched, speedup = measure_speedup(spec)
        else:
            report, unbatched, speedup = run_loadtest(spec), None, None
        path = write_report(report, args.output_dir)
    except ValidationError as error:
        print(f"loadtest: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        _summarize_workload(
            report, f"Load test (simulated clock, id={spec.loadtest_id})"
        )
    print(f"load-test report written: {path}", file=sys.stderr)
    if speedup is not None:
        print(
            f"batching speedup: {speedup:.2f}x "
            f"(unbatched {unbatched['wall_clock']['seconds']:.4f}s vs "
            f"batched {report['wall_clock']['seconds']:.4f}s)",
            file=sys.stderr,
        )
    if not _workload_ok(report):
        print(
            "loadtest FAILED: tenant over-spend or batch failures detected",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_trace_flags(subparser) -> None:
    """Attach the shared ``--trace`` / ``--trace-json`` observability flags.

    Parameters
    ----------
    subparser:
        The ``bench`` or ``audit`` argparse subparser.
    """
    subparser.add_argument(
        "--trace",
        action="store_true",
        help="collect a trace (spans, counters, privacy ledger) and print "
        "its summary to stderr when the command finishes",
    )
    subparser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="collect a trace and write the full JSON document to PATH "
        "(inspect it with `repro trace PATH`)",
    )


def _with_tracing(args, name: str, body) -> int:
    """Run ``body()`` under a tracer when the trace flags ask for one.

    Parameters
    ----------
    args:
        Parsed CLI arguments carrying ``trace`` / ``trace_json``.
    name:
        Tracer name stored on the exported document.
    body:
        Zero-argument callable returning the command's exit code.
    """
    if not (args.trace or args.trace_json):
        return body()
    from repro.observability import ConsoleSink, FileSink, Tracer, tracing

    tracer = Tracer(name)
    with tracing(tracer):
        code = body()
    if args.trace:
        ConsoleSink().emit(tracer)
    if args.trace_json:
        path = FileSink(args.trace_json).emit(tracer)
        print(f"trace written to {path}", file=sys.stderr)
    return code


def _cmd_experiments(args) -> int:
    from repro.experiments import ResultTable
    from repro.experiments.registry import EXPERIMENTS

    table = ResultTable(["id", "claim", "bench"], title="Experiments")
    for experiment in EXPERIMENTS:
        table.add_row(experiment.id, experiment.claim, experiment.bench)
    print(table)
    return 0


def _cmd_bench(args) -> int:
    return _with_tracing(args, "repro bench", lambda: _bench_body(args))


def _bench_body(args) -> int:
    import json

    from repro.exceptions import ValidationError
    from repro.experiments import (
        BenchmarkEngine,
        ResultCache,
        ResultTable,
        select_experiments,
    )

    try:
        selected = select_experiments(args.experiments)
    except ValidationError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if args.list_experiments:
        for experiment in selected:
            print(f"{experiment.id}  {experiment.bench}")
        return 0
    try:
        engine = BenchmarkEngine(
            workers=args.workers,
            cache=None if args.no_cache else ResultCache(args.cache_dir),
            output_dir=args.output_dir,
        )
    except ValidationError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    manifests = []
    for experiment in selected:
        try:
            manifests.append(engine.run_experiment(experiment))
        except ValidationError as error:
            print(f"bench: {experiment.id}: {error}", file=sys.stderr)
            return 2

    failures = sum(manifest.failures for manifest in manifests)
    if args.format == "json":
        payload = {
            "workers": args.workers,
            "cache": not args.no_cache,
            "failures": failures,
            "manifests": [manifest.to_dict() for manifest in manifests],
        }
        print(json.dumps(payload, indent=2))
    else:
        table = ResultTable(
            ["id", "configs", "cache hits", "failures", "seconds", "manifest"],
            title=f"Benchmark engine run (workers={args.workers})",
        )
        for manifest in manifests:
            table.add_row(
                manifest.experiment_id,
                len(manifest.records),
                manifest.cache_hits,
                manifest.failures,
                manifest.total_seconds,
                f"{args.output_dir}/BENCH_{manifest.experiment_id}.json",
            )
        print(table)
        verdict = "OK" if failures == 0 else "FAILED"
        print(
            f"bench {verdict}: "
            f"{sum(len(m.records) for m in manifests)} configurations, "
            f"{sum(m.cache_hits for m in manifests)} cache hits, "
            f"{failures} failures"
        )
    return 1 if failures else 0


def _cmd_audit(args) -> int:
    return _with_tracing(args, "repro audit", lambda: _audit_body(args))


def _audit_body(args) -> int:
    import json

    from repro.exceptions import ValidationError
    from repro.experiments import ResultTable
    from repro.privacy import ExactPrivacyAuditor
    from repro.testing import AUDIT_FAMILIES, build_audit, run_audit
    from repro.utils.seeds import derive_seed

    if args.list_families:
        for family in AUDIT_FAMILIES:
            print(family)
        return 0
    families = args.families or list(AUDIT_FAMILIES)
    unknown = sorted(set(families) - set(AUDIT_FAMILIES))
    if unknown:
        # Mirror lint's usage contract: a typo'd family must not exit 0.
        print(
            f"audit: unknown famil{'ies' if len(unknown) > 1 else 'y'}: "
            f"{', '.join(unknown)}; see `repro audit --list`",
            file=sys.stderr,
        )
        return 2
    try:
        reports = []
        for family in families:
            prepared = build_audit(
                family,
                epsilon=args.epsilon,
                n=args.n,
                noise_scale=args.noise_scale,
            )
            reports.append(
                run_audit(
                    prepared,
                    n_samples=args.samples,
                    confidence=args.confidence,
                    random_state=derive_seed(family, base_seed=args.seed),
                )
            )
    except ValidationError as error:
        print(f"audit: {error}", file=sys.stderr)
        return 2

    exact_report = None
    if "gibbs" in families and not args.skip_exact:
        prepared = build_audit(
            "gibbs", epsilon=args.epsilon, n=args.n, noise_scale=args.noise_scale
        )
        exact_report = ExactPrivacyAuditor(
            prepared.mechanism.output_distribution
        ).audit([0, 1], args.n, claimed_epsilon=prepared.epsilon)

    all_ok = all(r.satisfied for r in reports) and (
        exact_report is None or exact_report.satisfied
    )
    if args.format == "json":
        payload = {
            "epsilon": args.epsilon,
            "n": args.n,
            "samples": args.samples,
            "confidence": args.confidence,
            "seed": args.seed,
            "noise_scale": args.noise_scale,
            "satisfied": all_ok,
            "reports": [r.to_dict() for r in reports],
        }
        if exact_report is not None:
            payload["gibbs_exact"] = {
                "measured_epsilon": exact_report.measured_epsilon,
                "claimed_epsilon": exact_report.claimed_epsilon,
                "satisfied": exact_report.satisfied,
                "pairs_checked": exact_report.pairs_checked,
            }
        print(json.dumps(payload, indent=2))
    else:
        table = ResultTable(
            ["family", "claimed ε", "certified ε ≥", "point est.", "verdict"],
            title=(
                f"Statistical DP audits (n={args.n}, {args.samples} samples"
                f"/side, confidence {args.confidence:g})"
            ),
        )
        for report in reports:
            table.add_row(
                report.mechanism,
                report.claimed_epsilon,
                report.epsilon_lower_bound,
                report.point_estimate,
                "OK" if report.satisfied else "VIOLATION",
            )
        print(table)
        if exact_report is not None:
            print(f"gibbs exact enumeration: {exact_report}")
        verdict = "OK" if all_ok else "FAILED"
        print(
            f"audit {verdict}: "
            f"{sum(r.satisfied for r in reports)}/{len(reports)} statistical "
            f"audits within claimed ε"
        )
    return 0 if all_ok else 1


def _cmd_audit_summary(args) -> int:
    import json

    try:
        payload = json.loads(Path(args.path).read_text())
    except OSError as error:
        print(f"audit-summary: cannot read {args.path}: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"audit-summary: {args.path} is not valid JSON: {error}",
              file=sys.stderr)
        return 2
    reports = payload.get("reports") if isinstance(payload, dict) else None
    if not isinstance(reports, list):
        print(
            f"audit-summary: {args.path} is not a `repro audit --format "
            "json` report (missing 'reports')",
            file=sys.stderr,
        )
        return 2
    # Validate every row before printing, so a bad report never leaves a
    # half-written summary behind.
    malformed = [
        index
        for index, report in enumerate(reports)
        if not isinstance(report, dict)
        or "mechanism" not in report
        or not _all_numbers(
            report, "claimed_epsilon", "epsilon_lower_bound", "point_estimate"
        )
    ]
    exact = payload.get("gibbs_exact")
    if isinstance(exact, dict) and not _all_numbers(
        exact, "measured_epsilon", "claimed_epsilon"
    ):
        malformed.append("gibbs_exact")
    if malformed:
        print(
            f"audit-summary: {args.path} has malformed report rows "
            f"{malformed}: each needs 'mechanism' and numeric "
            "'claimed_epsilon', 'epsilon_lower_bound', 'point_estimate'",
            file=sys.stderr,
        )
        return 2

    satisfied = bool(payload.get("satisfied"))
    verdict = "✅ all audits within claimed ε" if satisfied else "❌ VIOLATION"
    print("## Nightly statistical DP audits")
    print()
    print(f"**{verdict}** — n={payload.get('n')}, "
          f"{payload.get('samples')} samples/side, "
          f"confidence {payload.get('confidence')}, "
          f"seed {payload.get('seed')}")
    print()
    print("| family | claimed ε | certified ε ≥ | point est. | verdict |")
    print("|---|---|---|---|---|")
    for report in reports:
        mark = "ok" if report.get("satisfied") else "**VIOLATION**"
        print(
            f"| {report.get('mechanism')} "
            f"| {report.get('claimed_epsilon'):.4g} "
            f"| {report.get('epsilon_lower_bound'):.4f} "
            f"| {report.get('point_estimate'):.4f} "
            f"| {mark} |"
        )
    if isinstance(exact, dict):
        mark = "ok" if exact.get("satisfied") else "**VIOLATION**"
        print()
        print(
            f"Gibbs exact enumeration: measured ε = "
            f"{exact.get('measured_epsilon'):.4f} vs claimed "
            f"{exact.get('claimed_epsilon'):.4g} over "
            f"{exact.get('pairs_checked')} neighbour pairs — {mark}"
        )
    return 0


def _all_numbers(row: dict, *keys: str) -> bool:
    """Whether ``row`` holds a real number (not a bool) under every key."""
    return all(
        isinstance(row.get(key), (int, float))
        and not isinstance(row.get(key), bool)
        for key in keys
    )


def _cmd_tradeoff(args) -> int:
    import numpy as np

    from repro.core import tradeoff_curve
    from repro.experiments import ResultTable
    from repro.learning import BernoulliTask, PredictorGrid, empirical_risk_matrix

    task = BernoulliTask(p=args.p)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, args.grid_size)
    datasets = list(itertools.product([0, 1], repeat=args.n))
    risks = empirical_risk_matrix(
        lambda t, z: abs(t - z), grid.thetas, [list(d) for d in datasets]
    )
    source = np.array(
        [
            np.prod([args.p if z else 1 - args.p for z in dataset])
            for dataset in datasets
        ]
    )
    points = tradeoff_curve(source, risks, args.epsilons)
    table = ResultTable(
        ["epsilon", "I(Z;theta) nats", "E empirical risk", "objective"],
        title=f"Theorem 4.2 frontier, Bernoulli({args.p}), n={args.n}",
    )
    for point in points:
        table.add_row(
            point.epsilon,
            point.mutual_information,
            point.expected_empirical_risk,
            point.objective,
        )
    print(table)
    return 0


def _cmd_release(args) -> int:
    from repro.core import GibbsEstimator
    from repro.learning import BernoulliTask, PredictorGrid

    task = BernoulliTask(p=args.p)
    sample = list(task.sample(args.n, random_state=args.seed))
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, args.grid_size)
    estimator = GibbsEstimator.from_privacy(
        grid, args.epsilon, expected_sample_size=args.n
    )
    theta = estimator.release(sample, random_state=args.seed + 1)
    print(f"released theta = {theta:.4f} under {estimator.privacy}")
    print(f"true risk R(theta) = {task.true_risk(theta):.4f} "
          f"(Bayes {task.bayes_risk():.4f})")
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.exceptions import ValidationError
    from repro.observability import load_trace, render_trace

    try:
        payload = load_trace(args.path)
    except ValidationError as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(render_trace(payload))
    return 0


_COMMANDS = {
    "experiments": _cmd_experiments,
    "bench": _cmd_bench,
    "audit": _cmd_audit,
    "audit-summary": _cmd_audit_summary,
    "trace": _cmd_trace,
    "tradeoff": _cmd_tradeoff,
    "release": _cmd_release,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
}


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # Imported lazily: dplint's entry point loads multiprocessing and
        # the whole analyzer, which no other command needs.
        from repro.analysis.__main__ import run

        return run(argv[1:], prog="repro lint")
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
