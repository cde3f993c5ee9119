"""Run the benchmark: every workload, or one, each in fresh processes.

Usage, from the repository root::

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out DIR]

For each workload this starts two set-up-only processes and then one
measuring process (see :mod:`perf.child`), one after another, each
single-threaded. It prints every metric as ``workload metric value unit``,
writes one JSON result file under ``--out``, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Untraced runs report the end-to-end metrics of
``BENCHMARK.json``; ``--trace`` runs report its per-layer metrics and
write ``TRACE_<workload>.json``. Exit status: 0 when every check passed,
1 when a check failed or a process did not finish, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a script: import `perf` from the root
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from perf import ROOT, load_benchmark

#: Set-up samples per workload: this many processes start, build and warm
#: up; the measuring process is the last of them.
SETUP_SAMPLES = 3
#: Wall-clock limit on one workload, all of its processes included.
WORKLOAD_LIMIT_S = 170.0


class RunFailed(RuntimeError):
    """A measuring process failed, timed out, or reported the wrong metrics."""


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _spawn(arguments: list[str], deadline: float) -> dict:
    """Run one benchmark process to completion and parse its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a process")
    command = [sys.executable, "-m", "perf.child", *arguments,
               "--spawned", repr(time.monotonic())]
    try:
        finished = subprocess.run(command, cwd=ROOT, env=_environment(),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining, check=False)
    except subprocess.TimeoutExpired as error:
        raise RunFailed(f"{' '.join(arguments)}: no result in {remaining:.0f} s") from error
    if finished.returncode != 0:
        raise RunFailed(f"{' '.join(arguments)}: exit status {finished.returncode}")
    try:
        return json.loads(finished.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as error:
        raise RunFailed(f"{' '.join(arguments)}: no report") from error


def run_workload(name: str, seed: int, seconds: float, trace: int, out: Path,
                 expected: dict[str, str]) -> dict:
    """Set up and measure one workload; returns its result record.

    Parameters
    ----------
    expected:
        Metric name -> unit of every metric this run must report.
    """
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    arguments = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn([*arguments, "--mode", "setup"], deadline)["setup_s"])
    report = _spawn([*arguments, "--out", str(out)], deadline)
    setups.append(report["setup_s"])
    values = dict(report["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(expected):
        raise RunFailed(f"{name}: reported metrics differ from BENCHMARK.json: "
                        f"{sorted(set(values) ^ set(expected))}")
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "digest": report["digest"],
        "problems": report["problems"],
        "counts": report["counts"],
        "metrics": {metric: {"value": values[metric], "unit": expected[metric]}
                    for metric in expected},
        "setup_s_samples": setups,
        "details": report["details"],
    }


def main(argv=None) -> int:
    benchmark = load_benchmark()
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / "results",
                        help="directory for the result and trace files")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in benchmark[section]}
    out = args.out.resolve()
    results = {}
    for name in [args.workload] if args.workload else workloads:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         out, expected)
        except RunFailed as error:
            print(f"perf: {error}", file=sys.stderr)
            return 1
        for problem in results[name]["problems"]:
            print(f"perf: {name}: {problem}", file=sys.stderr)
        for metric, entry in results[name]["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        print(f"{name} digest {results[name]['digest']}")

    out.mkdir(parents=True, exist_ok=True)
    label = args.workload or "all"
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{label}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": results,
    }, indent=1) + "\n")
    print(f"perf: result written to {path}", file=sys.stderr)

    correct = all(result["correct"] for result in results.values())
    metrics = {
        (metric if args.workload else f"{name}.{metric}"): entry
        for name, result in results.items()
        for metric, entry in result["metrics"].items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
