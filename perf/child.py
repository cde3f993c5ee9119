"""Entry point of one benchmark process (started by ``perf/run.py``)::

    python -m perf.child --workload NAME --seed N --seconds S --trace 0|1 \\
        --mode setup|measure --spawned MONOTONIC [--out DIR]

The first calibration probe runs before the program is imported, so that
set-up time can be rescaled like every other time. The report is one JSON
object on standard output; everything the program prints goes to standard
error instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from perf import calibration


def main(argv=None) -> int:
    first_probe = calibration.probe()
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    with contextlib.redirect_stdout(sys.stderr):
        from perf.harness import run

        report = run(args.workload, args.seed, args.seconds, traced=bool(args.trace),
                     spawned=args.spawned, first_probe=first_probe,
                     setup_only=args.mode == "setup", out=args.out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
