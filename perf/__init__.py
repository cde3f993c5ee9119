"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 perf/run.py`` runs it and ``python3 perf/compare.py`` compares
two sets of runs; ``perf/README.md`` describes both. The metric names,
units and bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
