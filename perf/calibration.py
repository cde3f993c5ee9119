"""Processor-speed calibration, so timings survive a noisy shared machine.

On a shared host the same computation can run 1.5x slower for seconds or
minutes at a time, on one core and not the other. Four short fixed
kernels, timed on the measuring process's own core right before and after
each timed piece of work, track that speed: integer arithmetic in the
interpreter, allocating and sorting many small objects, a numpy pass over
a 1 MB array, and random lookups in a dict of about 20 MB, which feels
contention for the shared cache and memory that the others fit beside.
Every time the benchmark reports is rescaled to *reference seconds*: the
measured time divided by the kernels' median slowdown against
:data:`REFERENCE_S`. The kernels use none of the program's code, so a
change to the program cannot move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_ARRAY = np.random.default_rng(0).standard_normal(131_072)
_TABLE = {key: key for key in range(1 << 18)}
_LOOKUPS = [int(key) for key in np.random.default_rng(1).integers(0, 1 << 18, 8_000)]


def _arithmetic() -> int:
    total = 0
    table = {}
    for index in range(20_000):
        total += index * index % 7
        table[index & 255] = total
    return total + len(table)


def _objects() -> int:
    items = [(index * 2654435761 % 1_000_003, str(index)) for index in range(6_000)]
    table = dict(items)
    items.sort()
    return len(table) + len(items[0][1])


def _numpy() -> float:
    return float(np.sort(_ARRAY)[0] + np.exp(_ARRAY).sum())


def _lookups() -> int:
    table = _TABLE
    return sum(table[key] for key in _LOOKUPS)


_KERNELS = (_arithmetic, _objects, _numpy, _lookups)

#: Each kernel's time, in seconds, on an undisturbed core of the machine the
#: baseline was measured on (a shared 2-vCPU x86-64 VM, CPython 3.11).
REFERENCE_S = (0.0019, 0.0029, 0.0009, 0.0011)


def probe(repeats: int = 3) -> float:
    """The kernels' current median slowdown against :data:`REFERENCE_S`.

    Each kernel counts with its fastest of ``repeats`` runs; the median
    keeps one kernel's outlier from moving the result.
    """
    ratios = []
    for kernel, reference in zip(_KERNELS, REFERENCE_S):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
        ratios.append(best / reference)
    return statistics.median(ratios)


def scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two probes into reference seconds."""
    return 2.0 / (before + after)
