"""Speed floor: a simulated fleet runs faster on the deadline-heap clock.

``SimulatedClock`` files each request timeout as a heap entry and advances
time from its event loop's selector when nothing is runnable. The clock
before it raced every timed request against a timer task through
``asyncio.wait`` and drove time from a polling task that ran once per
loop pass. This times a 400-client churn fleet (budgets run out, and with
a timeout below the flush window many queued requests time out and are
refunded) on both clocks, in alternation, best of 9. The reference is
the verbatim copy kept in ``tests/test_clock_equivalence.py``.

On a shared 2-vCPU host the timed fleet lands 1.7-2.8x ahead (median
near 2.0x). The untimed fleet saves only the old clock's polling-task
step per loop pass: 1.0-1.6x ahead, median near 1.2x, so the host's
run-to-run noise is as large as the gain. Its floor is therefore a
regression guard, 0.9x, rather than a gain claim. The timed floor is 1.4x. A clock
made 2x slower fails both (about 1.0x and 0.6x).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.serving import SimulatedClock
from tests.test_clock_equivalence import ReferenceSimulatedClock, run_fleet
from tests.test_perf_release_many import _best_of_interleaved

FLEET = {"clients": 400, "requests": 8, "tenants": 16, "budget": 3.2,
         "trace": False}


@pytest.mark.parametrize(
    "request_timeout, floor", [(0.03, 1.4), (None, 0.9)],
    ids=["timed", "untimed"],
)
def test_fleet_beats_the_reference_clock(request_timeout, floor, benchmark):
    new = partial(run_fleet, SimulatedClock, request_timeout=request_timeout,
                  **FLEET)
    reference = partial(run_fleet, ReferenceSimulatedClock,
                        request_timeout=request_timeout, **FLEET)

    benchmark.pedantic(new, rounds=3, iterations=1)
    new_seconds, reference_seconds = _best_of_interleaved(
        new, reference, repeats=9)

    speedup = reference_seconds / new_seconds
    assert speedup >= floor, (
        f"400-client fleet (request_timeout={request_timeout}): "
        f"{new_seconds * 1e3:.1f}ms vs reference clock "
        f"{reference_seconds * 1e3:.1f}ms — only {speedup:.2f}x, "
        f"need >= {floor}x"
    )
