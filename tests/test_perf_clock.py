"""Speed floor: a simulated fleet runs faster on the deadline-heap clock.

``SimulatedClock`` files each request timeout as a heap entry and advances
time from its event loop's selector when nothing is runnable. The clock
before it raced every timed request against a timer task through
``asyncio.wait`` and drove time from a polling task that ran once per
loop pass. This times a 400-client churn fleet (budgets run out, and with
a timeout below the flush window many queued requests time out and are
refunded) on both clocks, back to back in 21 pairs whose first run
alternates, and takes the median of the per-pair ratios. The reference
is the verbatim copy kept in ``tests/test_clock_equivalence.py``.

On a shared 2-vCPU host the timed fleet's median lands at 1.9-2.0x. The
untimed fleet saves only the old clock's polling-task step per loop pass:
single pairs read 0.8-1.8x and their median 1.17-1.23x, so its floor is a
regression guard, 0.9x, rather than a gain claim. The timed floor is
1.4x. A clock made 2x slower fails both (medians 0.59-0.60x untimed,
0.95-0.98x timed). Best-of-9 times, used before, once read 0.80x untimed
on an unchanged tree: they pair each side's luckiest run, which need not
fall in the same slow or fast spell of the host.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.serving import SimulatedClock
from tests.test_clock_equivalence import ReferenceSimulatedClock, run_fleet
from tests.test_perf_release_many import _median_pair_ratio

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
    speedup = _median_pair_ratio(new, reference, pairs=21)

    assert speedup >= floor, (
        f"400-client fleet (request_timeout={request_timeout}): median "
        f"pair ratio against the reference clock only {speedup:.2f}x, "
        f"need >= {floor}x"
    )
