"""The benchmark's own load generators.

``repro.service.loadgen.LoadGenerator`` is not used: it times a request
from the moment it was issued, so a stall hides the wait it imposed on
every request behind it, and it folds exceptions into one counter.  Here
an open-loop request is timed from the moment it was *due*, the
generator reports how late it ran, and the caller sees every exception.

Arrivals are scheduled in ``kh``, not in seconds: the gap to the next
arrival is a seeded exponential draw in ``kh`` turned into seconds at
the machine's speed of the last half second.  The offered load is then a
fixed share of one *reference core* whatever the machine is doing, and a
faster program sees the same arrivals at a lower utilisation.
"""

from __future__ import annotations

import asyncio
import random
import time

from .floor import FloorSampler

now = time.perf_counter


async def open_loop(floor: FloorSampler, gaps: random.Random,
                    mean_gap_kh: float, seconds: float, make_request):
    """Poisson arrivals for *seconds*.

    ``make_request(index, due)`` returns the coroutine of one request;
    it is started as its own task at the arrival's due time and never
    waits for an earlier one.  Returns ``(opened, tasks, lags)``: when
    the window opened, every task started (some may still be running),
    and how late each one was started.
    """
    tasks: list[asyncio.Task] = []
    lags: list[float] = []
    opened = due = now()
    while True:
        due += (gaps.expovariate(1.0 / mean_gap_kh)
                * floor.recent_us() * 1e-3)
        if due - opened >= seconds:
            return opened, tasks, lags
        request = make_request(len(tasks) + 1, due)
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(now() - due)
        tasks.append(asyncio.create_task(request))
