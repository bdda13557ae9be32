"""Workload generation: arrival traces and an async load driver.

The paper's batching argument lives or dies on arrival patterns — a
batcher tuned on uniform traffic falls over on bursts.  This module
produces three canonical traces as lists of arrival *offsets* (seconds
from test start):

``poisson``
    Memoryless arrivals at a mean rate — the classic open-loop model of
    many independent clients.
``bursty``
    On/off traffic: bursts of back-to-back requests separated by idle
    gaps, with the same long-run mean rate.  The stress test for
    deadline-aware dispatch (a burst fills batches instantly; the lone
    straggler after a burst must ride its deadline out).
``ramp``
    Arrival rate climbing linearly from ``rate/4`` to ``2*rate`` — finds
    the knee where queueing (and then load-shedding) sets in.

Traces are deterministic under a seed via a private ``random.Random``.
:class:`LoadGenerator` replays a trace against any async ``signer``
callable (the TCP client, or the in-process service API) and aggregates
client-observed latencies (timed from when each request was due),
shed/failure counts and server-reported batch sizes into a LoadReport.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from ..errors import OverloadedError, ServiceError
from .telemetry import percentile

__all__ = ["TRACES", "make_trace", "poisson_trace", "bursty_trace",
           "ramp_trace", "LoadGenerator", "LoadReport"]


def poisson_trace(n: int, rate: float, seed: int = 0) -> list[float]:
    """*n* Poisson arrivals at mean *rate* requests/second."""
    _check(n, rate)
    rng = random.Random(seed)
    offsets, now = [], 0.0
    for _ in range(n):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def bursty_trace(n: int, rate: float, burst: int = 8,
                 seed: int = 0) -> list[float]:
    """*n* arrivals in back-to-back bursts of *burst*, mean rate *rate*.

    Requests within a burst arrive simultaneously; bursts are separated
    by ``burst/rate`` seconds (plus small seeded jitter) so the long-run
    offered rate matches *rate*.
    """
    _check(n, rate)
    if burst < 1:
        raise ServiceError(f"burst must be >= 1, got {burst}")
    rng = random.Random(seed)
    offsets, burst_start = [], 0.0
    remaining = n
    while remaining > 0:
        size = min(burst, remaining)
        offsets.extend([burst_start] * size)
        remaining -= size
        gap = burst / rate
        burst_start += gap * rng.uniform(0.8, 1.2)
    return offsets


def ramp_trace(n: int, rate: float, seed: int = 0) -> list[float]:
    """*n* arrivals ramping linearly from ``rate/4`` up to ``2*rate``."""
    _check(n, rate)
    rng = random.Random(seed)
    start_rate, end_rate = rate / 4.0, rate * 2.0
    offsets, now = [], 0.0
    for i in range(n):
        frac = i / (n - 1) if n > 1 else 1.0
        current = start_rate + (end_rate - start_rate) * frac
        now += rng.expovariate(current)
        offsets.append(now)
    return offsets


TRACES: dict[str, Callable[..., list[float]]] = {
    "poisson": poisson_trace,
    "bursty": bursty_trace,
    "ramp": ramp_trace,
}


def make_trace(name: str, n: int, rate: float, seed: int = 0,
               **kwargs) -> list[float]:
    """Build the named trace; see :data:`TRACES` for the choices."""
    try:
        factory = TRACES[name]
    except KeyError:
        known = ", ".join(sorted(TRACES))
        raise ServiceError(
            f"unknown trace {name!r}; choose from: {known}"
        ) from None
    return factory(n, rate, seed=seed, **kwargs)


def _check(n: int, rate: float) -> None:
    if n < 1:
        raise ServiceError(f"trace length must be >= 1, got {n}")
    if rate <= 0:
        raise ServiceError(f"arrival rate must be > 0, got {rate}")


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

#: ``signer(message) -> response`` — the response is awaited, not read (a
#: :meth:`ServiceClient.call` of ``sign`` and a thin wrapper over
#: ``SigningService.sign`` both qualify).
Signer = Callable[[bytes], Awaitable[object]]


@dataclass
class LoadReport:
    """Aggregate outcome of one load-generation run."""

    trace: str
    offered: int
    signed: int = 0
    verified: int = 0
    shed: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        done = self.signed + self.verified
        return done / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_ms(self, p: float) -> float:
        return round(percentile(self.latencies_ms, p), 3)

    def table(self) -> str:
        from ..analysis.reporting import format_table

        return format_table(
            ["trace", "offered", "signed", "verified", "shed", "failed",
             "wall s", "req/s", "p50 ms", "p95 ms", "p99 ms"],
            [[self.trace, self.offered, self.signed, self.verified,
              self.shed, self.failed, round(self.elapsed_s, 2),
              round(self.achieved_rate, 2), self.latency_ms(50),
              self.latency_ms(95), self.latency_ms(99)]],
            title="Load generation (client-observed latency)",
        )


class LoadGenerator:
    """Replay an arrival trace against an async signer.

    ``verify_fraction`` turns that fraction of the trace's requests into
    verify operations issued through *verifier* (seeded, deterministic:
    the same trace + seed always verifies the same indexes), so one
    trace can model verification-dominant traffic — a transparency-log
    deployment serves far more proof checks than appends.
    """

    def __init__(self, signer: Signer,
                 message_factory: Callable[[int], bytes] | None = None,
                 verifier: Signer | None = None,
                 verify_fraction: float = 0.0, seed: int = 0):
        if not 0.0 <= verify_fraction <= 1.0:
            raise ServiceError(
                f"verify_fraction must be in [0, 1], got {verify_fraction}")
        if verify_fraction > 0.0 and verifier is None:
            raise ServiceError(
                "verify_fraction > 0 needs a verifier callable")
        self._signer = signer
        self._verifier = verifier
        self._verify_fraction = verify_fraction
        self._seed = seed
        self._message_factory = (message_factory or
                                 (lambda i: f"loadgen message #{i}".encode()))

    async def run(self, offsets: list[float],
                  trace: str = "custom") -> LoadReport:
        """Issue one request per offset; returns the report."""
        report = LoadReport(trace=trace, offered=len(offsets))
        loop = asyncio.get_running_loop()
        # Which indexes verify is decided up front in index order, so the
        # mix is reproducible regardless of completion interleaving.
        rng = random.Random(self._seed)
        verify_at = {index for index in range(len(offsets))
                     if self._verify_fraction > 0.0
                     and rng.random() < self._verify_fraction}
        start = loop.time()

        async def one(index: int, offset: float) -> None:
            # Timed from when it was due: a stall shows in those behind it.
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            verifying = index in verify_at
            try:
                if verifying:
                    await self._verifier(self._message_factory(index))
                else:
                    await self._signer(self._message_factory(index))
            except OverloadedError:
                report.shed += 1
                return
            except Exception:  # noqa: BLE001 — loadgen counts, not raises
                report.failed += 1
                return
            if verifying:
                report.verified += 1
            else:
                report.signed += 1
            report.latencies_ms.append((loop.time() - due) * 1000.0)

        await asyncio.gather(*(one(i, offset)
                               for i, offset in enumerate(offsets)))
        report.elapsed_s = loop.time() - start
        return report
