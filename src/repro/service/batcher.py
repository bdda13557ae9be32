"""One queue, one flight: batches sign one at a time, earliest deadline first.

The paper gets its throughput by handing each batch whole to one
pipeline; a live service cannot hold a request back for a batch that may
never form.  :class:`DeadlineBatcher` keeps one queue per ``(tenant,
key)`` (a batch shares a key pair) and one drain task, the only place a
batch starts.  The drain starts on the loop turn after a request reaches
an idle batcher, so a burst that arrives in one turn (a ``sign-many``
frame, a ``gather``) is one batch.  It then signs the queue holding the
earliest deadline — enqueue time plus ``max_wait_s`` or the request's
own ``deadline_ms`` — up to ``target_batch_size`` of it in arrival
order, yields a turn so the replies go out, and repeats until no queue
is left.  Arrivals wait behind the batch in flight, so batch size
follows load; an old request cannot starve, as younger default-budget
ones have later deadlines.

The batcher owns no crypto: the service supplies ``dispatch(queue_key,
batch)``.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from ..errors import ServiceError

__all__ = ["DeadlineBatcher", "PendingSign"]

# A batch queue is one (tenant, key_name) — a batch must share a key pair.
QueueKey = tuple[str, str]


@dataclass
class PendingSign:
    """One queued request: message, timing, and the caller's future."""

    tenant: str
    key_name: str
    message: bytes
    enqueued_at: float  # loop.time()
    deadline_at: float  # enqueued_at + latency budget
    future: asyncio.Future
    # Trace context rides here as data: the drain task runs in an empty
    # context.  ``enqueued_wall`` is the wall-clock twin of
    # ``enqueued_at``, on the clock worker processes stamp spans with.
    trace: object | None = None  # repro.obs.trace.TraceContext
    enqueued_wall: float = 0.0


class DeadlineBatcher:
    """Group requests per key; sign one batch at a time, earliest
    deadline first.

    Parameters
    ----------
    dispatch:
        ``async dispatch(queue_key, batch)`` — sign the batch and resolve
        each request's future.  If it raises, the batcher fails every
        still-unresolved future in the batch with the exception; if it
        returns with one unresolved, with a :class:`ServiceError`.
    target_batch_size:
        The most requests one batch takes; a longer queue ships in
        batches of this size, one after another.
    max_wait_s:
        Default latency budget, which sets a request's deadline and so
        its queue's place in line.  Per-request budgets (``budget_s`` on
        :meth:`submit`) override it; without them the order is FIFO.
    """

    def __init__(self, dispatch: Callable[[QueueKey, list[PendingSign]],
                                          Awaitable[None]],
                 target_batch_size: int = 16,
                 max_wait_s: float = 0.1):
        if target_batch_size < 1:
            raise ServiceError(
                f"target_batch_size must be >= 1, got {target_batch_size}"
            )
        if max_wait_s <= 0:
            raise ServiceError(f"max_wait_s must be > 0, got {max_wait_s}")
        self._dispatch = dispatch
        self.target_batch_size = target_batch_size
        self.max_wait_s = max_wait_s
        self._queues: dict[QueueKey, list[PendingSign]] = {}
        self._drain: asyncio.Task | None = None
        self._flight: list[PendingSign] = []  # the batch being signed
        #: Set by :meth:`close`; a closed batcher refuses :meth:`submit`.
        self.closed = False

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests queued but not yet dispatched."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def in_flight(self) -> int:
        """Requests in the batch being signed.  A batch moves here from
        :attr:`pending` in one synchronous step, so ``pending + in_flight``
        is the exact depth admission control watermarks against."""
        return len(self._flight)

    def submit(self, tenant: str, key_name: str, message: bytes,
               budget_s: float | None = None,
               trace=None) -> asyncio.Future:
        """Queue a request; the returned future resolves at dispatch."""
        if self.closed:
            raise ServiceError("batcher is closed")
        loop = asyncio.get_running_loop()
        now = loop.time()
        budget = self.max_wait_s if budget_s is None else max(budget_s, 0.0)
        request = PendingSign(
            tenant=tenant, key_name=key_name, message=message,
            enqueued_at=now, deadline_at=now + budget,
            future=loop.create_future(),
            trace=trace,
            enqueued_wall=time.time() if trace is not None else 0.0,
        )
        self._queues.setdefault((tenant, key_name), []).append(request)
        if self._drain is None or self._drain.done():
            # Its first step runs next turn, so this turn's arrivals join;
            # an empty context, as it signs every caller's batches.
            self._drain = loop.create_task(self._drain_queues(),
                                           context=contextvars.Context())
        return request.future

    async def flush(self) -> None:
        """Wait for every request queued or in flight now, not later."""
        futures = [request.future for queue in self._queues.values()
                   for request in queue]
        futures += [request.future for request in self._flight]
        if futures:  # ``wait`` neither raises nor cancels
            await asyncio.wait(futures)

    def close(self) -> None:
        """Fail anything still queued; the batch in flight finishes."""
        self.closed = True
        for queue in self._queues.values():
            for request in queue:
                if not request.future.done():
                    request.future.set_exception(
                        ServiceError("batcher closed with requests queued")
                    )
        self._queues.clear()

    # ------------------------------------------------------------------
    async def _drain_queues(self) -> None:
        try:
            while self._queues:
                # The queue holding the earliest deadline, the first on a tie.
                queue_key = earliest = None
                for key in self._queues:
                    for request in self._queues[key]:
                        if earliest is None or request.deadline_at < earliest:
                            queue_key, earliest = key, request.deadline_at
                queue = self._queues[queue_key]
                batch = queue[:self.target_batch_size]
                del queue[:self.target_batch_size]
                if not queue:
                    del self._queues[queue_key]
                self._flight = batch
                try:
                    await self._dispatch(queue_key, batch)
                except Exception as exc:  # noqa: BLE001 — to callers
                    error = exc
                else:
                    error = ServiceError("dispatch left a request unresolved")
                finally:
                    self._flight = []
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(error)
                # Let the finished batch's replies go out before the next
                # batch's executor call competes with them for the GIL.
                await asyncio.sleep(0)
        finally:
            self._drain = None
