"""Work-conserving batching: batches form exactly when there is queueing.

The paper's batching analysis says SPHINCS+ engines only pay off when fed
whole batches; a live service cannot hold a request back for a batch that
may never form.  :class:`DeadlineBatcher` resolves that per queue: while
nothing is in flight a request ships the moment it arrives — the signer
is idle, waiting would buy nothing — and while a batch *is* in flight,
requests for the same ``(tenant, key)`` accumulate.  When the signer
frees, the queue holding the oldest request ships whole.  So batch size
follows load: a lone caller sees no wait, a burst rides together.

Two caps bound a queue while the signer is busy: it ships at once when it
reaches the target batch size, and when its oldest request's latency
budget (``max_wait_s``, or the request's own ``deadline_ms``) expires —
beside the batch already in flight, so no request waits longer than its
budget to be *dispatched*.

The batcher owns no crypto.  The service supplies ``dispatch(queue_key,
batch)``; the batcher owns queues, per-queue deadline timers, and the
per-request futures callers await.

``BatchScheduler`` (``repro.runtime.scheduler``) serves *synchronous*
callers, who hand it a whole message list and get it back signed: there
is no arrival process for a shipping policy to act on, so this policy
lives here alone.
"""

from __future__ import annotations

import asyncio
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
    # Trace context must ride here as data, not via contextvars: the
    # deadline timer fires dispatch from a loop.call_later callback,
    # which runs in a *fresh* context — the submitter's contextvar never
    # reaches it.  ``enqueued_wall`` is the wall-clock twin of
    # ``enqueued_at`` so queue-wait spans share the clock worker
    # processes stamp their spans with.
    trace: object | None = None  # repro.obs.trace.TraceContext
    enqueued_wall: float = 0.0


class DeadlineBatcher:
    """Group requests per key; ship when the signer is free, or at a cap.

    Parameters
    ----------
    dispatch:
        ``async dispatch(queue_key, batch)`` — sign the batch and resolve
        each request's future.  If it raises, the batcher fails every
        still-unresolved future in the batch with the exception.
    target_batch_size:
        Dispatch a queue once it holds this many requests, even beside a
        batch in flight.
    max_wait_s:
        Default latency budget: the longest a request may sit queued
        behind a batch in flight before its queue is dispatched anyway.
        Per-request budgets (``budget_s`` on :meth:`submit`) override it.
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
        # queue key -> (armed deadline, timer); one timer per queue, armed
        # for the earliest deadline among its requests.
        self._timers: dict[QueueKey, tuple[float, asyncio.TimerHandle]] = {}
        self._inflight: set[asyncio.Task] = set()
        self._inflight_requests = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests queued but not yet dispatched."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def in_flight(self) -> int:
        """Requests in fired batches whose dispatch has not finished.

        Counted synchronously in the fire path — there is no instant at
        which a request has left :attr:`pending` but is not yet here, so
        ``pending + in_flight`` is always the true outstanding depth
        (which is what admission control must watermark against).
        """
        return self._inflight_requests

    def submit(self, tenant: str, key_name: str, message: bytes,
               budget_s: float | None = None,
               trace=None) -> asyncio.Future:
        """Queue a request; the returned future resolves at dispatch."""
        if self._closed:
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
        queue_key = (tenant, key_name)
        queue = self._queues.setdefault(queue_key, [])
        queue.append(request)
        if (not self._inflight_requests
                or len(queue) >= self.target_batch_size):
            self._fire(queue_key)
        else:
            self._arm(queue_key, request.deadline_at, loop)
        return request.future

    async def flush(self) -> None:
        """Dispatch every queue now and wait for in-flight batches."""
        for queue_key in list(self._queues):
            self._fire(queue_key)
        if self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)

    def close(self) -> None:
        """Cancel timers and fail anything still queued."""
        self._closed = True
        for _, handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for queue in self._queues.values():
            for request in queue:
                if not request.future.done():
                    request.future.set_exception(
                        ServiceError("batcher closed with requests queued")
                    )
        self._queues.clear()

    # ------------------------------------------------------------------
    def _arm(self, queue_key: QueueKey, deadline_at: float,
             loop: asyncio.AbstractEventLoop) -> None:
        armed = self._timers.get(queue_key)
        if armed is not None:
            armed_deadline, handle = armed
            if armed_deadline <= deadline_at:
                return  # an earlier deadline is already armed
            handle.cancel()
        delay = max(0.0, deadline_at - loop.time())
        handle = loop.call_later(delay, self._fire, queue_key)
        self._timers[queue_key] = (deadline_at, handle)

    def _fire(self, queue_key: QueueKey) -> None:
        armed = self._timers.pop(queue_key, None)
        if armed is not None:
            armed[1].cancel()
        batch = self._queues.pop(queue_key, None)
        if not batch:
            return
        self._inflight_requests += len(batch)
        task = asyncio.get_running_loop().create_task(
            self._run_dispatch(queue_key, batch)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_dispatch(self, queue_key: QueueKey,
                            batch: list[PendingSign]) -> None:
        try:
            await self._dispatch(queue_key, batch)
        except Exception as exc:  # noqa: BLE001 — forwarded to callers
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        finally:
            self._inflight_requests -= len(batch)
            if not self._inflight_requests and self._queues:
                # The signer is free: whoever has waited longest goes.
                self._fire(min(self._queues, key=lambda key:
                               self._queues[key][0].enqueued_at))
