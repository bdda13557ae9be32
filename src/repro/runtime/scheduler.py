"""The throughput service layer: queueing, routing, per-batch statistics.

:class:`BatchScheduler` is what a signing *service* fronts the runtime
with.  Callers submit individual messages and get tickets back; the
scheduler groups them into per-(parameter set, backend) queues, dispatches
a backend's ``sign_batch`` whenever a queue reaches its target size, and
keeps per-batch statistics (wall time, sig/s, cache hits, modeled KOPS)
for reporting.  A pluggable router decides which backend serves which
message — by parameter set, payload, or anything else.

This is the architecture the paper argues for: restructure a message
stream into batches, then schedule the batches onto heterogeneous
execution engines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import BackendError, UnknownTicketError
from ..params import get_params
from ..sphincs.signer import KeyPair
from .backend import BatchSignResult, SigningBackend
from .registry import get_backend

__all__ = ["BatchStats", "BatchScheduler"]

# router(params_name, message) -> backend name
Router = Callable[[str, bytes], str]

# Combined size bound on the claimed/evicted ticket-id sets before the
# oldest half is folded into a floor watermark (see _compact_terminal).
_MAX_TERMINAL_TRACKED = 4096


@dataclass(frozen=True)
class BatchStats:
    """One dispatched batch, as the service's dashboard would see it."""

    backend: str
    params: str
    count: int
    elapsed_s: float
    sigs_per_s: float
    verified: bool | None
    cache_hits: int
    modeled_kops: float | None


@dataclass
class _Queue:
    tickets: list[int] = field(default_factory=list)
    messages: list[bytes] = field(default_factory=list)
    enqueued: list[float] = field(default_factory=list)


class BatchScheduler:
    """Route a message stream through batch-signing backends.

    Parameters
    ----------
    target_batch_size:
        Dispatch a queue as soon as it holds this many messages
        (:meth:`flush` dispatches partial queues).
    backend:
        Default backend name for messages the router does not claim.
    router:
        Optional ``(params_name, message) -> backend name`` callable.
    verify:
        When true, every dispatched batch is immediately verified and the
        verdict recorded in its :class:`BatchStats` — a service-level
        self-check, not a crypto requirement.
    backend_options:
        Per-backend-name constructor kwargs, e.g.
        ``{"modeled-gpu": {"device": "RTX 3080"}}``.
    max_wait_s:
        Latency budget per queue: :meth:`poll` dispatches any queue whose
        *oldest* message has waited at least this long, so a trickle of
        traffic is never stranded below the batch-size target.  ``None``
        (the default) keeps the original size-only behaviour.
    max_retained:
        Bound on the signed-result store.  When more than this many
        unclaimed signatures are retained, the oldest are evicted
        (FIFO by signing order; ``evicted`` counts them).  ``None``
        retains everything.
    on_dispatch:
        Hook called with each batch's :class:`BatchStats` right after
        dispatch — the attachment point for service telemetry.
    keys_provider:
        Optional ``(canonical params name) -> KeyPair`` hook consulted
        before the scheduler generates its own key pair — how the
        ``repro.api`` local transport signs under *keystore* keys
        (tenant-owned, persisted) instead of scheduler-generated ones.
        Resolved once per parameter set, then cached like generated keys.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  When set, every
        dispatched batch records a ``sign`` span (joined to the ambient
        trace context when one is current) with per-stage sub-spans from
        the backend's ``stage_seconds``.  ``None`` keeps dispatch
        hook-free — the observability overhead benchmark measures
        exactly this toggle.
    clock:
        Monotonic time source for queue-age accounting (injectable for
        deterministic tests).

    >>> sched = BatchScheduler(target_batch_size=2, deterministic=True)
    >>> tickets = [sched.submit(b"a"), sched.submit(b"b")]  # dispatches
    >>> len(sched.signature(tickets[0]))
    17088
    """

    def __init__(self, target_batch_size: int = 64,
                 backend: str = "vectorized",
                 router: Router | None = None,
                 deterministic: bool = False,
                 verify: bool = False,
                 backend_options: dict[str, dict] | None = None,
                 max_wait_s: float | None = None,
                 max_retained: int | None = None,
                 on_dispatch: Callable[[BatchStats], None] | None = None,
                 keys_provider: Callable[[str], KeyPair] | None = None,
                 tracer=None,
                 clock: Callable[[], float] = time.monotonic):
        if target_batch_size < 1:
            raise BackendError(
                f"target_batch_size must be >= 1, got {target_batch_size}"
            )
        if max_wait_s is not None and max_wait_s <= 0:
            raise BackendError(f"max_wait_s must be > 0, got {max_wait_s}")
        if max_retained is not None and max_retained < 1:
            raise BackendError(
                f"max_retained must be >= 1, got {max_retained}"
            )
        self.target_batch_size = target_batch_size
        self.default_backend = backend
        self.router = router
        self.deterministic = deterministic
        self.verify = verify
        self.backend_options = backend_options or {}
        self.max_wait_s = max_wait_s
        self.max_retained = max_retained
        self.on_dispatch = on_dispatch
        self.keys_provider = keys_provider
        self.tracer = tracer
        self.clock = clock
        self.evicted = 0
        self.batches: list[BatchStats] = []
        self._backends: dict[tuple[str, str], SigningBackend] = {}
        self._keys: dict[str, KeyPair] = {}
        self._queues: dict[tuple[str, str], _Queue] = {}
        self._signatures: dict[int, bytes] = {}
        self._next_ticket = 0
        # Terminal ticket states, so signature()/claim() can distinguish
        # "not dispatched yet" (None) from "gone" (UnknownTicketError).
        # Bounded: once the sets exceed _MAX_TERMINAL_TRACKED, the oldest
        # half is compacted into _terminal_floor — tickets below the
        # floor that are neither stored nor queued are reported with a
        # combined "claimed or evicted" message instead of the exact one.
        self._claimed: set[int] = set()
        self._evicted_tickets: set[int] = set()
        self._terminal_floor = 0

    # ------------------------------------------------------------------
    # Key and backend management
    # ------------------------------------------------------------------
    def backend_for(self, params: str, backend: str) -> SigningBackend:
        """The (cached) backend instance serving (params, backend)."""
        key = (get_params(params).name, backend)
        instance = self._backends.get(key)
        if instance is None:
            instance = get_backend(
                backend, key[0], deterministic=self.deterministic,
                **self.backend_options.get(backend, {}),
            )
            self._backends[key] = instance
        return instance

    def keys_for(self, params: str) -> KeyPair:
        """One key pair per parameter set, shared by every backend.

        All backends implement identical keygen, so signatures from any
        backend verify under the set's single public key — which is what
        lets the scheduler move traffic between backends freely.
        """
        name = get_params(params).name
        keys = self._keys.get(name)
        if keys is None:
            if self.keys_provider is not None:
                keys = self.keys_provider(name)
            else:
                seed = (bytes(3 * get_params(name).n)
                        if self.deterministic else None)
                keys = self.backend_for(name, self.default_backend).keygen(
                    seed=seed)
            self._keys[name] = keys
        return keys

    # ------------------------------------------------------------------
    # Submission and dispatch
    # ------------------------------------------------------------------
    def submit(self, message: bytes, params: str = "128f",
               backend: str | None = None) -> int:
        """Queue *message*; returns a ticket redeemable for the signature."""
        params_name = get_params(params).name
        if backend is None:
            backend = (self.router(params_name, message) if self.router
                       else self.default_backend)
        ticket = self._next_ticket
        self._next_ticket += 1
        queue = self._queues.setdefault((params_name, backend), _Queue())
        queue.tickets.append(ticket)
        queue.messages.append(message)
        queue.enqueued.append(self.clock())
        if len(queue.messages) >= self.target_batch_size:
            self._dispatch((params_name, backend))
        return ticket

    def _dispatch(self, key: tuple[str, str]) -> BatchStats | None:
        queue = self._queues.get(key)
        if not queue or not queue.messages:
            return None
        params_name, backend_name = key
        # The queue is cleared only after a successful sign: a failing
        # backend (bad route, misconfiguration) must not strand tickets.
        backend = self.backend_for(params_name, backend_name)
        keys = self.keys_for(params_name)
        # Wall clock anchors the sign span once; its end is derived from
        # the monotonic clock so an NTP step mid-batch cannot produce a
        # negative or inflated span.
        sign_start = time.time() if self.tracer is not None else 0.0
        sign_mono = time.perf_counter()
        result = backend.sign_batch(queue.messages, keys)
        if self.tracer is not None:
            self._record_spans(result, sign_start,
                               sign_start + (time.perf_counter()
                                             - sign_mono))
        if len(result.signatures) != len(queue.messages):
            raise BackendError(
                f"backend {backend_name!r} returned {len(result.signatures)} "
                f"signatures for {len(queue.messages)} messages"
            )
        self._queues[key] = _Queue()
        for ticket, signature in zip(queue.tickets, result.signatures):
            self._signatures[ticket] = signature
        verified: bool | None = None
        if self.verify:
            verified = all(backend.verify_batch(
                queue.messages, result.signatures, keys.public
            ))
        if self.max_retained is not None:
            # Never evict below the batch just stored: its caller has not
            # had a chance to claim yet, and signature() returning None
            # for a just-returned ticket is indistinguishable from
            # "still queued".
            bound = max(self.max_retained, len(queue.tickets))
            while len(self._signatures) > bound:
                oldest = next(iter(self._signatures))
                self._signatures.pop(oldest)
                self._evicted_tickets.add(oldest)
                self.evicted += 1
            self._compact_terminal()
        stats = self._stats(result, verified)
        self.batches.append(stats)
        if self.on_dispatch is not None:
            self.on_dispatch(stats)
        return stats

    def _record_spans(self, result: BatchSignResult, sign_start: float,
                      sign_end: float) -> None:
        """One ``sign`` span per dispatched batch, with stage sub-spans.

        Joined to the ambient trace context when one is current (the
        local API facade installs one per call); otherwise the sign span
        roots a fresh trace.  Stage sub-spans are laid out sequentially
        from the sign start — the stages run in that order.
        """
        from ..obs.trace import current_trace, new_span_id, start_trace

        ambient = current_trace()
        ctx = ambient if ambient is not None else start_trace()
        sign_id = new_span_id()
        self.tracer.record_span(
            "sign", trace=ctx, span_id=sign_id,
            parent_id=ambient.span_id if ambient is not None else None,
            start=sign_start, end=sign_end, backend=result.backend,
            params=result.params, batch_size=result.count)
        offset = sign_start
        for stage, seconds in result.stage_seconds.items():
            self.tracer.record_span(
                stage, trace=ctx, parent_id=sign_id,
                start=offset, end=offset + seconds)
            offset += seconds

    def _stats(self, result: BatchSignResult,
               verified: bool | None) -> BatchStats:
        return BatchStats(
            backend=result.backend,
            params=result.params,
            count=result.count,
            elapsed_s=result.elapsed_s,
            sigs_per_s=result.sigs_per_s,
            verified=verified,
            cache_hits=result.cache_stats.get("hits", 0),
            modeled_kops=(round(result.modeled.kops, 3)
                          if result.modeled is not None else None),
        )

    def flush(self) -> list[BatchStats]:
        """Dispatch every non-empty queue (partial batches included)."""
        dispatched = []
        for key in list(self._queues):
            stats = self._dispatch(key)
            if stats is not None:
                dispatched.append(stats)
        return dispatched

    def poll(self, now: float | None = None) -> list[BatchStats]:
        """Dispatch queues whose oldest message exceeded ``max_wait_s``.

        The deadline half of deadline-aware batching for synchronous
        callers: a driver loop calls :meth:`poll` periodically (an async
        service uses real timers — see ``repro.service``) and partial
        batches ship once their latency budget is spent.  No-op when
        ``max_wait_s`` is None.
        """
        if self.max_wait_s is None:
            return []
        if now is None:
            now = self.clock()
        dispatched = []
        for key, queue in list(self._queues.items()):
            if queue.enqueued and now - queue.enqueued[0] >= self.max_wait_s:
                stats = self._dispatch(key)
                if stats is not None:
                    dispatched.append(stats)
        return dispatched

    def oldest_wait_s(self, now: float | None = None) -> float | None:
        """Age of the oldest queued message (None when nothing queued)."""
        if now is None:
            now = self.clock()
        ages = [now - queue.enqueued[0]
                for queue in self._queues.values() if queue.enqueued]
        return max(ages) if ages else None

    def run(self, messages: Iterable[bytes], params: str = "128f",
            backend: str | None = None) -> list[int]:
        """Submit *messages*, flush, and return their tickets."""
        tickets = [self.submit(m, params=params, backend=backend)
                   for m in messages]
        self.flush()
        return tickets

    # ------------------------------------------------------------------
    # Results and reporting
    # ------------------------------------------------------------------
    def _compact_terminal(self) -> None:
        """Keep the terminal-ticket sets bounded for long-lived services.

        Tickets are issued monotonically, so folding the oldest tracked
        half into ``_terminal_floor`` retains exact diagnostics for
        recent tickets while old ones collapse to a single integer — the
        sets can never grow past ``_MAX_TERMINAL_TRACKED`` entries no
        matter how many signatures a service claims over its lifetime.
        """
        if (len(self._claimed) + len(self._evicted_tickets)
                <= _MAX_TERMINAL_TRACKED):
            return
        tracked = sorted(self._claimed | self._evicted_tickets)
        cutoff = tracked[len(tracked) // 2]
        self._terminal_floor = max(self._terminal_floor, cutoff + 1)
        self._claimed = {t for t in self._claimed if t > cutoff}
        self._evicted_tickets = {t for t in self._evicted_tickets
                                 if t > cutoff}

    def _is_queued(self, ticket: int) -> bool:
        return any(ticket in queue.tickets
                   for queue in self._queues.values())

    def _validate_ticket_type(self, ticket: int) -> None:
        """Reject non-int tickets *before* any dict lookup.

        ``True`` and ``1.0`` hash equal to ticket ``1`` — without this
        gate, ``claim(True)`` would silently redeem someone else's
        signature instead of raising.
        """
        if not isinstance(ticket, int) or isinstance(ticket, bool):
            raise UnknownTicketError(
                f"ticket {ticket!r} was never issued by this scheduler"
            )

    def _check_ticket(self, ticket: int) -> None:
        """Raise :class:`UnknownTicketError` unless *ticket* is live.

        A live ticket is one that was issued and is still queued (its
        signature simply does not exist yet).  Everything else — never
        issued, already claimed, evicted under ``max_retained`` — raises,
        so ``None`` keeps exactly one meaning: not dispatched yet.
        """
        if ticket < 0 or ticket >= self._next_ticket:
            raise UnknownTicketError(
                f"ticket {ticket!r} was never issued by this scheduler"
            )
        if ticket in self._claimed:
            raise UnknownTicketError(f"ticket {ticket} was already claimed")
        if ticket in self._evicted_tickets:
            raise UnknownTicketError(
                f"ticket {ticket} was evicted from the result store "
                f"(max_retained={self.max_retained}); claim tickets "
                "promptly or raise the bound"
            )
        if ticket < self._terminal_floor and not self._is_queued(ticket):
            # Exact state was compacted away; it is definitely gone.
            raise UnknownTicketError(
                f"ticket {ticket} was already claimed or evicted"
            )

    def signature(self, ticket: int) -> bytes | None:
        """Peek at the signature for *ticket* (None while still queued).

        Signed results are retained until :meth:`claim`\\ ed (signatures
        are 17-50 KB each).  A long-running service should claim tickets
        once redeemed, or construct the scheduler with ``max_retained``
        so the result store stays bounded — unclaimed signatures beyond
        the bound are evicted oldest-first and counted in ``evicted``.
        Raises :class:`UnknownTicketError` for tickets that were never
        issued, were already claimed, or were evicted.
        """
        self._validate_ticket_type(ticket)
        blob = self._signatures.get(ticket)
        if blob is None:
            self._check_ticket(ticket)
        return blob

    def claim(self, ticket: int) -> bytes | None:
        """Redeem *ticket*: return its signature and release the storage.

        ``None`` means the ticket is still queued; a second claim of the
        same ticket raises :class:`UnknownTicketError`, as do never-issued
        and evicted tickets.
        """
        self._validate_ticket_type(ticket)
        blob = self._signatures.pop(ticket, None)
        if blob is None:
            self._check_ticket(ticket)
            return None
        self._claimed.add(ticket)
        self._compact_terminal()
        return blob

    @property
    def pending(self) -> int:
        """Messages submitted but not yet dispatched."""
        return sum(len(q.messages) for q in self._queues.values())

    def throughput(self) -> dict[tuple[str, str], dict[str, float]]:
        """Aggregate signed counts and rates per (params, backend)."""
        totals: dict[tuple[str, str], dict[str, float]] = {}
        for stats in self.batches:
            entry = totals.setdefault(
                (stats.params, stats.backend),
                {"count": 0, "elapsed_s": 0.0, "sigs_per_s": 0.0},
            )
            entry["count"] += stats.count
            entry["elapsed_s"] += stats.elapsed_s
        for entry in totals.values():
            if entry["elapsed_s"] > 0:
                entry["sigs_per_s"] = entry["count"] / entry["elapsed_s"]
        return totals

    def report(self, title: str = "Batch signing runtime") -> str:
        """A formatted per-(params, backend) throughput table."""
        from ..analysis.reporting import format_table

        rows = []
        for (params_name, backend_name), entry in sorted(
                self.throughput().items()):
            modeled = [s.modeled_kops for s in self.batches
                       if s.params == params_name
                       and s.backend == backend_name
                       and s.modeled_kops is not None]
            rows.append([
                params_name,
                backend_name,
                int(entry["count"]),
                round(entry["elapsed_s"], 3),
                round(entry["sigs_per_s"], 3),
                max(modeled) if modeled else "-",
            ])
        return format_table(
            ["set", "backend", "signed", "wall s", "sig/s", "modeled KOPS"],
            rows, title=title,
        )
