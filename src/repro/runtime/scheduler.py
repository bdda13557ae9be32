"""The offline batch layer: queueing, routing, per-batch statistics.

:class:`BatchScheduler` is for callers that *queue*: the ``repro serve``
batch CLI, the conformance oracle's ``scheduler:*`` paths, the benchmark
ladder.  They submit individual messages and get tickets back; the
scheduler groups them into per-(parameter set, backend) queues, dispatches
a backend's ``sign_batch`` whenever a queue reaches its target size, and
keeps per-batch statistics (wall time, sig/s, cache hits, verdict) for
reporting.  The request-serving tiers sign through a
:class:`~repro.service.engine.SigningEngine`, not through here.

This is the architecture the paper argues for: restructure a message
stream into batches, then schedule the batches onto heterogeneous
execution engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import BackendError, UnknownTicketError
from ..params import get_params
from ..sphincs.signer import KeyPair
from .backend import BatchSignResult, SigningBackend
from .registry import get_backend

__all__ = ["BatchStats", "BatchScheduler"]


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


@dataclass
class _Queue:
    tickets: list[int] = field(default_factory=list)
    messages: list[bytes] = field(default_factory=list)


class BatchScheduler:
    """Route a message stream through batch-signing backends.

    Parameters
    ----------
    target_batch_size:
        Dispatch a queue as soon as it holds this many messages
        (:meth:`flush` dispatches partial queues).
    backend:
        Backend name for messages submitted without an explicit one.
    verify:
        When true, every dispatched batch is immediately verified and the
        verdict recorded in its :class:`BatchStats` — a service-level
        self-check, not a crypto requirement.
    backend_options:
        Per-backend-name constructor kwargs, e.g.
        ``{"vectorized": {"cache_budget_mb": 2}}``.
    keys_provider:
        Optional ``(canonical params name) -> KeyPair`` hook consulted
        before the scheduler generates its own key pair — how a caller
        signs under keys it already holds (a keystore's, a benchmark's)
        instead of scheduler-generated ones.  Resolved once per
        parameter set, then cached like generated keys.

    >>> sched = BatchScheduler(target_batch_size=2, deterministic=True)
    >>> tickets = [sched.submit(b"a"), sched.submit(b"b")]  # dispatches
    >>> len(sched.signature(tickets[0]))
    17088
    """

    def __init__(self, target_batch_size: int = 64,
                 backend: str = "vectorized",
                 deterministic: bool = False,
                 verify: bool = False,
                 backend_options: dict[str, dict] | None = None,
                 keys_provider: Callable[[str], KeyPair] | None = None):
        if target_batch_size < 1:
            raise BackendError(
                f"target_batch_size must be >= 1, got {target_batch_size}"
            )
        self.target_batch_size = target_batch_size
        self.default_backend = backend
        self.deterministic = deterministic
        self.verify = verify
        self.backend_options = backend_options or {}
        self.keys_provider = keys_provider
        self.batches: list[BatchStats] = []
        self._backends: dict[tuple[str, str], SigningBackend] = {}
        self._keys: dict[str, KeyPair] = {}
        self._queues: dict[tuple[str, str], _Queue] = {}
        self._signatures: dict[int, bytes] = {}
        self._next_ticket = 0

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
            backend = self.default_backend
        ticket = self._next_ticket
        self._next_ticket += 1
        queue = self._queues.setdefault((params_name, backend), _Queue())
        queue.tickets.append(ticket)
        queue.messages.append(message)
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
        result = backend.sign_batch(queue.messages, keys)
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
        stats = self._stats(result, verified)
        self.batches.append(stats)
        return stats

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
        )

    def flush(self) -> list[BatchStats]:
        """Dispatch every non-empty queue (partial batches included)."""
        dispatched = []
        for key in list(self._queues):
            stats = self._dispatch(key)
            if stats is not None:
                dispatched.append(stats)
        return dispatched

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
    def _redeem(self, ticket: int, take: bool) -> bytes | None:
        """The stored signature for *ticket*, or ``None`` while it is
        still queued — the one meaning ``None`` has.  Everything else
        raises :class:`UnknownTicketError`, so callers cannot confuse
        "not signed yet" with "gone forever".
        """
        # Type first, before any dict lookup: ``True`` and ``1.0`` hash
        # equal to ticket ``1`` and would silently redeem someone
        # else's signature.
        if (not isinstance(ticket, int) or isinstance(ticket, bool)
                or not 0 <= ticket < self._next_ticket):
            raise UnknownTicketError(
                f"ticket {ticket!r} was never issued by this scheduler"
            )
        blob = (self._signatures.pop(ticket, None) if take
                else self._signatures.get(ticket))
        # An issued ticket that is neither stored nor queued can only
        # have been claimed.
        if blob is None and not any(ticket in queue.tickets
                                    for queue in self._queues.values()):
            raise UnknownTicketError(f"ticket {ticket} was already claimed")
        return blob

    def signature(self, ticket: int) -> bytes | None:
        """Peek at the signature for *ticket* (None while still queued).

        Signed results are retained until :meth:`claim`\\ ed (signatures
        are 17-50 KB each), so a long-running caller should claim tickets
        once redeemed.  Raises :class:`UnknownTicketError` for tickets
        that were never issued or were already claimed.
        """
        return self._redeem(ticket, take=False)

    def claim(self, ticket: int) -> bytes | None:
        """Redeem *ticket*: return its signature and release the storage.

        ``None`` means the ticket is still queued; a second claim of the
        same ticket raises :class:`UnknownTicketError`, as do never-issued
        tickets.
        """
        return self._redeem(ticket, take=True)

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
        """A formatted per-(params, backend) throughput table; ``verified``
        counts the batches that verified (``-`` when none was checked)."""
        from ..analysis.reporting import format_table

        rows = []
        for (params_name, backend_name), entry in sorted(
                self.throughput().items()):
            verdicts = [s.verified for s in self.batches
                        if s.params == params_name
                        and s.backend == backend_name
                        and s.verified is not None]
            rows.append([
                params_name,
                backend_name,
                int(entry["count"]),
                round(entry["elapsed_s"], 3),
                round(entry["sigs_per_s"], 3),
                (f"{sum(verdicts)}/{len(verdicts)}"
                 + ("" if all(verdicts) else " FAILED")) if verdicts else "-",
            ])
        return format_table(
            ["set", "backend", "signed", "wall s", "sig/s", "verified"],
            rows, title=title,
        )
