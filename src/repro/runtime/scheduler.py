"""The offline batch layer: routing, batching, per-batch statistics.

:class:`BatchScheduler` signs what it is handed: the ``repro serve``
batch CLI, the conformance oracle's ``scheduler:*`` paths and the
benchmark ladder pass it a list of messages, it cuts the list into
batches of its target size, signs each with one backend ``sign_batch``
call, and returns one ticket per message.  It keeps per-batch statistics
(wall time, verdict) for reporting.  The request-serving tiers sign
through a :class:`~repro.service.engine.SigningEngine`, not through here.

This is the architecture the paper argues for: restructure a message
stream into batches, then schedule the batches onto heterogeneous
execution engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

from ..errors import BackendError, UnknownTicketError
from ..params import get_params
from ..sphincs.signer import KeyPair
from .backend import SigningBackend
from .registry import get_backend

__all__ = ["BatchStats", "BatchScheduler"]


@dataclass(frozen=True)
class BatchStats:
    """One signed batch, as the service's dashboard would see it."""

    backend: str
    params: str
    count: int
    elapsed_s: float
    verified: bool | None


class BatchScheduler:
    """Route message lists through batch-signing backends.

    Parameters
    ----------
    target_batch_size:
        :meth:`run` signs at most this many messages per ``sign_batch``
        call; the last batch of a list may be smaller.
    backend:
        Backend name for :meth:`run` calls that name none.
    verify:
        When true, every signed batch is immediately verified and the
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
    >>> tickets = sched.run([b"a", b"b", b"c"])  # two sign_batch calls
    >>> [stats.count for stats in sched.batches]
    [2, 1]
    >>> len(sched.claim(tickets[0]))
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
    # Signing
    # ------------------------------------------------------------------
    def run(self, messages: Iterable[bytes], params: str = "128f",
            backend: str | None = None) -> list[int]:
        """Sign *messages*, :attr:`target_batch_size` per ``sign_batch``
        call, and return one ticket per message, in order.

        A batch that fails raises; its messages get no ticket.
        """
        params_name = get_params(params).name
        backend_name = self.default_backend if backend is None else backend
        tickets: list[int] = []
        messages = iter(messages)
        while batch := list(islice(messages, self.target_batch_size)):
            signer = self.backend_for(params_name, backend_name)
            keys = self.keys_for(params_name)
            result = signer.sign_batch(batch, keys)
            if len(result.signatures) != len(batch):
                raise BackendError(
                    f"backend {backend_name!r} returned "
                    f"{len(result.signatures)} signatures for "
                    f"{len(batch)} messages"
                )
            for signature in result.signatures:
                self._signatures[self._next_ticket] = signature
                tickets.append(self._next_ticket)
                self._next_ticket += 1
            verified: bool | None = None
            if self.verify:
                verified = all(signer.verify_batch(
                    batch, result.signatures, keys.public))
            self.batches.append(BatchStats(
                backend=result.backend, params=result.params,
                count=result.count, elapsed_s=result.elapsed_s,
                verified=verified))
        return tickets

    # ------------------------------------------------------------------
    # Results and reporting
    # ------------------------------------------------------------------
    def claim(self, ticket: int) -> bytes:
        """Redeem *ticket*: return its signature and release the storage.

        Signatures are 17-50 KB each and are held until claimed.  A
        ticket that was never issued, or was already claimed, raises
        :class:`UnknownTicketError`.
        """
        # Type first, before any dict lookup: ``True`` and ``1.0`` hash
        # equal to ticket ``1`` and would silently redeem someone
        # else's signature.
        if (not isinstance(ticket, int) or isinstance(ticket, bool)
                or not 0 <= ticket < self._next_ticket):
            raise UnknownTicketError(
                f"ticket {ticket!r} was never issued by this scheduler"
            )
        blob = self._signatures.pop(ticket, None)
        if blob is None:
            raise UnknownTicketError(f"ticket {ticket} was already claimed")
        return blob

    def report(self, title: str = "Batch signing runtime") -> str:
        """A formatted per-(params, backend) throughput table; ``verified``
        counts the batches that verified (``-`` when none was checked)."""
        from ..analysis.reporting import format_table

        groups: dict[tuple[str, str], list[BatchStats]] = {}
        for stats in self.batches:
            groups.setdefault((stats.params, stats.backend), []).append(stats)
        rows = []
        for (params_name, backend_name), batches in sorted(groups.items()):
            count = sum(stats.count for stats in batches)
            elapsed = sum(stats.elapsed_s for stats in batches)
            verdicts = [stats.verified for stats in batches
                        if stats.verified is not None]
            rows.append([
                params_name,
                backend_name,
                count,
                round(elapsed, 3),
                round(count / elapsed if elapsed > 0 else 0.0, 3),
                (f"{sum(verdicts)}/{len(verdicts)}"
                 + ("" if all(verdicts) else " FAILED")) if verdicts else "-",
            ])
        return format_table(
            ["set", "backend", "signed", "wall s", "sig/s", "verified"],
            rows, title=title,
        )
