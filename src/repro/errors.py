"""Exception hierarchy for the HERO-Sign reproduction.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base type.  Cryptographic verification failures deliberately do
*not* raise — verification APIs return ``bool`` — these exceptions signal
programming or configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ParameterError(ReproError, ValueError):
    """An invalid or unknown SPHINCS+ parameter set or parameter value."""


class AddressError(ReproError, ValueError):
    """A hash address (ADRS) field was set outside its legal range."""


class SignatureFormatError(ReproError, ValueError):
    """A serialized signature or key has the wrong length or structure."""


class BackendError(ReproError):
    """An unknown, misconfigured, or misused signing-runtime backend."""


class UnknownTicketError(BackendError, KeyError):
    """A scheduler ticket that was never issued or was already claimed."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message flat
        return Exception.__str__(self)


class WorkerCrashedError(BackendError):
    """A worker-pool batch could not complete: the worker process died and
    every requeue attempt (bounded by the pool's ``MAX_RETRIES``) landed on
    a worker that also died before signing the batch."""


class ConformanceError(ReproError):
    """The conformance subsystem found a divergence, drifted KAT vector,
    or was misconfigured (unknown fault spec, missing vector file)."""


class ServiceError(ReproError):
    """Base class for async signing-service failures."""


class KeystoreError(ServiceError, KeyError):
    """An unknown tenant or key name, or invalid keystore contents."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message flat
        return Exception.__str__(self)


class OverloadedError(ServiceError):
    """The service shed a request: queue depth exceeded the watermark,
    or a tenant exhausted its admission rate-limit budget."""


class NodeUnavailableError(ServiceError):
    """The cluster router could not place a request on any live node.

    Raised after the owning node *and* every failover candidate on the
    ring refused the connection (bounded by the router's ``max_retries``).
    The request was never signed — callers may safely resubmit once a
    node returns.
    """


class ProtocolError(ServiceError, ValueError):
    """A malformed wire message on the newline-delimited JSON protocol."""


class FrameTooLargeError(ProtocolError):
    """A protocol-v3 binary frame declared a length beyond the frame
    limit.  The stream cannot be resynchronized past an oversized frame
    (the body was never read), so the connection must close after the
    error is reported."""


class UnknownVerbError(ProtocolError):
    """A request named a verb the server's table does not hold (the wire
    code ``unknown-verb``)."""


class UnsupportedVersionError(ProtocolError):
    """Version negotiation failed: the peer refused the ``hello``
    handshake or offered a protocol version this side does not speak."""


class ConnectionLostError(ServiceError, ConnectionError):
    """The transport dropped with requests still in flight.

    ``in_flight`` carries the wire ids of every request that was sent but
    never answered, so a caller can reconnect and decide per request
    whether to resubmit (signing is not idempotent: a resubmitted request
    may be signed twice under a randomized scheme).
    """

    def __init__(self, message: str, in_flight: tuple[int, ...] = ()):
        super().__init__(message)
        self.in_flight = tuple(in_flight)


class LedgerError(ServiceError):
    """The transparency log refused a request or failed an integrity
    check: an unknown entry index, a proof requested for a tree size no
    sealed checkpoint covers, or an audit replay that found a tree head
    or checkpoint signature that does not match the log's entries."""


class GpuModelError(ReproError):
    """Base class for GPU-simulator configuration/usage errors."""


class LaunchConfigError(GpuModelError, ValueError):
    """A kernel launch configuration violates device limits."""


class SharedMemoryError(GpuModelError, ValueError):
    """A shared-memory layout or access is invalid (size, alignment)."""


class TuningError(ReproError):
    """The Tree Tuning search could not produce a feasible configuration."""


class GraphError(GpuModelError):
    """Invalid task-graph construction (cycles, unknown node, reuse)."""
