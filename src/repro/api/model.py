"""Typed request/response model shared by every ``repro.api`` transport.

One request shape, one result shape, one error surface — whether the
call signs in-process on a :class:`~repro.service.engine.SigningEngine`,
fans out across a worker pool, or crosses a TCP socket.  Requests
validate in ``__post_init__`` so every transport rejects malformed input
identically (a :class:`~repro.errors.ProtocolError`, the same type a
server would answer with), and results always carry the ``transport``
that produced them so mixed-fleet telemetry can attribute latency.

The error hierarchy is the existing :mod:`repro.errors` service family;
wire error codes map back to it through
:func:`repro.service.protocol.error_type`, so ``except OverloadedError``
behaves the same against a local engine and a remote server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ProtocolError

__all__ = ["SignRequest", "SignResult", "VerifyRequest", "VerifyResult",
           "ServiceInfo"]


def _require_bytes(value: object, name: str) -> None:
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise ProtocolError(
            f"{name!r} must be bytes, got {type(value).__name__}"
        )


def _require_str(value: object, name: str) -> None:
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{name!r} must be a non-empty string")


@dataclass(frozen=True)
class SignRequest:
    """One message to sign under a tenant's named key.

    ``deadline_ms`` is the request's latency budget: its deadline (enqueue
    time plus budget) orders the service's queues, earliest first — the
    same meaning it has on the wire and in the async service.
    """

    tenant: str
    message: bytes
    key: str = "default"
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        _require_str(self.tenant, "tenant")
        _require_str(self.key, "key")
        _require_bytes(self.message, "message")
        if self.deadline_ms is not None and (
                isinstance(self.deadline_ms, bool)
                or not isinstance(self.deadline_ms, (int, float))
                or self.deadline_ms < 0):
            raise ProtocolError("'deadline_ms' must be a number >= 0")


@dataclass(frozen=True)
class VerifyRequest:
    """One (message, signature) pair to check under a tenant's named key."""

    tenant: str
    message: bytes
    signature: bytes
    key: str = "default"

    def __post_init__(self) -> None:
        _require_str(self.tenant, "tenant")
        _require_str(self.key, "key")
        _require_bytes(self.message, "message")
        _require_bytes(self.signature, "signature")


@dataclass(frozen=True)
class SignResult:
    """One signed request, with the batching/latency accounting every
    tier reports: which batch the request rode in (``batch_size``), how
    long it queued (``wait_ms``), and end-to-end time (``total_ms``)."""

    signature: bytes
    tenant: str
    key: str
    params: str      # canonical parameter-set name, e.g. "SPHINCS+-128f"
    backend: str     # execution engine that signed, e.g. "pooled[4]"
    batch_size: int
    wait_ms: float
    total_ms: float
    transport: str   # which client transport produced this result


@dataclass(frozen=True)
class VerifyResult:
    """One verification verdict.  ``valid`` is the cryptographic answer;
    an invalid signature is a ``False`` here, never an exception."""

    valid: bool
    tenant: str
    key: str
    params: str
    transport: str


@dataclass(frozen=True)
class ServiceInfo:
    """What a transport serves: the ``hello`` capability advertisement,
    normalized across tiers.

    ``max_batch`` is the largest ``sign_many`` slice the transport moves
    in one hop (``None`` = unbounded, e.g. in-process); the facade
    chunks larger lists transparently.  ``parameter_sets`` covers the
    tenants the endpoint currently holds keys for.
    """

    transport: str
    server: str
    protocol_version: int
    verbs: tuple[str, ...]
    backend: str
    workers: int = 0
    max_batch: int | None = None
    parameter_sets: tuple[str, ...] = field(default_factory=tuple)

    def supports(self, verb: str) -> bool:
        """Whether the endpoint serves *verb* at the negotiated version."""
        return verb in self.verbs
