"""The verb registry: one handler table drives the wire protocol.

Each protocol verb is a :class:`Verb` — a name, a field schema
validated *before* the handler runs, and the handler itself.  The server
resolves every incoming frame through one :class:`VerbRegistry` instead
of an if/elif chain, so adding a verb is one ``Verb(...)`` entry: the
schema check, the ``hello`` capability advertisement, and the
unknown-verb error all follow from the table.

Every connection opens with ``hello``: until one is granted the
per-connection :class:`ConnectionState` holds version 0, and every other
verb is answered with a ``protocol`` error naming the handshake.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from ..errors import (KeystoreError, LedgerError, NodeUnavailableError,
                      OverloadedError, ProtocolError, UnknownVerbError)
from ..obs.trace import TraceContext, new_span_id, use_trace
from . import protocol

__all__ = ["ConnectionState", "FieldSpec", "Verb", "VerbRegistry",
           "default_registry", "error_body", "error_frame", "ledger_registry",
           "replay_frame"]


@dataclass
class ConnectionState:
    """Per-connection negotiation state: version 0 until a ``hello``."""

    version: int = 0


# ----------------------------------------------------------------------
# Field schema
# ----------------------------------------------------------------------
_MISSING = object()


@dataclass(frozen=True)
class FieldSpec:
    """One request field: its wire name, parser, and default.

    ``parse`` receives the raw JSON value and returns the validated
    Python value, raising :class:`ProtocolError` on anything malformed —
    handlers therefore only ever see well-typed arguments.
    """

    name: str
    parse: Callable[[object], Any]
    required: bool = True
    default: Any = None


def _string(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"{name!r} must be a string")
    return value


def _b64(value: object, name: str) -> bytes:
    return protocol.unpack_bytes(value, name=name)


def _deadline(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value < 0:
        raise ProtocolError(f"{name!r} must be a number >= 0")
    return float(value)


def _version(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < protocol.SUPPORTED_VERSIONS[0]:
        raise ProtocolError(
            f"{name!r} must be an integer >= 2 "
            f"(this server speaks {protocol.SUPPORTED_VERSIONS})")
    return value


def _trace_id(value: object, name: str) -> str:
    if not isinstance(value, str) or not value or len(value) > 64:
        raise ProtocolError(
            f"{name!r} must be a non-empty string of at most 64 chars")
    return value


def _format(value: object, name: str) -> str:
    if value not in ("json", "prometheus"):
        raise ProtocolError(f"{name!r} must be 'json' or 'prometheus'")
    return value


def _b64_list(value: object, name: str,
              cap: int = protocol.MAX_SIGN_MANY) -> list[bytes]:
    if not isinstance(value, list) or not value:
        raise ProtocolError(f"{name!r} must be a non-empty list of "
                            "base64 strings")
    if len(value) > cap:
        raise ProtocolError(
            f"{name!r} holds {len(value)} items; this server caps "
            f"batched verbs at {cap} per request (see 'max_batch' in "
            "the hello response) — split the batch"
        )
    return [protocol.unpack_bytes(item, name=f"{name}[{index}]")
            for index, item in enumerate(value)]


def _entry_list(value: object, name: str) -> list[bytes]:
    # A log-append's entries seal in the ledger's batch_size waves
    # server-side, so the wire cap matches the v3 batch ceiling rather
    # than MAX_SIGN_MANY.
    return _b64_list(value, name, cap=protocol.MAX_SIGN_MANY_V3)


def _index(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProtocolError(f"{name!r} must be an integer >= 0")
    return value


def _spec(name: str, kind: Callable[[object, str], Any], *,
          required: bool = True, default: Any = None) -> FieldSpec:
    return FieldSpec(name=name, required=required, default=default,
                     parse=lambda value: kind(value, name))


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
#: ``await handler(server, conn, typed args)`` -> the response dict
#: (binary fields as raw bytes), or — ``sign-many`` — an async iterator
#: of ``(index, item)`` the connection's dialect collects or streams.
#: ``hello``'s is called, not awaited: a connection answers it in the
#: read turn it arrived, before it reads another byte.
Handler = Callable[[Any, ConnectionState, dict], Awaitable[Any]]


@dataclass(frozen=True)
class Verb:
    """One protocol verb: its schema-validated handler."""

    name: str
    handler: Handler
    fields: tuple[FieldSpec, ...] = ()
    summary: str = ""


class VerbRegistry:
    """Name -> :class:`Verb` table."""

    def __init__(self, verbs: tuple[Verb, ...] = ()):
        self._verbs: dict[str, Verb] = {}
        for verb in verbs:
            self.register(verb)

    def register(self, verb: Verb) -> None:
        if verb.name in self._verbs:
            raise ProtocolError(f"verb {verb.name!r} is already registered")
        self._verbs[verb.name] = verb

    def names(self) -> tuple[str, ...]:
        """Every verb served, sorted (the hello advertisement)."""
        return tuple(sorted(self._verbs))

    def lookup(self, op: object, version: int) -> Verb:
        """The verb *op* names; :class:`ProtocolError` for any op but
        ``hello`` at *version* 0 (no ``hello`` granted yet),
        :class:`UnknownVerbError` for an op outside the table."""
        if not version and op != "hello":
            raise ProtocolError(
                f"no protocol negotiated for {op!r} — open the connection "
                'with {"op": "hello", "version": 2} (this server speaks '
                f"{protocol.SUPPORTED_VERSIONS})"
            )
        if not isinstance(op, str):
            raise ProtocolError(
                f"'op' must be a string naming a verb, got {op!r}"
            )
        verb = self._verbs.get(op)
        if verb is None:
            raise UnknownVerbError(
                f"unknown verb {op!r} (serving: {', '.join(self.names())})"
            )
        return verb

    def resolve(self, request: dict,
                version: int) -> tuple[Verb, dict]:
        """Validate one decoded JSON request into ``(verb, parsed args)``.

        Raises like :meth:`lookup`, plus :class:`ProtocolError` for
        schema violations.
        """
        verb = self.lookup(request.get("op"), version)
        args = {}
        for spec in verb.fields:
            value = request.get(spec.name, _MISSING)
            if value is _MISSING:
                if spec.required:
                    raise ProtocolError(
                        f"verb {verb.name!r} requires field {spec.name!r}"
                    )
                args[spec.name] = spec.default
            else:
                args[spec.name] = spec.parse(value)
        return verb, args


# ----------------------------------------------------------------------
# Handlers (the *server* argument is the SigningServer instance)
# ----------------------------------------------------------------------
def _verb_hello(server, conn: ConnectionState, args: dict) -> dict:
    # An unknown (too-new) version is answered with a downgrade offer:
    # the highest version this server speaks.  The client decides whether
    # the offer is acceptable — the server never hangs or drops the line.
    conn.version = min(args["version"], protocol.PROTOCOL_VERSION)
    return {"ok": True, "op": "hello", **server.capabilities(conn.version)}


async def _verb_ping(server, conn: ConnectionState, args: dict) -> dict:
    return {"ok": True, "op": "ping"}


async def _verb_stats(server, conn: ConnectionState, args: dict) -> dict:
    return {"ok": True, "op": "stats", "stats": server.service.stats()}


_UNTRACED = contextlib.nullcontext()


def _traced(args: dict):
    """A client-sent trace id as the ambient context of the service call
    (its root span joins the client's trace); without one, nothing."""
    trace = args.get("trace")
    return (use_trace(TraceContext(trace, new_span_id())) if trace
            else _UNTRACED)


def _signed(outcome) -> dict:
    return {"ok": True, "signature": outcome.signature,
            "params": outcome.params, "backend": outcome.backend,
            "batch_size": outcome.batch_size, "wait_ms": outcome.wait_ms,
            "total_ms": outcome.total_ms}


def _failed(exc: BaseException) -> dict:
    """A per-item failure: the shared mapping keeps its code identical
    to the whole-frame one ("overloaded", "unavailable", ...)."""
    code, detail = error_body(exc)
    return {"ok": False, "error": code, "detail": detail}


async def _verb_sign(server, conn: ConnectionState, args: dict) -> dict:
    with _traced(args):
        outcome = await server.service.sign(
            args["message"], args["tenant"], key_name=args["key"],
            deadline_ms=args["deadline_ms"])
    response = {"ok": True, "op": "sign", **_signed(outcome)}
    if args.get("trace"):
        response["trace"] = args["trace"]
    return response


_SIGN = protocol.FRAME_CODES["sign"]


def replay_frame(service, write: Callable[[bytes], object], op: object,
                 request_id: int, payload: memoryview) -> bool:
    """Answer a v3 ``sign`` frame in its read turn if *service*'s replay
    memo remembers the message (``True``: *write* got the result frame,
    or the typed error frame :func:`_verb_sign` would have sent).
    ``False`` — any other frame, or a message to sign — leaves it to the
    verb table and a task."""
    if op != "sign":
        return False
    try:
        args = protocol.unpack_sign_request(payload)
        with _traced(args):
            outcome = service.replay(args["message"], args["tenant"],
                                     args["key"])
    except Exception as exc:  # noqa: BLE001 — answered, typed
        write(error_frame(request_id, exc))
        return True
    if outcome is None:
        return False
    write(protocol.encode_frame(_SIGN, protocol.pack_sign_result(
        outcome.signature, outcome.params, outcome.backend,
        outcome.batch_size, outcome.wait_ms, outcome.total_ms),
        id=request_id, flags=protocol.FLAG_OK))
    return True


async def _verb_verify(server, conn: ConnectionState, args: dict) -> dict:
    valid, params = await server.service.verify(
        args["message"], args["signature"], args["tenant"],
        key_name=args["key"])
    return {"ok": True, "op": "verify", "valid": valid, "params": params}


async def _verb_sign_many(server, conn: ConnectionState, args: dict):
    """-> ``(index, item)`` pairs, each the moment its batch lands.

    Tenant/key resolution failures fail the whole frame (nothing could
    have signed); per-message failures after that come back per item so
    one shed request does not discard its siblings' signatures.
    """
    tenant, key = args["tenant"], args["key"]
    server.service.keystore.resolve(tenant, key)
    # One client trace id covers the whole frame: each message's root
    # request span shares it (the breakdown keys stages per trace).
    with _traced(args):
        by_task = {
            asyncio.ensure_future(server.service.sign(
                message, tenant, key_name=key,
                deadline_ms=args["deadline_ms"])): index
            for index, message in enumerate(args["messages"])
        }
    return _as_signed(by_task)


async def _as_signed(by_task: dict):
    pending = set(by_task)
    while pending:
        done, pending = await asyncio.wait(
            pending, return_when=asyncio.FIRST_COMPLETED)
        for task in done:
            exc = task.exception()
            yield by_task[task], (_signed(task.result()) if exc is None
                                  else _failed(exc))


async def _verb_verify_many(server, conn: ConnectionState,
                            args: dict) -> dict:
    """Mirrors sign-many: tenant/key resolution failures fail the whole
    frame (nothing could have verified).  After that the frame is ONE
    verify job; an invalid signature is a *result* (valid: false), and
    an infra failure of the job is reported on every item it covered.
    Verdicts are one byte each on v3, so no streaming variant."""
    tenant, key = args["tenant"], args["key"]
    messages, signatures = args["messages"], args["signatures"]
    if len(messages) != len(signatures):
        raise ProtocolError(
            f"verify-many pairs each message with a signature: got "
            f"{len(messages)} messages, {len(signatures)} signatures")
    server.service.keystore.resolve(tenant, key)
    try:
        verdicts, params = await server.service.verify_many(
            messages, signatures, tenant, key_name=key)
    except Exception as exc:  # noqa: BLE001 — typed per item, like sign-many
        results = [_failed(exc) for _ in messages]
    else:
        results = [{"ok": True, "valid": valid, "params": params}
                   for valid in verdicts]
    return {"ok": True, "op": "verify-many", "tenant": tenant, "key": key,
            "results": results}


def _ledger(server):
    ledger = getattr(server, "ledger", None)
    if ledger is None:
        raise LedgerError(
            "this server does not host a transparency log — connect to "
            "a LedgerServer for the log-* verbs")
    return ledger


async def _verb_log_append(server, conn: ConnectionState,
                           args: dict) -> dict:
    ledger = _ledger(server)
    # One trace spans ingest -> batch-sign -> checkpoint.
    with _traced(args):
        receipts = await ledger.append_many(args["entries"])
    response = {
        "ok": True, "op": "log-append",
        "receipts": [{"index": receipt.index,
                      "leaf_hash": receipt.leaf_hash.hex(),
                      "size": receipt.checkpoint.size}
                     for receipt in receipts],
        "checkpoint": receipts[-1].checkpoint.as_dict(),
    }
    if args.get("trace"):
        response["trace"] = args["trace"]
    return response


async def _verb_log_proof(server, conn: ConnectionState,
                          args: dict) -> dict:
    ledger = _ledger(server)
    proof = ledger.prove(args["index"], args["size"])
    return {"ok": True, "op": "log-proof", "proof": proof.as_dict()}


async def _verb_log_checkpoint(server, conn: ConnectionState,
                               args: dict) -> dict:
    ledger = _ledger(server)
    head = ledger.head
    if head is None:
        raise LedgerError("the log has no sealed checkpoint yet")
    response = {"ok": True, "op": "log-checkpoint",
                "checkpoint": head.as_dict()}
    if args.get("since") is not None:
        head, path = ledger.consistency(args["since"])
        response["checkpoint"] = head.as_dict()
        response["since"] = args["since"]
        response["consistency"] = [node.hex() for node in path]
    return response


async def _verb_metrics(server, conn: ConnectionState, args: dict) -> dict:
    registry = server.service.metrics_registry
    if args["format"] == "prometheus":
        return {"ok": True, "op": "metrics", "format": "prometheus",
                "body": registry.render_prometheus()}
    return {"ok": True, "op": "metrics", "format": "json",
            "metrics": registry.collect()}


async def _verb_keys(server, conn: ConnectionState, args: dict) -> dict:
    keystore = server.service.keystore
    tenant = args["tenant"]
    names = keystore.key_names(tenant)  # raises KeystoreError if unknown
    return {"ok": True, "op": "keys", "tenant": tenant,
            "params": keystore.params_for(tenant), "keys": list(names)}


def error_body(exc: BaseException) -> tuple[str, str]:
    """Map one handler exception to its wire ``(code, detail)`` pair.

    Shared by the line server and the frame server so both modes report
    identical codes for identical failures.
    """
    if isinstance(exc, UnknownVerbError):
        return protocol.ERROR_UNKNOWN_VERB, str(exc)
    if isinstance(exc, ProtocolError):
        return protocol.ERROR_PROTOCOL, str(exc)
    if isinstance(exc, OverloadedError):
        return protocol.ERROR_OVERLOADED, str(exc)
    if isinstance(exc, NodeUnavailableError):
        return protocol.ERROR_UNAVAILABLE, str(exc)
    if isinstance(exc, KeystoreError):
        return protocol.ERROR_UNKNOWN_KEY, str(exc)
    if isinstance(exc, LedgerError):
        return protocol.ERROR_LEDGER, str(exc)
    return protocol.ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"


def error_frame(request_id: int, exc: BaseException) -> bytes:
    """*exc* as a v3 error frame under *request_id*."""
    return protocol.encode_frame(protocol.FRAME_ERROR,
                                 protocol.pack_error(*error_body(exc)),
                                 id=request_id)


def default_registry() -> VerbRegistry:
    """The stock protocol."""
    return VerbRegistry((
        Verb("hello", _verb_hello,
             fields=(_spec("version", _version),),
             summary="negotiate protocol version and capabilities"),
        Verb("ping", _verb_ping, summary="liveness probe"),
        Verb("stats", _verb_stats, summary="telemetry snapshot"),
        Verb("sign", _verb_sign,
             fields=(_spec("tenant", _string),
                     _spec("key", _string, required=False, default="default"),
                     _spec("message", _b64),
                     _spec("deadline_ms", _deadline, required=False),
                     _spec("trace", _trace_id, required=False)),
             summary="sign one message under a tenant key"),
        Verb("verify", _verb_verify,
             fields=(_spec("tenant", _string),
                     _spec("key", _string, required=False, default="default"),
                     _spec("message", _b64),
                     _spec("signature", _b64)),
             summary="verify a signature under a tenant key"),
        Verb("sign-many", _verb_sign_many,
             fields=(_spec("tenant", _string),
                     _spec("key", _string, required=False, default="default"),
                     _spec("messages", _b64_list),
                     _spec("deadline_ms", _deadline, required=False),
                     _spec("trace", _trace_id, required=False)),
             summary="sign up to max_batch messages in one frame"),
        Verb("verify-many", _verb_verify_many,
             fields=(_spec("tenant", _string),
                     _spec("key", _string, required=False, default="default"),
                     _spec("messages", _b64_list),
                     _spec("signatures", _b64_list)),
             summary="verify up to max_batch (message, signature) pairs"),
        Verb("keys", _verb_keys,
             fields=(_spec("tenant", _string),),
             summary="list a tenant's named keys"),
        Verb("metrics", _verb_metrics,
             fields=(_spec("format", _format, required=False,
                           default="json"),),
             summary="unified metrics registry (json or prometheus)"),
    ))


def ledger_registry() -> VerbRegistry:
    """The stock protocol plus the transparency-log verbs.

    :class:`~repro.ledger.service.LedgerServer` serves this table, so
    one port answers both signing and log traffic; the log verbs ride
    the cold JSON path in v3 (their payloads are proofs and receipts,
    not raw signatures, so binary framing buys nothing).
    """
    registry = default_registry()
    registry.register(Verb(
        "log-append", _verb_log_append,
        fields=(_spec("entries", _entry_list),
                _spec("trace", _trace_id, required=False)),
        summary="append entries; acks with a covering signed checkpoint"))
    registry.register(Verb(
        "log-proof", _verb_log_proof,
        fields=(_spec("index", _index),
                _spec("size", _index, required=False)),
        summary="inclusion proof for one entry against a sealed head"))
    registry.register(Verb(
        "log-checkpoint", _verb_log_checkpoint,
        fields=(_spec("since", _index, required=False),),
        summary="latest signed tree head (+ consistency from 'since')"))
    return registry
