"""The wire protocol: JSON lines (v2) and binary frames (v3).

At v2 every message is one JSON object per line, UTF-8,
``\\n``-terminated.  Requests carry an ``op`` (the *verb*) and an
optional ``id`` the server echoes back, so a client may pipeline many
requests on one connection and match responses out of order.  Binary
fields (message payloads, signatures) travel base64-encoded.

Versions
--------
Every connection opens with a ``hello`` JSON line carrying the version
the client wants; the server answers with the negotiated version and its
capabilities (served verbs, ``max_batch`` for ``sign-many`` frames, the
tenants' parameter sets).  Any other verb before a granted ``hello`` is
a ``protocol`` error naming the handshake (the connection stays open).

* **v2**: JSON lines, every verb of the table.
* **v3**: same verb set, binary framing.  The ``hello`` handshake is
  still a JSON line (so negotiation itself never depends on the outcome
  being negotiated); once the server's ``hello`` response grants
  version >= 3, **both directions switch to length-prefixed binary
  frames** and never emit another JSON line.  Signatures and messages
  travel as raw bytes — no base64 (~33% wire inflation gone) — and the
  hot verbs (``sign`` / ``verify`` / ``sign-many``) are decoded
  straight out of a ``memoryview`` with no per-request ``json.loads``.
  ``sign-many`` becomes *streaming*: the server answers one item frame
  per message **as each signature completes** (tagged with the item's
  index, in completion order) followed by one end frame, instead of a
  single giant response line.

v3 frame layout (all integers big-endian)::

    u32  length     byte count of everything after this field
    u8   verb       frame code (FRAME_CODES; FRAME_ERROR for errors)
    u8   flags      bit 0 = ok (success response)
    u64  id         request id echoed in responses; 0 = none (fatal,
                    connection-closing server errors only)
    ...  payload    verb-specific (see the pack_*/unpack_* helpers)

Hot-verb payloads use length-prefixed fields (``u8 len`` for short
strings such as tenant/key/params, ``u32 len`` for messages and
signatures); cold verbs (``hello``, ``ping``, ``stats``, ``keys``,
``metrics``) carry their v2 JSON body as the payload, so introspection
verbs keep one schema across versions.

Tracing (optional, capability-gated): a ``hello`` response whose
payload carries ``"trace": true`` invites the client to attach a
``trace`` field (an opaque id string, <= 64 chars) to ``sign`` and
``sign-many`` frames.  The server joins its request spans to that
trace id and echoes the id in the response; servers without a tracer
accept and ignore the field, and clients that never send it see a
byte-identical protocol to before.

Request shapes::

    {"op": "hello", "id": 0, "version": 2}
    {"op": "ping", "id": 1}
    {"op": "stats", "id": 2}
    {"op": "sign", "id": 3, "tenant": "acme", "key": "default",
     "message": "<base64>", "deadline_ms": 100, "trace": "9f3a..."}
    {"op": "verify", "id": 4, "tenant": "acme", "key": "default",
     "message": "<base64>", "signature": "<base64>"}
    {"op": "sign-many", "id": 5, "tenant": "acme", "key": "default",
     "messages": ["<base64>", "<base64>"], "deadline_ms": 100}
    {"op": "keys", "id": 6, "tenant": "acme"}
    {"op": "metrics", "id": 7, "format": "prometheus"}

Responses always carry ``ok``.  Success::

    {"ok": true, "op": "hello", "id": 0, "version": 2,
     "server": "repro/1.0.0", "verbs": ["hello", "keys", ...],
     "max_batch": 12, "parameter_sets": ["SPHINCS+-128f"]}
    {"ok": true, "op": "sign", "id": 3, "signature": "<base64>",
     "params": "SPHINCS+-128f", "backend": "vectorized",
     "batch_size": 4, "wait_ms": 12.5, "total_ms": 96.1}
    {"ok": true, "op": "verify", "id": 4, "valid": true,
     "params": "SPHINCS+-128f"}

Failure (``error`` is a stable machine-readable code)::

    {"ok": false, "id": 3, "error": "overloaded", "detail": "..."}

A ``hello`` asking for a version above the server's is answered with a
*downgrade offer* — ``ok: true`` and the highest version the server
supports — never a hang or a bare close; one below ``SUPPORTED_VERSIONS``
is a ``protocol`` error.

Which of the two layouts a connection speaks is decided once, at
``hello``, and known only here: :class:`LineDialect` and
:class:`FrameDialect` turn typed requests and results (``bytes`` are
``bytes``) into wire bytes and back, for the client and the server
alike, so every other module handles one request shape.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import struct
from typing import Callable, NamedTuple

from ..errors import (ConnectionLostError, FrameTooLargeError, KeystoreError,
                      LedgerError, NodeUnavailableError, OverloadedError,
                      ProtocolError, ServiceError, UnknownVerbError,
                      UnsupportedVersionError)
from ..params import PARAMETER_SETS

__all__ = [
    "FRAME_CODES", "FRAME_ERROR", "FRAME_LIMIT", "FRAME_SIGN_MANY_END",
    "FRAME_SIGN_MANY_ITEM", "FRAME_VERBS", "Frame", "FrameDialect",
    "LINE_LIMIT", "LineDialect",
    "MAX_SIGN_MANY", "MAX_SIGN_MANY_V3", "MAX_SIGNATURE_B64",
    "MAX_MESSAGE_BYTES", "MAX_MESSAGE_BYTES_V3", "PROTOCOL_VERSION",
    "READ_BUFFER", "SUPPORTED_VERSIONS", "Connection", "decode",
    "decode_frame", "encode", "encode_frame", "error_type", "pack_bytes",
    "read_frame", "read_line", "unpack_bytes",
]

#: Highest protocol version this build speaks, and every version it serves.
PROTOCOL_VERSION = 3
SUPPORTED_VERSIONS = (2, 3)

#: Largest base64-encoded signature any parameter set can produce,
#: derived from repro.params so it can never contradict the catalog.
#: The biggest raw signature is SPHINCS+-256f at 49,856 B (NOT 256s —
#: small sets trade signing time for size); base64 expands 3 bytes to 4,
#: so at import time this is 66,476 B (~65 KB).
#: tests/service/test_protocol_v2.py asserts the derivation and the
#: LINE_LIMIT headroom below against the real catalog.
MAX_SIGNATURE_B64 = 4 * ((max(p.sig_bytes for p in PARAMETER_SETS.values())
                          + 2) // 3)

#: Cap on the ``messages`` list of one ``sign-many`` frame (advertised as
#: ``max_batch`` in the ``hello`` response), chosen so a worst-case
#: response — MAX_SIGN_MANY largest-set signatures plus JSON envelope,
#: ~800 KB — still fits one LINE_LIMIT line.
MAX_SIGN_MANY = 12

#: Longest line either end reads.  1 MiB covers the largest
#: single-signature frame (MAX_SIGNATURE_B64 + envelope, ~69 KB) about
#: 15x over, and the worst-case full sign-many response with ~1.3x
#: headroom.
LINE_LIMIT = 1 << 20

#: Largest message payload a ``sign``/``verify`` frame can carry: its
#: base64 plus a generous envelope allowance must stay under LINE_LIMIT.
#: Clients reject bigger payloads *before* writing — an oversized line
#: would be cut off server-side and cost the whole connection.
MAX_MESSAGE_BYTES = ((LINE_LIMIT - 4096) // 4) * 3

#: Machine-readable error codes the server emits.
ERROR_OVERLOADED = "overloaded"
ERROR_UNKNOWN_KEY = "unknown-key"
ERROR_PROTOCOL = "protocol"
ERROR_INTERNAL = "internal"
ERROR_UNKNOWN_VERB = "unknown-verb"            # op not in the verb table
ERROR_UNSUPPORTED_VERSION = "unsupported-version"
ERROR_CONNECTION_LOST = "connection-lost"      # client-side synthetic code
ERROR_UNAVAILABLE = "unavailable"              # cluster: no live node owns it
ERROR_LEDGER = "ledger"                        # transparency-log refusal

#: Wire error code -> the typed exception a client raises for it.  The
#: single authoritative map: the wire transport and the repro.api
#: clients resolve codes through :func:`error_type`.
ERROR_TYPES: dict[str, type[ServiceError]] = {
    ERROR_OVERLOADED: OverloadedError,
    ERROR_UNKNOWN_KEY: KeystoreError,
    ERROR_PROTOCOL: ProtocolError,
    ERROR_UNKNOWN_VERB: UnknownVerbError,
    ERROR_UNSUPPORTED_VERSION: UnsupportedVersionError,
    ERROR_CONNECTION_LOST: ConnectionLostError,
    ERROR_UNAVAILABLE: NodeUnavailableError,
    ERROR_LEDGER: LedgerError,
}


def error_type(code: object) -> type[ServiceError]:
    """The exception class for a wire error *code* (ServiceError if new)."""
    return ERROR_TYPES.get(code, ServiceError)  # type: ignore[arg-type]


def encode(message: dict) -> bytes:
    """Serialize one protocol message to a wire line (``bytes`` values
    travel base64-encoded)."""
    return pack_json(message) + b"\n"


def decode(line: bytes) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on junk."""
    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def pack_bytes(data: bytes) -> str:
    """Binary -> base64 text field."""
    return base64.b64encode(data).decode("ascii")


def unpack_bytes(field: object, name: str = "message") -> bytes:
    """Base64 text field -> binary; raises :class:`ProtocolError`."""
    if not isinstance(field, str):
        raise ProtocolError(f"{name!r} must be a base64 string")
    try:
        return base64.b64decode(field, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ProtocolError(f"{name!r} is not valid base64: {exc}") from exc


# ----------------------------------------------------------------------
# Protocol v3: length-prefixed binary framing
# ----------------------------------------------------------------------
#: Hard cap on one v3 frame's ``length`` field.  Deliberately the same
#: budget as LINE_LIMIT so neither mode can starve the other's buffers;
#: because nothing is base64-inflated a v3 frame carries ~33% more
#: usable payload inside the same cap.
FRAME_LIMIT = 1 << 20

#: Largest message payload a v3 ``sign``/``verify`` frame may carry —
#: raw bytes plus a generous envelope allowance under FRAME_LIMIT
#: (~1020 KiB, vs ~765 KiB of raw payload at v2 after base64).
MAX_MESSAGE_BYTES_V3 = FRAME_LIMIT - 4096

#: v3 cap on messages per ``sign-many`` frame.  Responses stream one
#: item frame per message, so only the *request* frame bounds the count;
#: 64 modest messages fit FRAME_LIMIT easily and the byte budget in the
#: client chunker handles large ones.
MAX_SIGN_MANY_V3 = 64

#: Frame verb codes.  Responses echo the request's code; the three
#: reserved codes below never appear in requests.  The ledger verbs
#: (``log-*``) are cold: their payloads are the v2 JSON bodies, like
#: ``stats``/``keys`` — only ``verify-many`` joins the hot binary set.
FRAME_CODES: dict[str, int] = {
    "hello": 0x01, "ping": 0x02, "stats": 0x03, "sign": 0x04,
    "verify": 0x05, "sign-many": 0x06, "keys": 0x07, "metrics": 0x08,
    "verify-many": 0x09, "log-append": 0x0A, "log-proof": 0x0B,
    "log-checkpoint": 0x0C,
}
FRAME_VERBS: dict[int, str] = {code: op for op, code in FRAME_CODES.items()}
FRAME_SIGN_MANY_ITEM = 0x10   # one streamed sign-many result
FRAME_SIGN_MANY_END = 0x11    # stream terminator (payload: item count)
FRAME_ERROR = 0x7E            # error response (payload: code + detail)

FLAG_OK = 0x01

#: verb, flags, id — everything after the u32 length prefix.
_HEADER = struct.Struct("!BBQ")
#: length, verb, flags, id — the full prefix, packed in one call.
_FULL_HEADER = struct.Struct("!IBBQ")

#: ``deadline_ms`` rides as u32 microseconds; the sentinel means "none".
_NO_DEADLINE = 0xFFFFFFFF

#: deadline, trace length — the fixed run inside a sign head.
_DEADLINE_TRACE = struct.Struct("!IB")
#: batch_size, wait_ms, total_ms, params length — a sign result's head.
_SIGN_RESULT = struct.Struct("!IddB")

_U16, _U32, _F64 = struct.Struct("!H"), struct.Struct("!I"), struct.Struct("!d")


class Frame(NamedTuple):
    """One decoded v3 frame; ``payload`` is a zero-copy memoryview."""

    verb: int
    flags: int
    id: int
    payload: memoryview

    @property
    def ok(self) -> bool:
        return bool(self.flags & FLAG_OK)


def encode_frame(verb: int, payload: bytes = b"", *, id: int = 0,
                 flags: int = 0) -> bytes:
    """Serialize one v3 frame (length prefix included)."""
    return _FULL_HEADER.pack(_HEADER.size + len(payload), verb, flags,
                             id) + payload


def decode_frame(body: bytes | memoryview) -> Frame:
    """Parse a frame *body* (everything after the length prefix)."""
    view = memoryview(body)
    if len(view) < _HEADER.size:
        raise ProtocolError(
            f"frame body of {len(view)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    verb, flags, request_id = _HEADER.unpack_from(view)
    return Frame(verb, flags, request_id, view[_HEADER.size:])


def read_frame(data: memoryview, start: int = 0, end: int | None = None,
               eof: bool = False) -> tuple[Frame | None, int]:
    """Split the v3 frame that starts at ``data[start]`` off
    ``data[start:end]``: ``(frame, where the next one starts)``, its
    payload a view into *data*; ``(None, where it will end)`` while it
    is incomplete (``start + 4`` until the length prefix is in).

    Raises :class:`FrameTooLargeError` as soon as a length prefix beyond
    FRAME_LIMIT is in (the body is never read, so the stream cannot be
    resynchronized — close the connection after reporting) and
    :class:`ProtocolError` for a length shorter than the header.  At
    *eof* a clean end is ``(None, start)`` and a partial frame is a
    :class:`ProtocolError`.
    """
    if end is None:
        end = len(data)
    body = start + 4
    if body > end:
        if eof and start < end:
            raise ProtocolError(
                f"connection dropped inside a frame length prefix "
                f"({end - start}/4 bytes)")
        return None, start if eof else body
    length = _U32.unpack_from(data, start)[0]
    if length > FRAME_LIMIT:
        raise FrameTooLargeError(
            f"frame of {length} bytes exceeds the {FRAME_LIMIT} B frame "
            "limit")
    if length < _HEADER.size:
        raise ProtocolError(
            f"frame length {length} is shorter than the "
            f"{_HEADER.size}-byte header")
    stop = body + length
    if stop > end:
        if eof:
            raise ProtocolError(
                f"connection dropped mid-frame ({end - body}/{length} "
                "bytes)")
        return None, stop
    verb, flags, request_id = _HEADER.unpack_from(data, body)
    return Frame(verb, flags, request_id,
                 data[body + _HEADER.size:stop]), stop


def read_line(data: memoryview, start: int = 0, end: int | None = None,
              eof: bool = False) -> tuple[bytes | None, int]:
    """Split the line that starts at ``data[start]`` off
    ``data[start:end]``, newline included: ``(line, where the next one
    starts)``, or ``(None, 0)`` while it is incomplete (where it will end
    is unknown).  *data* views a whole buffer, whose ``obj`` is searched
    for the newline.

    A line whose newline is not within LINE_LIMIT + 1 bytes is a
    :class:`FrameTooLargeError`; at *eof* an unterminated rest is the
    last line, and a clean end is ``(None, start)``.
    """
    if end is None:
        end = len(data)
    newline = data.obj.find(b"\n", start, min(end, start + LINE_LIMIT + 1))
    if newline >= 0:
        return data.obj[start:newline + 1], newline + 1
    if end - start > LINE_LIMIT:
        raise FrameTooLargeError("line too long")
    if eof:
        return (data.obj[start:end], end) if start < end else (None, start)
    return None, 0


#: Size of a connection's read buffer at rest: what one ``recv_into``
#: fills.  It grows on demand to hold the frame or line being read, and
#: shrinks back to this once that has been consumed.
READ_BUFFER = 64 << 10
#: Free room under which the next read first compacts (or grows) it.
_READ_ROOM = 4 << 10


class Connection(asyncio.BufferedProtocol):
    """One TCP connection that reads into its own reusable buffer.

    The event loop ``recv_into``\\ s the free tail of the buffer and calls
    ``buffer_updated``; a subclass splits whole lines or frames out of
    ``[_start, _end)`` there and then, synchronously, and moves
    ``_start`` past what it consumed (``_stop``: where the item left at
    ``_start`` ends, once that is known).  A request or a reply is so
    served in the loop turn its bytes arrived, and no read allocates.
    What a split hands out views the buffer: anything kept past the
    turn must be copied out of it.
    """

    def __init__(self):
        self.transport: asyncio.Transport | None = None
        self._buffer = bytearray(READ_BUFFER)
        self._view = memoryview(self._buffer)
        self._start = self._end = 0
        #: Where the item at ``_start`` will end, once that is known.
        self._stop = 0

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._start == self._end:  # everything read was consumed
            self._start = self._end = 0
            if len(self._buffer) > READ_BUFFER:  # a large item is done
                self._buffer = bytearray(READ_BUFFER)
                self._view = memoryview(self._buffer)
        elif len(self._view) - self._end < _READ_ROOM:
            self._make_room()
        return self._view[self._end:]

    def _make_room(self) -> None:
        """Move the unconsumed bytes to the front of a buffer that holds
        the item they start: its size once that is known (a frame's
        length prefix is in), else twice the buffer (a long line)."""
        start, end = self._start, self._end
        held, size = end - start, len(self._buffer)
        if self._stop > end:
            wanted = self._stop - start
        else:
            wanted = held + _READ_ROOM
            if wanted > size:
                wanted = max(wanted, 2 * size)
        if wanted > size or size > READ_BUFFER >= wanted:
            fresh = bytearray(max(wanted, READ_BUFFER))
            fresh[:held] = self._view[start:end]
            self._buffer, self._view = fresh, memoryview(fresh)
        else:
            self._view[:held] = self._view[start:end]  # a memmove
        self._start, self._end, self._stop = 0, held, self._stop - start


class _Cursor:
    """Sequential zero-copy reads over a frame payload, one bounds check
    (``_skip``) per field: truncation is a :class:`ProtocolError`, never
    an index past the view or a ``struct.error``."""

    __slots__ = ("view", "pos")

    def __init__(self, payload: bytes | memoryview):
        self.view = memoryview(payload)
        self.pos = 0

    def _skip(self, count: int, name: str) -> int:
        """Consume *count* bytes; -> where they start."""
        start = self.pos
        end = start + count
        if end > len(self.view):
            raise ProtocolError(
                f"truncated frame: {name!r} wants {count} bytes, "
                f"{len(self.view) - start} left")
        self.pos = end
        return start

    def u8(self, name: str) -> int:
        return self.view[self._skip(1, name)]

    def u16(self, name: str) -> int:
        return _U16.unpack_from(self.view, self._skip(2, name))[0]

    def u32(self, name: str) -> int:
        return _U32.unpack_from(self.view, self._skip(4, name))[0]

    def _text(self, count: int, name: str) -> str:
        start = self._skip(count, name)
        try:
            return str(self.view[start:self.pos], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"{name!r} is not valid UTF-8") from exc

    def str8(self, name: str) -> str:
        return self._text(self.u8(name), name)

    def str16(self, name: str) -> str:
        return self._text(self.u16(name), name)

    def bytes32(self, name: str) -> bytes:
        start = self._skip(self.u32(name), name)
        return self.view[start:self.pos].tobytes()

    def done(self, name: str) -> None:
        if self.pos != len(self.view):
            raise ProtocolError(
                f"{name} frame carries {len(self.view) - self.pos} "
                "trailing bytes")


def _str8(value: str, name: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 255:
        raise ProtocolError(f"{name!r} exceeds 255 bytes on the wire")
    return bytes((len(raw),)) + raw


def _str16(value: str) -> bytes:
    """*value* as UTF-8 behind a 2-byte length, cut to 65,535 bytes at a
    character boundary (the reader decodes strictly)."""
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        end = 0xFFFF
        while raw[end] & 0xC0 == 0x80:  # a continuation byte
            end -= 1
        raw = raw[:end]
    return len(raw).to_bytes(2, "big") + raw


def _bytes32(value: bytes) -> bytes:
    return len(value).to_bytes(4, "big") + value


# --- sign ---------------------------------------------------------------
# The sign codec reads and writes each run of fixed-width fields with one
# precompiled struct, in one pass: this is what every replay pays for on
# both ends, where a _Cursor call per field cost more than v2's JSON.
def _pack_sign_head(tenant: str, key: str, deadline_ms: float | None,
                    trace: str | None) -> bytes:
    """tenant, key, deadline, trace: how sign and sign-many both open."""
    tenant_raw, key_raw = tenant.encode(), key.encode()
    if len(tenant_raw) > 255 or len(key_raw) > 255:
        raise ProtocolError(
            f"{'tenant' if len(tenant_raw) > 255 else 'key'!r} exceeds "
            "255 bytes on the wire")
    if trace and len(trace) > 64:
        raise ProtocolError("'trace' must be at most 64 chars")
    trace_raw = trace.encode() if trace else b""
    if len(trace_raw) > 255:
        raise ProtocolError("'trace' exceeds 255 bytes on the wire")
    micros = (_NO_DEADLINE if deadline_ms is None else
              min(max(int(deadline_ms * 1000.0), 0), _NO_DEADLINE - 1))
    return b"".join((bytes((len(tenant_raw),)), tenant_raw,
                     bytes((len(key_raw),)), key_raw,
                     _DEADLINE_TRACE.pack(micros, len(trace_raw)),
                     trace_raw))


def _unpack_sign_head(view: memoryview) -> tuple[dict, int]:
    """-> (tenant, key, deadline_ms, trace args; where the rest starts)."""
    try:
        key_at = 1 + view[0]
        deadline_at = key_at + 1 + view[key_at]
        micros, size = _DEADLINE_TRACE.unpack_from(view, deadline_at)
    except (IndexError, struct.error):
        raise ProtocolError("truncated frame: 'tenant', 'key' and "
                            "'deadline' do not open its payload") from None
    trace_at = deadline_at + _DEADLINE_TRACE.size
    end = trace_at + size
    if end > len(view):
        raise ProtocolError("truncated frame: 'trace' ends past the payload")
    try:
        tenant = str(view[1:key_at], "utf-8")
        key = str(view[key_at + 1:deadline_at], "utf-8")
        trace = str(view[trace_at:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"'tenant', 'key' or 'trace' is not valid "
                            f"UTF-8: {exc}") from exc
    if len(trace) > 64:
        raise ProtocolError("'trace' must be at most 64 chars")
    return {"tenant": tenant, "key": key or "default",
            "deadline_ms": None if micros == _NO_DEADLINE
            else micros / 1000.0,
            "trace": trace or None}, end


def pack_sign_request(tenant: str, key: str, message: bytes,
                      deadline_ms: float | None = None,
                      trace: str | None = None) -> bytes:
    return b"".join((_pack_sign_head(tenant, key, deadline_ms, trace),
                     _U32.pack(len(message)), message))


def unpack_sign_request(payload: bytes | memoryview) -> dict:
    """-> verb-handler args: tenant, key, message, deadline_ms, trace."""
    view = memoryview(payload)
    args, at = _unpack_sign_head(view)
    try:
        size = _U32.unpack_from(view, at)[0]
    except struct.error:
        raise ProtocolError("truncated frame: no 'message' length") from None
    at += 4
    if at + size != len(view):
        raise ProtocolError(f"sign frame: a {size}-byte 'message' in "
                            f"{len(view) - at} bytes")
    args["message"] = view[at:].tobytes()
    return args


def pack_sign_result(signature: bytes, params: str, backend: str,
                     batch_size: int, wait_ms: float,
                     total_ms: float) -> bytes:
    params_raw, backend_raw = params.encode(), backend.encode()
    if len(params_raw) > 255 or len(backend_raw) > 255:
        raise ProtocolError(
            f"{'params' if len(params_raw) > 255 else 'backend'!r} "
            "exceeds 255 bytes on the wire")
    return b"".join((
        _SIGN_RESULT.pack(batch_size, wait_ms, total_ms, len(params_raw)),
        params_raw, bytes((len(backend_raw),)), backend_raw,
        _U32.pack(len(signature)), signature))


def _pack_sign_result_dict(result: dict) -> bytes:
    return pack_sign_result(
        result["signature"], result["params"], result["backend"],
        result["batch_size"], result["wait_ms"], result["total_ms"])


def unpack_sign_result(payload: bytes | memoryview) -> dict:
    """-> response dict with ``signature`` already raw bytes."""
    view = memoryview(payload)
    try:
        batch_size, wait_ms, total_ms, size = _SIGN_RESULT.unpack_from(view)
        backend_at = _SIGN_RESULT.size + size
        signature_at = backend_at + 1 + view[backend_at]
        size = _U32.unpack_from(view, signature_at)[0]
    except (IndexError, struct.error):
        raise ProtocolError("truncated frame: a sign result's head ends "
                            "early") from None
    signature_at += 4
    if signature_at + size != len(view):
        raise ProtocolError(f"sign result: a {size}-byte 'signature' in "
                            f"{len(view) - signature_at} bytes")
    try:
        params = str(view[_SIGN_RESULT.size:backend_at], "utf-8")
        backend = str(view[backend_at + 1:signature_at - 4], "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"'params' or 'backend' is not valid UTF-8: "
                            f"{exc}") from exc
    return {
        "ok": True, "batch_size": batch_size,
        "wait_ms": round(wait_ms, 3), "total_ms": round(total_ms, 3),
        "params": params, "backend": backend,
        "signature": view[signature_at:].tobytes(),
    }


# --- relaying (a cluster router forwards frames as bytes) ---------------
def peek_route(payload: memoryview) -> tuple[str, str]:
    """The tenant and key that open a ``sign``, ``verify`` or
    ``verify-many`` payload, read with two slices; whoever serves the
    frame decodes and checks the rest."""
    try:
        split = 1 + payload[0]
        end = split + 1 + payload[split]
        if end > len(payload):
            raise IndexError
        return (str(payload[1:split], "utf-8"),
                str(payload[split + 1:end], "utf-8") or "default")
    except (IndexError, UnicodeDecodeError):
        raise ProtocolError("truncated frame: 'tenant' and 'key' do not "
                            "open its payload") from None


def relay_sign_result(frame: Frame, request_id: int, total_ms: float,
                      prefix: bytes) -> tuple[bytes, float]:
    """A node's sign result as a router answers it, and its ``wait_ms``:
    under *request_id*, with the router's *total_ms* and *prefix* before
    ``backend``; every other byte, the signature's too, as the node sent
    it."""
    payload = frame.payload
    try:
        at = 21 + payload[20]  # the length byte of ``backend``
        size = payload[at] + len(prefix)
    except IndexError:
        raise ProtocolError("truncated sign result") from None
    if size > 255:
        raise ProtocolError("'backend' exceeds 255 bytes on the wire")
    return b"".join((
        _FULL_HEADER.pack(_HEADER.size + len(payload) + len(prefix),
                          frame.verb, frame.flags, request_id),
        payload[:12], _F64.pack(total_ms), payload[20:at], bytes((size,)),
        prefix, payload[at + 1:])), _F64.unpack_from(payload, 4)[0]


# --- verify -------------------------------------------------------------
def pack_verify_request(tenant: str, key: str, message: bytes,
                        signature: bytes) -> bytes:
    return b"".join((_str8(tenant, "tenant"), _str8(key, "key"),
                     _bytes32(message), _bytes32(signature)))


def unpack_verify_request(payload: bytes | memoryview) -> dict:
    cursor = _Cursor(payload)
    args = {"tenant": cursor.str8("tenant"),
            "key": cursor.str8("key") or "default",
            "message": cursor.bytes32("message"),
            "signature": cursor.bytes32("signature")}
    cursor.done("verify")
    return args


def pack_verify_result(valid: bool, params: str) -> bytes:
    return bytes((1 if valid else 0,)) + _str8(params, "params")


def unpack_verify_result(payload: bytes | memoryview) -> dict:
    cursor = _Cursor(payload)
    result = {"ok": True, "valid": bool(cursor.u8("valid")),
              "params": cursor.str8("params")}
    cursor.done("verify result")
    return result


# --- verify-many --------------------------------------------------------
def pack_verify_many_request(tenant: str, key: str,
                             messages: list[bytes],
                             signatures: list[bytes]) -> bytes:
    """One v3 verify-many frame: paired raw (message, signature) items.

    Verdicts are one byte each, so the response is a single small frame
    — no streaming variant needed, unlike ``sign-many``.
    """
    if not messages:
        raise ProtocolError("'messages' must be a non-empty list")
    if len(messages) != len(signatures):
        raise ProtocolError(
            f"verify-many pairs each message with a signature: got "
            f"{len(messages)} messages, {len(signatures)} signatures")
    if len(messages) > MAX_SIGN_MANY_V3:
        raise ProtocolError(
            f"verify-many frame holds {len(messages)} pairs; v3 caps "
            f"frames at {MAX_SIGN_MANY_V3} — split the batch")
    return b"".join((
        _str8(tenant, "tenant"), _str8(key, "key"),
        len(messages).to_bytes(2, "big"),
        *(part for message, signature in zip(messages, signatures)
          for part in (_bytes32(message), _bytes32(signature))),
    ))


def unpack_verify_many_request(payload: bytes | memoryview) -> dict:
    cursor = _Cursor(payload)
    tenant = cursor.str8("tenant")
    key = cursor.str8("key")
    count = cursor.u16("count")
    if count == 0:
        raise ProtocolError("'messages' must be a non-empty list")
    if count > MAX_SIGN_MANY_V3:
        raise ProtocolError(
            f"verify-many frame declares {count} pairs; this server "
            f"caps v3 frames at {MAX_SIGN_MANY_V3} (see 'max_batch' in "
            "the hello response) — split the batch")
    messages, signatures = [], []
    for index in range(count):
        messages.append(cursor.bytes32(f"messages[{index}]"))
        signatures.append(cursor.bytes32(f"signatures[{index}]"))
    cursor.done("verify-many")
    return {"tenant": tenant, "key": key or "default",
            "messages": messages, "signatures": signatures}


def pack_verify_many_result(items: list[dict]) -> bytes:
    """Per-item verdicts: ok items carry valid+params, failed items the
    same code/detail pair every error path uses."""
    parts = [len(items).to_bytes(2, "big")]
    for item in items:
        if item.get("ok"):
            parts.append(b"\1" + (b"\1" if item["valid"] else b"\0")
                         + _str8(item["params"], "params"))
        else:
            parts.append(b"\0" + _str8(item["error"], "error")
                         + _str16(item.get("detail", "")))
    return b"".join(parts)


def unpack_verify_many_result(payload: bytes | memoryview) -> dict:
    cursor = _Cursor(payload)
    count = cursor.u16("count")
    results = []
    for index in range(count):
        if cursor.u8(f"results[{index}].ok"):
            results.append({
                "ok": True,
                "valid": bool(cursor.u8(f"results[{index}].valid")),
                "params": cursor.str8(f"results[{index}].params")})
        else:
            results.append({
                "ok": False,
                "error": cursor.str8(f"results[{index}].error"),
                "detail": cursor.str16(f"results[{index}].detail")})
    cursor.done("verify-many result")
    return {"ok": True, "results": results}


# --- sign-many (streaming) ---------------------------------------------
def pack_sign_many_request(tenant: str, key: str,
                           messages: list[bytes],
                           deadline_ms: float | None = None,
                           trace: str | None = None) -> bytes:
    if not messages:
        raise ProtocolError("'messages' must be a non-empty list")
    if len(messages) > MAX_SIGN_MANY_V3:
        raise ProtocolError(
            f"sign-many frame holds {len(messages)} messages; v3 caps "
            f"frames at {MAX_SIGN_MANY_V3} — split the batch")
    return b"".join((
        _pack_sign_head(tenant, key, deadline_ms, trace),
        len(messages).to_bytes(2, "big"),
        *(_bytes32(message) for message in messages),
    ))


def unpack_sign_many_request(payload: bytes | memoryview) -> dict:
    cursor = _Cursor(payload)
    args, cursor.pos = _unpack_sign_head(cursor.view)
    count = cursor.u16("count")
    if count == 0:
        raise ProtocolError("'messages' must be a non-empty list")
    if count > MAX_SIGN_MANY_V3:
        raise ProtocolError(
            f"sign-many frame declares {count} messages; this server "
            f"caps v3 frames at {MAX_SIGN_MANY_V3} (see 'max_batch' in "
            "the hello response) — split the batch")
    args["messages"] = [cursor.bytes32(f"messages[{index}]")
                        for index in range(count)]
    cursor.done("sign-many")
    return args


def pack_sign_many_item(index: int, result: dict | None = None,
                        error: tuple[str, str] | None = None) -> bytes:
    """One streamed item: a sign result or a per-item error."""
    head = index.to_bytes(2, "big")
    if error is not None:
        code, detail = error
        return head + b"\0" + _str8(code, "error") + _str16(detail)
    assert result is not None
    return head + b"\1" + _pack_sign_result_dict(result)


def unpack_sign_many_item(payload: bytes | memoryview) -> tuple[int, dict]:
    """-> (item index, per-item response dict)."""
    cursor = _Cursor(payload)
    index = cursor.u16("index")
    if cursor.u8("ok"):
        return index, unpack_sign_result(cursor.view[cursor.pos:])
    item = {"ok": False, "error": cursor.str8("error"),
            "detail": cursor.str16("detail")}
    cursor.done("sign-many item")
    return index, item


def pack_sign_many_end(count: int) -> bytes:
    return count.to_bytes(2, "big")


def unpack_sign_many_end(payload: bytes | memoryview) -> int:
    cursor = _Cursor(payload)
    count = cursor.u16("count")
    cursor.done("sign-many end")
    return count


# --- errors and JSON-payload (cold) verbs ------------------------------
def pack_error(code: str, detail: str) -> bytes:
    return _str8(code, "error") + _str16(detail)


def unpack_error(payload: bytes | memoryview) -> dict:
    cursor = _Cursor(payload)
    response = {"ok": False, "error": cursor.str8("error"),
                "detail": cursor.str16("detail")}
    cursor.done("error")
    return response


#: What a binary value renders as in :func:`pack_json`'s first pass, and
#: the escaped text that marks where its base64 goes.
_SPLICE = "\x00b64"
_SPLICE_MARK = json.dumps(_SPLICE)[1:-1].encode()


def pack_json(body: dict) -> bytes:
    """*body* as compact JSON, ``bytes`` values as base64 text: rendered
    with a placeholder per value, the base64 joined in at each mark (it
    needs no escaping, so these are ``json.dumps(..., default=pack_bytes)``'s
    bytes without the scan).  A body whose own text renders a mark takes
    that path instead."""
    values: list[bytes | bytearray | memoryview] = []

    def hold(value: object) -> str:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"{type(value).__name__} is not JSON serializable")
        values.append(value)
        return _SPLICE

    parts = json.dumps(body, separators=(",", ":"),
                       default=hold).encode().split(_SPLICE_MARK)
    if len(parts) != len(values) + 1:
        return json.dumps(body, separators=(",", ":"),
                          default=pack_bytes).encode()
    spliced = [parts[0]]
    for value, part in zip(values, parts[1:]):
        spliced += (base64.b64encode(value), part)
    return b"".join(spliced)


def unpack_json(payload: bytes | memoryview) -> dict:
    try:
        body = json.loads(bytes(payload))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON frame payload: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(
            f"expected a JSON object payload, got {type(body).__name__}")
    return body


# ----------------------------------------------------------------------
# Dialects: typed requests and results <-> the bytes of one connection
# ----------------------------------------------------------------------
class _HotVerb(NamedTuple):
    """A verb v3 packs as binary fields instead of a JSON payload."""

    pack_request: Callable[..., bytes]
    unpack_request: Callable[[memoryview], dict]
    #: ``None`` for ``sign-many``: no single result frame, items stream.
    pack_result: Callable[[dict], bytes] | None
    unpack_result: Callable[[memoryview], dict] | None


_HOT: dict[str, _HotVerb] = {
    "sign": _HotVerb(pack_sign_request, unpack_sign_request,
                     _pack_sign_result_dict, unpack_sign_result),
    "verify": _HotVerb(
        pack_verify_request, unpack_verify_request,
        lambda result: pack_verify_result(result["valid"],
                                          result["params"]),
        unpack_verify_result),
    "sign-many": _HotVerb(pack_sign_many_request,
                          unpack_sign_many_request, None, None),
    "verify-many": _HotVerb(
        pack_verify_many_request, unpack_verify_many_request,
        lambda result: pack_verify_many_result(result["results"]),
        unpack_verify_many_result),
}


def _error_response(code: str, detail: str) -> dict:
    return {"ok": False, "error": code, "detail": detail}


class LineDialect:
    """JSON lines (v2, and every connection until a v3 ``hello``)."""

    binary = False
    #: Raw message bytes one request can carry (base64 inflates 3 -> 4).
    message_budget = MAX_MESSAGE_BYTES

    def upgraded(self, version: object) -> "LineDialect | FrameDialect":
        """The dialect both ends speak once a ``hello`` granted
        *version*: every byte after a v3 grant is a binary frame."""
        if isinstance(version, int) and version >= 3:
            return FrameDialect()
        return self

    # -- client side ----------------------------------------------------
    def encode_request(self, op: str, request_id: int,
                       fields: dict) -> bytes:
        return encode({"op": op, **fields, "id": request_id})

    def read_reply(self, data: memoryview, start: int, end: int,
                   eof: bool = False
                   ) -> tuple[tuple[object, dict | None] | None, int]:
        """Split one reply off ``data[start:end]`` (see :func:`read_line`):
        ``((request id, response), where the next starts)``.

        The id is ``None`` for a fatal error the server could not
        attribute to a request.  A hot verb's response comes back as
        the typed result its v3 frame would carry: the echoed request
        fields dropped, signatures as raw bytes.
        """
        line, stop = read_line(data, start, end, eof)
        if line is None:
            return None, stop
        response = decode(line)
        request_id = response.pop("id", None)
        op = response.get("op")
        if response.get("ok") and op in _HOT:
            for echo in ("op", "tenant", "key", "trace"):
                response.pop(echo, None)
            signed = (response["results"] if op == "sign-many"
                      else [response] if op == "sign" else ())
            for item in signed:
                if item.get("ok"):
                    item["signature"] = unpack_bytes(item["signature"],
                                                     name="signature")
        return (request_id, response), stop

    # -- server side ----------------------------------------------------
    def read_request(self, data: memoryview, start: int, end: int,
                     eof: bool = False
                     ) -> tuple[tuple[object, object, object] | None, int]:
        """Split one request off ``data[start:end]``, blank lines skipped
        (see :func:`read_line`): ``((op, request id, body), where the
        next starts)``.

        An unparseable line is not fatal (the next line starts clean):
        its :class:`ProtocolError` rides as the body, for
        :meth:`parse_request` to raise where it can be answered.
        """
        while True:
            line, stop = read_line(data, start, end, eof)
            if line is None:
                return None, stop
            if line.strip():
                break
            start = stop
        try:
            body = decode(line)
        except ProtocolError as exc:
            return (None, None, exc), stop
        return (body.get("op"), body.get("id"), body), stop

    def parse_request(self, op: object, body: object, registry,
                      version: int) -> tuple:
        """-> ``(verb, typed args)`` through *registry*'s field schema."""
        if isinstance(body, ProtocolError):
            raise body
        return registry.resolve(body, version)

    def encode_result(self, op: str, request_id: object,
                      result: dict) -> bytes:
        if request_id is not None:
            result["id"] = request_id
        return encode(result)

    async def reply(self, write: Callable[[bytes], object], op: str,
                    request_id: object, args: dict, result) -> None:
        """Write *result*; a streamed one (``(index, item)`` pairs in
        completion order) is collected into one response line."""
        if not isinstance(result, dict):
            items: list[dict | None] = [None] * len(args["messages"])
            async for index, item in result:
                items[index] = item
            result = {"ok": True, "op": op, "tenant": args["tenant"],
                      "key": args["key"], "results": items}
            if args.get("trace"):
                result["trace"] = args["trace"]
        if request_id is not None:
            result["id"] = request_id
        write(encode(result))

    def encode_error(self, request_id: object, code: str,
                     detail: str) -> bytes:
        response = _error_response(code, detail)
        if request_id is not None:
            response["id"] = request_id
        return encode(response)


class FrameDialect:
    """Length-prefixed binary frames (v3), from the ``hello`` onward."""

    binary = True
    #: v3 frames skip base64, so the same 1 MiB wire cap fits ~33% more.
    message_budget = MAX_MESSAGE_BYTES_V3

    def __init__(self):
        #: Client side: open ``sign-many`` streams, request id -> the
        #: items received so far (by request index).
        self._streams: dict[int, list[dict | None]] = {}
        #: Client side: relayed request id -> what takes its reply frame
        #: as it arrived (see ``ServiceClient.relay``).
        self.relays: dict[int, Callable[[Frame | Exception], None]] = {}

    def upgraded(self, version: object) -> "FrameDialect":
        return self

    # -- client side ----------------------------------------------------
    def encode_request(self, op: str, request_id: int,
                       fields: dict) -> bytes:
        code = FRAME_CODES.get(op) if isinstance(op, str) else None
        if code is None:
            raise ProtocolError(
                f"'op' must name a verb with a frame code, got {op!r}")
        if op not in _HOT:
            payload = pack_json(fields) if fields else b""
        else:
            try:
                payload = _HOT[op].pack_request(**fields)
            except TypeError as exc:
                raise ProtocolError(f"verb {op!r}: {exc}") from exc
            if op == "sign-many":
                self._streams[request_id] = [None] * len(fields["messages"])
        return encode_frame(code, payload, id=request_id)

    def read_reply(self, data: memoryview, start: int, end: int,
                   eof: bool = False
                   ) -> tuple[tuple[object, dict | None] | None, int]:
        """Split one reply frame off ``data[start:end]`` (see
        :func:`read_frame`): ``((request id, response), where the next
        starts)``.

        The id is ``None`` on the reserved id 0 (a fatal error frame);
        the response is ``None`` for a streamed ``sign-many`` item —
        the stream's single response follows its end frame, items in
        request order — and for a relayed request's reply, which goes
        undecoded, there and then, to its entry in :attr:`relays`.
        """
        frame, stop = read_frame(data, start, end, eof)
        if frame is None:
            return None, stop
        if self.relays and frame.id in self.relays:
            self.relays.pop(frame.id)(frame)
            return (frame.id, None), stop
        return (frame.id or None, self._decode_reply(frame)), stop

    def _decode_reply(self, frame: Frame) -> dict | None:
        if frame.verb == FRAME_SIGN_MANY_ITEM:
            index, item = unpack_sign_many_item(frame.payload)
            items = self._streams.get(frame.id)
            if items is None:
                return None
            if 0 <= index < len(items):
                items[index] = item
                return None
            del self._streams[frame.id]
            return _error_response(
                ERROR_PROTOCOL, f"sign-many stream answered index {index} "
                                f"for a {len(items)}-item batch")
        if frame.verb == FRAME_SIGN_MANY_END:
            unpack_sign_many_end(frame.payload)
            items = self._streams.pop(frame.id, None)
            if items is None:
                return None
            missing = [index for index, item in enumerate(items)
                       if item is None]
            if missing:
                return _error_response(
                    ERROR_PROTOCOL, f"sign-many stream ended with "
                                    f"{len(missing)} unanswered items "
                                    f"(indexes {missing})")
            return {"ok": True, "results": items}
        if frame.verb == FRAME_ERROR:
            self._streams.pop(frame.id, None)  # whole-frame failure
            return unpack_error(frame.payload)
        hot = _HOT.get(FRAME_VERBS.get(frame.verb))
        return (hot.unpack_result if hot else unpack_json)(frame.payload)

    # -- server side ----------------------------------------------------
    def read_request(self, data: memoryview, start: int, end: int,
                     eof: bool = False
                     ) -> tuple[tuple[object, object, object] | None, int]:
        """Split one request frame off ``data[start:end]`` (see
        :func:`read_frame`): ``((op, request id, payload), where the
        next starts)``.  An unassigned frame code stands in for the op
        it does not name."""
        frame, stop = read_frame(data, start, end, eof)
        if frame is None:
            return None, stop
        return (FRAME_VERBS.get(frame.verb, frame.verb), frame.id,
                frame.payload), stop

    def parse_request(self, op: object, payload: memoryview, registry,
                      version: int) -> tuple:
        """-> ``(verb, typed args)``.

        Hot verbs decode straight off the binary payload (the codec
        already validates field types and bounds); every other verb
        carries its v2 JSON body and resolves through *registry*'s
        field schema, so cold verbs stay single-sourced.
        """
        if not isinstance(op, str):
            raise UnknownVerbError(
                f"unknown frame verb 0x{op:02x} "
                f"(serving: {', '.join(registry.names())})")
        if op in _HOT:
            return (registry.lookup(op, version),
                    _HOT[op].unpack_request(payload))
        request = unpack_json(payload) if len(payload) else {}
        request["op"] = op
        if op == "hello":
            wanted = request.get("version")
            if isinstance(wanted, int) and wanted < 3:
                raise ProtocolError(
                    "a binary (v3) connection cannot renegotiate below "
                    "v3 — reconnect and send the lower hello as JSON")
        return registry.resolve(request, version)

    def encode_result(self, op: str, request_id: int,
                      result: dict) -> bytes:
        pack = _HOT[op].pack_result if op in _HOT else pack_json
        return encode_frame(FRAME_CODES[op], pack(result), id=request_id,
                            flags=FLAG_OK)

    async def reply(self, write: Callable[[bytes], object], op: str,
                    request_id: int, args: dict, result) -> None:
        """Write *result*; a streamed one goes out one item frame per
        ``(index, item)`` as it lands, then an end frame with the count."""
        if isinstance(result, dict):
            write(self.encode_result(op, request_id, result))
            return
        count = 0
        async for index, item in result:
            write(encode_frame(
                FRAME_SIGN_MANY_ITEM,
                pack_sign_many_item(index, result=item) if item["ok"]
                else pack_sign_many_item(
                    index, error=(item["error"], item["detail"])),
                id=request_id, flags=FLAG_OK))
            count += 1
        write(encode_frame(FRAME_SIGN_MANY_END, pack_sign_many_end(count),
                           id=request_id, flags=FLAG_OK))

    def encode_error(self, request_id: int | None, code: str,
                     detail: str) -> bytes:
        # Id 0 is reserved for failures no request maps to.
        return encode_frame(FRAME_ERROR, pack_error(code, detail),
                            id=request_id or 0)
