"""The wire transport: one pipelined connection, one call per request.

One connection, many in-flight requests: every request carries an ``id``
and the connection matches each response back to its future in the loop
turn it is read, so callers can pipeline calls concurrently over a
single socket — exactly how the load generator drives the service.

:meth:`ServiceClient.call` takes a verb and its typed fields (``bytes``
are ``bytes``) and returns the typed response dict — the same arguments
and the same result whether the connection speaks newline-delimited JSON
(protocol v2) or, once a ``hello`` response grants protocol v3, binary
frames with ``sign-many`` results streamed per item.  Which of the two
it is, :mod:`.protocol` alone knows.  :meth:`ServiceClient.open` is the
one place a connection says ``hello``.  :meth:`ServiceClient.relay`
writes a v3 frame payload as it is and hands its reply frame, undecoded,
to a callback in the turn it is read: how a cluster router forwards.

This is the *wire-level* client.  Application code should prefer the
typed facade in :mod:`repro.api` — ``AsyncClient`` for asyncio callers,
``TcpClient`` for synchronous ones — which returns
:class:`~repro.api.SignResult` / :class:`~repro.api.VerifyResult`
objects.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Callable

from ..errors import (ConnectionLostError, ServiceError,
                      UnsupportedVersionError)
from . import protocol

__all__ = ["ServiceClient"]

#: How long :meth:`ServiceClient.open` waits for the connect and the
#: ``hello`` answer together: a peer that drops the SYN, or accepts TCP
#: but never answers, must not hang the caller.
HELLO_TIMEOUT_S = 10.0


class ServiceClient(protocol.Connection):
    """Pipelined wire transport: typed calls over JSON lines, or binary
    frames after a v3 ``hello`` (see :mod:`.protocol`).

    It is the connection's protocol: every reply is split out of its read
    buffer in the loop turn the bytes arrived, and resolves its caller's
    future (or runs its relay callback) there and then.
    """

    def __init__(self):
        super().__init__()
        self._loop = asyncio.get_running_loop()
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        #: How this connection's bytes are laid out; a granted v3
        #: hello replaces it (see :meth:`buffer_updated`).
        self._dialect = protocol.LineDialect()
        #: Whether replies can still arrive; once not, calls fail fast.
        self._open = True
        #: Set when the server reports a fatal (id-less) error before
        #: closing; later requests raise it instead of a generic
        #: "connection closed" so the cause survives.
        self._fatal: ConnectionLostError | None = None
        #: Resolved when the transport is gone.
        self._lost = self._loop.create_future()
        #: While the write buffer is past its high-water mark: resolved
        #: once it drains (see ``call``).
        self._drained: asyncio.Future | None = None
        #: The server's ``hello`` answer (set by :meth:`open`).
        self.hello: dict = {}

    @property
    def binary(self) -> bool:
        """Whether the connection has flipped to v3 binary frames."""
        return self._dialect.binary

    @property
    def message_budget(self) -> int:
        """Raw message bytes one request can carry on this connection."""
        return self._dialect.message_budget

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests.

        ``False`` once replies can no longer arrive (server hung up,
        fatal error, or :meth:`close`); callers holding pooled
        connections — the cluster router — check this before reuse
        instead of paying a doomed round trip.
        """
        return self._open

    @classmethod
    async def _connect(cls, host: str, port: int) -> "ServiceClient":
        """A connection to *host*:*port* that has said nothing yet."""
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port)
        return client

    @classmethod
    async def open(cls, host: str = "127.0.0.1", port: int = 7744,
                   version: int = protocol.PROTOCOL_VERSION
                   ) -> "ServiceClient":
        """Connect and send the ``hello`` for *version*; the answer (the
        server may offer less) is kept as :attr:`hello`.  A refused
        handshake raises :class:`UnsupportedVersionError`; a connect and
        hello that take longer than :data:`HELLO_TIMEOUT_S` together,
        :class:`ConnectionLostError`."""
        client = None

        async def handshake() -> "ServiceClient":
            nonlocal client
            client = await cls._connect(host, port)
            client.hello = await client.call("hello", version=version)
            return client

        try:
            return await asyncio.wait_for(handshake(), HELLO_TIMEOUT_S)
        except BaseException as exc:  # incl. a caller's wait_for cancel
            if client is not None:
                await client.close()
            if isinstance(exc, asyncio.TimeoutError):
                raise ConnectionLostError(
                    f"{host}:{port} " + (
                        "accepted the connection but did not answer hello"
                        if client is not None
                        else "did not accept the connection")
                    + f" within {HELLO_TIMEOUT_S} s") from None
            if isinstance(exc, ServiceError) \
                    and not isinstance(exc, ConnectionLostError):
                raise UnsupportedVersionError(
                    f"{host}:{port} refused the hello: {exc}") from exc
            raise

    async def close(self) -> None:
        self._finish(ConnectionLostError("client closed"))
        self.transport.close()
        await asyncio.shield(self._lost)

    # ------------------------------------------------------------------
    async def call(self, op: str, **fields) -> dict:
        """Send one request and await its matched, typed response.

        *fields* are the verb's typed arguments (``None`` ones are left
        off the wire); the response dict carries binary fields as raw
        bytes.  ``sign-many`` answers ``results`` in request order:
        per-item failures stay items (one shed request must not discard
        its siblings' signatures).  Raises the typed error for ``ok:
        false`` responses (:class:`OverloadedError` for load-shed,
        :class:`KeystoreError` for unknown tenant/key, ...).
        """
        if not self._open:
            raise self._closed()
        request_id = next(self._ids)
        future = self._loop.create_future()
        self._pending[request_id] = future
        try:
            self.transport.write(self._dialect.encode_request(
                op, request_id, {name: value for name, value
                                 in fields.items() if value is not None}))
            if self._drained is not None:
                await asyncio.shield(self._drained)
            response = await future
        finally:
            self._pending.pop(request_id, None)
        if not response.get("ok"):
            error_type = protocol.error_type(response.get("error"))
            raise error_type(response.get("detail",
                                          "service reported an error"))
        return response

    def relay(self, verb: int, payload: bytes | memoryview,
              on_reply: Callable[[protocol.Frame | Exception], None]
              ) -> None:
        """Write one v3 request frame under a fresh id, and return: the
        reply frame reaches *on_reply* undecoded, in the turn it is read
        (its payload views the read buffer), or else the error that
        ended this connection first."""
        if not self._open:
            raise self._closed()
        request_id = next(self._ids)
        self._dialect.relays[request_id] = on_reply
        self.transport.write(protocol.encode_frame(verb, payload,
                                                   id=request_id))

    async def ping(self) -> bool:
        return (await self.call("ping"))["ok"] is True

    async def stats(self) -> dict:
        """The server's telemetry snapshot (render with
        :func:`repro.service.telemetry.render_snapshot`)."""
        return (await self.call("stats"))["stats"]

    # ------------------------------------------------------------------
    def _closed(self) -> ConnectionLostError:
        """What a request on a connection no reply can arrive on any more
        raises: a future registered now could never be resolved, and a
        write into the half-closed socket would not even error."""
        if self._fatal is not None:
            return self._fatal
        return ConnectionLostError(
            "connection closed; reconnect to continue")

    # -- the protocol: replies, flow control, the end -------------------
    def eof_received(self) -> bool:
        self.buffer_updated(0, eof=True)
        self._finish(ConnectionLostError("connection closed by server"))
        return False

    def connection_lost(self, exc: Exception | None) -> None:
        # The transport dropping mid-pipeline (server restart, reset,
        # or this end's own close()) is a *typed* failure: every
        # in-flight future fails with one ConnectionLostError naming the
        # unanswered ids, never a bare ConnectionResetError.
        self._finish(ConnectionLostError(
            "connection closed by server" if exc is None
            else f"connection lost: {exc}"))
        self.resume_writing()
        if not self._lost.done():
            self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._drained = self._loop.create_future()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)

    def buffer_updated(self, nbytes: int, eof: bool = False) -> None:
        """Hand every reply that ``[_start, _end + nbytes)`` holds to its
        caller; at *eof*, the rest too."""
        end = self._end = self._end + nbytes
        if not self._open:  # nobody is waiting for these bytes
            self._start = end
            return
        view, start = self._view, self._start
        stop = start
        try:
            while start < end:
                reply, stop = self._dialect.read_reply(view, start, end,
                                                       eof)
                if reply is None:
                    break
                start = stop
                request_id, response = reply
                if response is None:
                    continue  # part of a streamed reply; more follows
                if request_id is None:
                    # An id-less error is fatal by construction: the
                    # server only omits the id when it could not
                    # attribute the failure (an overlong or unparseable
                    # line or frame) and is about to close.
                    self._fatal_error(response)
                    return
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(response)
                if response.get("op") == "hello" and response.get("ok"):
                    # A granted hello may change the dialect of every
                    # byte after it, the rest of this read too.
                    self._dialect = self._dialect.upgraded(
                        response.get("version"))
        except Exception as exc:  # noqa: BLE001 — surfaced via futures
            self._finish(ServiceError(f"connection error: {exc}"))
            self.transport.close()
            return
        self._start, self._stop = start, stop

    def _fatal_error(self, response: dict) -> None:
        """Fail everything in flight with the server's *typed* error.

        The server's own code/detail reach the pending callers (a
        ProtocolError for "line too long", not a generic connection
        error); later :meth:`call`\\ s raise a
        :class:`ConnectionLostError` naming the unanswered ids.
        """
        detail = response.get("detail", "server reported a fatal error")
        typed = protocol.error_type(response.get("error"))(detail)
        ids = tuple(sorted(self._pending))
        self._fatal = ConnectionLostError(
            f"connection closed after a fatal server error: {detail}"
            + (f" ({len(ids)} requests in flight: ids {list(ids)})"
               if ids else ""),
            in_flight=ids)
        self._finish(typed)

    def _finish(self, error: Exception) -> None:
        """No reply arrives from here on: fail what is in flight."""
        self._open = False
        in_flight = tuple(sorted(self._pending))
        if isinstance(error, ConnectionLostError) and in_flight:
            error = ConnectionLostError(
                f"{error} ({len(in_flight)} requests in flight: "
                f"ids {list(in_flight)})", in_flight=in_flight)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        if self._dialect.binary:
            relays, self._dialect.relays = self._dialect.relays, {}
            for on_reply in relays.values():
                on_reply(error)
