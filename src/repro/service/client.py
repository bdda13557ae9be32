"""The wire transport: one pipelined connection, one call per request.

One connection, many in-flight requests: every request carries an ``id``
and a background reader task matches responses back to their futures, so
callers can pipeline calls concurrently over a single socket — exactly
how the load generator drives the service.

:meth:`ServiceClient.call` takes a verb and its typed fields (``bytes``
are ``bytes``) and returns the typed response dict — the same arguments
and the same result whether the connection speaks newline-delimited JSON
(protocol v2) or, once a ``hello`` response grants protocol v3, binary
frames with ``sign-many`` results streamed per item.  Which of the two
it is, :mod:`.protocol` alone knows.  :meth:`ServiceClient.open` is the
one place a connection says ``hello``.

This is the *wire-level* client.  Application code should prefer the
typed facade in :mod:`repro.api` — ``AsyncClient`` for asyncio callers,
``TcpClient`` for synchronous ones — which returns
:class:`~repro.api.SignResult` / :class:`~repro.api.VerifyResult`
objects.
"""

from __future__ import annotations

import asyncio
import itertools

from ..errors import (ConnectionLostError, ServiceError,
                      UnsupportedVersionError)
from . import protocol

__all__ = ["ServiceClient"]

#: How long :meth:`ServiceClient.open` waits for the connect and the
#: ``hello`` answer together: a peer that drops the SYN, or accepts TCP
#: but never answers, must not hang the caller.
HELLO_TIMEOUT_S = 10.0


class ServiceClient:
    """Pipelined wire transport: typed calls over JSON lines, or binary
    frames after a v3 ``hello`` (see :mod:`.protocol`)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        #: How this connection's bytes are laid out; a granted v3
        #: hello replaces it (see :meth:`_read_loop`).
        self._dialect = protocol.LineDialect()
        #: Set when the server reports a fatal (id-less) error before
        #: closing; later requests raise it instead of a generic
        #: "connection closed" so the cause survives.
        self._fatal: ConnectionLostError | None = None
        #: The server's ``hello`` answer (set by :meth:`open`).
        self.hello: dict = {}
        #: Raw wire accounting (both modes), for efficiency measurement.
        self.bytes_sent = 0
        self.bytes_received = 0
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop())

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

        ``False`` once the read loop has exited (server hung up, fatal
        error, or :meth:`close`); callers holding pooled connections —
        the cluster router — check this before reuse instead of paying
        a doomed round trip.
        """
        return not self._read_task.done()

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
            reader, writer = await asyncio.open_connection(
                host, port, limit=protocol.LINE_LIMIT)
            client = cls(reader, writer)
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
        self._read_task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._fail_pending(ConnectionLostError("client closed"))

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
        self._check_open()
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._write(self._dialect.encode_request(
                op, request_id, {name: value for name, value
                                 in fields.items() if value is not None}))
            await self._writer.drain()
            response = await future
        finally:
            self._pending.pop(request_id, None)
        if not response.get("ok"):
            error_type = protocol.error_type(response.get("error"))
            raise error_type(response.get("detail",
                                          "service reported an error"))
        return response

    async def ping(self) -> bool:
        return (await self.call("ping"))["ok"] is True

    async def stats(self) -> dict:
        """The server's telemetry snapshot (render with
        :func:`repro.service.telemetry.render_snapshot`)."""
        return (await self.call("stats"))["stats"]

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._read_task.done():
            # The reader has exited (server closed the socket): a future
            # registered now could never be resolved, and a write into
            # the half-closed socket would not even error.
            if self._fatal is not None:
                raise self._fatal
            raise ConnectionLostError(
                "connection closed; reconnect to continue")

    def _write(self, data: bytes) -> None:
        self._writer.write(data)
        self.bytes_sent += len(data)

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        # The transport dropping mid-pipeline (server restart, reset,
        # half-read line, or this end's own close()) is a *typed*
        # failure: every in-flight future fails with one
        # ConnectionLostError naming the unanswered ids, never a bare
        # ConnectionResetError/IncompleteReadError.
        error: Exception = ConnectionLostError("connection closed by server")
        try:
            while True:
                reply = await self._dialect.read_reply(self._reader)
                if reply is None:
                    break
                request_id, response, size = reply
                self.bytes_received += size
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
                    # byte after it, so the switch must land before the
                    # next read.
                    self._dialect = self._dialect.upgraded(
                        response.get("version"))
        except asyncio.CancelledError:
            error = ConnectionLostError("client closed")
            raise
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, OSError) as exc:
            error = ConnectionLostError(f"connection lost: {exc}")
        except Exception as exc:  # noqa: BLE001 — surfaced via futures
            error = ServiceError(f"connection error: {exc}")
        finally:
            self._fail_pending(error)

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
        self._fail_pending(typed)

    def _fail_pending(self, error: Exception) -> None:
        in_flight = tuple(sorted(self._pending))
        if isinstance(error, ConnectionLostError) and in_flight:
            error = ConnectionLostError(
                f"{error} ({len(in_flight)} requests in flight: "
                f"ids {list(in_flight)})", in_flight=in_flight)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
