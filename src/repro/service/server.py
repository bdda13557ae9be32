"""The async signing service and its TCP front end.

:class:`SigningService` is the in-process API: ``await service.sign(...)``
resolves the request through the keystore, applies admission control,
queues it on the deadline-aware batcher, and returns a
:class:`SignOutcome` once the batch it rode in comes back from a runtime
backend.  :class:`SigningServer` fronts a service over TCP: JSON lines
until a ``hello``, binary v3 frames after a v3 one (see :mod:`.protocol`).

Design notes
------------
* **Batches share a key pair.**  Queues are keyed ``(tenant, key)``; the
  dispatch path signs a batch with one ``sign_batch`` call on the
  :class:`~.engine.SigningEngine`, which owns keys, backends, verifiers,
  pool and cache invalidation (``repro.api``'s local client fronts one too).
* **Signing runs off the event loop, one batch at a time.**
  ``sign_batch`` is CPU-bound Python, so dispatch hands it to the
  default executor.  The batcher's one drain task is the only place a
  batch starts, earliest deadline first, so batches never overlap — one
  batch already uses every core there is to use.  A replay is answered on the loop.
* **A worker pool scales across cores.**  With ``workers=N`` the engine
  spreads every batch's signing plan over a persistent
  :class:`~repro.runtime.pool.WorkerPool` (even a batch of one uses all
  N cores); the layer cache stays in this process.
* **Admission control sheds early.**  If queued depth has reached
  ``max_pending``, :meth:`SigningService.sign` raises
  :class:`OverloadedError` *before* queueing — the client gets an
  explicit load-shed response instead of a silently growing tail.
"""

from __future__ import annotations

import asyncio
import time
from typing import NamedTuple

from ..errors import (BackendError, FrameTooLargeError, KeystoreError,
                      OverloadedError, ProtocolError, ServiceError)
from ..hashes.thash import sha256_choice
from ..obs.log import get_logger
from ..obs.trace import (SpanClock, TraceContext, Tracer, current_trace,
                         new_span_id, new_trace_id)
from . import protocol
from .batcher import DeadlineBatcher, PendingSign, QueueKey
from .engine import SigningEngine, require_vectorized
from .keystore import Keystore
from .telemetry import Telemetry
from .verbs import (ConnectionState, VerbRegistry, default_registry,
                    error_body)

__all__ = ["SignOutcome", "SigningService", "SigningServer"]

_log = get_logger("service")

class SignOutcome(NamedTuple):
    """What an in-process caller gets back for one signed request."""

    signature: bytes
    tenant: str
    key_name: str
    params: str
    backend: str
    batch_size: int
    wait_ms: float   # enqueue -> batch dispatch started
    total_ms: float  # enqueue -> signature available


class SigningService:
    """Deadline-batched, multi-tenant signing on the vectorized plan."""

    #: What ``stats`` and ``hello`` name as the signer.
    backend_name = "vectorized"

    def __init__(self, keystore: Keystore | None = None,
                 backend: str = "vectorized",
                 target_batch_size: int = 16,
                 max_wait_s: float = 0.1,
                 max_pending: int = 256,
                 deterministic: bool = False,
                 workers: int = 0,
                 cache_budget_mb: float | None = None,
                 tracer: Tracer | None = None):
        if max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        try:
            require_vectorized(backend)
        except BackendError as exc:
            raise ServiceError(str(exc)) from None
        self.keystore = keystore if keystore is not None else Keystore()
        self.max_pending = max_pending
        self.telemetry = Telemetry()
        #: The one store of every service-tier number — the ``stats``
        #: verb, the ``metrics`` verb and the Prometheus endpoint read it.
        self.metrics_registry = self.telemetry.registry
        #: Optional span sink; ``None`` keeps every sign path hook-free.
        self.tracer = tracer
        self.batcher = DeadlineBatcher(
            self._dispatch, target_batch_size=target_batch_size,
            max_wait_s=max_wait_s,
        )
        # Multi-core tier: with workers > 0 the engine signs every batch
        # on a pool — one pool under every parameter set.
        self.engine = SigningEngine(
            self.keystore, deterministic=deterministic, workers=workers,
            cache_budget_mb=cache_budget_mb)
        self.pool = self.engine.pool
        #: What outcomes and spans call the executor.
        self.backend_label = (f"pooled[{self.pool.workers}]"
                              if self.pool is not None else "vectorized")
        self.telemetry.add_source("queue", lambda: {"depth": self._depth()})
        if self.pool is not None:
            self.telemetry.add_source("pool", self.pool.stats)
        self.telemetry.add_source("cache", self.engine.cache_stats)
        self.telemetry.add_source("keystore", self.keystore.cache_stats)

    def _depth(self) -> int:
        """Requests holding capacity: queued or dispatched-but-unsigned."""
        return self.batcher.pending + self.batcher.in_flight

    # ------------------------------------------------------------------
    # In-process client API
    # ------------------------------------------------------------------
    async def sign(self, message: bytes, tenant: str,
                   key_name: str = "default",
                   deadline_ms: float | None = None) -> SignOutcome:
        """Sign *message* under the tenant's named key.

        ``deadline_ms`` is the request's latency budget; enqueue time
        plus the budget is the deadline that orders the queues, earliest
        first.  It neither holds a request back nor bounds signing time.
        Raises :class:`KeystoreError` for unknown tenants/keys and
        :class:`OverloadedError` when the service sheds the request.
        """
        # Fail fast, before queueing; a replay reuses the key pair.
        keys, params_name = self.keystore.resolve(tenant, key_name)
        if not self.keystore.admit(tenant):
            self.telemetry.record_shed(tenant, "rate-limit")
            _log.warn("request-rate-limited", tenant=tenant)
            raise OverloadedError(
                f"tenant {tenant!r} exhausted its admission rate-limit "
                "budget; request shed"
            )
        trace = clock = None
        if self.tracer is not None:
            # Root span of this request's trace.  The trace id comes from
            # the caller's ambient context (the TCP verb layer installs
            # the client-sent id there); without one, a fresh trace
            # starts here.  The context rides the PendingSign as data —
            # the batcher's drain task runs in an empty context.
            incoming = current_trace()
            trace = TraceContext(
                incoming.trace_id if incoming is not None
                else new_trace_id(),
                new_span_id())
            clock = SpanClock()
        # A replay is answered here, on the loop: no queue slot (so no
        # ``max_pending``), executor or batch (``batches`` counts what
        # the batcher formed); closed, ``submit`` refuses.
        started = time.perf_counter()
        hit = (None if self.batcher.closed
               else self.engine.recall(keys, params_name, message))
        if hit is not None:
            total_ms = (time.perf_counter() - started) * 1000.0
            self.telemetry.record_submitted(tenant)
            self.telemetry.record_signed(tenant, total_ms, 0.0)
            outcome = SignOutcome(
                signature=hit, tenant=tenant, key_name=key_name,
                params=params_name, backend=self.backend_label,
                batch_size=1, wait_ms=0.0, total_ms=round(total_ms, 3))
        else:
            # Sustained overload must shed instead of piling requests up
            # behind the batch in flight.
            depth = self._depth()
            if depth >= self.max_pending:
                self.telemetry.record_shed(tenant, "queue-full")
                _log.warn("request-shed", tenant=tenant, depth=depth,
                          max_pending=self.max_pending)
                raise OverloadedError(
                    f"queue depth {depth} at watermark {self.max_pending}; "
                    "request shed"
                )
            self.telemetry.record_submitted(tenant)
            self.telemetry.observe_depth(depth + 1)
            budget_s = None if deadline_ms is None else deadline_ms / 1000.0
            outcome = await self.batcher.submit(
                tenant, key_name, message, budget_s=budget_s, trace=trace)
        if trace is not None:
            self.tracer.record_span(
                "request", trace=trace, span_id=trace.span_id,
                start=clock.start, end=clock.end(), tenant=tenant,
                key=key_name, backend=outcome.backend,
                batch_size=outcome.batch_size,
                **({"replay": True} if hit is not None else {}))
        return outcome

    async def verify(self, message: bytes, signature: bytes, tenant: str,
                     key_name: str = "default") -> tuple[bool, str]:
        """Verify *signature* over *message* under the tenant's named key.

        Returns ``(valid, canonical params name)``.  Verification never
        raises on a bad signature — ``valid`` is simply ``False`` — but
        unknown tenants/keys raise :class:`KeystoreError` exactly like
        :meth:`sign`.
        """
        [valid], params_name = await self.verify_many(
            [message], [signature], tenant, key_name)
        return valid, params_name

    async def verify_many(self, messages: list[bytes],
                          signatures: list[bytes], tenant: str,
                          key_name: str = "default"
                          ) -> tuple[list[bool], str]:
        """Verify each ``(message, signature)`` pair under one tenant key:
        the engine's ``verify_batch`` as one job on the default executor
        (the hash walk is CPU-bound), independent of any other job and
        of the signing backends' caches.
        """
        return await asyncio.get_running_loop().run_in_executor(
            None, self.engine.verify_batch, tenant, key_name, messages,
            signatures)

    async def drain(self) -> None:
        """Dispatch and await everything still queued (shutdown path)."""
        await self.batcher.flush()

    def close(self) -> None:
        self.batcher.close()
        self.engine.close()

    # ------------------------------------------------------------------
    # Dispatch (called by the batcher)
    # ------------------------------------------------------------------
    async def _dispatch(self, queue_key: QueueKey,
                        batch: list[PendingSign]) -> None:
        tenant, key_name = queue_key
        loop = asyncio.get_running_loop()
        # Requests carrying a trace context (a tracer at submit time).
        traced = ([request for request in batch
                   if request.trace is not None]
                  if self.tracer is not None else [])
        messages = [request.message for request in batch]
        dispatch_started = loop.time()
        clock = SpanClock()
        try:
            result, params_name = await loop.run_in_executor(
                None, self.engine.sign_batch, tenant, key_name, messages)
            sign_end = clock.end()
        except Exception as exc:
            self.telemetry.record_failed(tenant, len(batch))
            _log.error("batch-failed", tenant=tenant, key=key_name,
                       batch=len(batch),
                       error=f"{type(exc).__name__}: {exc}")
            raise  # the batcher forwards this to every future in the batch
        done, done_wall = loop.time(), clock.end()
        # Every traced request in the batch gets the full breakdown: a
        # batch amortizes one backend call over its requests, so the stage
        # timings legitimately describe each request's critical path.
        for request in traced:
            trace, dispatch_id = request.trace, new_span_id()
            self.tracer.record_span(
                "queue", trace=trace, parent_id=trace.span_id,
                start=request.enqueued_wall, end=clock.start,
                batch_size=len(batch))
            self.tracer.record_span(
                "dispatch", trace=trace, span_id=dispatch_id,
                parent_id=trace.span_id, start=clock.start, end=done_wall,
                backend=self.backend_label, batch_size=len(batch))
            self.tracer.record_sign(
                trace, dispatch_id, clock.start, sign_end,
                result.stage_seconds, result.workers)
        self.telemetry.record_batch(len(batch))
        for request, signature in zip(batch, result.signatures):
            wait_ms = (dispatch_started - request.enqueued_at) * 1000.0
            total_ms = (done - request.enqueued_at) * 1000.0
            self.telemetry.record_signed(tenant, total_ms, wait_ms)
            if not request.future.done():
                request.future.set_result(SignOutcome(
                    signature=signature, tenant=tenant, key_name=key_name,
                    params=params_name, backend=self.backend_label,
                    batch_size=len(batch), wait_ms=round(wait_ms, 3),
                    total_ms=round(total_ms, 3),
                ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Telemetry snapshot plus live queue depth and configuration."""
        snapshot = self.telemetry.snapshot()
        snapshot["queue"]["depth"] = self._depth()
        snapshot["config"] = {
            "backend": self.backend_name,
            "workers": self.pool.workers if self.pool is not None else 0,
            "target_batch_size": self.batcher.target_batch_size,
            "max_wait_ms": round(self.batcher.max_wait_s * 1000.0, 3),
            "max_pending": self.max_pending,
            "cache_budget_mb": self.engine.cache_budget_mb,
            "tenants": {name: self.keystore.params_for(name)
                        for name in self.keystore.tenants()},
            # Which SHA-256 each hash kernel runs on: the platform decides.
            "sha256": sha256_choice(),
        }
        return snapshot


class SigningServer:
    """Serve a :class:`SigningService` over TCP — JSON lines or frames.

    Requests dispatch through a :class:`~.verbs.VerbRegistry` — a handler
    table with per-verb schema validation.  Every connection opens with
    ``hello``: v2 serves the verb table over JSON lines, while a v3
    hello flips the connection to binary frames (see :mod:`.protocol`) —
    the hello response is still a JSON line, and everything after it on
    the socket is framed in both directions, with ``sign-many`` results
    streamed per item.
    """

    def __init__(self, service: SigningService,
                 host: str = "127.0.0.1", port: int = 0,
                 registry: VerbRegistry | None = None):
        self.service = service
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else \
            default_registry()
        self._server: asyncio.base_events.Server | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    def capabilities(self, version: int = protocol.PROTOCOL_VERSION) -> dict:
        """The ``hello`` capability payload at *version*."""
        from .. import __version__

        service = self.service
        return {
            "version": version,
            "server": f"repro/{__version__}",
            "verbs": list(self.registry.names()),
            # v3 streams sign-many results per item, so only the request
            # frame bounds the count — the cap rises with the version.
            "max_batch": (protocol.MAX_SIGN_MANY_V3 if version >= 3
                          else protocol.MAX_SIGN_MANY),
            "backend": service.backend_name,
            "workers": (service.pool.workers
                        if service.pool is not None else 0),
            "parameter_sets": sorted({service.keystore.params_for(name)
                                      for name in service.keystore.tenants()}),
            # Capability flag: clients may attach a ``trace`` id to sign
            # requests; spans are only recorded when a tracer is wired.
            "trace": service.tracer is not None,
        }

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.LINE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("server-started", host=self.host, port=self.port,
                  backend=self.service.backend_name, sha256=sha256_choice())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Drain queued work, then close the listener and connections."""
        _log.info("server-stopping", port=self.port)
        await self.service.drain()
        self.service.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close transports (not cancel) so handlers see EOF and exit their
        # loops normally — cancelling them trips asyncio's stream callback.
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)

    async def abort(self) -> None:
        """Kill the server *without* draining — simulates a node crash.

        Connections are torn down at the transport layer (peers see a
        reset, not a clean EOF) and queued work is abandoned.  Chaos and
        failover tests use this to exercise the cluster router's
        re-homing path; production shutdown goes through :meth:`stop`.
        """
        _log.warn("server-aborted", port=self.port)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections.values()):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        self.service.close()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        conn = ConnectionState()
        dialect = protocol.LineDialect()
        connection = asyncio.current_task()
        if connection is not None:
            self._connections[connection] = writer
        send = protocol.sender(writer)
        relay = None  # what answers hot frames inline, from a v3 hello

        try:
            while True:
                try:
                    request = await dialect.read_request(reader)
                except FrameTooLargeError as exc:
                    # The oversized line/frame was never read, so the
                    # stream cannot be resynchronized: report without an
                    # id (no request maps to it) and close.
                    await send(dialect.encode_error(
                        None, protocol.ERROR_PROTOCOL, str(exc)))
                    break
                except ProtocolError:
                    break  # dropped mid-frame: nobody left to answer
                if request is None:
                    break
                if request[0] == "hello":
                    # hello is served inline, not as a task: a v3 grant
                    # flips this connection to binary frames, and the
                    # switch must land before the next read — the client
                    # sends its first frame right after the hello line.
                    await self._serve(dialect, request, send, conn)
                    dialect = dialect.upgraded(conn.version)
                    if dialect.binary:
                        relay = self._inline(writer)
                        transport = writer.transport
                        high_water = transport.get_write_buffer_limits()[1]
                    continue
                if relay is not None and relay(*request):
                    # Its reply is written by a callback, which cannot
                    # wait: past the high-water mark, read no more
                    # frames until the buffer drains.
                    if transport.get_write_buffer_size() > high_water:
                        await send(b"")
                    continue
                # Each request runs as its own task so a client can
                # pipeline: a slow sign never blocks a ping or stats.
                task = loop.create_task(
                    self._serve(dialect, request, send, conn))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if connection is not None:
                self._connections.pop(connection, None)
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _inline(self, writer: asyncio.StreamWriter):
        """``relay(op, request id, payload) -> handled``, run on a v3
        connection's read loop, or ``None`` (every request a task)."""

    async def _serve(self, dialect, request: tuple, send,
                     conn: ConnectionState) -> None:
        """Serve one request read by *dialect*: typed args in, a typed
        result (or typed error) out, written back in the same dialect."""
        op, request_id, body = request
        try:
            verb, args = dialect.parse_request(op, body, self.registry,
                                               conn.version)
            await dialect.reply(send, verb.name, request_id, args,
                                await verb.handler(self, conn, args))
        except Exception as exc:  # noqa: BLE001 — report, don't kill the conn
            code, detail = error_body(exc)
            await send(dialect.encode_error(request_id, code, detail))
