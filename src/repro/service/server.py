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
import functools
import time
from typing import Callable, NamedTuple

from ..errors import (BackendError, FrameTooLargeError, OverloadedError,
                      ProtocolError, ServiceError)
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
                    error_body, replay_frame)

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
    def replay(self, message: bytes, tenant: str,
               key_name: str = "default") -> SignOutcome | None:
        """Signing *message* again, answered now, on the loop, from the
        replay memo: no queue slot (so no ``max_pending``), executor or
        batch (``batches`` counts what the batcher formed).

        ``None`` when nothing is remembered (randomized signing, a
        closed service, or a message never signed): then nothing was
        taken, no admission and no counter, and :meth:`sign` signs it.
        :meth:`sign` calls this first; a server calls it on the read turn
        of a v3 ``sign`` frame.  Raises like :meth:`sign`.
        """
        keys, params_name = self.keystore.resolve(tenant, key_name)
        if self.batcher.closed:
            return None  # ``submit`` refuses
        clock = SpanClock() if self.tracer is not None else None
        started = time.perf_counter()
        hit = self.engine.recall(keys, params_name, message)
        if hit is None:
            return None
        if not self.keystore.admit(tenant):
            raise self._rate_limited(tenant)
        total_ms = (time.perf_counter() - started) * 1000.0
        self.telemetry.record_submitted(tenant)
        self.telemetry.record_signed(tenant, total_ms, 0.0)
        outcome = SignOutcome(
            signature=hit, tenant=tenant, key_name=key_name,
            params=params_name, backend=self.backend_label,
            batch_size=1, wait_ms=0.0, total_ms=round(total_ms, 3))
        if clock is not None:
            trace = self._trace()
            self.tracer.record_span(
                "request", trace=trace, span_id=trace.span_id,
                start=clock.start, end=clock.end(), tenant=tenant,
                key=key_name, backend=outcome.backend, batch_size=1,
                replay=True)
        return outcome

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
        # Fail fast, before queueing: the replay resolves the key.
        outcome = self.replay(message, tenant, key_name)
        if outcome is not None:
            return outcome
        if not self.keystore.admit(tenant):
            raise self._rate_limited(tenant)
        trace = clock = None
        if self.tracer is not None:
            trace, clock = self._trace(), SpanClock()
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
                batch_size=outcome.batch_size)
        return outcome

    def _rate_limited(self, tenant: str) -> OverloadedError:
        """Shed a request the tenant's admission budget refused."""
        self.telemetry.record_shed(tenant, "rate-limit")
        _log.warn("request-rate-limited", tenant=tenant)
        return OverloadedError(
            f"tenant {tenant!r} exhausted its admission rate-limit "
            "budget; request shed")

    @staticmethod
    def _trace() -> TraceContext:
        """The root span of a request's trace.  Its id comes from the
        caller's ambient context (the TCP verb layer installs the
        client-sent id there); without one, a fresh trace starts here.
        The context rides the PendingSign as data — the batcher's drain
        task runs in an empty context."""
        incoming = current_trace()
        return TraceContext(incoming.trace_id if incoming is not None
                            else new_trace_id(), new_span_id())

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
    streamed per item.  Each connection is a :class:`_Connection`, which
    serves what it reads in the loop turn it arrived.
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
        self._connections: set[_Connection] = set()

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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
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
        await self._end_connections(lambda transport: transport.close())

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
        await self._end_connections(lambda transport: transport.abort())
        self.service.close()

    async def _end_connections(self, end) -> None:
        """*end* every connection's transport, then wait out the requests
        they were serving."""
        connections = list(self._connections)
        for connection in connections:
            end(connection.transport)
        tasks = [task for connection in connections
                 for task in connection.tasks]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def _inline(self, write: Callable[[bytes], object]):
        """``answer(op, request id, payload) -> handled``, run on a v3
        connection's read turn for every frame but ``hello``, or ``None``
        (every request takes the verb table and a task).  *write* must
        get exactly one reply for each frame answered.  A node answers a
        ``sign`` its service's replay memo remembers; a service surface
        without :meth:`SigningService.replay` answers nothing here."""
        if getattr(self.service, "replay", None) is None:
            return None
        return functools.partial(replay_frame, self.service, write)


class _Connection(protocol.Connection):
    """One client connection of a :class:`SigningServer`.

    Every request is split out of the read buffer in the turn its bytes
    arrived.  A ``hello`` is answered there and then, so the rest of that
    very buffer is read in the dialect it granted; on a v3 connection
    :meth:`SigningServer._inline` may answer a frame there too (a node's
    replay, a router's relay); anything else runs as its own task, so a
    client can pipeline: a slow sign never blocks a ping or stats.

    Flow control: past the transport's write high-water mark the
    connection reads no more requests (``pause_writing`` pauses reading)
    until its replies drain.  After the peer's EOF the transport stays
    open until every request read before it has answered.
    """

    def __init__(self, server: SigningServer):
        super().__init__()
        self.server = server
        self.dialect: protocol.LineDialect | protocol.FrameDialect = \
            protocol.LineDialect()
        self.state = ConnectionState()
        self.tasks: set[asyncio.Task] = set()
        self._loop = asyncio.get_running_loop()
        #: What answers hot frames in the read turn, from a v3 hello.
        self._inline = None
        #: Frames ``_inline`` took and has not answered yet.
        self._owed = 0
        self._reading = True
        self._eof = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)

    def buffer_updated(self, nbytes: int, eof: bool = False) -> None:
        """Serve every request that ``[_start, _end + nbytes)`` holds,
        until writing pauses; at *eof*, the rest too."""
        end = self._end = self._end + nbytes
        view, start = self._view, self._start
        stop = start
        try:
            while start < end and (self._reading or eof):
                request, stop = self.dialect.read_request(view, start, end,
                                                          eof)
                if request is None:
                    break
                start = stop
                op, request_id, body = request
                if op == "hello":
                    self._hello(request_id, body)
                    continue
                if self._inline is not None:
                    self._owed += 1
                    if self._inline(op, request_id, body):
                        continue
                    self._owed -= 1
                if isinstance(body, memoryview):
                    body = body.tobytes()  # read by a task, after this turn
                task = self._loop.create_task(
                    self._serve(self.dialect, op, request_id, body))
                self.tasks.add(task)
                task.add_done_callback(self.tasks.discard)
        except ProtocolError as exc:
            # An oversized line or frame was never read, and a frame
            # shorter than its header cannot be skipped, so the stream
            # cannot be resynchronized: report an oversized one without
            # an id (no request maps to it), read no more, and close.  A
            # peer that dropped mid-frame has nobody left to answer.
            if isinstance(exc, FrameTooLargeError):
                self.transport.write(self.dialect.encode_error(
                    None, protocol.ERROR_PROTOCOL, str(exc)))
            self.transport.pause_reading()
            self._hang_up()
            start = end
        self._start, self._stop = start, stop

    def eof_received(self) -> bool:
        self.buffer_updated(0, eof=True)
        return not self._hang_up()  # kept open until the last answer

    def pause_writing(self) -> None:
        self._reading = False
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._reading = True
        if not self._eof:
            self.transport.resume_reading()
            self.buffer_updated(0)  # what was read before the pause

    def _hello(self, request_id: object, body: object) -> None:
        """Answer a ``hello`` now: a v3 grant flips every byte after it
        to binary frames, the rest of this read too."""
        dialect = self.dialect
        try:
            verb, args = dialect.parse_request(
                "hello", body, self.server.registry, self.state.version)
            self.transport.write(dialect.encode_result(
                "hello", request_id,
                verb.handler(self.server, self.state, args)))
        except Exception as exc:  # noqa: BLE001 — report, keep the conn
            self.transport.write(dialect.encode_error(request_id,
                                                      *error_body(exc)))
            return
        self.dialect = dialect.upgraded(self.state.version)
        if self.dialect.binary and self._inline is None:
            self._inline = self.server._inline(self._answer)

    async def _serve(self, dialect, op: object, request_id: object,
                     body: object) -> None:
        """Serve one request read by *dialect*: typed args in, a typed
        result (or typed error) out, written back in the same dialect."""
        write = self.transport.write
        try:
            verb, args = dialect.parse_request(
                op, body, self.server.registry, self.state.version)
            await dialect.reply(write, verb.name, request_id, args,
                                await verb.handler(self.server, self.state,
                                                   args))
        except Exception as exc:  # noqa: BLE001 — report, don't kill the conn
            write(dialect.encode_error(request_id, *error_body(exc)))

    def _answer(self, data: bytes) -> None:
        """Write what ``_inline`` owed one frame."""
        self.transport.write(data)
        self._owed -= 1
        if self._eof:
            self._done()

    def _hang_up(self) -> bool:
        """Read no more requests: close once every one read has been
        answered.  Whether that is now."""
        if not self._eof:
            self._eof = True
            for task in self.tasks:
                task.add_done_callback(self._done)
        return self._done()

    def _done(self, task: asyncio.Task | None = None) -> bool:
        """After EOF: close once nothing is owed; whether it was."""
        if self._owed or self.tasks:
            return False
        self.transport.close()
        return True
