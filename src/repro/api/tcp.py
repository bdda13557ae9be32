"""The TCP transports: typed clients over the wire protocol.

:class:`AsyncClient` is the asyncio-native typed client: it wraps the
wire-level :class:`~repro.service.client.ServiceClient` (pipelined
frames, id matching, the ``hello`` handshake), keeps the negotiated
capabilities, chunks ``sign_many`` into ``max_batch`` frames, and
returns the same typed results as every other transport.  By default
it offers protocol v3 — zero-copy binary frames with streamed
``sign-many`` results — and transparently downgrades to the v2 JSON
lines against an older server; the typed surface is identical either
way.

:class:`TcpClient` is the synchronous facade for non-async callers: it
runs an :class:`AsyncClient` on a dedicated background event loop thread
and bridges each call with ``run_coroutine_threadsafe`` — so
``client.sign(...)`` blocks exactly like the local transport while the
socket stays pipelined underneath.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Sequence

from ..errors import ProtocolError, ServiceError
from ..obs.trace import (SpanClock, TraceContext, Tracer, current_trace,
                         start_trace)
from ..service import protocol
from ..service.client import ServiceClient
from .base import SigningClient
from .model import (ServiceInfo, SignRequest, SignResult, VerifyRequest,
                    VerifyResult)

__all__ = ["AsyncClient", "TcpClient"]


def _sign_result(response: dict, request: SignRequest,
                 transport: str = "tcp") -> SignResult:
    return SignResult(
        signature=response["signature"],
        tenant=request.tenant, key=request.key,
        params=response["params"], backend=response["backend"],
        batch_size=response["batch_size"],
        wait_ms=response["wait_ms"], total_ms=response["total_ms"],
        transport=transport,
    )


def _ok_items(chunks: list[list], responses: list[dict]):
    """``(request, ok item)`` pairs in request order; the first failed
    item raises its typed error."""
    for chunk, response in zip(chunks, responses):
        for request, item in zip(chunk, response["results"]):
            if not item.get("ok"):
                raise protocol.error_type(item.get("error"))(
                    item.get("detail", "batch item failed"))
            yield request, item


class AsyncClient:
    """Typed asyncio client over protocol v3 (or the v2 downgrade).

    Construct with :meth:`connect`, which negotiates the protocol
    version (a refused handshake raises :class:`UnsupportedVersionError`).
    On a v3 grant the wire client flips to binary frames automatically —
    sign/verify ride the zero-copy codec and ``sign_many`` streams per
    item.  The negotiated capabilities are available as :meth:`info`
    without a round trip.
    """

    transport = "tcp"

    def __init__(self, wire: ServiceClient, info: ServiceInfo,
                 trace_ok: bool = False, tracer: Tracer | None = None):
        self._wire = wire
        self._info = info
        # Whether the server's hello advertised the trace capability.
        # Kept private (not on the frozen ServiceInfo): it gates what
        # this client *sends*, it is not part of the typed result surface.
        self._trace_ok = trace_ok
        self._tracer = tracer

    @classmethod
    async def connect(cls, host: str = "127.0.0.1", port: int = 7744,
                      version: int = protocol.PROTOCOL_VERSION,
                      tracer: Tracer | None = None) -> "AsyncClient":
        wire = await ServiceClient.open(host, port, version=version)
        hello = wire.hello
        info = ServiceInfo(
            transport=cls.transport,
            server=hello.get("server", "unknown"),
            protocol_version=hello["version"],
            verbs=tuple(hello.get("verbs", ())),
            backend=hello.get("backend", "unknown"),
            workers=hello.get("workers", 0),
            max_batch=hello.get("max_batch"),
            parameter_sets=tuple(hello.get("parameter_sets", ())),
        )
        return cls(wire, info, trace_ok=bool(hello.get("trace")),
                   tracer=tracer)

    # ------------------------------------------------------------------
    # Typed API (mirrors the sync SigningClient surface)
    # ------------------------------------------------------------------
    async def sign(self, tenant: str, message: bytes, key: str = "default",
                   deadline_ms: float | None = None) -> SignResult:
        return await self._sign(SignRequest(tenant=tenant, message=message,
                                            key=key,
                                            deadline_ms=deadline_ms))

    async def sign_many(self, tenant: str, messages: Sequence[bytes],
                        key: str = "default",
                        deadline_ms: float | None = None
                        ) -> list[SignResult]:
        requests = [SignRequest(tenant=tenant, message=message, key=key,
                                deadline_ms=deadline_ms)
                    for message in messages]
        return await self._sign_many(requests) if requests else []

    async def verify(self, tenant: str, message: bytes, signature: bytes,
                     key: str = "default") -> VerifyResult:
        return await self._verify(VerifyRequest(
            tenant=tenant, message=message, signature=signature, key=key))

    async def verify_many(self, tenant: str, messages: Sequence[bytes],
                          signatures: Sequence[bytes],
                          key: str = "default") -> list[VerifyResult]:
        if len(messages) != len(signatures):
            raise ValueError(
                f"verify_many pairs each message with a signature: got "
                f"{len(messages)} messages, {len(signatures)} signatures")
        requests = [VerifyRequest(tenant=tenant, message=message,
                                  signature=signature, key=key)
                    for message, signature in zip(messages, signatures)]
        return await self._verify_many(requests) if requests else []

    def info(self) -> ServiceInfo:
        """The capabilities negotiated at connect time."""
        return self._info

    async def keys(self, tenant: str) -> tuple[str, ...]:
        return tuple((await self._wire.call("keys", tenant=tenant))["keys"])

    async def ping(self) -> bool:
        return await self._wire.ping()

    async def stats(self) -> dict:
        return await self._wire.stats()

    async def close(self) -> None:
        await self._wire.close()

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Transport primitives (request-object level, shared with TcpClient)
    # ------------------------------------------------------------------
    def _check_frame_fit(self, message: bytes, extra: int = 0) -> None:
        """Reject payloads whose frame would overflow the server's wire
        limit *before* writing — an oversized frame is answered with an
        unmatchable error and costs the whole connection.  ``extra``
        counts other raw binary riding the same frame (a verify frame
        carries the signature next to the message)."""
        budget = self._wire.message_budget
        if len(message) + extra > budget:
            raise ProtocolError(
                f"message of {len(message)} bytes exceeds the wire "
                f"frame bound ({budget - extra} "
                "bytes for this verb); sign a digest instead, or use "
                "the local transport"
            )

    def _trace_for_frame(self) -> TraceContext | None:
        """The trace context this frame should carry, if any.

        Only when the server advertised the capability: the ambient
        context wins (a caller already inside a trace), else a client
        tracer starts a fresh root trace per frame.
        """
        if not self._trace_ok:
            return None
        ctx = current_trace()
        if ctx is None and self._tracer is not None:
            ctx = start_trace()
        return ctx

    async def _sign(self, request: SignRequest) -> SignResult:
        self._check_frame_fit(request.message)
        ctx = self._trace_for_frame()
        clock = SpanClock()
        response = await self._wire.call(
            "sign", tenant=request.tenant, key=request.key,
            message=request.message, deadline_ms=request.deadline_ms,
            trace=ctx.trace_id if ctx is not None else None)
        if ctx is not None and self._tracer is not None:
            self._tracer.record_span(
                "client-request", trace=ctx, span_id=ctx.span_id,
                start=clock.start, end=clock.end(),
                tenant=request.tenant, key=request.key)
        return _sign_result(response, request, transport=self.transport)

    def _chunk(self, requests: Sequence, size) -> list[list]:
        """Chunk greedily by both the server's max_batch and the frame's
        byte budget (many large messages must not overflow one frame;
        ``size(request)`` is the raw binary a request adds to it).
        Frames pipeline on one socket, so chunking costs latency only
        when the server is the bottleneck.  Never emits an empty chunk —
        an empty batch means no chunks, and therefore no wire traffic
        (a zero-message frame is a protocol error).
        """
        limit = self._info.max_batch or len(requests)
        budget = self._wire.message_budget
        chunks: list[list] = []
        chunk_bytes = 0
        for request in requests:
            nbytes = size(request)
            if not chunks or len(chunks[-1]) >= limit \
                    or chunk_bytes + nbytes > budget:
                chunks.append([])
                chunk_bytes = 0
            chunks[-1].append(request)
            chunk_bytes += nbytes
        return chunks

    async def _sign_many(self, requests: Sequence[SignRequest]
                         ) -> list[SignResult]:
        for request in requests:
            self._check_frame_fit(request.message)
        chunks = self._chunk(requests,
                             lambda request: len(request.message))
        contexts = [self._trace_for_frame() for _ in chunks]
        clock = SpanClock()
        responses = await asyncio.gather(*(
            self._wire.call(
                "sign-many", tenant=chunk[0].tenant, key=chunk[0].key,
                messages=[request.message for request in chunk],
                deadline_ms=chunk[0].deadline_ms,
                trace=ctx.trace_id if ctx is not None else None)
            for chunk, ctx in zip(chunks, contexts)))
        if self._tracer is not None:
            ended = clock.end()
            for chunk, ctx in zip(chunks, contexts):
                if ctx is not None:
                    self._tracer.record_span(
                        "client-request", trace=ctx, span_id=ctx.span_id,
                        start=clock.start, end=ended,
                        tenant=chunk[0].tenant, key=chunk[0].key,
                        batch_size=len(chunk))
        return [_sign_result(item, request, transport=self.transport)
                for request, item in _ok_items(chunks, responses)]

    async def _verify(self, request: VerifyRequest) -> VerifyResult:
        self._check_frame_fit(request.message,
                              extra=len(request.signature))
        response = await self._wire.call(
            "verify", tenant=request.tenant, key=request.key,
            message=request.message, signature=request.signature)
        return VerifyResult(valid=response["valid"], tenant=request.tenant,
                            key=request.key, params=response["params"],
                            transport=self.transport)

    async def _verify_many(self, requests: Sequence[VerifyRequest]
                           ) -> list[VerifyResult]:
        for request in requests:
            self._check_frame_fit(request.message,
                                  extra=len(request.signature))
        # The byte budget counts both halves of each pair — message and
        # signature ride the same frame.
        chunks = self._chunk(
            requests, lambda request: (len(request.message)
                                       + len(request.signature)))
        responses = await asyncio.gather(*(
            self._wire.call(
                "verify-many", tenant=chunk[0].tenant, key=chunk[0].key,
                messages=[request.message for request in chunk],
                signatures=[request.signature for request in chunk])
            for chunk in chunks))
        return [VerifyResult(valid=item["valid"], tenant=request.tenant,
                             key=request.key, params=item["params"],
                             transport=self.transport)
                for request, item in _ok_items(chunks, responses)]


class TcpClient(SigningClient):
    """Synchronous typed client over TCP.

    Owns a daemon thread running a private event loop that hosts an
    :class:`AsyncClient`; every call bridges onto it and blocks for the
    result.  ``timeout`` bounds each bridged call (None = wait forever —
    the -s parameter sets sign in seconds, not milliseconds).
    """

    transport = "tcp"
    #: The async client class this facade hosts — subclasses (the
    #: cluster transport) swap it without reimplementing the bridging.
    _async_cls: type[AsyncClient] = AsyncClient

    def __init__(self, client: AsyncClient, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, timeout: float | None = 600.0):
        self._client = client
        self._loop = loop
        self._thread = thread
        self.timeout = timeout
        self._closed = False

    @classmethod
    def connect(cls, host: str = "127.0.0.1", port: int = 7744,
                version: int = protocol.PROTOCOL_VERSION,
                timeout: float | None = 600.0) -> "TcpClient":
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever,
                                  name="repro-api-tcp", daemon=True)
        thread.start()
        try:
            client = asyncio.run_coroutine_threadsafe(
                cls._async_cls.connect(host, port, version=version),
                loop).result(timeout)
        except BaseException:
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
            loop.close()
            raise
        return cls(client, loop, thread, timeout=timeout)

    def _call(self, coroutine):
        if self._closed:
            coroutine.close()  # never scheduled; silence the RuntimeWarning
            raise ServiceError("client closed; reconnect to continue")
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop).result(self.timeout)

    # ------------------------------------------------------------------
    def _sign(self, request: SignRequest) -> SignResult:
        return self._call(self._client._sign(request))

    def _sign_many(self,
                   requests: Sequence[SignRequest]) -> list[SignResult]:
        return self._call(self._client._sign_many(requests))

    def _verify(self, request: VerifyRequest) -> VerifyResult:
        return self._call(self._client._verify(request))

    def _verify_many(self, requests: Sequence[VerifyRequest]
                     ) -> list[VerifyResult]:
        return self._call(self._client._verify_many(requests))

    def info(self) -> ServiceInfo:
        return self._client.info()

    def keys(self, tenant: str) -> tuple[str, ...]:
        return self._call(self._client.keys(tenant))

    def ping(self) -> bool:
        return self._call(self._client.ping())

    def stats(self) -> dict:
        return self._call(self._client.stats())

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._call(self._client.close())
        finally:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()
