"""Service error paths: shed, unknown tenant/key, hostile frames, restart.

Satellite coverage for the conformance PR: every failure mode a client
can provoke must come back as a *structured* response (stable ``error``
code) or a typed exception — and a client must be able to reconnect and
resume after the server restarts.
"""

import asyncio
import json

import pytest

from repro.api import AsyncClient
from repro.cluster import RouterService
from repro.errors import (ConnectionLostError, KeystoreError,
                          NodeUnavailableError, OverloadedError,
                          ServiceError)
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed, protocol)
from repro.service import client as client_module
from repro.sphincs.signer import Sphincs


def make_service(**kwargs):
    keystore = Keystore()
    keystore.add_tenant("demo", "128f")
    keystore.generate_key("demo", "default",
                          seed=derive_seed("demo/default",
                                           get_params("128f").n))
    kwargs.setdefault("target_batch_size", 2)
    kwargs.setdefault("max_wait_s", 0.05)
    kwargs.setdefault("deterministic", True)
    return SigningService(keystore, **kwargs)


def sign(client, message):
    return client.call("sign", tenant="demo", key="default",
                       message=message)


class TestOverload:
    def test_max_pending_sheds_with_structured_response(self):
        async def scenario():
            service = make_service(target_batch_size=64, max_wait_s=10.0,
                                   max_pending=2)
            server = SigningServer(service, port=0)
            await server.start()
            client = await ServiceClient.open(port=server.port)
            try:
                queued = [asyncio.ensure_future(sign(client, b"q0")),
                          asyncio.ensure_future(sign(client, b"q1"))]
                # The first ships at once (the signer is idle), the
                # second queues behind it: two requests outstanding.
                for _ in range(200):
                    if (service.batcher.pending
                            + service.batcher.in_flight) >= 2:
                        break
                    await asyncio.sleep(0.001)
                # The watermark is reached: the next request sheds with
                # the stable machine-readable code, not a hang.
                with pytest.raises(OverloadedError, match="shed"):
                    await asyncio.wait_for(sign(client, b"q2"),
                                           timeout=10)
                assert service.telemetry.snapshot()[
                    "tenants"]["demo"]["shed"] == 1
                await service.drain()
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*queued), timeout=60)
                assert all(o["batch_size"] == 1 for o in outcomes)
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestUnknownPrincipals:
    def test_unknown_tenant_and_key_codes(self):
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port, limit=protocol.LINE_LIMIT)
            try:
                writer.write(protocol.encode(
                    {"op": "hello", "id": 0, "version": 2}))
                assert json.loads(await reader.readline())["ok"] is True
                for request, expect_detail in (
                        ({"op": "sign", "id": 1, "tenant": "ghost",
                          "message": "aGk="}, "unknown tenant"),
                        ({"op": "sign", "id": 2, "tenant": "demo",
                          "key": "hsm-9", "message": "aGk="}, "no key"),
                ):
                    writer.write(protocol.encode(request))
                    await writer.drain()
                    response = json.loads(await asyncio.wait_for(
                        reader.readline(), timeout=10))
                    assert response["ok"] is False
                    assert response["error"] == protocol.ERROR_UNKNOWN_KEY
                    assert expect_detail in response["detail"]
                    assert response["id"] == request["id"]
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())

    def test_shed_and_unknown_never_touch_the_queue(self):
        async def scenario():
            service = make_service(max_pending=1)
            with pytest.raises(KeystoreError):
                await service.sign(b"x", "ghost")
            assert service.batcher.pending == 0
            service.close()

        asyncio.run(scenario())


class TestHostileFrames:
    def test_oversized_frame_gets_error_then_close(self):
        """A line beyond LINE_LIMIT cannot be parsed incrementally; the
        server must answer with a structured protocol error and close —
        not hang, not crash."""
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port, limit=protocol.LINE_LIMIT)
            try:
                writer.write(b"\x20" * (protocol.LINE_LIMIT + 4096) + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                response = json.loads(line)
                assert response["ok"] is False
                assert response["error"] == protocol.ERROR_PROTOCOL
                assert "too long" in response["detail"]
                # Server closes its end afterwards: EOF, not a hang.
                assert await asyncio.wait_for(reader.read(),
                                              timeout=10) == b""
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())

    def test_garbage_bytes_between_valid_requests(self):
        async def scenario():
            service = make_service(target_batch_size=1)
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port, limit=protocol.LINE_LIMIT)
            try:
                writer.write(protocol.encode(
                    {"op": "hello", "id": 0, "version": 2}))
                assert json.loads(await reader.readline())["ok"] is True
                writer.write(b"\xde\xad\xbe\xef garbage\n")
                writer.write(protocol.encode(
                    {"op": "sign", "id": 7, "tenant": "demo",
                     "message": protocol.pack_bytes(b"after garbage")}))
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(),
                                                      timeout=30))
                    for _ in range(2)]
                by_ok = sorted(responses, key=lambda r: r["ok"])
                assert by_ok[0]["error"] == protocol.ERROR_PROTOCOL
                assert by_ok[1]["id"] == 7
                keys, params = service.keystore.resolve("demo")
                assert Sphincs(params).verify(
                    b"after garbage",
                    protocol.unpack_bytes(by_ok[1]["signature"]),
                    keys.public)
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())


class TestConnectionLost:
    def test_mid_pipeline_drop_is_typed_and_names_in_flight_ids(self):
        """A server closing mid-pipeline must surface as one typed
        ConnectionLostError on every unanswered request — carrying the
        wire ids still in flight, never a bare ConnectionResetError or
        IncompleteReadError — and a reconnect resumes signing."""
        async def scenario():
            async def rude_server(reader, writer):
                # Read the pipelined requests, answer none, drop the line.
                for _ in range(3):
                    await reader.readline()
                writer.close()

            stub = await asyncio.start_server(rude_server, "127.0.0.1", 0)
            port = stub.sockets[0].getsockname()[1]
            client = ServiceClient(*await asyncio.open_connection(
                port=port, limit=protocol.LINE_LIMIT))
            pipelined = [asyncio.ensure_future(
                sign(client, f"m{i}".encode())) for i in range(3)]
            outcomes = await asyncio.wait_for(
                asyncio.gather(*pipelined, return_exceptions=True),
                timeout=30)
            assert all(isinstance(o, ConnectionLostError)
                       for o in outcomes)
            # Every unanswered wire id is reported, on each failure.
            for outcome in outcomes:
                assert outcome.in_flight == (1, 2, 3)
                assert "in flight" in str(outcome)
            # New requests on the dead connection fail fast and typed.
            with pytest.raises(ConnectionLostError, match="reconnect"):
                await client.ping()
            await client.close()
            stub.close()
            await stub.wait_closed()

            # Reconnecting against a real server resumes service; the
            # caller decides per in-flight id what to resubmit.
            server = SigningServer(make_service(target_batch_size=1),
                                   port=0)
            await server.start()
            fresh = await ServiceClient.open(port=server.port)
            try:
                response = await asyncio.wait_for(
                    sign(fresh, b"m0"), timeout=60)
                keys, params = server.service.keystore.resolve("demo")
                assert Sphincs(params).verify(b"m0", response["signature"],
                                              keys.public)
            finally:
                await fresh.close()
                await server.stop()

        asyncio.run(scenario())

    def test_reset_mid_read_maps_to_connection_lost(self):
        """An abortive close (RST while a response is owed) must map the
        stdlib ConnectionResetError to the typed error."""
        async def scenario():
            async def resetting_server(reader, writer):
                await reader.readline()
                socket_obj = writer.get_extra_info("socket")
                # SO_LINGER 0: close() sends RST instead of FIN.
                import socket as socket_module
                import struct

                socket_obj.setsockopt(
                    socket_module.SOL_SOCKET, socket_module.SO_LINGER,
                    struct.pack("ii", 1, 0))
                writer.close()

            stub = await asyncio.start_server(resetting_server,
                                              "127.0.0.1", 0)
            port = stub.sockets[0].getsockname()[1]
            client = ServiceClient(*await asyncio.open_connection(
                port=port, limit=protocol.LINE_LIMIT))
            with pytest.raises(ConnectionLostError) as excinfo:
                await asyncio.wait_for(sign(client, b"m"),
                                       timeout=30)
            assert excinfo.value.in_flight == (1,)
            await client.close()
            stub.close()
            await stub.wait_closed()

        asyncio.run(scenario())


class TestRestart:
    def test_client_reconnects_after_server_restart(self):
        async def scenario():
            service = make_service(target_batch_size=1)
            server = SigningServer(service, port=0)
            await server.start()
            port = server.port
            client = await ServiceClient.open(port=port)
            first = await asyncio.wait_for(sign(client, b"gen-1"),
                                           timeout=60)
            await server.stop()
            # The old connection fails fast with a typed error...
            await asyncio.wait_for(asyncio.shield(client._read_task),
                                   timeout=5)
            with pytest.raises(ServiceError, match="connection closed"):
                await client.ping()
            await client.close()
            # ... and a reconnect against the restarted server (same
            # port, same keystore) resumes byte-identical signing.
            restarted = SigningServer(make_service(target_batch_size=1),
                                      port=port)
            await restarted.start()
            client = await ServiceClient.open(port=port)
            try:
                second = await asyncio.wait_for(
                    sign(client, b"gen-1"), timeout=60)
                assert second["signature"] == first["signature"]
            finally:
                await client.close()
                await restarted.stop()

        asyncio.run(scenario())


class TestUnreachablePeer:
    """A peer that drops the SYN: the connect itself is inside the
    ``HELLO_TIMEOUT_S`` bound, so the kernel's minutes-long connect
    timeout never reaches the caller."""

    @staticmethod
    def hang_connects(monkeypatch):
        async def never_connects(*args, **kwargs):
            await asyncio.Event().wait()
        monkeypatch.setattr(client_module, "HELLO_TIMEOUT_S", 0.2)
        monkeypatch.setattr(asyncio, "open_connection", never_connects)

    def test_async_client_connect_times_out_typed(self, monkeypatch):
        self.hang_connects(monkeypatch)

        async def scenario():
            started = asyncio.get_running_loop().time()
            with pytest.raises(ConnectionLostError,
                               match="127.0.0.1:7744 did not accept"):
                await asyncio.wait_for(AsyncClient.connect(), timeout=2)
            assert asyncio.get_running_loop().time() - started < 2

        asyncio.run(scenario())

    def test_router_forward_times_out_typed(self, monkeypatch):
        self.hang_connects(monkeypatch)

        async def scenario():
            router = RouterService([("127.0.0.1", 9)],
                                   make_service().keystore,
                                   max_retries=0, health_interval_s=60)
            try:
                started = asyncio.get_running_loop().time()
                with pytest.raises(NodeUnavailableError,
                                   match="127.0.0.1:9 did not accept"):
                    await asyncio.wait_for(router.sign(b"m", "demo"),
                                           timeout=2)
                assert asyncio.get_running_loop().time() - started < 2
            finally:
                await router.aclose()

        asyncio.run(scenario())


class TestSilentPeer:
    """A peer that accepts TCP but never answers ``hello`` must cost a
    bounded wait and a typed error, never a hang — and the socket must
    be closed, not leaked."""

    @staticmethod
    async def silent_server():
        closed = asyncio.Event()

        async def read_only(reader, writer):
            await reader.read()  # never writes; returns at the peer's EOF
            closed.set()
            writer.close()

        server = await asyncio.start_server(read_only, "127.0.0.1", 0)
        return server, server.sockets[0].getsockname()[1], closed

    def test_async_client_connect_times_out_typed(self, monkeypatch):
        monkeypatch.setattr(client_module, "HELLO_TIMEOUT_S", 0.2)

        async def scenario():
            server, port, closed = await self.silent_server()
            try:
                started = asyncio.get_running_loop().time()
                with pytest.raises(ConnectionLostError,
                                   match=f"127.0.0.1:{port}.*hello"):
                    await asyncio.wait_for(
                        AsyncClient.connect(port=port), timeout=2)
                assert asyncio.get_running_loop().time() - started < 2
                await asyncio.wait_for(closed.wait(), timeout=2)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_router_node_times_out_typed(self, monkeypatch):
        monkeypatch.setattr(client_module, "HELLO_TIMEOUT_S", 0.2)

        async def scenario():
            server, port, closed = await self.silent_server()
            router = RouterService([("127.0.0.1", port)],
                                   make_service().keystore,
                                   max_retries=0, health_interval_s=60)
            try:
                # Not started: the node is optimistically up, so the
                # forward itself dials it (_forward -> _wire -> _connect).
                started = asyncio.get_running_loop().time()
                with pytest.raises(NodeUnavailableError,
                                   match=f"127.0.0.1:{port}.*hello"):
                    await asyncio.wait_for(router.sign(b"m", "demo"),
                                           timeout=2)
                assert asyncio.get_running_loop().time() - started < 2
                await asyncio.wait_for(closed.wait(), timeout=2)
            finally:
                await router.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
