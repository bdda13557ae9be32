"""Protocol v3: binary framing, streamed sign-many, wire bugfixes.

Covers the v3 codec (round trips, truncation, frame limits), the
``hello`` flip to binary frames, byte-identity between v2 and v3
clients on the same server, the streamed ``sign-many`` contract
(ordering, per-item failures, batch bounds), and the wire-layer
bugfixes that ride along: empty ``sign_many([])`` without wire
traffic, id-less fatal errors reaching pending callers typed, and
overlong-frame handling on both the v2 JSON and v3 binary paths.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_wire_golden import CALLS, GOLDEN, HELLO, StubService

from repro.api import AsyncClient
from repro.errors import (ConnectionLostError, FrameTooLargeError,
                          KeystoreError, ProtocolError)
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed, protocol)
from repro.service.server import _Connection
from repro.sphincs.signer import Sphincs


def make_server(tenants=(("demo", "128f"),), **service_kwargs):
    keystore = Keystore()
    for name, params in tenants:
        keystore.add_tenant(name, params)
        keystore.generate_key(
            name, "default",
            seed=derive_seed(f"{name}/default", get_params(params).n))
    service_kwargs.setdefault("target_batch_size", 2)
    service_kwargs.setdefault("max_wait_s", 0.05)
    service_kwargs.setdefault("deterministic", True)
    return SigningServer(SigningService(keystore, **service_kwargs), port=0)


def run(coro):
    asyncio.run(coro)


# ----------------------------------------------------------------------
# Codec units (no server)
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_frame_roundtrip(self):
        body = protocol.encode_frame(protocol.FRAME_CODES["sign"],
                                     b"payload", id=42,
                                     flags=protocol.FLAG_OK)
        frame = protocol.decode_frame(memoryview(body)[4:])
        assert frame.verb == protocol.FRAME_CODES["sign"]
        assert frame.id == 42
        assert frame.ok is True
        assert bytes(frame.payload) == b"payload"

    def test_sign_request_roundtrip(self):
        payload = protocol.pack_sign_request(
            "acme", "default", b"hello world", 250.0, "0123456789abcdef")
        decoded = protocol.unpack_sign_request(payload)
        assert decoded == {"tenant": "acme", "key": "default",
                           "message": b"hello world",
                           "deadline_ms": 250.0,
                           "trace": "0123456789abcdef"}

    def test_sign_request_defaults(self):
        decoded = protocol.unpack_sign_request(
            protocol.pack_sign_request("t", "", b"m"))
        assert decoded["key"] == "default"
        assert decoded["deadline_ms"] is None
        assert decoded["trace"] is None

    def test_sign_result_roundtrip(self):
        payload = protocol.pack_sign_result(
            b"\x00" * 64, "SPHINCS+-128f", "vectorized", 4, 1.25, 3.5)
        decoded = protocol.unpack_sign_result(payload)
        assert decoded["ok"] is True
        assert decoded["signature"] == b"\x00" * 64
        assert decoded["params"] == "SPHINCS+-128f"
        assert decoded["batch_size"] == 4
        assert decoded["wait_ms"] == 1.25

    def test_verify_roundtrip(self):
        payload = protocol.pack_verify_request("t", "k", b"msg", b"sig")
        decoded = protocol.unpack_verify_request(payload)
        assert decoded["message"] == b"msg"
        assert decoded["signature"] == b"sig"
        result = protocol.unpack_verify_result(
            protocol.pack_verify_result(True, "SPHINCS+-128s"))
        assert result == {"ok": True, "valid": True,
                          "params": "SPHINCS+-128s"}

    def test_sign_many_request_bounds(self):
        with pytest.raises(ProtocolError):
            protocol.pack_sign_many_request("t", "k", [])
        too_many = [b"x"] * (protocol.MAX_SIGN_MANY_V3 + 1)
        with pytest.raises(ProtocolError):
            protocol.pack_sign_many_request("t", "k", too_many)

    def test_sign_many_item_and_end_roundtrip(self):
        index, item = protocol.unpack_sign_many_item(
            protocol.pack_sign_many_item(3, error=("overloaded", "shed")))
        assert index == 3
        assert item["ok"] is False and item["error"] == "overloaded"
        assert protocol.unpack_sign_many_end(
            protocol.pack_sign_many_end(7)) == 7

    def test_error_frame_roundtrip(self):
        decoded = protocol.unpack_error(
            protocol.pack_error("protocol", "bad frame"))
        assert decoded == {"ok": False, "error": "protocol",
                           "detail": "bad frame"}

    def test_truncated_payload_is_a_protocol_error(self):
        payload = protocol.pack_sign_request("acme", "k", b"hello")
        for cut in (0, 1, len(payload) // 2, len(payload) - 1):
            with pytest.raises(ProtocolError):
                protocol.unpack_sign_request(payload[:cut])

    def test_trailing_bytes_are_a_protocol_error(self):
        payload = protocol.pack_verify_result(True, "SPHINCS+-128f")
        with pytest.raises(ProtocolError):
            protocol.unpack_verify_result(payload + b"\x00")

    def test_read_frame_rejects_oversized_declared_length(self):
        # The prefix alone is enough: the body is never waited for.
        prefix = (protocol.FRAME_LIMIT + 1).to_bytes(4, "big")
        for data in (prefix, prefix + b"\x00" * 10):
            with pytest.raises(FrameTooLargeError):
                protocol.read_frame(memoryview(data))

    def test_read_frame_rejects_undersized_declared_length(self):
        data = memoryview((4).to_bytes(4, "big") + b"\x00" * 4)
        with pytest.raises(ProtocolError):
            protocol.read_frame(data, eof=True)

    def test_read_frame_mid_frame_eof_is_a_protocol_error(self):
        body = protocol.encode_frame(protocol.FRAME_CODES["ping"],
                                     b"abcdef", id=1)
        for cut in (2, len(body) - 3):  # in the prefix, in the body
            assert protocol.read_frame(memoryview(body[:cut]))[0] is None
            with pytest.raises(ProtocolError):
                protocol.read_frame(memoryview(body[:cut]), eof=True)

    def test_read_frame_clean_eof_returns_none(self):
        assert protocol.read_frame(memoryview(b""), eof=True) == (None, 0)
        body = protocol.encode_frame(protocol.FRAME_CODES["ping"], id=1)
        frame, stop = protocol.read_frame(memoryview(body), eof=True)
        assert (frame.id, stop) == (1, len(body))
        assert protocol.read_frame(memoryview(body), stop, eof=True) \
            == (None, stop)


class _Transport:
    """What a connection under test writes, and whether it hung up."""

    def __init__(self):
        self.written = bytearray()
        self.reading = True
        self.closed = False

    def write(self, data):
        self.written += data

    def pause_reading(self):
        self.reading = False

    def close(self):
        self.closed = True


def _feed(connection, stream: bytes, cuts) -> None:
    """*stream* into *connection* the way the event loop hands it over:
    one read per chunk between *cuts*, each as much as ``get_buffer``
    has room for."""
    edges = [0, *sorted(set(cuts)), len(stream)]
    for start, stop in zip(edges, edges[1:]):
        while start < stop:
            buffer = connection.get_buffer(-1)
            count = min(len(buffer), stop - start)
            buffer[:count] = stream[start:start + count]
            connection.buffer_updated(count)
            start += count


def _request_stream(dialect: str) -> list[bytes]:
    return [protocol.encode({"op": "hello", "id": 1,
                             "version": HELLO[dialect]}),
            *(request for _, request, _ in GOLDEN[dialect])]


def _reply_stream(dialect: str) -> list[bytes]:
    # A verb without a frame code never leaves a v3 client.
    return [protocol.encode({"ok": True, "op": "hello", "id": 1,
                             "version": HELLO[dialect]}),
            *(response for name, _, response in GOLDEN[dialect]
              if dialect == "v2" or name != "unknown-verb")]


def _server_reads(dialect: str, cuts) -> tuple[list, bytes]:
    """What a server connection fed the golden requests cut at *cuts*
    serves, and what it writes in the read turn (the hello answer)."""
    async def scenario():
        connection = _Connection(SigningServer(StubService()))
        transport = _Transport()
        connection.connection_made(transport)
        served = []

        async def serve(dialect, op, request_id, body):
            served.append((op, request_id, body))

        connection._serve = serve
        _feed(connection, b"".join(_request_stream(dialect)), cuts)
        await asyncio.sleep(0)
        return served, bytes(transport.written)

    return asyncio.run(scenario())


def _client_reads(dialect: str, cuts) -> dict:
    """What a client with the golden calls in flight makes of their
    replies cut at *cuts*: request id -> typed response."""
    async def scenario():
        client = ServiceClient()
        client.connection_made(_Transport())
        loop = asyncio.get_running_loop()
        frames = protocol.FrameDialect()
        if dialect == "v3":  # the calls it sends after the grant
            client._dialect.upgraded = lambda version: frames
        pending = {1: loop.create_future()}
        for name, request, _ in GOLDEN[dialect]:
            if dialect == "v3" and name == "unknown-verb":
                continue
            op, fields, _ = CALLS[name]
            if dialect == "v3":
                request_id = protocol.read_frame(memoryview(request))[0].id
                frames.encode_request(op, request_id, fields)
            else:
                request_id = json.loads(request)["id"]
            pending[request_id] = loop.create_future()
        client._pending.update(pending)
        _feed(client, b"".join(_reply_stream(dialect)), cuts)
        assert client.binary is (dialect == "v3")
        return {request_id: future.result()
                for request_id, future in pending.items()}

    return asyncio.run(scenario())


def _required_cuts(parts: list[bytes]) -> list[list[int]]:
    """The hello line and the first frame in one read; a read that ends
    inside the first frame's length prefix; and inside a later one's."""
    hello, first = len(parts[0]), len(parts[0]) + len(parts[1])
    return [[first], [hello + 2], [first + 1, first + 3]]


class TestSplitting:
    """Both ends parse the golden byte streams exactly as when fed whole,
    however the reads cut them."""

    @pytest.mark.parametrize("dialect", sorted(GOLDEN))
    def test_the_required_cuts(self, dialect):
        whole = (_server_reads(dialect, []), _client_reads(dialect, []))
        for cuts in _required_cuts(_request_stream(dialect)):
            assert _server_reads(dialect, cuts) == whole[0], cuts
        for cuts in _required_cuts(_reply_stream(dialect)):
            assert _client_reads(dialect, cuts) == whole[1], cuts

    @pytest.mark.parametrize("dialect", sorted(GOLDEN))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_cuts(self, dialect, data):
        for stream, reads in ((_request_stream, _server_reads),
                              (_reply_stream, _client_reads)):
            size = len(b"".join(stream(dialect)))
            cuts = data.draw(st.lists(st.integers(1, size - 1),
                                      max_size=24))
            assert reads(dialect, cuts) == reads(dialect, [])

    def test_the_golden_calls_all_parse(self):
        served, written = _server_reads("v3", [])
        assert len(served) == len(GOLDEN["v3"])
        assert json.loads(written)["version"] == 3
        replies = _client_reads("v3", [])
        assert all(isinstance(reply, dict) for reply in replies.values())
        assert replies[4]["results"][1]["error"] == "overloaded"

    def test_a_frame_shorter_than_its_header_hangs_up(self):
        """Nothing after it can be told apart from noise: the server
        serves none of it, reads no more and closes, answering nothing."""
        stream = (protocol.encode({"op": "hello", "id": 1, "version": 3})
                  + (4).to_bytes(4, "big") + bytes(4)
                  + protocol.encode_frame(protocol.FRAME_CODES["ping"], id=2))

        async def scenario():
            connection = _Connection(SigningServer(StubService()))
            transport = _Transport()
            connection.connection_made(transport)
            served = []

            async def serve(dialect, op, request_id, body):
                served.append(op)

            connection._serve = serve
            _feed(connection, stream, [])
            await asyncio.sleep(0)
            return served, transport

        served, transport = asyncio.run(scenario())
        assert served == []
        assert not transport.reading and transport.closed
        assert json.loads(transport.written)["version"] == 3  # hello only

    def test_a_large_frame_grows_the_buffer_and_shrinks_it_back(self):
        message = bytes(3 * protocol.READ_BUFFER)
        stream = [protocol.encode({"op": "hello", "id": 1, "version": 3}),
                  protocol.encode_frame(
                      protocol.FRAME_CODES["sign"],
                      protocol.pack_sign_request("demo", "", message), id=2),
                  protocol.encode_frame(protocol.FRAME_CODES["ping"], id=3)]

        async def scenario():
            connection = _Connection(SigningServer(StubService()))
            connection.connection_made(_Transport())
            served, sizes = [], []

            async def serve(dialect, op, request_id, body):
                served.append((op, request_id))

            connection._serve = serve
            data = b"".join(stream)
            for start in range(0, len(data), 4096):
                _feed(connection, data[start:start + 4096], [])
                sizes.append(len(connection._buffer))
            connection.get_buffer(-1)
            await asyncio.sleep(0)
            return served, sizes, len(connection._buffer)

        served, sizes, rest = asyncio.run(scenario())
        assert served == [("sign", 2), ("ping", 3)]
        assert protocol.READ_BUFFER < max(sizes) < 4 * protocol.READ_BUFFER
        assert rest == protocol.READ_BUFFER


class TestLongErrorDetail:
    """A v3 error detail is cut to 65,535 bytes at a character boundary,
    so the caller gets the server's error, never a decode failure."""

    #: Each cut where the 65,535-byte limit lands: after a whole
    #: character, and inside a two-, three- and four-byte one.
    DETAILS = [("a" * 70_000, "a" * 0xFFFF),
               ("a" * 65534 + "é", "a" * 65534),
               ("a" * 65533 + "€" * 2, "a" * 65533),
               ("a" * 65534 + "\U0001F600", "a" * 65534),
               ("é" * 40_000, "é" * 32767)]

    @staticmethod
    def _error_frame(detail):
        return protocol.unpack_error(
            protocol.pack_error("internal", detail))["detail"]

    @staticmethod
    def _sign_many_item(detail):
        index, item = protocol.unpack_sign_many_item(
            protocol.pack_sign_many_item(3, error=("internal", detail)))
        assert index == 3 and item["error"] == "internal"
        return item["detail"]

    @staticmethod
    def _verify_many_item(detail):
        [item] = protocol.unpack_verify_many_result(
            protocol.pack_verify_many_result([
                {"ok": False, "error": "internal", "detail": detail}]))[
                    "results"]
        return item["detail"]

    @pytest.mark.parametrize("detail, received", DETAILS,
                             ids=["ascii", "cuts-2-byte", "cuts-3-byte",
                                  "cuts-4-byte", "all-2-byte"])
    @pytest.mark.parametrize("codec", ["_error_frame", "_sign_many_item",
                                       "_verify_many_item"])
    def test_cut_at_a_character_boundary(self, codec, detail, received):
        assert getattr(self, codec)(detail) == received

    def test_a_short_detail_is_whole(self):
        assert self._error_frame("naïve € \U0001F600") == "naïve € \U0001F600"


# ----------------------------------------------------------------------
# Negotiation: the hello flip, pins, and the downgrade matrix
# ----------------------------------------------------------------------
class TestNegotiationV3:
    def test_default_connect_negotiates_v3_binary(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                try:
                    info = client.info()
                    assert info.protocol_version == 3
                    assert info.max_batch == protocol.MAX_SIGN_MANY_V3
                    assert client._wire.binary is True
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_v2_pin_stays_on_json_lines(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port,
                                                   version=2)
                try:
                    info = client.info()
                    assert info.protocol_version == 2
                    assert info.max_batch == protocol.MAX_SIGN_MANY
                    assert client._wire.binary is False
                    result = await client.sign("demo", b"pinned")
                    assert Sphincs("128f").verify(
                        b"pinned", result.signature,
                        server.service.keystore.resolve("demo",
                                                        "default")[0].public)
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_future_version_downgrades_to_v3(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port,
                                                   version=9)
                try:
                    assert client.info().protocol_version == 3
                    assert client._wire.binary is True
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_hello_response_is_json_then_frames(self, raw_wire):
        """The hello exchange itself stays a JSON line in both
        directions; only bytes after the v3 grant are frames."""
        async def scenario():
            server = make_server()
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    port=server.port, limit=protocol.LINE_LIMIT)
                try:
                    writer.write(protocol.encode(
                        {"op": "hello", "id": 1, "version": 3}))
                    await writer.drain()
                    hello = json.loads(await reader.readline())
                    assert hello["ok"] is True and hello["version"] == 3
                    assert hello["max_batch"] == protocol.MAX_SIGN_MANY_V3
                    writer.write(protocol.encode_frame(
                        protocol.FRAME_CODES["ping"], id=2))
                    await writer.drain()
                    frame = await asyncio.wait_for(
                        raw_wire(reader).read(protocol.read_frame),
                        timeout=30)
                    assert frame is not None and frame.id == 2
                    assert frame.ok is True
                finally:
                    writer.close()
            finally:
                await server.stop()

        run(scenario())

    def test_binary_connection_rejects_renegotiation_below_v3(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                try:
                    with pytest.raises(ProtocolError,
                                       match="renegotiate"):
                        await client._wire.call("hello", version=2)
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# Hot verbs over frames: byte-identity with v2, typed errors
# ----------------------------------------------------------------------
class TestHotVerbs:
    def test_v2_and_v3_clients_sign_byte_identically(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                v3 = await AsyncClient.connect(port=server.port)
                v2 = await AsyncClient.connect(port=server.port, version=2)
                try:
                    message = b"cross-version determinism"
                    r3 = await v3.sign("demo", message)
                    r2 = await v2.sign("demo", message)
                    assert r3.signature == r2.signature
                    check = await v3.verify("demo", message,
                                            r3.signature)
                    assert check.valid is True
                finally:
                    await v3.close()
                    await v2.close()
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_tenant_is_typed_over_frames(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                try:
                    with pytest.raises(KeystoreError, match="nobody"):
                        await client.sign("nobody", b"x")
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_cold_verbs_ride_json_payload_frames(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                try:
                    assert client._wire.binary is True
                    assert await client.ping() is True
                    stats = await client.stats()
                    assert "batches" in stats
                    assert await client.keys("demo") == ("default",)
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# Streamed sign-many
# ----------------------------------------------------------------------
class TestStreamingSignMany:
    def test_stream_returns_items_in_request_order(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                try:
                    messages = [f"stream {i}".encode() for i in range(5)]
                    items = (await client._wire.call(
                        "sign-many", tenant="demo", key="default",
                        messages=messages))["results"]
                    assert len(items) == 5
                    public = server.service.keystore.resolve(
                        "demo", "default")[0].public
                    signer = Sphincs("128f")
                    for message, item in zip(messages, items):
                        assert item["ok"] is True
                        assert isinstance(item["signature"], bytes)
                        assert signer.verify(message, item["signature"],
                                             public)
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_facade_sign_many_matches_v2_results(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                v3 = await AsyncClient.connect(port=server.port)
                v2 = await AsyncClient.connect(port=server.port, version=2)
                try:
                    messages = [f"batch {i}".encode() for i in range(4)]
                    r3 = await v3.sign_many("demo", messages)
                    r2 = await v2.sign_many("demo", messages)
                    assert [r.signature for r in r3] == \
                        [r.signature for r in r2]
                finally:
                    await v3.close()
                    await v2.close()
            finally:
                await server.stop()

        run(scenario())

    def test_per_item_shed_does_not_discard_siblings(self):
        """A shed request inside a streamed batch comes back as a
        not-ok item; accepted siblings still deliver signatures."""
        async def scenario():
            server = make_server(max_pending=2, max_wait_s=0.2,
                                 target_batch_size=64)
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                try:
                    items = (await client._wire.call(
                        "sign-many", tenant="demo", key="default",
                        messages=[f"m{i}".encode()
                                  for i in range(6)]))["results"]
                    accepted = [i for i in items if i["ok"]]
                    shed = [i for i in items if not i["ok"]]
                    assert len(accepted) == 2
                    assert len(shed) == 4
                    for item in shed:
                        assert item["error"] == protocol.ERROR_OVERLOADED
                    for item in accepted:
                        assert isinstance(item["signature"], bytes)
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_oversized_batch_is_rejected_client_side(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                try:
                    with pytest.raises(ProtocolError):
                        await client._wire.call(
                            "sign-many", tenant="demo", key="default",
                            messages=[b"x"] * (protocol.MAX_SIGN_MANY_V3
                                               + 1))
                    # The connection survives the local rejection.
                    assert await client.ping() is True
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_empty_sign_many_sends_no_wire_traffic(self):
        """Regression: ``sign_many([])`` used to emit a zero-message
        frame the server rejected; it must answer locally instead."""
        async def scenario():
            server = make_server()
            await server.start()
            try:
                for version in (2, 3):
                    client = await AsyncClient.connect(port=server.port,
                                                       version=version)
                    writes = []
                    writer = client._wire.transport
                    write = writer.write
                    writer.write = lambda data: (writes.append(data),
                                                 write(data))
                    try:
                        assert await client.sign_many("demo",
                                                      []) == []
                        assert writes == []
                        assert await client._wire.ping() is True
                        assert len(writes) == 1  # the spy sees a real call
                    finally:
                        await client.close()
            finally:
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# Fatal wire errors: overlong input, id-less errors, in-flight ids
# ----------------------------------------------------------------------
class TestOverlongInput:
    def test_v2_overlong_line_fails_in_flight_requests_typed(self):
        """satellite: an id-less server error must reach the pending
        caller as the server's typed error, not vanish until a generic
        connection-closed surfaces later."""
        async def scenario():
            server = make_server(max_wait_s=0.2, target_batch_size=64)
            await server.start()
            try:
                wire = await ServiceClient.open(port=server.port, version=2)
                assert wire.hello["version"] == 2 and wire.binary is False
                # Pipeline a sign that will still be batching when the
                # poison line lands.
                pending = asyncio.ensure_future(
                    wire.call("sign", tenant="demo", message=b"in flight"))
                await asyncio.sleep(0.02)
                wire.transport.write(
                    b"x" * (protocol.LINE_LIMIT + 1) + b"\n")
                with pytest.raises(ProtocolError, match="line too long"):
                    await pending
                # Later requests name the cause and the unanswered ids.
                with pytest.raises(ConnectionLostError) as excinfo:
                    await wire.ping()
                assert excinfo.value.in_flight == (2,)
                assert "line too long" in str(excinfo.value)
                await wire.close()
            finally:
                await server.stop()

        run(scenario())

    def test_v3_overlong_frame_fails_in_flight_requests_typed(self):
        async def scenario():
            server = make_server(max_wait_s=0.2, target_batch_size=64)
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                wire = client._wire
                assert wire.binary is True
                pending = asyncio.ensure_future(wire.call(
                    "sign", tenant="demo", key="default",
                    message=b"in flight"))
                await asyncio.sleep(0.02)
                # A frame whose declared length exceeds FRAME_LIMIT:
                # the server answers with an id-0 error frame, closes.
                wire.transport.write(
                    (protocol.FRAME_LIMIT + 1).to_bytes(4, "big")
                    + b"\x00" * 10)
                with pytest.raises(ProtocolError, match="frame limit"):
                    await pending
                with pytest.raises(ConnectionLostError) as excinfo:
                    await wire.ping()
                assert excinfo.value.in_flight == (2,)
                await client.close()
            finally:
                await server.stop()

        run(scenario())

    def test_v3_overlong_frame_fails_open_streams(self):
        async def scenario():
            server = make_server(max_wait_s=0.5, target_batch_size=64)
            await server.start()
            try:
                client = await AsyncClient.connect(port=server.port)
                wire = client._wire
                stream = asyncio.ensure_future(
                    wire.call("sign-many", tenant="demo", key="default",
                              messages=[b"a", b"b", b"c"]))
                await asyncio.sleep(0.02)
                wire.transport.write(
                    (protocol.FRAME_LIMIT + 1).to_bytes(4, "big")
                    + b"\x00" * 10)
                with pytest.raises(ProtocolError, match="frame limit"):
                    await stream
                await client.close()
            finally:
                await server.stop()

        run(scenario())
