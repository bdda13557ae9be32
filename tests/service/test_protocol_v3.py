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

from repro.api import AsyncClient
from repro.errors import (ConnectionLostError, FrameTooLargeError,
                          KeystoreError, ProtocolError)
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed, protocol)
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
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data((protocol.FRAME_LIMIT + 1).to_bytes(4, "big"))
            reader.feed_data(b"\x00" * 10)
            with pytest.raises(FrameTooLargeError):
                await protocol.read_frame(reader)

        run(scenario())

    def test_read_frame_rejects_undersized_declared_length(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data((4).to_bytes(4, "big") + b"\x00" * 4)
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await protocol.read_frame(reader)

        run(scenario())

    def test_read_frame_mid_frame_eof_is_a_protocol_error(self):
        async def scenario():
            body = protocol.encode_frame(protocol.FRAME_CODES["ping"],
                                         b"abcdef", id=1)
            reader = asyncio.StreamReader()
            reader.feed_data(body[:-3])
            reader.feed_eof()
            with pytest.raises(ProtocolError):
                await protocol.read_frame(reader)

        run(scenario())

    def test_read_frame_clean_eof_returns_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            assert await protocol.read_frame(reader) is None

        run(scenario())


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

    def test_hello_response_is_json_then_frames(self):
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
                        protocol.read_frame(reader), timeout=30)
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
                    writer = client._wire._writer
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
                wire._writer.write(b"x" * (protocol.LINE_LIMIT + 1) + b"\n")
                await wire._writer.drain()
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
                wire._writer.write(
                    (protocol.FRAME_LIMIT + 1).to_bytes(4, "big")
                    + b"\x00" * 10)
                await wire._writer.drain()
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
                wire._writer.write(
                    (protocol.FRAME_LIMIT + 1).to_bytes(4, "big")
                    + b"\x00" * 10)
                await wire._writer.drain()
                with pytest.raises(ProtocolError, match="frame limit"):
                    await stream
                await client.close()
            finally:
                await server.stop()

        run(scenario())
