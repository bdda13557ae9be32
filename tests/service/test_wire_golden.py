"""Golden wire bytes: every request and response, pinned.

The literals below were captured from the encoders as they stood before
requests became typed values end to end (``ServiceClient.call``, one
handler per verb): the old clients drove the old server through a byte
tap, against the deterministic stub service defined here.  They are the
proof that a refactor of the codecs, the verb handlers or the read loops
moved no byte — a reordered JSON key, a changed echo field or a
re-laid-out frame fails here first.

Each case is checked from both ends: the real server, fed the pinned
request over a raw socket, must answer the pinned response; and the
real client, asked for the same call, must write the pinned request
and decode the pinned response into the same typed result (or typed
error) in every dialect.  A last test drops the pins and the stub:
two live connections (v2, v3) to one real signing server must get
equal typed results from ``call`` for every verb.
"""

import asyncio
import json

import pytest

from repro.errors import (KeystoreError, OverloadedError, ProtocolError,
                          UnknownVerbError)
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed, protocol)
from repro.service.server import SignOutcome

SIGNED = {"ok": True, "params": "SPHINCS+-128f", "backend": "stub",
          "batch_size": 2, "wait_ms": 1.5, "total_ms": 2.25}
SHED = {"ok": False, "error": "overloaded",
        "detail": "queue depth 2 at watermark 2; request shed"}
VERIFIED = {"ok": True, "params": "SPHINCS+-128f"}

#: name -> (op, typed fields, typed result or the error type raised).
CALLS = {
    "sign": ("sign", dict(tenant="demo", key="default",
                          message=b"payment #1", deadline_ms=250.0),
             {**SIGNED, "signature": b"SIG:payment #1"}),
    "sign+trace": ("sign", dict(tenant="demo", key="default", message=b"t",
                                trace="9f3a"),
                   {**SIGNED, "signature": b"SIG:t"}),
    "verify": ("verify", dict(tenant="demo", key="default",
                              message=b"payment #1",
                              signature=b"SIG:payment #1"),
               {**VERIFIED, "valid": True}),
    "sign-many": ("sign-many", dict(tenant="demo", key="default",
                                    messages=[b"slow", b"shed"]),
                  {"ok": True, "results": [
                      {**SIGNED, "signature": b"SIG:slow"}, SHED]}),
    "sign-many+trace": ("sign-many", dict(tenant="demo", key="default",
                                          messages=[b"t"], trace="9f3a"),
                        {"ok": True, "results": [
                            {**SIGNED, "signature": b"SIG:t"}]}),
    "verify-many": ("verify-many", dict(tenant="demo", key="default",
                                        messages=[b"a", b"b"],
                                        signatures=[b"SIG:a", b"bogus"]),
                    {"ok": True, "results": [{**VERIFIED, "valid": True},
                                             {**VERIFIED, "valid": False}]}),
    "keys": ("keys", dict(tenant="demo"),
             {"ok": True, "op": "keys", "tenant": "demo",
              "params": "SPHINCS+-128f", "keys": ["default"]}),
    "ping": ("ping", {}, {"ok": True, "op": "ping"}),
    "unknown-verb": ("frobnicate", {}, UnknownVerbError),
    "unknown-tenant": ("sign", dict(tenant="nobody", key="default",
                                    message=b"x"), KeystoreError),
}

#: dialect -> [(name, request bytes, response bytes)], in the order one
#: connection sent them (ids count up; a hello took id 1).
GOLDEN = {
    "v2": [
        ("sign",
         b'{"op":"sign","tenant":"demo","key":"default","message":"cGF5bWVudCAjMQ==","deadline_ms":250.0,"id":2}\n',
         b'{"ok":true,"op":"sign","signature":"U0lHOnBheW1lbnQgIzE=","params":"SPHINCS+-128f","backend":"stub","batch_size":2,"wait_ms":1.5,"total_ms":2.25,"id":2}\n'),
        ("verify",
         b'{"op":"verify","tenant":"demo","key":"default","message":"cGF5bWVudCAjMQ==","signature":"U0lHOnBheW1lbnQgIzE=","id":3}\n',
         b'{"ok":true,"op":"verify","valid":true,"params":"SPHINCS+-128f","id":3}\n'),
        ("sign-many",
         b'{"op":"sign-many","tenant":"demo","key":"default","messages":["c2xvdw==","c2hlZA=="],"id":4}\n',
         b'{"ok":true,"op":"sign-many","tenant":"demo","key":"default","results":[{"ok":true,"signature":"U0lHOnNsb3c=","params":"SPHINCS+-128f","backend":"stub","batch_size":2,"wait_ms":1.5,"total_ms":2.25},{"ok":false,"error":"overloaded","detail":"queue depth 2 at watermark 2; request shed"}],"id":4}\n'),
        ("verify-many",
         b'{"op":"verify-many","tenant":"demo","key":"default","messages":["YQ==","Yg=="],"signatures":["U0lHOmE=","Ym9ndXM="],"id":5}\n',
         b'{"ok":true,"op":"verify-many","tenant":"demo","key":"default","results":[{"ok":true,"valid":true,"params":"SPHINCS+-128f"},{"ok":true,"valid":false,"params":"SPHINCS+-128f"}],"id":5}\n'),
        ("keys",
         b'{"op":"keys","tenant":"demo","id":6}\n',
         b'{"ok":true,"op":"keys","tenant":"demo","params":"SPHINCS+-128f","keys":["default"],"id":6}\n'),
        ("ping",
         b'{"op":"ping","id":7}\n',
         b'{"ok":true,"op":"ping","id":7}\n'),
        ("unknown-verb",
         b'{"op":"frobnicate","id":8}\n',
         b'{"ok":false,"error":"unknown-verb","detail":"unknown verb \'frobnicate\' (serving: hello, keys, metrics, ping, sign, sign-many, stats, verify, verify-many)","id":8}\n'),
        ("unknown-tenant",
         b'{"op":"sign","tenant":"nobody","key":"default","message":"eA==","id":9}\n',
         b'{"ok":false,"error":"unknown-key","detail":"unknown tenant \'nobody\' (tenants: demo)","id":9}\n'),
        ("sign+trace",
         b'{"op":"sign","tenant":"demo","key":"default","message":"dA==","trace":"9f3a","id":10}\n',
         b'{"ok":true,"op":"sign","signature":"U0lHOnQ=","params":"SPHINCS+-128f","backend":"stub","batch_size":2,"wait_ms":1.5,"total_ms":2.25,"trace":"9f3a","id":10}\n'),
        ("sign-many+trace",
         b'{"op":"sign-many","tenant":"demo","key":"default","messages":["dA=="],"trace":"9f3a","id":11}\n',
         b'{"ok":true,"op":"sign-many","tenant":"demo","key":"default","results":[{"ok":true,"signature":"U0lHOnQ=","params":"SPHINCS+-128f","backend":"stub","batch_size":2,"wait_ms":1.5,"total_ms":2.25}],"trace":"9f3a","id":11}\n'),
    ],
    "v3": [
        ("sign",
         b'\x00\x00\x00*\x04\x00\x00\x00\x00\x00\x00\x00\x00\x02\x04demo\x07default\x00\x03\xd0\x90\x00\x00\x00\x00\npayment #1',
         b'\x00\x00\x00C\x04\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x02?\xf8\x00\x00\x00\x00\x00\x00@\x02\x00\x00\x00\x00\x00\x00\rSPHINCS+-128f\x04stub\x00\x00\x00\x0eSIG:payment #1'),
        ("verify",
         b'\x00\x00\x007\x05\x00\x00\x00\x00\x00\x00\x00\x00\x03\x04demo\x07default\x00\x00\x00\npayment #1\x00\x00\x00\x0eSIG:payment #1',
         b'\x00\x00\x00\x19\x05\x01\x00\x00\x00\x00\x00\x00\x00\x03\x01\rSPHINCS+-128f'),
        # Items stream in completion order: the shed item (index 1)
        # lands before the slow signature (index 0), then the end frame.
        ("sign-many",
         b'\x00\x00\x00.\x06\x00\x00\x00\x00\x00\x00\x00\x00\x04\x04demo\x07default\xff\xff\xff\xff\x00\x00\x02\x00\x00\x00\x04slow\x00\x00\x00\x04shed',
         b'\x00\x00\x00D\x10\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x01\x00\noverloaded\x00*queue depth 2 at watermark 2; request shed\x00\x00\x00@\x10\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x01\x00\x00\x00\x02?\xf8\x00\x00\x00\x00\x00\x00@\x02\x00\x00\x00\x00\x00\x00\rSPHINCS+-128f\x04stub\x00\x00\x00\x08SIG:slow\x00\x00\x00\x0c\x11\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x02'),
        ("verify-many",
         b'\x00\x00\x005\t\x00\x00\x00\x00\x00\x00\x00\x00\x05\x04demo\x07default\x00\x02\x00\x00\x00\x01a\x00\x00\x00\x05SIG:a\x00\x00\x00\x01b\x00\x00\x00\x05bogus',
         b'\x00\x00\x00,\t\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x02\x01\x01\rSPHINCS+-128f\x01\x00\rSPHINCS+-128f'),
        ("keys",
         b'\x00\x00\x00\x1b\x07\x00\x00\x00\x00\x00\x00\x00\x00\x06{"tenant":"demo"}',
         b'\x00\x00\x00]\x07\x01\x00\x00\x00\x00\x00\x00\x00\x06{"ok":true,"op":"keys","tenant":"demo","params":"SPHINCS+-128f","keys":["default"]}'),
        ("ping",
         b'\x00\x00\x00\n\x02\x00\x00\x00\x00\x00\x00\x00\x00\x07',
         b'\x00\x00\x00!\x02\x01\x00\x00\x00\x00\x00\x00\x00\x07{"ok":true,"op":"ping"}'),
        # A verb without a frame code never leaves the client, so the
        # server half is fed an unassigned code (0x7d) by hand.
        ("unknown-verb",
         b'\x00\x00\x00\n}\x00\x00\x00\x00\x00\x00\x00\x00\x08',
         b'\x00\x00\x00\x83~\x00\x00\x00\x00\x00\x00\x00\x00\x08\x0cunknown-verb\x00junknown frame verb 0x7d (serving: hello, keys, metrics, ping, sign, sign-many, stats, verify, verify-many)'),
        ("unknown-tenant",
         b'\x00\x00\x00#\x04\x00\x00\x00\x00\x00\x00\x00\x00\t\x06nobody\x07default\xff\xff\xff\xff\x00\x00\x00\x00\x01x',
         b"\x00\x00\x00?~\x00\x00\x00\x00\x00\x00\x00\x00\t\x0bunknown-key\x00'unknown tenant 'nobody' (tenants: demo)"),
        ("sign+trace",
         b'\x00\x00\x00%\x04\x00\x00\x00\x00\x00\x00\x00\x00\n\x04demo\x07default\xff\xff\xff\xff\x049f3a\x00\x00\x00\x01t',
         b'\x00\x00\x00:\x04\x01\x00\x00\x00\x00\x00\x00\x00\n\x00\x00\x00\x02?\xf8\x00\x00\x00\x00\x00\x00@\x02\x00\x00\x00\x00\x00\x00\rSPHINCS+-128f\x04stub\x00\x00\x00\x05SIG:t'),
        ("sign-many+trace",
         b"\x00\x00\x00'\x06\x00\x00\x00\x00\x00\x00\x00\x00\x0b\x04demo\x07default\xff\xff\xff\xff\x049f3a\x00\x01\x00\x00\x00\x01t",
         b'\x00\x00\x00=\x10\x01\x00\x00\x00\x00\x00\x00\x00\x0b\x00\x00\x01\x00\x00\x00\x02?\xf8\x00\x00\x00\x00\x00\x00@\x02\x00\x00\x00\x00\x00\x00\rSPHINCS+-128f\x04stub\x00\x00\x00\x05SIG:t\x00\x00\x00\x0c\x11\x01\x00\x00\x00\x00\x00\x00\x00\x0b\x00\x01'),
    ],
}
HELLO = {"v2": 2, "v3": 3}


class StubService:
    """Fixed outcomes behind the real verb table: ``SIG:<message>`` is
    the one valid signature, ``b"shed"`` is shed, ``b"slow"`` signs late
    (so a streamed batch has one deterministic completion order)."""

    backend_name = "stub"
    pool = None
    tracer = None

    def __init__(self):
        self.keystore = Keystore()
        self.keystore.add_tenant("demo", "128f")
        self.keystore.generate_key(
            "demo", "default",
            seed=derive_seed("demo/default", get_params("128f").n))

    async def sign(self, message, tenant, key_name="default",
                   deadline_ms=None):
        self.keystore.resolve(tenant, key_name)
        if message == b"shed":
            raise OverloadedError(SHED["detail"])
        if message == b"slow":
            await asyncio.sleep(0.05)
        return SignOutcome(
            signature=b"SIG:" + message, tenant=tenant, key_name=key_name,
            params="SPHINCS+-128f", backend="stub", batch_size=2,
            wait_ms=1.5, total_ms=2.25)

    async def verify(self, message, signature, tenant, key_name="default"):
        [valid], params = await self.verify_many([message], [signature],
                                                 tenant, key_name)
        return valid, params

    async def verify_many(self, messages, signatures, tenant,
                          key_name="default"):
        self.keystore.resolve(tenant, key_name)
        return ([signature == b"SIG:" + message for message, signature
                 in zip(messages, signatures)], "SPHINCS+-128f")

    async def drain(self):
        pass

    def close(self):
        pass


@pytest.mark.parametrize("dialect", sorted(GOLDEN))
def test_server_answers_the_pinned_bytes(dialect):
    async def scenario():
        server = SigningServer(StubService(), port=0)
        await server.start()
        reader, writer = await asyncio.open_connection(
            port=server.port, limit=protocol.LINE_LIMIT)
        try:
            writer.write(protocol.encode(
                {"op": "hello", "id": 1, "version": HELLO[dialect]}))
            assert json.loads(await reader.readline())["ok"] is True
            for name, request, response in GOLDEN[dialect]:
                writer.write(request)
                answered = await asyncio.wait_for(
                    reader.readexactly(len(response)), timeout=30)
                assert answered == response, name
        finally:
            writer.close()
            await server.stop()

    asyncio.run(scenario())


@pytest.mark.parametrize("dialect", sorted(GOLDEN))
def test_client_writes_and_reads_the_pinned_bytes(dialect):
    """The client against a replay of the pinned responses: what it
    writes must be the pinned request, and what it returns the typed
    result — identical across the dialects."""
    # A verb without a frame code is refused before it is written.
    local = {"unknown-verb"} if dialect == "v3" else set()
    written: list[tuple[bytes, bytes]] = []

    async def replay(reader, writer):
        await reader.readline()
        writer.write(protocol.encode(
            {"ok": True, "op": "hello", "version": HELLO[dialect],
             "id": 1}))
        for name, request, response in GOLDEN[dialect]:
            if name in local:
                continue
            written.append((await reader.readexactly(len(request)),
                            request))
            writer.write(response)
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(replay, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await ServiceClient.open(port=port,
                                          version=HELLO[dialect])
        try:
            assert client.binary is (dialect == "v3")
            for name, _, _ in GOLDEN[dialect]:
                op, fields, expected = CALLS[name]
                if isinstance(expected, dict):
                    assert await client.call(op, **fields) == expected, name
                else:
                    if name in local:
                        expected = ProtocolError  # refused before writing
                    with pytest.raises(expected) as excinfo:
                        await client.call(op, **fields)
                    assert excinfo.type is expected, name
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        for got, pinned in written:
            assert got == pinned

    asyncio.run(scenario())


class SheddingService(SigningService):
    """The real service, except that ``b"shed"`` is always shed."""

    async def sign(self, message, tenant, key_name="default",
                   deadline_ms=None):
        if message == b"shed":
            raise OverloadedError(SHED["detail"])
        return await super().sign(message, tenant, key_name=key_name,
                                  deadline_ms=deadline_ms)


def test_call_returns_equal_typed_results_in_every_dialect():
    who = dict(tenant="demo", key="default")
    batch = [b"first", b"shed", b"last"]

    async def every_verb(client: ServiceClient):
        """-> {label: typed result, timings dropped} for each verb."""
        results = {}
        signed = await client.call("sign", **who, message=b"one")
        results["sign"] = signed
        results["ping"] = await client.call("ping")
        results["stats"] = sorted(await client.call("stats"))
        results["verify"] = await client.call(
            "verify", **who, message=b"one", signature=signed["signature"])
        many = await client.call("sign-many", **who, messages=batch)
        results["sign-many"] = many
        results["verify-many"] = await client.call(
            "verify-many", **who, messages=[b"first", b"last"],
            signatures=[many["results"][0]["signature"], b"forged"])
        results["keys"] = await client.call("keys", tenant="demo")
        # A whole-frame failure raises; it is not an item.
        with pytest.raises(KeystoreError, match="no-such-key"):
            await client.call("sign-many", tenant="demo",
                              key="no-such-key", messages=batch)
        return results

    def untimed(value):
        if isinstance(value, dict):
            return {name: untimed(item) for name, item in value.items()
                    if name not in ("wait_ms", "total_ms", "batch_size")}
        if isinstance(value, list):
            return [untimed(item) for item in value]
        return value

    async def scenario():
        service = SheddingService(StubService().keystore,
                                  target_batch_size=4, max_wait_s=0.02,
                                  deterministic=True)
        server = SigningServer(service, port=0)
        await server.start()
        seen = {}
        try:
            for version in (2, 3):
                client = await ServiceClient.open(port=server.port,
                                                  version=version)
                try:
                    assert client.hello["version"] == version
                    seen[version] = untimed(await every_verb(client))
                    assert client.binary is (version == 3)
                finally:
                    await client.close()
        finally:
            await server.stop()
        assert seen[2] == seen[3]
        many = seen[3]["sign-many"]["results"]
        assert [item["ok"] for item in many] == [True, False, True]
        assert many[1] == SHED
        assert isinstance(seen[3]["sign"]["signature"], bytes)
        assert [item["valid"] for item
                in seen[3]["verify-many"]["results"]] == [True, False]

    asyncio.run(scenario())
