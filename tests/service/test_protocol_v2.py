"""Protocol v2: the mandatory handshake, negotiation edges, verbs, bounds.

Malformed/absent/too-old ``hello`` (typed errors, the connection stays
usable), unknown requested versions (typed downgrade, never a hang),
unknown verbs, ``verify`` round-trips over TCP for all four pinned
parameter sets, and the LINE_LIMIT headroom contract derived from the
parameter catalog.
"""

import asyncio
import json

import pytest

from repro.api import AsyncClient
from repro.errors import KeystoreError
from repro.params import PARAMETER_SETS, get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed, protocol)
from repro.testing.kat import KAT_SETS


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


async def raw_roundtrip(port, requests):
    """Send raw frames on one connection; return the decoded responses."""
    reader, writer = await asyncio.open_connection(
        port=port, limit=protocol.LINE_LIMIT)
    responses = []
    try:
        for request in requests:
            writer.write(protocol.encode(request))
            await writer.drain()
            responses.append(json.loads(await asyncio.wait_for(
                reader.readline(), timeout=30)))
    finally:
        writer.close()
    return responses


class TestNegotiation:
    def test_hello_negotiates_v2_and_advertises_capabilities(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                [hello] = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 2}])
                assert hello["ok"] is True and hello["id"] == 1
                assert hello["version"] == 2
                for verb in ("hello", "ping", "stats", "sign", "verify",
                             "sign-many", "keys"):
                    assert verb in hello["verbs"]
                assert hello["max_batch"] == protocol.MAX_SIGN_MANY
                assert hello["parameter_sets"] == ["SPHINCS+-128f"]
                assert hello["server"].startswith("repro/")
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_unknown_version_gets_typed_downgrade_not_a_hang(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                [hello] = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 9}])
                # The server answers with its best offer; the client
                # decides whether v2 is acceptable.
                assert hello["ok"] is True
                assert hello["version"] == protocol.PROTOCOL_VERSION
            finally:
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("frame", [
        {"op": "hello", "id": 1, "version": "two"},
        {"op": "hello", "id": 1, "version": 0},
        {"op": "hello", "id": 1, "version": True},
        {"op": "hello", "id": 1},
    ])
    def test_malformed_hello_is_a_protocol_error(self, frame):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                [response] = await raw_roundtrip(server.port, [frame])
                assert response["ok"] is False
                assert response["error"] == protocol.ERROR_PROTOCOL
                assert response["id"] == 1
            finally:
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("early", [
        {"op": "sign", "id": 1, "tenant": "demo", "message": "aGk="},
        {"op": "ping", "id": 1},
        {"op": "frobnicate", "id": 1},
    ])
    def test_any_verb_before_hello_is_a_protocol_error(self, early):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                refused, hello, signed = await raw_roundtrip(server.port, [
                    early,
                    {"op": "hello", "id": 2, "version": 2},
                    {"op": "sign", "id": 3, "tenant": "demo",
                     "message": "aGk="}])
                # Refused, not dropped: the same connection then
                # completes the handshake and signs.
                assert refused["ok"] is False and refused["id"] == 1
                assert refused["error"] == protocol.ERROR_PROTOCOL
                assert "hello" in refused["detail"]
                assert hello["ok"] is True and hello["version"] == 2
                assert signed["ok"] is True and signed["id"] == 3
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_hello_below_v2_is_a_protocol_error_naming_the_offer(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                [response] = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 1}])
                assert response["ok"] is False
                assert response["error"] == protocol.ERROR_PROTOCOL
                assert "(2, 3)" in response["detail"]
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_open_negotiates_the_requested_dialect(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                v2 = await ServiceClient.open(port=server.port, version=2)
                v3 = await ServiceClient.open(port=server.port)
                try:
                    assert v2.binary is False and v2.hello["version"] == 2
                    assert v3.binary is True and v3.hello["version"] == 3
                    assert await v2.ping() and await v3.ping()
                finally:
                    await v2.close()
                    await v3.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_unknown_verb_on_v2_is_typed_and_names_the_verbs(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                hello, response = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 2},
                    {"op": "frobnicate", "id": 2}])
                assert hello["ok"] is True
                assert response["error"] == protocol.ERROR_UNKNOWN_VERB
                assert "sign-many" in response["detail"]
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestVerifyVerb:
    def test_verify_roundtrips_all_four_parameter_sets_over_tcp(self):
        """Acceptance: served verification works for every pinned set —
        sign over TCP, verify over TCP, tampered input rejected."""
        async def scenario():
            tenants = tuple((f"t{params}", params) for params in KAT_SETS)
            server = make_server(tenants=tenants, target_batch_size=1)
            await server.start()
            client = await AsyncClient.connect(port=server.port)
            try:
                for tenant, params in tenants:
                    message = f"verify {params}".encode()
                    result = await client.sign(tenant, message)
                    assert result.params == get_params(params).name
                    good = await client.verify(tenant, message,
                                               result.signature)
                    assert good.valid, params
                    bad = await client.verify(tenant, message + b"!",
                                              result.signature)
                    assert not bad.valid, params
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_verify_unknown_tenant_is_typed(self):
        async def scenario():
            server = make_server()
            await server.start()
            client = await AsyncClient.connect(port=server.port)
            try:
                with pytest.raises(KeystoreError):
                    await client.verify("ghost", b"m", b"s")
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestSignManyVerb:
    def test_frame_above_max_batch_is_rejected(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                hello, response = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 2},
                    {"op": "sign-many", "id": 2, "tenant": "demo",
                     "messages": ["aGk="] * (protocol.MAX_SIGN_MANY + 1)}])
                assert response["ok"] is False
                assert response["error"] == protocol.ERROR_PROTOCOL
                assert "max_batch" in response["detail"]
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_empty_messages_list_is_rejected(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                _, response = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 2},
                    {"op": "sign-many", "id": 2, "tenant": "demo",
                     "messages": []}])
                assert response["error"] == protocol.ERROR_PROTOCOL
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_unknown_tenant_fails_the_whole_frame(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                _, response = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 2},
                    {"op": "sign-many", "id": 2, "tenant": "ghost",
                     "messages": ["aGk="]}])
                assert response["error"] == protocol.ERROR_UNKNOWN_KEY
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestKeysVerb:
    def test_keys_lists_tenant_keys_and_params(self):
        async def scenario():
            server = make_server()
            await server.start()
            try:
                _, response = await raw_roundtrip(server.port, [
                    {"op": "hello", "id": 1, "version": 2},
                    {"op": "keys", "id": 2, "tenant": "demo"}])
                assert response["ok"] is True
                assert response["keys"] == ["default"]
                assert response["params"] == "SPHINCS+-128f"
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestLineLimitHeadroom:
    """Satellite: one authoritative, constant-derived size contract."""

    def test_max_signature_b64_derives_from_the_parameter_catalog(self):
        largest = max(p.sig_bytes for p in PARAMETER_SETS.values())
        # The largest signature is 256f — the *fast* set; the old
        # contradictory notes (256s as largest, ~40 KB b64) are gone.
        assert largest == get_params("256f").sig_bytes == 49_856
        assert protocol.MAX_SIGNATURE_B64 == 4 * ((largest + 2) // 3)
        # Base64 of the real largest signature is exactly the constant.
        import base64

        assert len(base64.b64encode(b"\0" * largest)) == \
            protocol.MAX_SIGNATURE_B64 == 66_476

    def test_line_limit_has_headroom_for_every_frame_shape(self):
        envelope = 4096  # generous JSON-envelope allowance
        # Single-signature response: >10x headroom.
        assert protocol.MAX_SIGNATURE_B64 + envelope \
            < protocol.LINE_LIMIT / 10
        # Worst-case v2 sign-many response: full frame of largest-set
        # signatures still fits one line.
        worst = (protocol.MAX_SIGN_MANY * (protocol.MAX_SIGNATURE_B64 + 256)
                 + envelope)
        assert worst < protocol.LINE_LIMIT
        # Largest allowed request message also fits after base64.
        assert 4 * ((protocol.MAX_MESSAGE_BYTES + 2) // 3) + envelope \
            <= protocol.LINE_LIMIT
