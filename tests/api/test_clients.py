"""The client facade behaves identically across every transport.

The acceptance contract of the unified API: ``sign`` / ``verify`` /
``sign_many`` / ``keys`` / ``info`` return the same typed results with
the same semantics whether the call executes on an in-process scheduler,
a multi-core worker pool, or a remote protocol-v2 server — and
signatures are byte-identical to the reference scheme in deterministic
mode.
"""

import asyncio
import threading

import pytest

from repro import api
from repro.errors import KeystoreError, ProtocolError, ServiceError
from repro.params import get_params
from repro.service import (Keystore, SigningServer, SigningService,
                           derive_seed)
from repro.sphincs.signer import Sphincs

SEED = bytes(48)  # 3n for 128f — matches the oracle's reference key


def reference_signatures(messages):
    scheme = Sphincs("128f", deterministic=True)
    keys = scheme.keygen(seed=SEED)
    return [scheme.sign(message, keys) for message in messages], keys


def make_local(**kwargs):
    client = api.connect("local", deterministic=True, **kwargs)
    client.add_tenant("acme", "128f", seed=SEED)
    return client


class LiveServer:
    """A SigningServer on a background loop, for the sync TcpClient."""

    def __init__(self):
        keystore = Keystore()
        keystore.add_tenant("acme", "128f")
        keystore.generate_key("acme", "default", seed=SEED)
        self.service = SigningService(keystore, target_batch_size=4,
                                      max_wait_s=0.05, deterministic=True)
        self.loop = asyncio.new_event_loop()
        self.server = SigningServer(self.service, port=0)
        self.loop.run_until_complete(self.server.start())
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def port(self):
        return self.server.port

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()


@pytest.fixture
def live_server():
    server = LiveServer()
    yield server
    server.stop()


class TestLocalClient:
    def test_sign_verify_roundtrip_matches_reference(self):
        messages = [b"tx-0", b"tx-1", b"tx-2"]
        expected, _ = reference_signatures(messages)
        with make_local() as client:
            results = client.sign_many("acme", messages)
            assert [r.signature for r in results] == expected
            assert all(r.batch_size == 3 for r in results)
            assert all(r.transport == "local" for r in results)
            assert client.verify("acme", b"tx-0",
                                 results[0].signature).valid
            assert not client.verify("acme", b"evil",
                                     results[0].signature).valid

    def test_one_sign_many_call_is_one_batch(self):
        with make_local() as client:
            first = client.sign("acme", b"solo")
            assert first.batch_size == 1
            batch = client.sign_many("acme", [b"a", b"b"])
            assert [r.batch_size for r in batch] == [2, 2]

    def test_unknown_tenant_and_key_raise_keystore_error(self):
        with make_local() as client:
            with pytest.raises(KeystoreError, match="unknown tenant"):
                client.sign("ghost", b"x")
            with pytest.raises(KeystoreError, match="no key"):
                client.sign("acme", b"x", key="hsm-9")

    def test_info_and_keys(self):
        with make_local() as client:
            info = client.info()
            assert info.transport == "local"
            assert info.supports("verify") and info.supports("sign-many")
            assert info.max_batch is None  # in-process: no frame bound
            assert "SPHINCS+-128f" in info.parameter_sets
            assert client.keys("acme") == ("default",)

    def test_empty_sign_many_is_a_noop(self):
        with make_local() as client:
            assert client.sign_many("acme", []) == []

    def test_malformed_arguments_rejected_before_execution(self):
        with make_local() as client:
            with pytest.raises(ProtocolError):
                client.sign("acme", "not-bytes")
            with pytest.raises(ProtocolError):
                client.verify("acme", b"x", "not-bytes")


class TestPooledClient:
    def test_pooled_transport_matches_reference(self):
        messages = [b"p0", b"p1", b"p2"]
        expected, _ = reference_signatures(messages)
        client = api.connect("pooled", workers=2, deterministic=True)
        try:
            client.add_tenant("acme", "128f", seed=SEED)
            results = client.sign_many("acme", messages)
            assert [r.signature for r in results] == expected
            assert results[0].transport == "pooled"
            assert client.info().workers == 2
            assert client.verify("acme", b"p0",
                                 results[0].signature).valid
        finally:
            client.close()


class TestTcpClient:
    def test_sync_facade_over_live_server(self, live_server):
        messages = [b"t0", b"t1"]
        expected, _ = reference_signatures(messages)
        with api.connect("tcp", port=live_server.port) as client:
            info = client.info()
            assert info.protocol_version == 3
            assert info.supports("verify")
            assert info.max_batch >= 1
            assert client.ping()
            results = client.sign_many("acme", messages)
            assert [r.signature for r in results] == expected
            assert results[0].transport == "tcp"
            assert client.verify("acme", b"t0", results[0].signature).valid
            assert not client.verify("acme", b"x",
                                     results[0].signature).valid
            assert client.keys("acme") == ("default",)
            assert "tenants" in client.stats()

    def test_typed_errors_cross_the_wire(self, live_server):
        with api.connect("tcp", port=live_server.port) as client:
            with pytest.raises(KeystoreError):
                client.sign("ghost", b"x")

    def test_oversized_message_rejected_client_side(self, live_server):
        from repro.service import protocol

        with api.connect("tcp", port=live_server.port) as client:
            # The default connection negotiates v3 binary frames, whose
            # budget skips the base64 inflation of the v2 line protocol.
            huge = b"\0" * (protocol.MAX_MESSAGE_BYTES_V3 + 1)
            with pytest.raises(ProtocolError, match="frame bound"):
                client.sign("acme", huge)
            # verify frames carry message + signature: a message that
            # sign() would accept can still overflow alongside one.
            nearly = b"\0" * (protocol.MAX_MESSAGE_BYTES_V3 - 100)
            with pytest.raises(ProtocolError, match="frame bound"):
                client.verify("acme", nearly, b"\0" * 17088)
            # The connection survives the early rejections.
            assert client.ping()

    def test_closed_client_refuses_further_calls(self, live_server):
        client = api.connect("tcp", port=live_server.port)
        client.close()
        client.close()  # idempotent
        with pytest.raises(ServiceError, match="closed"):
            client.sign("acme", b"x")


class TestAsyncClient:
    def test_async_variant_full_roundtrip(self, live_server):
        messages = [b"a0", b"a1", b"a2"]
        expected, _ = reference_signatures(messages)

        async def scenario():
            client = await api.AsyncClient.connect(port=live_server.port)
            try:
                results = await client.sign_many("acme", messages)
                assert [r.signature for r in results] == expected
                verdict = await client.verify("acme", b"a0",
                                              results[0].signature)
                assert verdict.valid
                assert await client.keys("acme") == ("default",)
            finally:
                await client.close()

        asyncio.run_coroutine_threadsafe(
            scenario(), live_server.loop).result(120)


class TestConnectFactory:
    def test_unknown_transport_is_typed(self):
        with pytest.raises(ServiceError, match="unknown transport"):
            api.connect("carrier-pigeon")

    def test_local_default(self):
        with api.connect() as client:
            assert client.transport == "local"

    def test_params_catalog_respected(self):
        # A non-128f tenant signs at its own sizes through the facade.
        with api.connect("local", deterministic=True) as client:
            client.add_tenant("fw", "128s")
            result = client.sign("fw", b"image")
            assert len(result.signature) == get_params("128s").sig_bytes
            assert client.verify("fw", b"image", result.signature).valid

    def test_deterministic_tenant_matches_service_convention(self):
        # LocalClient.add_tenant's derived seed must equal the serve-async
        # CLI convention so local and served deterministic tenants agree.
        with api.connect("local", deterministic=True) as client:
            client.add_tenant("demo", "128f")
            keys, _ = client.keystore.resolve("demo")
            expected_seed = derive_seed("demo/default",
                                        get_params("128f").n)
            scheme = Sphincs("128f", deterministic=True)
            assert keys == scheme.keygen(seed=expected_seed)


class TestVerifyMany:
    """verify_many mirrors sign_many on every transport: per-pair typed
    verdicts in request order, invalid = a result, not an error."""

    def test_local_mixed_verdicts_in_order(self):
        messages = [b"vm-0", b"vm-1"]
        expected, _ = reference_signatures(messages)
        with make_local() as client:
            verdicts = client.verify_many(
                "acme", [messages[0], messages[1], b"tampered"],
                [expected[0], expected[1], expected[0]])
            assert [v.valid for v in verdicts] == [True, True, False]
            assert all(v.tenant == "acme" for v in verdicts)
            assert client.verify_many("acme", [], []) == []

    def test_length_mismatch_rejected(self):
        with make_local() as client:
            with pytest.raises(ValueError, match="pairs each message"):
                client.verify_many("acme", [b"one"], [])

    def test_local_is_one_verify_job_with_the_oracles_verdicts(
            self, monkeypatch):
        """As the served tier: the key resolves once and the pairs are
        one ``verify_batch`` job — over the oracle's cases (each
        corruption after its valid twin, then the wrong key), and an
        unknown tenant or key raises before anything is hashed."""
        from repro.runtime.fastops import FastVerifier
        from repro.testing.corpus import signature_mutations

        genuine, jobs = FastVerifier.verify_batch, []

        def counted(self, messages, signatures, public_key):
            jobs.append(len(messages))
            return genuine(self, messages, signatures, public_key)

        monkeypatch.setattr(FastVerifier, "verify_batch", counted)
        [valid], _ = reference_signatures([b"twin"])
        corrupted = [blob for _, blob in signature_mutations(
            get_params("128f"), valid)]
        blobs = [valid, *corrupted, valid]
        messages = [b"twin"] * (1 + len(corrupted)) + [b"twin!"]
        with make_local() as client:
            client.add_tenant("other", "128f", seed=bytes(range(48)))
            verdicts = client.verify_many("acme", messages, blobs)
            assert [v.valid for v in verdicts] == (
                [True] + [False] * (len(corrupted) + 1))
            assert jobs == [len(blobs)]
            assert not client.verify("other", b"twin", valid).valid
            for tenant, key in (("ghost", "default"), ("acme", "missing")):
                with pytest.raises(KeystoreError):
                    client.verify_many(tenant, [b"twin"], [valid], key=key)
            assert jobs == [len(blobs), 1]

    def test_tcp_binary_frames_round_trip(self, live_server):
        messages = [b"w0", b"w1", b"w2"]
        expected, _ = reference_signatures(messages)
        with api.connect("tcp", port=live_server.port) as client:
            assert client.info().supports("verify-many")
            verdicts = client.verify_many(
                "acme", messages + [b"evil"],
                expected + [expected[0]])
            assert [v.valid for v in verdicts] == [True, True, True,
                                                   False]
            assert all(v.transport == "tcp" for v in verdicts)
            assert all(v.params == "SPHINCS+-128f" for v in verdicts)

    @pytest.mark.parametrize("version", [2, 3])
    def test_one_verify_job_per_frame(self, live_server, monkeypatch,
                                      version):
        """A verify-many frame is one ``verify_batch`` job over all its
        pairs (v2 JSON and v3 binary alike), not a job per pair."""
        from repro.runtime.fastops import FastVerifier

        genuine, jobs = FastVerifier.verify_batch, []

        def counted(self, messages, signatures, public_key):
            jobs.append(len(messages))
            return genuine(self, messages, signatures, public_key)

        monkeypatch.setattr(FastVerifier, "verify_batch", counted)
        messages = [b"j0", b"j1", b"j2"]
        expected, _ = reference_signatures(messages[:2])

        async def scenario():
            client = await api.AsyncClient.connect(port=live_server.port,
                                                   version=version)
            try:
                return await client.verify_many(
                    "acme", messages, expected + [expected[0]])
            finally:
                await client.close()

        verdicts = asyncio.run_coroutine_threadsafe(
            scenario(), live_server.loop).result(120)
        assert [v.valid for v in verdicts] == [True, True, False]
        assert jobs == [3]

    def test_tcp_unknown_tenant_raises_once(self, live_server):
        with api.connect("tcp", port=live_server.port) as client:
            with pytest.raises(KeystoreError):
                client.verify_many("ghost", [b"x"], [b"\0" * 17088])

    def test_v2_json_wire_chunks_past_max_batch(self, live_server):
        from repro.service import protocol

        [signature], _ = reference_signatures([b"chunked"])
        count = protocol.MAX_SIGN_MANY + 2  # forces a second chunk

        async def scenario():
            client = await api.AsyncClient.connect(port=live_server.port,
                                                   version=2)
            try:
                assert client.info().max_batch == protocol.MAX_SIGN_MANY
                verdicts = await client.verify_many(
                    "acme", [b"chunked"] * count, [signature] * count)
                assert len(verdicts) == count
                assert all(v.valid for v in verdicts)
            finally:
                await client.close()

        asyncio.run_coroutine_threadsafe(
            scenario(), live_server.loop).result(120)
