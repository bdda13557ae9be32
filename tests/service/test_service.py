"""SigningService end-to-end: in-process API, admission control, TCP."""

import asyncio
import socket

import pytest

from repro.api import AsyncClient
from repro.errors import (KeystoreError, OverloadedError, ProtocolError,
                          ServiceError)
from repro.hashes.thash import sha256_choice
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed, protocol,
                           render_snapshot)
from repro.service import server as server_module
from repro.sphincs.signer import Sphincs


def make_keystore(tenants=(("demo", "128f"),)):
    keystore = Keystore()
    for name, params in tenants:
        keystore.add_tenant(name, params)
        keystore.generate_key(
            name, "default",
            seed=derive_seed(f"{name}/default", get_params(params).n))
    return keystore


def make_service(**kwargs):
    kwargs.setdefault("target_batch_size", 4)
    kwargs.setdefault("max_wait_s", 0.05)
    kwargs.setdefault("deterministic", True)
    return SigningService(make_keystore(), **kwargs)


class TestInProcess:
    def test_concurrent_requests_share_a_batch_and_verify(self):
        async def scenario():
            service = make_service(target_batch_size=3, max_wait_s=10.0)
            messages = [b"tx-0", b"tx-1", b"tx-2", b"tx-3"]
            outcomes = await asyncio.wait_for(asyncio.gather(
                *(service.sign(m, "demo") for m in messages)), timeout=60)
            # All four arrive in one loop turn: a target-sized batch
            # first, then the rest.
            assert [o.batch_size for o in outcomes] == [3, 3, 3, 1]
            assert outcomes[0].wait_ms < 5.0
            assert all(o.params == "SPHINCS+-128f" for o in outcomes)
            assert all(o.total_ms >= o.wait_ms >= 0 for o in outcomes)
            keys, params = service.keystore.resolve("demo")
            scheme = Sphincs(params)
            for message, outcome in zip(messages, outcomes):
                assert scheme.verify(message, outcome.signature, keys.public)

        asyncio.run(scenario())

    def test_lone_request_signed_within_deadline(self):
        """Acceptance: a lone sub-batch-size request is not stranded —
        nor even delayed: with the signer idle it never waits out
        ``max_wait_s``."""
        async def scenario():
            service = make_service(target_batch_size=64, max_wait_s=10.0)
            outcome = await asyncio.wait_for(
                service.sign(b"straggler", "demo"), timeout=30)
            assert outcome.batch_size == 1
            assert outcome.wait_ms < 5.0
            keys, params = service.keystore.resolve("demo")
            assert Sphincs(params).verify(b"straggler", outcome.signature,
                                          keys.public)

        asyncio.run(scenario())

    def test_unknown_tenant_fails_before_queueing(self):
        async def scenario():
            service = make_service()
            with pytest.raises(KeystoreError, match="unknown tenant"):
                await service.sign(b"x", "ghost")
            assert service.batcher.pending == 0

        asyncio.run(scenario())

    def test_admission_control_sheds_beyond_watermark(self):
        async def scenario():
            service = make_service(target_batch_size=64, max_wait_s=10.0,
                                   max_pending=3)
            accepted = [asyncio.ensure_future(service.sign(m, "demo"))
                        for m in (b"a", b"b", b"c")]
            await asyncio.sleep(0)  # let all three enqueue
            # Queued in one turn; the drain starts on the next.
            assert (service.batcher.pending,
                    service.batcher.in_flight) == (3, 0)
            with pytest.raises(OverloadedError, match="shed"):
                await service.sign(b"d", "demo")
            stats = service.stats()
            assert stats["tenants"]["demo"]["shed"] == 1
            await service.drain()  # accepted requests still complete
            outcomes = await asyncio.gather(*accepted)
            assert [o.batch_size for o in outcomes] == [3, 3, 3]

        asyncio.run(scenario())

    def test_depth_gauge_falls_back_to_zero_once_drained(self):
        """``repro_queue_depth`` is read at the scrape from the same
        expression ``stats()["queue"]["depth"]`` uses — it used to be
        set at submit time only, so an idle server showed the depth of
        its last submit forever."""
        def scraped(service, name):
            [series] = service.metrics_registry.collect()[name]["series"]
            return series["value"]

        async def scenario():
            service = make_service(target_batch_size=64, max_wait_s=10.0)
            waiting = [asyncio.ensure_future(service.sign(m, "demo"))
                       for m in (b"a", b"b", b"c")]
            await asyncio.sleep(0)  # let all three enqueue
            assert service.stats()["queue"]["depth"] == 3
            assert scraped(service, "repro_queue_depth") == 3.0
            await service.drain()
            await asyncio.gather(*waiting)
            assert service.stats()["queue"] == {"peak_depth": 3, "depth": 0}
            assert scraped(service, "repro_queue_depth") == 0.0
            assert scraped(service, "repro_queue_depth_peak") == 3.0

        asyncio.run(scenario())

    def test_each_shed_says_why(self):
        """Both refusals at the door land in ``repro_shed_total`` under
        their own reason, and the keystore's admission counters are
        scrapeable beside them."""
        async def scenario():
            keystore = make_keystore()
            keystore.set_rate_limit("demo", 0.001, rate_burst=3.0)
            service = SigningService(keystore, target_batch_size=64,
                                     max_wait_s=10.0, max_pending=2,
                                     deterministic=True)
            accepted = [asyncio.ensure_future(service.sign(m, "demo"))
                        for m in (b"a", b"b")]
            await asyncio.sleep(0)
            with pytest.raises(OverloadedError, match="watermark"):
                await service.sign(b"c", "demo")   # third token, full queue
            with pytest.raises(OverloadedError, match="rate-limit"):
                await service.sign(b"d", "demo")   # bucket empty
            await service.drain()
            await asyncio.gather(*accepted)
            families = service.metrics_registry.collect()
            assert {(s["labels"]["tenant"], s["labels"]["reason"]): s["value"]
                    for s in families["repro_shed_total"]["series"]} == {
                ("demo", "queue-full"): 1.0, ("demo", "rate-limit"): 1.0}
            assert service.stats()["tenants"]["demo"]["shed"] == 2
            [denials] = families["repro_keystore_rate_denials"]["series"]
            assert denials["value"] == 1.0
            assert "repro_keystore_resident" in families

        asyncio.run(scenario())

    def test_admission_counts_inflight_batches(self):
        """Dispatched-but-unsigned requests still occupy the watermark:
        sustained overload must shed, not pile requests behind the batch
        in flight."""
        async def scenario():
            service = make_service(target_batch_size=1, max_wait_s=10.0,
                                   max_pending=1)
            first = asyncio.ensure_future(service.sign(b"slow", "demo"))
            # The drain takes it on the next turn; wait until the
            # request has left the queue and is in flight.
            for _ in range(100):
                if service.batcher.in_flight:
                    break
                await asyncio.sleep(0.01)
            assert service.batcher.pending == 0  # queue empty...
            with pytest.raises(OverloadedError):  # ...but still full
                await service.sign(b"rejected", "demo")
            assert (await asyncio.wait_for(first, 60)).batch_size == 1

        asyncio.run(scenario())

    def test_short_backend_result_fails_futures(self):
        """A backend returning too few signatures must error every
        request in the batch, never leave a future hanging."""
        async def scenario():
            service = make_service(target_batch_size=2, max_wait_s=10.0)
            backend = service.engine.backend_for("SPHINCS+-128f")
            original = backend.sign_batch

            def truncated(messages, keys):
                result = original(messages, keys)
                result.signatures.pop()
                return result

            backend.sign_batch = truncated
            futures = [asyncio.ensure_future(service.sign(m, "demo"))
                       for m in (b"a", b"b", b"c")]
            # One turn, three requests: a batch of two, then one.
            for future, returned in zip(futures, (1, 1, 0)):
                with pytest.raises(ServiceError,
                                   match=f"returned {returned}"):
                    await asyncio.wait_for(future, timeout=60)
            assert service.stats()["tenants"]["demo"]["failed"] == 3

        asyncio.run(scenario())

    def test_stats_snapshot_shape(self):
        async def scenario():
            service = make_service(target_batch_size=2, max_wait_s=10.0)
            await asyncio.gather(service.sign(b"a", "demo"),
                                 service.sign(b"b", "demo"),
                                 service.sign(b"c", "demo"))
            stats = service.stats()
            assert stats["tenants"]["demo"]["signed"] == 3
            assert stats["batches"]["histogram"] == {"1": 1, "2": 1}
            assert stats["latency_ms"]["total"]["p99"] > 0
            assert stats["queue"]["depth"] == 0
            assert stats["config"]["tenants"] == {"demo": "SPHINCS+-128f"}
            # Which stdlib SHA-256 signed, per kernel: the platform's pick.
            assert stats["config"]["sha256"] == sha256_choice()
            assert set(stats["config"]["sha256"]) == {"one_block",
                                                      "multi_block"}
            report = render_snapshot(stats)
            assert "p95" in report and "Batch-size histogram" in report

        asyncio.run(scenario())


class TestReplay:
    """A remembered signature never leaves the event loop:
    ``SigningEngine.recall`` answers it before the watermark, the
    batcher and the executor thread."""

    @staticmethod
    def _no_executor(monkeypatch):
        """From here on, any trip to an executor thread is a failure."""
        def refuse(self, executor, func, *args):
            raise AssertionError(f"left the event loop for {func!r}")

        monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", refuse)

    def test_replays_make_no_executor_call_and_count_as_signed(
            self, monkeypatch):
        async def scenario():
            service = make_service()
            first = await service.sign(b"attestation", "demo")
            self._no_executor(monkeypatch)
            replays = [await service.sign(b"attestation", "demo")
                       for _ in range(5)]
            assert {o.signature for o in replays} == {first.signature}
            assert all((o.batch_size, o.wait_ms, o.backend, o.params)
                       == (1, 0.0, first.backend, first.params)
                       and 0.0 <= o.total_ms < 5.0 for o in replays)
            # Telemetry parity: each hit is a submitted, signed request
            # that held no capacity; only the first sign was a batch.
            stats = service.stats()
            assert stats["tenants"]["demo"] == {
                "submitted": 6, "signed": 6, "shed": 0, "failed": 0}
            assert stats["batches"] == {"dispatched": 1,
                                        "histogram": {"1": 1}}
            assert stats["queue"] == {"peak_depth": 1, "depth": 0}
            assert stats["latency_ms"]["total"]["count"] == 6
            assert stats["latency_ms"]["wait"]["count"] == 6
            [scope] = stats["cache"]["scopes"].values()
            assert scope["memo_hits"] == 5 and scope["memo_entries"] == 1

        asyncio.run(scenario())

    def test_a_replay_resolves_its_key_once(self):
        async def scenario():
            service = make_service()
            first = await service.sign(b"attestation", "demo")
            before = service.keystore.cache_stats()["hits"]
            replay = await service.sign(b"attestation", "demo")
            assert replay.signature == first.signature
            assert service.keystore.cache_stats()["hits"] == before + 1

        asyncio.run(scenario())

    def test_a_replay_does_not_wait_behind_a_fresh_batch(self):
        """Head-of-line blocking, which no ``bench/`` workload shows."""
        async def scenario():
            service = make_service()
            first = await service.sign(b"hot", "demo")
            fresh = asyncio.ensure_future(service.sign(b"cold", "demo"))
            while not service.batcher.in_flight:
                await asyncio.sleep(0)
            replay = await service.sign(b"hot", "demo")
            assert not fresh.done()  # still signing; the replay is back
            assert replay.signature == first.signature
            assert (await asyncio.wait_for(fresh, 60)).batch_size == 1

        asyncio.run(scenario())

    def test_a_replay_passes_the_watermark_but_not_the_rate_limit(self):
        async def scenario():
            keystore = make_keystore()
            service = SigningService(keystore, target_batch_size=64,
                                     max_wait_s=10.0, max_pending=1,
                                     deterministic=True)
            first = await service.sign(b"hot", "demo")
            holder = asyncio.ensure_future(service.sign(b"cold", "demo"))
            await asyncio.sleep(0)
            with pytest.raises(OverloadedError, match="watermark"):
                await service.sign(b"colder", "demo")
            # At the watermark a replay is still answered: it takes no slot.
            assert (await service.sign(b"hot", "demo")).signature \
                == first.signature
            keystore.set_rate_limit("demo", 0.001, rate_burst=1.0)
            await service.sign(b"hot", "demo")  # the bucket's one token
            with pytest.raises(OverloadedError, match="rate-limit"):
                await service.sign(b"hot", "demo")
            families = service.metrics_registry.collect()
            assert {s["labels"]["reason"]: s["value"] for s
                    in families["repro_shed_total"]["series"]} == {
                "queue-full": 1.0, "rate-limit": 1.0}
            await asyncio.wait_for(holder, 60)

        asyncio.run(scenario())

    def test_randomized_signing_never_recalls(self):
        async def scenario():
            service = make_service(deterministic=False)
            first, second = [await service.sign(b"same", "demo")
                             for _ in range(2)]
            assert first.signature != second.signature
            assert service.engine.recall(
                *service.keystore.resolve("demo"), b"same") is None
            [scope] = service.stats()["cache"]["scopes"].values()
            assert scope["memo_hits"] == scope["memo_entries"] == 0
            assert service.stats()["batches"]["dispatched"] == 2

        asyncio.run(scenario())

    def test_a_message_over_the_on_loop_bound_takes_the_batcher(self):
        from repro.service.engine import ON_LOOP_BYTES

        async def scenario():
            service = make_service()
            largest, over = bytes(ON_LOOP_BYTES), bytes(ON_LOOP_BYTES + 1)
            first = {m: await service.sign(m, "demo")
                     for m in (largest, over)}
            dispatched = []
            dispatch = service.batcher._dispatch

            async def spy(queue_key, batch):
                dispatched.extend(request.message for request in batch)
                await dispatch(queue_key, batch)

            service.batcher._dispatch = spy
            for message in (largest, over):
                replay = await service.sign(message, "demo")
                assert replay.signature == first[message].signature
            assert dispatched == [over]
            assert service.engine.recall(
                *service.keystore.resolve("demo"), over) is None

        asyncio.run(scenario())

    def test_rotation_misses_and_signs_fresh_under_the_new_key(
            self, monkeypatch):
        async def scenario():
            service = make_service()
            before = await service.sign(b"same", "demo")
            service.keystore.rotate_key("demo", "default")
            assert service.engine.recall(
                *service.keystore.resolve("demo"), b"same") is None
            after = await service.sign(b"same", "demo")
            assert after.signature != before.signature
            keys, params = service.keystore.resolve("demo")
            assert Sphincs(params).verify(b"same", after.signature,
                                          keys.public)
            self._no_executor(monkeypatch)
            assert (await service.sign(b"same", "demo")).signature \
                == after.signature

        asyncio.run(scenario())

    def test_a_miss_builds_nothing(self):
        """``recall`` has no side effect beyond memo recency and hit
        counters: asking about a key that never signed leaves no backend,
        no cache entry and no verifier behind."""
        service = make_service()
        engine = service.engine
        keystore = service.keystore
        assert engine.recall(*keystore.resolve("demo"), b"never signed") \
            is None
        assert engine._backends == {}
        backend = engine.backend_for("SPHINCS+-128f")
        assert backend.verifier is None
        keystore.generate_key("demo", "spare", seed=bytes(48))
        assert engine.recall(*keystore.resolve("demo", "spare"),
                             b"never signed") is None
        assert list(engine._backends) == ["SPHINCS+-128f"]
        stats = backend.cache_stats()  # no key's cache became resident
        assert stats["keys"] == stats["bytes"] == 0
        service.close()

    def test_a_closed_service_recalls_nothing(self):
        """A replay is refused after ``close()`` exactly like a fresh
        message: the batcher's refusal is the one closed check."""
        async def scenario():
            service = make_service()
            await service.sign(b"hot", "demo")
            service.close()
            before = service.stats()
            for message in (b"hot", b"cold"):
                with pytest.raises(ServiceError, match="batcher is closed"):
                    await service.sign(message, "demo")
            after = service.stats()
            assert after["tenants"]["demo"]["signed"] == 1
            assert after["cache"] == before["cache"]  # no hit counted

        asyncio.run(scenario())


class TestTcp:
    def test_sign_stats_ping_over_tcp(self):
        async def scenario():
            service = make_service(target_batch_size=2, max_wait_s=0.05)
            server = SigningServer(service, port=0)
            await server.start()
            client = await ServiceClient.open(port=server.port)
            try:
                assert await client.ping()
                responses = await asyncio.wait_for(asyncio.gather(*(
                    client.call("sign", tenant="demo", key="default",
                                message=f"wire-{i}".encode())
                    for i in range(3))), timeout=60)
                keys, params = service.keystore.resolve("demo")
                scheme = Sphincs(params)
                for i, response in enumerate(responses):
                    assert scheme.verify(f"wire-{i}".encode(),
                                         response["signature"], keys.public)
                # Pipelined on one connection, batches of at most two:
                # one of two and one of one, in whichever order.
                assert sorted(r["batch_size"] for r in responses) == [1, 2, 2]
                stats = await client.stats()
                assert stats["tenants"]["demo"]["signed"] == 3
                assert stats["batches"]["histogram"] == {"1": 1, "2": 1}
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_sign_many_on_an_idle_server_is_one_batch(self):
        """A v3 ``sign-many`` frame's messages arrive in one loop turn,
        so on an idle server they sign as one batch — not a lone head
        that found the signer idle and a tail behind it."""
        async def scenario():
            service = make_service(target_batch_size=16, max_wait_s=10.0)
            server = SigningServer(service, port=0)
            await server.start()
            try:
                async with await AsyncClient.connect(
                        port=server.port) as client:
                    assert client.info().protocol_version == 3
                    results = await asyncio.wait_for(client.sign_many(
                        "demo", [b"burst %d" % i for i in range(8)]),
                        timeout=60)
                assert [r.batch_size for r in results] == [8] * 8
                assert service.stats()["batches"]["histogram"] == {"8": 1}
            finally:
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("version", [3, 2])
    def test_pipelined_replays_past_the_write_high_water_mark(
            self, version, monkeypatch, raw_wire):
        """A client that sends every request before it reads a reply
        pushes the server's writes past the transport's high-water mark:
        each reply still arrives once, under its own id."""
        pauses = []
        pause = server_module._Connection.pause_writing

        def counted(protocol_self):
            pauses.append(protocol_self)
            pause(protocol_self)

        monkeypatch.setattr(server_module._Connection,
                            "pause_writing", counted)
        count, message = 24, b"replayed attestation"

        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            first = (await service.sign(message, "demo")).signature
            # Small kernel buffers on both ends (an accepted socket takes
            # the listener's) keep the replies in the server's transport.
            [listener] = server._server.sockets
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", server.port))
            reader, writer = await asyncio.open_connection(
                sock=sock, limit=protocol.LINE_LIMIT)
            wire = raw_wire(reader)
            try:
                dialect = protocol.LineDialect()
                writer.write(dialect.encode_request(
                    "hello", 1, {"version": version}))
                _, hello = await wire.read(dialect.read_reply)
                dialect = dialect.upgraded(hello["version"])
                assert dialect.binary == (version == 3)
                ids = range(2, 2 + count)
                writer.write(b"".join(dialect.encode_request(
                    "sign", request_id, {"tenant": "demo", "key": "default",
                                         "message": message})
                    for request_id in ids))
                await writer.drain()
                for _ in range(3000):  # the replies fill the buffers
                    if pauses:
                        break
                    await asyncio.sleep(0.01)
                replies = [await asyncio.wait_for(
                    wire.read(dialect.read_reply), timeout=60)
                    for _ in ids]
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()
            assert sorted(request_id for request_id, _ in replies) \
                == list(ids)
            assert all(reply["ok"] and reply["signature"] == first
                       for _, reply in replies)

        asyncio.run(scenario())
        assert pauses

    def test_typed_errors_over_tcp(self):
        async def scenario():
            service = make_service(target_batch_size=64, max_wait_s=10.0,
                                   max_pending=1)
            server = SigningServer(service, port=0)
            await server.start()
            # v2: a verb without a v3 frame code never leaves the client.
            client = await ServiceClient.open(port=server.port, version=2)
            try:
                with pytest.raises(KeystoreError, match="unknown tenant"):
                    await client.call("sign", tenant="ghost", message=b"x")
                accepted = asyncio.ensure_future(
                    client.call("sign", tenant="demo", message=b"a"))
                # Wait until the server has actually taken the first sign
                # (the server is idle, so it is in flight, not queued).
                for _ in range(1000):
                    if service.batcher.in_flight:
                        break
                    await asyncio.sleep(0.001)
                with pytest.raises(OverloadedError):
                    await client.call("sign", tenant="demo", message=b"b")
                with pytest.raises(ProtocolError, match="unknown verb"):
                    await client.call("frobnicate")
                await service.drain()
                assert (await asyncio.wait_for(accepted, 60))["batch_size"] == 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_request_after_server_close_raises_not_hangs(self):
        """Once the server closes the connection, new requests must fail
        fast — a future registered after the read loop exited could
        never be resolved."""
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            client = await ServiceClient.open(port=server.port)
            try:
                assert await client.ping()
                await server.stop()
                # Wait for the client's reader to see EOF.
                await asyncio.wait_for(
                    asyncio.shield(client._lost), timeout=5)
                with pytest.raises(ServiceError, match="connection closed"):
                    await asyncio.wait_for(client.ping(), timeout=5)
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_malformed_line_gets_protocol_error(self):
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                import json
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"] == "protocol"
            finally:
                writer.close()
                await writer.wait_closed()
                await server.stop()

        asyncio.run(scenario())
