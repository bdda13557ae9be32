"""The cluster tier end-to-end: placement, failover, re-homing, typing.

Every test runs real ``SigningServer`` nodes on loopback ports behind a
real ``ClusterRouter`` (via ``LocalCluster``), driven through the typed
``AsyncClusterClient`` — the same stack ``repro serve-cluster`` runs.
"""

import asyncio
import json
import socket
import time

import pytest

from repro.api import AsyncClusterClient
from repro.cluster import ClusterRouter, LocalCluster, RouterService
from repro.cluster.ring import HashRing
from repro.errors import (KeystoreError, NodeUnavailableError,
                          OverloadedError, ServiceError)
from repro.params import get_params
from repro.obs.trace import TraceContext, Tracer, use_trace
from repro.runtime import get_backend
from repro.runtime.pool import auto_workers
from repro.service import (Keystore, SigningServer, SigningService,
                           derive_seed, protocol)
from repro.sphincs.signer import Sphincs

TENANTS = ("acme", "edge", "wallet")


def make_keystore(tenants=TENANTS, **kwargs) -> Keystore:
    """Identically seeded on every call — the cluster key invariant."""
    keystore = Keystore(**kwargs)
    for name in tenants:
        keystore.add_tenant(name, "128f")
        keystore.generate_key(
            name, "default",
            seed=derive_seed(f"cluster/{name}", get_params("128f").n))
    return keystore


def make_service() -> SigningService:
    return SigningService(make_keystore(), target_batch_size=2,
                          max_wait_s=0.02, deterministic=True)


def make_cluster(nodes: int = 2, **kwargs) -> LocalCluster:
    kwargs.setdefault("health_interval_s", 0.05)
    return LocalCluster([make_service] * nodes, **kwargs)


def reference_signature(tenant: str, message: bytes) -> bytes:
    keys, params = make_keystore().resolve(tenant)
    return Sphincs(params, deterministic=True).sign(message, keys)


class TestConstruction:
    def test_rejects_empty_node_list(self):
        with pytest.raises(ServiceError, match="at least one node"):
            RouterService([], make_keystore())

    def test_rejects_negative_retries(self):
        with pytest.raises(ServiceError, match="max_retries"):
            RouterService([("127.0.0.1", 1)], make_keystore(),
                          max_retries=-1)

    def test_local_cluster_needs_a_factory(self):
        with pytest.raises(ServiceError, match="factory"):
            LocalCluster([])


class TestEndToEnd:
    def test_signatures_byte_identical_and_verified(self):
        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                for tenant in TENANTS:
                    message = f"payment for {tenant}".encode()
                    result = await client.sign(tenant, message)
                    assert result.transport == "cluster"
                    # The outcome names the node that actually signed.
                    assert result.backend.startswith("node")
                    # Off the loop: a third of a second of blocking
                    # hashing would starve the 50 ms health probes and
                    # mark every in-process node down.
                    assert result.signature == await asyncio.to_thread(
                        reference_signature, tenant, message)
                    verdict = await client.verify(tenant, message,
                                                  result.signature)
                    assert verdict.valid
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_verify_many_is_one_forwarded_frame(self, monkeypatch):
        """Northbound verify-many forwards as one southbound verify-many
        (one verify job on the node): per-pair verdicts in order, invalid
        is a result, not an error."""
        from repro.runtime.fastops import FastVerifier

        genuine, jobs = FastVerifier.verify_batch, []

        def counted(self, messages, signatures, public_key):
            jobs.append(len(messages))
            return genuine(self, messages, signatures, public_key)

        monkeypatch.setattr(FastVerifier, "verify_batch", counted)

        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                signature = (await client.sign("acme", b"paid")).signature
                verdicts = await client.verify_many(
                    "acme", [b"paid", b"unpaid", b"paid"],
                    [signature, signature, signature[:-1]])
                assert [v.valid for v in verdicts] == [True, False, False]
                assert all(v.transport == "cluster" for v in verdicts)
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())
        assert jobs == [3]

    def test_stats_carries_the_cluster_section(self):
        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                await client.sign("acme", b"hello")
                snapshot = cluster.router_service.stats()
                section = snapshot["cluster"]
                assert section["live_nodes"] == 2
                assert len(section["nodes"]) == 2
                assert all(node["up"] for node in section["nodes"])
                assert section["shards"]["acme"] == cluster.owner("acme")
                assert snapshot["config"]["backend"] == "cluster"
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_the_router_dispatches_no_batches(self):
        """A batch is formed by a node's batcher, so only the node counts
        it; the router forwards requests and counts those."""
        async def scenario():
            cluster = await make_cluster().start()
            node = cluster.services[cluster.owner("acme")]
            formed = []
            dispatch = node.batcher._dispatch

            async def spy(queue_key, batch):
                formed.append(len(batch))
                await dispatch(queue_key, batch)

            node.batcher._dispatch = spy
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                await client.sign_many(
                    "acme", [b"invoice %d" % i for i in range(5)])
                router = cluster.router_service.stats()
                assert router["batches"] == {"dispatched": 0,
                                             "histogram": {}}
                assert router["tenants"]["acme"]["signed"] == 5
                assert sum(formed) == 5
                assert node.stats()["batches"] == {
                    "dispatched": len(formed),
                    "histogram": {str(size): formed.count(size)
                                  for size in sorted(set(formed))}}
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_unknown_tenant_fails_fast_and_typed(self):
        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                with pytest.raises(KeystoreError, match="unknown tenant"):
                    await client.sign("nobody", b"x")
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_placement_is_ring_deterministic(self):
        async def scenario():
            cluster = await make_cluster().start()
            try:
                service = cluster.router_service
                for tenant in TENANTS:
                    # owner == first entry of the ring preference order.
                    assert service.owner(tenant) == \
                        service.ring.preference(tenant)[0]
            finally:
                await cluster.stop()

        asyncio.run(scenario())


@pytest.mark.skipif(auto_workers() < 4,
                    reason="two one-worker nodes beside the router and the "
                           "client need about four allowed CPUs")
def test_two_nodes_beat_one_on_fresh_messages():
    """Scale-out, checked where the cores exist.  ``bench/`` prices the
    router hop (``cluster.tax_kh``); a scaling rung is ROADMAP item 1(i)."""
    # The ring shards by tenant name: one tenant per node of a two-node
    # ring, so the load can split evenly (TENANTS all land on node 0).
    tenants = ("tenant-0", "tenant-1")
    assert {HashRing(2).preference(name)[0] for name in tenants} == {0, 1}

    def node():
        return SigningService(make_keystore(tenants), workers=1,
                              target_batch_size=4, max_wait_s=0.02,
                              deterministic=True)

    async def timed(nodes):
        cluster = await LocalCluster([node] * nodes).start()
        client = await AsyncClusterClient.connect(port=cluster.port)
        try:
            await asyncio.gather(*(client.sign(tenant, b"warm-up")
                                   for tenant in tenants))
            started = time.perf_counter()
            await asyncio.gather(*(
                client.sign_many(tenant, [f"scale-out {i}".encode()
                                          for i in range(8)])
                for tenant in tenants))
            return time.perf_counter() - started
        finally:
            await client.close()
            await cluster.stop()

    one, two = asyncio.run(timed(1)), asyncio.run(timed(2))
    assert one / two >= 1.5, (one, two)


class TestFailover:
    def test_node_kill_rehomes_and_keeps_bytes(self):
        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                tenant, message = "acme", b"before and after"
                first = await client.sign(tenant, message)
                victim = cluster.owner(tenant)
                await cluster.kill_node(victim)
                second = await client.sign(tenant, message)
                # Re-signed on the survivor: same deterministic bytes.
                assert second.signature == first.signature
                assert second.backend.startswith(f"node{1 - victim}")
                snapshot = cluster.router_service.stats()
                assert snapshot["cluster"]["live_nodes"] == 1
                assert snapshot["cluster"]["rehomes"] == 1
                assert snapshot["cluster"]["shards"][tenant] == 1 - victim
                # The section is a view of the one counter, not a copy.
                registry = cluster.router_service.metrics_registry
                registry.counter("repro_cluster_rehomes_total",
                                 tenant=tenant).inc(2)
                assert cluster.router_service.stats()[
                    "cluster"]["rehomes"] == 3
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_requests_in_flight_at_a_node_kill_all_resolve(self):
        """Each ends in the bytes any node would have signed or in a typed
        service error — never a hang, never an untyped crash."""
        work = [(tenant, f"in flight {i}".encode())
                for tenant in TENANTS for i in range(2)]

        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                tasks = [asyncio.create_task(client.sign(tenant, message))
                         for tenant, message in work]
                # Let the first forwards reach the victim, so the kill
                # lands on requests that really are in flight.
                await asyncio.sleep(0.05)
                await cluster.kill_node(cluster.owner(TENANTS[0]))
                return await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=60)
            finally:
                await client.close()
                await cluster.stop()

        outcomes = asyncio.run(scenario())
        signer = get_backend("vectorized", "128f", deterministic=True)
        keystore = make_keystore()
        signed = 0
        for (tenant, message), outcome in zip(work, outcomes):
            if isinstance(outcome, ServiceError):
                continue
            assert not isinstance(outcome, BaseException), repr(outcome)
            keys, _ = keystore.resolve(tenant)
            assert outcome.signature == signer.sign(message, keys)
            signed += 1
        assert signed, outcomes

    def test_all_nodes_down_is_typed_unavailable(self):
        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                await cluster.kill_node(0)
                await cluster.kill_node(1)
                with pytest.raises(NodeUnavailableError):
                    await asyncio.wait_for(client.sign("acme", b"x"),
                                           timeout=30)
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_recovered_node_takes_its_tenants_back(self):
        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                tenant = "acme"
                primary = cluster.owner(tenant)
                await cluster.kill_node(primary)
                await client.sign(tenant, b"on the survivor")
                assert cluster.owner(tenant) == 1 - primary
                await cluster.restart_node(primary)
                # The health loop re-dials the restarted port; wait for
                # the router to see it come back.
                for _ in range(100):
                    snapshot = cluster.router_service.stats()
                    if snapshot["cluster"]["live_nodes"] == 2:
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("health loop never recovered "
                                         "the restarted node")
                # Ring order never changed: the tenant snaps back.
                assert cluster.owner(tenant) == primary
                result = await client.sign(tenant, b"back home")
                assert result.backend.startswith(f"node{primary}")
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_health_loop_flips_the_liveness_gauge(self):
        async def scenario():
            cluster = await make_cluster().start()
            try:
                await cluster.kill_node(0)
                # No traffic at all: the background health loop alone
                # must notice the dead node.
                for _ in range(100):
                    snapshot = cluster.router_service.stats()
                    if snapshot["cluster"]["live_nodes"] == 1:
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("health loop never marked the "
                                         "killed node down")
                registry = cluster.router_service.metrics_registry
                up = {entry["labels"]["node"]: entry["value"]
                      for entry in
                      registry.collect()["repro_node_up"]["series"]}
                assert up == {"0": 0.0, "1": 1.0}
            finally:
                await cluster.stop()

        asyncio.run(scenario())


    def test_hung_node_fails_over(self):
        """A node that answered ``hello`` and then went silent still
        holds its connection, so only the health loop's ping timeout
        notices; the requests in flight on it must then fail over to
        the next ring candidate, not fail."""
        answered = []

        async def silent_after_one_hello(reader, writer):
            line = await reader.readline()
            if not answered:
                answered.append(True)
                writer.write(protocol.encode(
                    {"ok": True, "op": "hello", "version": 3,
                     "id": json.loads(line)["id"]}))
            await reader.read()  # swallow every request, answer none
            writer.close()

        async def scenario():
            live = SigningServer(make_service(), port=0)
            await live.start()
            hung = await asyncio.start_server(silent_after_one_hello,
                                              "127.0.0.1", 0)
            slot = HashRing(2).preference("acme")[0]
            addresses = [(live.host, live.port)] * 2
            addresses[slot] = ("127.0.0.1",
                               hung.sockets[0].getsockname()[1])
            router = RouterService(addresses, make_keystore(),
                                   health_interval_s=0.2)
            await router.start()
            try:
                assert router.owner("acme") == slot
                outcome = await asyncio.wait_for(
                    router.sign(b"stuck?", "acme"), timeout=30)
                assert outcome.signature == reference_signature(
                    "acme", b"stuck?")
                assert outcome.backend.startswith(f"node{1 - slot}:")
                up = {entry["labels"]["node"]: entry["value"]
                      for entry in router.metrics_registry.collect()[
                          "repro_node_up"]["series"]}
                assert up == {str(slot): 0.0, str(1 - slot): 1.0}
            finally:
                await router.aclose()
                hung.close()
                await live.stop()

        asyncio.run(scenario())


class TestTracing:
    def test_client_trace_id_reaches_the_node(self):
        """One trace id from the client through the router to the node
        that signs: the node's spans join the *client's* trace."""
        node_tracer = Tracer()

        def traced_node() -> SigningService:
            return SigningService(make_keystore(), target_batch_size=2,
                                  max_wait_s=0.02, deterministic=True,
                                  tracer=node_tracer)

        async def scenario():
            cluster = await LocalCluster([traced_node] * 2).start()
            # A router advertises the trace capability once it has a
            # tracer of its own (the client only sends ids it may).
            cluster.router_service.tracer = Tracer()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                with use_trace(TraceContext("c11e27", "0001")):
                    await client.sign("acme", b"follow me")
                await client.sign("acme", b"untraced")
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())
        traces = node_tracer.traces()
        assert {"request", "queue", "sign"} <= {
            span.name for span in traces["c11e27"]}
        # Nothing is sent southbound when no trace is current: the
        # second request rooted a fresh trace on the node.
        assert len(traces) == 2


class TestAdmission:
    def test_router_rate_limit_sheds_typed_overloaded(self):
        async def scenario():
            limited = make_keystore(rate_limit=0.001, rate_burst=1.0)
            cluster = await make_cluster(
                router_keystore=limited).start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                first = await client.sign("acme", b"allowed")
                assert first.signature
                with pytest.raises(OverloadedError, match="rate-limit"):
                    await client.sign("acme", b"denied")
                snapshot = cluster.router_service.stats()
                assert snapshot["cluster"]["live_nodes"] == 2
                # The one forwarded request was in flight: the router
                # feeds the high-water mark, and reads its depth live.
                assert snapshot["queue"] == {"peak_depth": 1, "depth": 0}
                families = cluster.router_service.metrics_registry.collect()
                [shed] = families["repro_shed_total"]["series"]
                assert shed == {"labels": {"tenant": "acme",
                                           "reason": "rate-limit"},
                                "value": 1.0}
                [depth] = families["repro_queue_depth"]["series"]
                assert depth["value"] == 0.0
                [denials] = families["repro_keystore_rate_denials"]["series"]
                assert denials["value"] == 1.0
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_self_hosted_cluster_admits_each_request_once(self):
        """One node sharing its keystore with the router (what
        ``serve-cluster --nodes N`` builds): a burst of two admits two
        signs, the third is shed, and the shed is counted once."""
        async def scenario():
            limited = make_keystore(rate_limit=0.001, rate_burst=2.0)
            cluster = await LocalCluster(
                [lambda: SigningService(limited, deterministic=True)],
                health_interval_s=0.05).start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                for message in (b"first", b"second"):
                    assert (await client.sign("acme", message)).signature
                with pytest.raises(OverloadedError, match="rate-limit"):
                    await client.sign("acme", b"third")
                sheds = [series for registry in (
                    cluster.router_service.metrics_registry,
                    cluster.services[0].metrics_registry)
                    for series in registry.collect().get(
                        "repro_shed_total", {"series": []})["series"]]
                assert sheds == [{"labels": {"tenant": "acme",
                                             "reason": "rate-limit"},
                                  "value": 1.0}]
                assert limited.cache_stats()["rate_denials"] == 1
            finally:
                await client.close()
                await cluster.stop()

        asyncio.run(scenario())


async def _open_v3(raw_wire, port: int, sock=None):
    """A raw v3 connection to *port*: ``(wire, writer)`` after hello."""
    if sock is None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=protocol.LINE_LIMIT)
    else:
        # A small stream limit: the reader stops taking bytes off the
        # socket past twice this, so replies stay on the server's side.
        reader, writer = await asyncio.open_connection(sock=sock,
                                                       limit=1 << 16)
    wire = raw_wire(reader)
    dialect = protocol.LineDialect()
    writer.write(dialect.encode_request("hello", 1, {"version": 3}))
    _, hello = await wire.read(dialect.read_reply)
    assert hello["version"] == 3
    return wire, writer


def _sign_frame(request_id: int, tenant: str, message: bytes) -> bytes:
    return protocol.encode_frame(
        protocol.FRAME_CODES["sign"],
        protocol.pack_sign_request(tenant, "default", message),
        id=request_id)


class TestRelay:
    """A v3 ``sign``/``verify`` crosses the router as frame bytes: what
    the client gets back, and what happens when the node behind fails."""

    def test_relayed_and_typed_replies_agree_field_for_field(self):
        async def scenario():
            cluster = await make_cluster().start()
            v3 = await AsyncClusterClient.connect(port=cluster.port)
            v2 = await AsyncClusterClient.connect(port=cluster.port,
                                                  version=2)
            try:
                results = [await client.sign("acme", b"both ways")
                           for client in (v3, v3, v2)]
                owner = cluster.owner("acme")
            finally:
                await v3.close()
                await v2.close()
                await cluster.stop()
            return results, owner

        (relayed, replayed, typed), owner = asyncio.run(scenario())
        assert relayed.signature == replayed.signature == typed.signature
        for result in (relayed, replayed, typed):
            assert result.params == "SPHINCS+-128f"
            assert result.batch_size == 1
            assert result.backend == f"node{owner}:vectorized"

    def test_hung_node_fails_over_a_relayed_sign(self):
        """The northbound twin of ``test_hung_node_fails_over``: a v3
        client's frame was written to a node that answered ``hello`` and
        then went silent; the health loop's ping timeout drops the link,
        and the kept bytes go to the other node."""
        answered = []

        async def silent_after_one_hello(reader, writer):
            line = await reader.readline()
            if not answered:
                answered.append(True)
                writer.write(protocol.encode(
                    {"ok": True, "op": "hello", "version": 3,
                     "id": json.loads(line)["id"]}))
            await reader.read()  # swallow every request, answer none
            writer.close()

        async def scenario():
            live = SigningServer(make_service(), port=0)
            await live.start()
            hung = await asyncio.start_server(silent_after_one_hello,
                                              "127.0.0.1", 0)
            slot = HashRing(2).preference("acme")[0]
            addresses = [(live.host, live.port)] * 2
            addresses[slot] = ("127.0.0.1",
                               hung.sockets[0].getsockname()[1])
            service = RouterService(addresses, make_keystore(),
                                    health_interval_s=0.2)
            router = ClusterRouter(service)
            await router.start()
            client = await AsyncClusterClient.connect(port=router.port)
            try:
                assert service.owner("acme") == slot
                result = await asyncio.wait_for(
                    client.sign("acme", b"stuck?"), timeout=30)
                assert result.backend.startswith(f"node{1 - slot}:")
                assert service.stats()["tenants"]["acme"]["signed"] == 1
                return result.signature
            finally:
                await client.close()
                await router.stop()
                hung.close()
                await live.stop()

        signature = asyncio.run(scenario())
        assert signature == reference_signature("acme", b"stuck?")

    def test_a_node_error_frame_keeps_the_client_id_and_type(self,
                                                             raw_wire):
        """A node whose own keystore sheds answers ``overloaded``: the
        router relays that frame under the id the client sent, and the
        typed client raises :class:`OverloadedError`."""
        def shedding_node() -> SigningService:
            return SigningService(
                make_keystore(rate_limit=0.001, rate_burst=1.0),
                deterministic=True)

        async def scenario():
            cluster = await LocalCluster(
                [shedding_node] * 2, router_keystore=make_keystore(),
                health_interval_s=0.05).start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            wire, writer = await _open_v3(raw_wire, cluster.port)
            try:
                await client.sign("acme", b"spends the one token")
                with pytest.raises(OverloadedError, match="rate-limit"):
                    await client.sign("acme", b"shed by the node")
                writer.write(_sign_frame(0xC0FFEE, "acme", b"raw"))
                frame = await asyncio.wait_for(
                    wire.read(protocol.read_frame), timeout=30)
                snapshot = cluster.router_service.stats()
            finally:
                writer.close()
                await client.close()
                await cluster.stop()
            return frame, snapshot

        frame, snapshot = asyncio.run(scenario())
        assert frame.id == 0xC0FFEE
        assert frame.verb == protocol.FRAME_ERROR
        assert protocol.unpack_error(frame.payload)["error"] == "overloaded"
        tenant = snapshot["tenants"]["acme"]
        assert (tenant["submitted"], tenant["signed"], tenant["failed"]) \
            == (3, 1, 2)

    def test_a_half_closed_client_gets_every_relayed_reply(self,
                                                          raw_wire):
        """A client that pipelines its signs and then shuts its sending
        side (``SHUT_WR``) still reads every reply, under its id: the
        router keeps the connection open until the relays still at a
        node have answered."""
        messages = [b"half-close %d" % index for index in range(8)]

        async def scenario():
            cluster = await make_cluster().start()
            wire, writer = await _open_v3(raw_wire, cluster.port)
            try:
                writer.write(b"".join(
                    _sign_frame(request_id, "acme", message)
                    for request_id, message in enumerate(messages, 2)))
                writer.write_eof()
                frames = [await asyncio.wait_for(
                    wire.read(protocol.read_frame), timeout=60)
                    for _ in messages]
                end = await asyncio.wait_for(
                    wire.read(protocol.read_frame), timeout=60)
            finally:
                writer.close()
                await cluster.stop()
            return frames, end

        frames, end = asyncio.run(scenario())
        assert end is None  # then the router closes
        assert sorted(frame.id for frame in frames) \
            == list(range(2, 2 + len(messages)))
        assert all(frame.verb == protocol.FRAME_CODES["sign"] and frame.ok
                   for frame in frames)
        [first] = [frame for frame in frames if frame.id == 2]
        assert protocol.unpack_sign_result(first.payload)["signature"] \
            == reference_signature("acme", messages[0])

    def test_a_relayed_verify_of_a_corrupted_signature_is_invalid(self):
        async def scenario():
            cluster = await make_cluster().start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            try:
                signature = (await client.sign("edge", b"ledger")).signature
                corrupted = bytearray(signature)
                corrupted[len(corrupted) // 2] ^= 0x01
                return [await client.verify("edge", b"ledger", candidate)
                        for candidate in (signature, bytes(corrupted))]
            finally:
                await client.close()
                await cluster.stop()

        genuine, corrupted = asyncio.run(scenario())
        assert genuine.valid and not corrupted.valid
        assert corrupted.params == "SPHINCS+-128f"

    def test_a_client_that_never_reads_stops_the_router_reading(
            self, raw_wire):
        """Relayed replies are written by a callback, which cannot wait
        on ``drain()``; so past the high-water mark the router reads no
        more frames from that client.  Waves of pipelined signs from a
        client that never reads leave the router's write buffer holding
        about one wave of replies, not every wave's."""
        waves, wave = 8, 16
        message = b"a replay nobody collects"

        async def scenario():
            cluster = await make_cluster().start()
            first = (await cluster.router_service.sign(
                message, "acme")).signature
            [listener] = cluster.router._server.sockets
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect(("127.0.0.1", cluster.port))
            wire, writer = await _open_v3(raw_wire, cluster.port,
                                          sock=sock)
            try:
                ids = range(2, 2 + waves * wave)
                for start in range(0, len(ids), wave):
                    writer.write(b"".join(
                        _sign_frame(request_id, "acme", message)
                        for request_id in ids[start:start + wave]))
                    await writer.drain()
                    await asyncio.sleep(0.1)
                [northbound] = cluster.router._connections
                buffered = northbound.transport.get_write_buffer_size()
                forwarded = cluster.router_service.stats()[
                    "tenants"]["acme"]["submitted"] - 1
                frames = [await asyncio.wait_for(
                    wire.read(protocol.read_frame), timeout=60) for _ in ids]
            finally:
                writer.close()
                await cluster.stop()
            return first, ids, buffered, forwarded, frames

        first, ids, buffered, forwarded, frames = asyncio.run(scenario())
        reply = len(protocol.encode_frame(0, bytes(len(first) + 64)))
        assert forwarded <= 2 * wave, (forwarded, buffered)
        assert buffered <= 2 * wave * reply, buffered
        # Reading again, the client gets every reply once, under its id.
        assert sorted(frame.id for frame in frames) == list(ids)
        assert all(protocol.unpack_sign_result(frame.payload)["signature"]
                   == first for frame in frames)
