"""The cluster router: consistent-hash placement over signing nodes.

:class:`RouterService` presents the :class:`~..service.server.SigningService`
surface (``sign`` / ``verify`` / ``stats`` / ``keystore`` /
``metrics_registry``) but owns no batcher or backend — every request is
placed on one of N backend :class:`~..service.server.SigningServer` nodes
and forwarded as a v3 frame over a pipelined
:class:`~..service.client.ServiceClient` link.  :class:`ClusterRouter`
serves it northbound as a ``SigningServer``, so the router speaks
protocol v2/v3 *unchanged*.  A v3 client's ``sign``, ``verify`` and
``verify-many`` frames skip the verb table: :meth:`RouterService.relay`
reads their tenant and key, forwards their bytes, and rewrites only the
request id (and, on a signature, ``total_ms`` and the ``node{i}:``
prefix on ``backend``) of the node's reply.  Typed calls (v2,
``sign-many`` items) pack a v3 frame and take the same relay.

Placement and failover
----------------------
The shard key is the tenant name.  :meth:`~repro.cluster.ring.HashRing.
preference` yields every node slot in clockwise ring order from the
tenant's hash point; the router forwards to the first *live* entry.  That
single rule gives the whole failover story:

* All nodes up — each tenant sits on its primary; adding a node moves
  only the tenants whose arc it claims (consistent hashing).
* A node dies — its tenants re-home to the next slot on the ring, the
  same slot consistent hashing would pick if the node were removed.
* The node returns — the preference order has not changed, so each
  tenant snaps back to its primary on the next request.

Liveness is driven two ways: a link that drops marks the node down, and
each request in flight on it resends its kept bytes to the next
candidate immediately (bounded by ``max_retries``), and a background
health loop pings live nodes and
re-dials dead ones every ``health_interval_s``.  When no candidate
accepts, the request fails with a typed
:class:`~repro.errors.NodeUnavailableError` ("unavailable" on the wire)
— never a hang, and safe to resubmit since nothing was signed.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time
from typing import Callable

from ..errors import (ConnectionLostError, NodeUnavailableError,
                      OverloadedError, ProtocolError, ServiceError)
from ..obs.log import get_logger
from ..obs.trace import current_trace
from .ring import HashRing
from ..service import protocol
from ..service.client import ServiceClient
from ..service.keystore import Keystore
from ..service.server import SigningServer, SignOutcome
from ..service.telemetry import Telemetry
from ..service.verbs import error_frame

__all__ = ["ClusterRouter", "RouterService"]

_log = get_logger("cluster")

#: Errors that mean "this node is gone", not "this request is bad" —
#: the only ones that trigger failover to the next ring candidate.
_NODE_ERRORS = (ConnectionLostError, ConnectionError, OSError,
                asyncio.TimeoutError)

#: The verbs a router forwards as frames, not as typed values.
_RELAYED = {op: protocol.FRAME_CODES[op]
            for op in ("sign", "verify", "verify-many")}
_SIGN = protocol.FRAME_CODES["sign"]


class _Node:
    """One backend signing node and its southbound connection state."""

    __slots__ = ("index", "host", "port", "prefix", "wire", "up")

    def __init__(self, index: int, host: str, port: int):
        self.index = index
        self.host = host
        self.port = port
        #: What the router puts before the ``backend`` of a signature.
        self.prefix = f"node{index}:".encode()
        self.wire: ServiceClient | None = None
        self.up = True  # optimistic: the first forward attempt decides

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class _Relay:
    """One forwarded request's payload, kept until a node's reply lands
    so that a dropped link can resend it down the ring.  The link calls
    it with the reply frame in the turn it is read, or with the error
    that ended it."""

    __slots__ = ("router", "code", "payload", "tenant", "write",
                 "request_id", "started", "candidates", "attempt", "node",
                 "last")

    def __init__(self, router: "RouterService", code: int,
                 payload: bytes | memoryview, tenant: str,
                 write: Callable[[bytes], object], request_id: int):
        self.router, self.code, self.payload = router, code, payload
        self.tenant, self.write, self.request_id = tenant, write, request_id
        self.started = time.monotonic()
        self.candidates: tuple[_Node, ...] = ()
        self.attempt, self.node, self.last = 0, None, None

    def send(self) -> None:
        """Write the payload to the next ring candidate (one without a
        live link is dialed in a task first); after
        ``max_retries`` more, answer typed ``unavailable``."""
        router = self.router
        if self.attempt >= len(self.candidates) \
                or self.attempt > router.max_retries:
            self(NodeUnavailableError(
                f"no node accepted {protocol.FRAME_VERBS[self.code]!r} for "
                f"tenant {self.tenant!r} after {router.max_retries + 1} "
                f"attempts (last: {self.last})"))
            return
        node = self.candidates[self.attempt]
        self.attempt += 1
        if node.wire is not None:
            try:
                node.wire.relay(self.code, self.payload, self)
            except ConnectionLostError:
                pass  # the link died idle: dial the node again
            else:
                self.node = node
                return
        router._spawn(self._dial(node))

    async def _dial(self, node: _Node) -> None:
        try:
            wire = await self.router._connect(node)
            wire.relay(self.code, self.payload, self)
        except _NODE_ERRORS as exc:
            self.last = exc
            self.router._mark_down(node, reason=str(exc))
            self.send()
        except Exception as exc:  # noqa: BLE001 — a refused hello, typed
            self(exc)
        else:
            self.node = node

    def __call__(self, reply: protocol.Frame | Exception) -> None:
        router = self.router
        if isinstance(reply, _NODE_ERRORS):
            self.last = reply
            router._mark_down(self.node, reason=str(reply))
            self.send()
            return
        router._track(-1)
        if isinstance(reply, Exception):
            data = error_frame(self.request_id, reply)
        elif self.code != _SIGN or reply.verb != _SIGN:
            data = protocol.encode_frame(reply.verb, reply.payload,
                                         id=self.request_id,
                                         flags=reply.flags)
        else:
            total_ms = (time.monotonic() - self.started) * 1000.0
            try:
                data, wait_ms = protocol.relay_sign_result(
                    reply, self.request_id, round(total_ms, 3),
                    self.node.prefix)
            except ProtocolError as exc:
                data = error_frame(self.request_id, exc)
            else:
                # The node's batcher formed the batch; its stats count it.
                router._note_home(self.tenant, self.node)
                router.telemetry.record_signed(self.tenant, total_ms,
                                               wait_ms)
                self.write(data)
                return
        if self.code == _SIGN:
            router.telemetry.record_failed(self.tenant)
        self.write(data)


class RouterService:
    """Tenant-sharded request placement over N backend signing nodes.

    Satisfies the service surface the TCP verb table consumes, so a
    stock :class:`~..service.server.SigningServer` (via
    :class:`ClusterRouter`) serves it northbound without modification.

    Parameters
    ----------
    nodes:
        ``(host, port)`` of every backend node.  Ring slot *i* is node
        *i* — placement depends on the order, so every router fronting
        the same cluster must list the nodes identically.
    keystore:
        The router's own key registry, used to fail unknown tenants and
        keys fast (before any forwarding) and to answer the ``keys``
        verb.  Point it at the same root the nodes share; with
        ``max_cached`` set, resident memory tracks only hot tenants.
    admit:
        Whether the router takes each sign's admission token from
        *keystore* itself.  ``False`` where the nodes admit on this very
        keystore (a self-hosted :class:`~.local.LocalCluster`), so a
        request takes one token, not two.
    max_retries:
        Extra placement attempts after the primary (each on the next
        live ring candidate) before a request fails as unavailable.
    health_interval_s:
        Background liveness cadence: live nodes are pinged, dead nodes
        re-dialed.  A recovered node starts taking its tenants back on
        the very next request.
    """

    def __init__(self, nodes: list[tuple[str, int]], keystore: Keystore,
                 *, admit: bool = True, max_retries: int = 2,
                 health_interval_s: float = 0.5):
        if not nodes:
            raise ServiceError("a cluster needs at least one node")
        if max_retries < 0:
            raise ServiceError(
                f"max_retries must be >= 0, got {max_retries}")
        self.keystore = keystore
        self.admit = admit
        self.backend_name = "cluster"
        self.pool = None  # capabilities(): a router has no local workers
        self.tracer = None  # the server's span hooks: a router records none
        self.telemetry = Telemetry()
        self.metrics_registry = self.telemetry.registry
        self.telemetry.add_source("queue",
                                  lambda: {"depth": self._in_flight})
        self.telemetry.add_source("keystore", keystore.cache_stats)
        self.max_retries = max_retries
        self.health_interval_s = health_interval_s
        self.ring = HashRing(len(nodes))
        self._nodes = [_Node(i, host, port)
                       for i, (host, port) in enumerate(nodes)]
        #: Ring preference per tenant (the ring is fixed); all nodes up?
        self._preferences: dict[str, tuple[_Node, ...]] = {}
        self._all_up = True
        #: Last node each tenant was served by; a change is a re-home.
        self._homes: dict[str, int] = {}
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._health_task: asyncio.Task | None = None
        #: Dials that relays started, for nodes without a live link.
        self._dials: set[asyncio.Task] = set()
        self._closed = False
        for node in self._nodes:
            self._node_gauge(node)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Dial every node and start the health loop.

        Nodes that refuse the first dial come up ``down`` (their tenants
        land on failover candidates) and are re-dialed by the health
        loop — a router may start before its fleet does.
        """
        for node in self._nodes:
            try:
                await self._connect(node)
            except _NODE_ERRORS:
                self._mark_down(node, reason="initial dial failed")
        if self._health_task is None:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop())

    async def aclose(self) -> None:
        """Stop the health loop, wait out in-flight requests, hang up."""
        self._closed = True
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        await self._idle.wait()
        for node in self._nodes:
            wire, node.wire = node.wire, None
            if wire is not None:
                with contextlib.suppress(Exception):
                    await wire.close()

    async def drain(self) -> None:
        """SigningServer.stop() hook: wait for forwarded requests."""
        await self._idle.wait()

    def close(self) -> None:
        """Sync half of shutdown (SigningServer.stop() calls this).

        :class:`ClusterRouter` runs :meth:`aclose` first, so by the time
        the base server reaches here there is nothing left to do — but a
        bare ``SigningServer`` over a RouterService stays safe too.
        """
        self._closed = True
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None

    # ------------------------------------------------------------------
    # Service surface (consumed by the verb table)
    # ------------------------------------------------------------------
    def relay(self, write: Callable[[bytes], object], op: object,
              request_id: int, payload: memoryview) -> bool:
        """Forward one v3 ``sign``, ``verify`` or ``verify-many`` frame
        as bytes, reading only its tenant and key (``False`` for any
        other verb).  *write* gets the node's reply under *request_id*
        (a signature's with the router's ``total_ms`` and a ``node{i}:``
        prefix on ``backend``), or the typed error that ended it."""
        code = _RELAYED.get(op)  # type: ignore[arg-type]
        if code is None:
            return False
        try:
            tenant, key = protocol.peek_route(payload)
        except ProtocolError as exc:
            write(error_frame(request_id, exc))
        else:
            self._forward(code, payload, tenant, key, write, request_id)
        return True

    def _forward(self, code: int, payload: bytes | memoryview, tenant: str,
                 key: str, write: Callable[[bytes], object],
                 request_id: int) -> None:
        """Fail fast on the keystore (and admit, for a sign), then send
        *payload* to the tenant's node, counted in flight until answered."""
        try:
            self.keystore.resolve(tenant, key)  # fail fast, never forward
            if code == _SIGN:
                if self.admit and not self.keystore.admit(tenant):
                    self.telemetry.record_shed(tenant, "rate-limit")
                    raise OverloadedError(
                        f"tenant {tenant!r} exhausted its admission "
                        "rate-limit budget; request shed")
                self.telemetry.record_submitted(tenant)
        except Exception as exc:  # noqa: BLE001 — answered, typed
            write(error_frame(request_id, exc))
            return
        # Kept for a resend: a copy, not a view of the read buffer.
        relay = _Relay(self, code, bytes(payload), tenant, write,
                       request_id)
        self._track(+1)
        try:
            relay.candidates = self._candidates(tenant)
        except NodeUnavailableError as exc:
            relay(exc)
            return
        relay.send()

    async def sign(self, message: bytes, tenant: str,
                   key_name: str = "default",
                   deadline_ms: float | None = None) -> SignOutcome:
        """Place and forward one sign request; returns the node's outcome.

        Raises :class:`KeystoreError` / :class:`OverloadedError` exactly
        like the local service (typed node responses propagate), and
        :class:`NodeUnavailableError` when the owner and every failover
        candidate are unreachable.
        """
        # The northbound verb installed the client's trace id as the
        # ambient context; forwarding it joins the node's spans to it.
        trace = current_trace()
        result = protocol.unpack_sign_result((await self._call(
            "sign", tenant, key_name, protocol.pack_sign_request(
                tenant, key_name, message, deadline_ms,
                trace.trace_id if trace is not None else None))).payload)
        return SignOutcome(
            signature=result["signature"], tenant=tenant,
            key_name=key_name, params=result["params"],
            backend=result["backend"], batch_size=result["batch_size"],
            wait_ms=result["wait_ms"], total_ms=result["total_ms"])

    async def verify(self, message: bytes, signature: bytes, tenant: str,
                     key_name: str = "default") -> tuple[bool, str]:
        """Forward a verify to the tenant's node; ``(valid, params)``."""
        [valid], params = await self.verify_many(
            [message], [signature], tenant, key_name)
        return valid, params

    async def verify_many(self, messages: list[bytes],
                          signatures: list[bytes], tenant: str,
                          key_name: str = "default"
                          ) -> tuple[list[bool], str]:
        """Forward one verify-many frame to the tenant's node;
        ``(verdicts, params)``.  The node answers a frame with one
        verify job, so a failure there is the same typed error on every
        item — re-raised here once."""
        results = protocol.unpack_verify_many_result((await self._call(
            "verify-many", tenant, key_name,
            protocol.pack_verify_many_request(
                tenant, key_name, messages, signatures))).payload
        )["results"]
        for item in results:
            if not item["ok"]:
                raise protocol.error_type(item["error"])(item["detail"])
        return [item["valid"] for item in results], results[0]["params"]

    def stats(self) -> dict:
        """Router-side telemetry snapshot plus the cluster section."""
        snapshot = self.telemetry.snapshot()
        snapshot["queue"]["depth"] = self._in_flight
        homes: dict[int, int] = {}
        for slot in self._homes.values():
            homes[slot] = homes.get(slot, 0) + 1
        snapshot["config"] = {
            "backend": self.backend_name,
            "workers": 0,
            "max_retries": self.max_retries,
            "health_interval_ms": round(self.health_interval_s * 1e3, 3),
            "tenants": {name: self.keystore.params_for(name)
                        for name in self.keystore.tenants()},
        }
        snapshot["cluster"] = {
            "nodes": [{"node": node.index, "address": node.address,
                       "up": node.up,
                       "tenants": homes.get(node.index, 0)}
                      for node in self._nodes],
            "live_nodes": sum(node.up for node in self._nodes),
            "rehomes": int(sum(
                series.value for _, series in self.metrics_registry.family(
                    "repro_cluster_rehomes_total"))),
            "shards": {tenant: self._homes[tenant]
                       for tenant in sorted(self._homes)},
        }
        return snapshot

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def owner(self, tenant: str) -> int:
        """The node index currently owning *tenant* (first live slot)."""
        return self._candidates(tenant)[0].index

    def _candidates(self, tenant: str) -> tuple[_Node, ...]:
        """Nodes to try for *tenant*: live ones in ring-preference order,
        then down ones (a "down" mark may be stale — when everything
        else failed, a request is the cheapest probe)."""
        preference = self._preferences.get(tenant)
        if preference is None:
            preference = self._preferences[tenant] = tuple(
                self._nodes[slot] for slot in self.ring.preference(tenant))
        if self._all_up:
            return preference
        live = [node for node in preference if node.up]
        if not live:
            raise NodeUnavailableError(
                f"no live node for tenant {tenant!r}: all "
                f"{len(self._nodes)} nodes are down")
        return (*live, *(node for node in preference if not node.up))

    async def _call(self, op: str, tenant: str, key: str,
                    payload: bytes) -> protocol.Frame:
        """:meth:`_forward`, awaited (the v2 and ``sign-many`` paths): the
        reply frame a v3 client would get, an error frame raised typed."""
        reply = asyncio.get_running_loop().create_future()
        self._forward(protocol.FRAME_CODES[op], payload, tenant, key,
                      lambda data: reply.done() or reply.set_result(data), 0)
        frame = protocol.decode_frame(memoryview(await reply)[4:])
        if frame.verb == protocol.FRAME_ERROR:
            error = protocol.unpack_error(frame.payload)
            raise protocol.error_type(error["error"])(error["detail"])
        return frame

    # ------------------------------------------------------------------
    # Node liveness
    # ------------------------------------------------------------------
    async def _connect(self, node: _Node) -> ServiceClient:
        # The newest protocol the node speaks (v3: binary frames).
        wire = await ServiceClient.open(node.host, node.port)
        node.wire = wire
        self._mark_up(node)
        return wire

    async def _wire(self, node: _Node) -> ServiceClient:
        if node.wire is not None and node.wire.alive:
            return node.wire
        return await self._connect(node)

    def _spawn(self, dial) -> None:
        task = asyncio.get_running_loop().create_task(dial)
        self._dials.add(task)
        task.add_done_callback(self._dials.discard)

    def _mark_down(self, node: _Node, reason: str = "") -> None:
        if node.up:
            _log.warn("node-down", node=node.index, address=node.address,
                      reason=reason)
        node.up = self._all_up = False
        wire, node.wire = node.wire, None
        if wire is not None:
            # Fire-and-forget: the wire is already dead, closing only
            # reclaims the reader task.
            task = asyncio.get_running_loop().create_task(wire.close())
            task.add_done_callback(lambda t: t.exception())
        self._node_gauge(node)

    def _mark_up(self, node: _Node) -> None:
        if not node.up:
            _log.info("node-up", node=node.index, address=node.address)
        node.up = True
        self._all_up = all(other.up for other in self._nodes)
        self._node_gauge(node)

    def _node_gauge(self, node: _Node) -> None:
        self.metrics_registry.gauge(
            "repro_node_up", "Node liveness as seen by the router",
            node=str(node.index), address=node.address,
        ).set(1.0 if node.up else 0.0)

    def _note_home(self, tenant: str, node: _Node) -> None:
        previous = self._homes.get(tenant)
        if previous == node.index:
            return
        self._homes[tenant] = node.index
        if previous is not None:
            self.metrics_registry.counter(
                "repro_cluster_rehomes_total",
                "Tenant shards moved to a different node",
                tenant=tenant).inc()
            _log.info("shard-rehomed", tenant=tenant,
                      source=previous, target=node.index)
        self.metrics_registry.gauge(
            "repro_cluster_tenant_home",
            "Node index currently serving each tenant shard",
            tenant=tenant).set(float(node.index))

    def _track(self, delta: int) -> None:
        self._in_flight += delta
        if delta > 0:  # only a rise can set a new peak
            self.telemetry.observe_depth(self._in_flight)
        if self._in_flight == 0:
            self._idle.set()
        else:
            self._idle.clear()

    async def _health_loop(self) -> None:
        """Ping live nodes, re-dial dead ones, every interval."""
        timeout = max(self.health_interval_s, 0.1)
        while not self._closed:
            await asyncio.sleep(self.health_interval_s)
            for node in self._nodes:
                try:
                    wire = await asyncio.wait_for(self._wire(node), timeout)
                    await asyncio.wait_for(wire.ping(), timeout)
                except _NODE_ERRORS as exc:
                    self._mark_down(node, reason=f"health: {exc}")
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 — keep probing
                    self._mark_down(node, reason=f"health: {exc}")


class ClusterRouter(SigningServer):
    """A :class:`SigningServer` fronting a :class:`RouterService`.

    Northbound it is indistinguishable from a single node — same verbs,
    same protocol versions, same error codes (plus ``unavailable``) —
    so every existing client (``repro.api``, the CLI, the load
    generator) works against a cluster unchanged.  Its one difference
    from a node's server: hot v3 frames are relayed in their read turn.
    """

    def __init__(self, service: RouterService,
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__(service, host=host, port=port)

    def _inline(self, write):
        # Hot v3 frames are relayed as bytes in their read turn.
        return functools.partial(self.service.relay, write)

    async def start(self) -> None:
        await self.service.start()  # southbound dials + health loop
        await super().start()

    async def stop(self) -> None:
        # The base stop() drains and closes synchronously; the router
        # additionally owns async southbound state (wires, health task)
        # that must be torn down inside the loop.
        await self.service.aclose()
        await super().stop()
