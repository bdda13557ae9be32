"""An in-process cluster: N signing nodes behind one router.

Test/demo scaffolding used by the differential oracle's cluster paths,
the ``repro serve-cluster`` CLI, and the CI smoke run.  Every node is a
real :class:`SigningServer` on its own loopback port speaking the real
wire protocol — only the processes are shared, so chaos experiments
(:meth:`LocalCluster.kill_node` aborts a node's transports mid-flight)
exercise exactly the failover code a multi-host deployment would.

Each node's service comes from a caller-supplied factory, so nodes can
be restarted after a kill: the factory builds a fresh service (same
keystore seeding) and the new server binds the *same* port, which is how
a recovered node re-enters the ring without any router reconfiguration.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ServiceError
from ..service.keystore import Keystore
from ..service.server import SigningServer, SigningService
from .router import ClusterRouter, RouterService

__all__ = ["LocalCluster"]


class LocalCluster:
    """N factory-built signing nodes fronted by a :class:`ClusterRouter`.

    Parameters
    ----------
    factories:
        One zero-argument callable per node, each returning a fresh
        :class:`SigningService`.  Factories must seed their keystores
        identically — a tenant re-homed to another node must resolve the
        same key bytes there, or failover would change signatures.
    router_keystore:
        The router's own registry for fail-fast resolution (default: the
        first node's keystore, which is correct whenever the factories
        seed identically).  The router admits on it only when no node
        does, so a request is admitted once per keystore it touches.
    host / port:
        Northbound bind for the router (``port=0`` picks a free port,
        published as :attr:`port` after :meth:`start`).
    """

    def __init__(self, factories: list[Callable[[], SigningService]], *,
                 router_keystore: Keystore | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_retries: int = 2, health_interval_s: float = 0.2):
        if not factories:
            raise ServiceError("a cluster needs at least one node factory")
        self._factories = list(factories)
        self._router_keystore = router_keystore
        self.host = host
        self.port = port
        self.max_retries = max_retries
        self.health_interval_s = health_interval_s
        self.services: list[SigningService] = []
        self.servers: list[SigningServer] = []
        self.router_service: RouterService | None = None
        self.router: ClusterRouter | None = None

    async def start(self) -> "LocalCluster":
        """Start every node, then the router; returns ``self``."""
        for factory in self._factories:
            service = factory()
            server = SigningServer(service, port=0)
            await server.start()
            self.services.append(service)
            self.servers.append(server)
        keystore = (self._router_keystore if self._router_keystore is not None
                    else self.services[0].keystore)
        self.router_service = RouterService(
            [(server.host, server.port) for server in self.servers],
            keystore, admit=all(service.keystore is not keystore
                                for service in self.services),
            max_retries=self.max_retries,
            health_interval_s=self.health_interval_s)
        self.router = ClusterRouter(self.router_service,
                                    host=self.host, port=self.port)
        await self.router.start()
        self.port = self.router.port
        return self

    async def stop(self) -> None:
        if self.router is not None:
            await self.router.stop()
            self.router = None
            self.router_service = None
        for server in self.servers:
            try:
                await server.stop()
            except Exception:  # noqa: BLE001 — aborted nodes stay dead
                pass
        self.servers.clear()
        self.services.clear()

    # ------------------------------------------------------------------
    # Chaos controls
    # ------------------------------------------------------------------
    async def kill_node(self, index: int) -> None:
        """Crash node *index*: transports reset, queued work abandoned."""
        await self.servers[index].abort()

    async def restart_node(self, index: int) -> None:
        """Bring a killed node back on its original port."""
        old_port = self.servers[index].port
        service = self._factories[index]()
        server = SigningServer(service, port=old_port)
        await server.start()
        self.services[index] = service
        self.servers[index] = server

    def owner(self, tenant: str) -> int:
        """The node index the router currently places *tenant* on."""
        assert self.router_service is not None, "cluster not started"
        return self.router_service.owner(tenant)
