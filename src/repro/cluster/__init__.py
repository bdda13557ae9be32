"""Multi-node scale-out: a cluster router over sharded signing nodes.

One signing node — even with a worker pool — tops out at a single
machine.  This package scales the service *horizontally*: a
:class:`~.router.ClusterRouter` process speaks the ordinary wire
protocol (v2/v3) northbound and places every request on one of N
backend :class:`~repro.service.server.SigningServer` nodes southbound,
so clients, the CLI, and the load generator work against a cluster
completely unchanged.

Placement is consistent hashing over the tenant name
(:class:`~.ring.HashRing`).  A node failure re-homes only that node's
arc of tenants (onto the next slot in ring-preference order), and the
shard snaps back the moment the node recovers.  Requests that cannot be placed anywhere
fail with a typed ``unavailable`` error — never a hang — and are safe
to resubmit because nothing was signed.

Key distribution rides the sharded
:class:`~repro.service.keystore.Keystore`: every node points at a
keystore holding all tenants (shared root or identical seeding), and
the per-node LRU key cache keeps only the shards the ring actually
homes there resident — a re-homed tenant's keys load lazily on the
failover node.

See ``docs/architecture.md`` for the full design and
``docs/operations.md`` for running a cluster.
"""

from .local import LocalCluster
from .router import ClusterRouter, RouterService

__all__ = ["ClusterRouter", "LocalCluster", "RouterService"]
