"""The cost ledger: exact Python calls per request, tier by tier.

A timing drifts with the machine; a count of calls does not.  Each row
replays one signed message through one tier, with the client and every
server in one event loop, and counts the calls made between the
client's ``sign`` and its result with :func:`sys.setprofile` — calls
into ``src/repro``, and every other call (the standard library, the
event loop, C functions) — and, from the same hook, the transport's
work: socket sends, socket receives and event-loop turns
(``BaseEventLoop._run_once``).  Three consecutive replays must agree
exactly, and no row may exceed its pin.  Everything but the calls into
``src/repro`` is the interpreter's and its event loop's, so it is
pinned for the interpreter it was counted on (:data:`PINNED_ON`); on
any other, only the ``src/repro`` count is held to its pin.

A count above its pin fails: find the call the change added to the
path, or, if it pays for itself, raise the pin and say why in
CHANGES.md.  A count below its pin passes; lower the pin to it.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import sys
from typing import NamedTuple
from pathlib import Path

import pytest

from repro.api import AsyncClient, AsyncClusterClient, LocalClient
from repro.cluster import LocalCluster
from repro.service import (Keystore, SigningServer, SigningService,
                           derive_seed)
from repro.params import get_params


class Cost(NamedTuple):
    """What one request costs, as :func:`sys.setprofile` sees it."""

    repro: int   # Python calls into ``src/repro``
    other: int   # every other call, C calls included
    sends: int   # ``socket.send`` / ``sendall`` / ``sendmsg`` calls
    receives: int  # ``socket.recv`` / ``recv_into`` calls
    turns: int   # event-loop iterations (``BaseEventLoop._run_once``)


#: ``(tier, request)`` -> its :class:`Cost`, counted on CPython
#: :data:`PINNED_ON`.
PINNED_ON = (3, 11)
COSTS = {
    ("local", "replay"): Cost(25, 33, 0, 0, 0),
    ("tcp-v3", "replay"): Cost(54, 173, 2, 2, 3),
    ("tcp-v2", "replay"): Cost(67, 265, 2, 2, 4),
    ("cluster-v3", "replay"): Cost(88, 290, 4, 4, 5),
    ("cluster-v2", "replay"): Cost(116, 446, 4, 4, 7),
}

TENANT, MESSAGE = "ledger", b"a replayed attestation"
_SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro")
#: A cluster's health loop must not tick inside a counted request.
_NO_HEALTH_S = 3600.0


def _keystore() -> Keystore:
    keystore = Keystore()
    keystore.add_tenant(TENANT, "128f")
    keystore.generate_key(TENANT, "default", seed=derive_seed(
        f"{TENANT}/default", get_params("128f").n))
    return keystore


_SENDS = frozenset(("send", "sendall", "sendmsg"))
_RECEIVES = frozenset(("recv", "recv_into"))


class _Counter:
    """A profile hook: ``repro`` Python calls, every other call, and
    among those the socket sends, receives and loop turns."""

    def __init__(self):
        self.repro = self.other = 0
        self.sends = self.receives = self.turns = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_SRC):
                self.repro += 1
            else:
                self.other += 1
                if code.co_name == "_run_once":
                    self.turns += 1
        elif event == "c_call":
            self.other += 1
            if isinstance(getattr(arg, "__self__", None), socket.socket):
                name = arg.__name__
                self.sends += name in _SENDS
                self.receives += name in _RECEIVES

    def cost(self) -> Cost:
        return Cost(self.repro, self.other, self.sends, self.receives,
                    self.turns)


def _counted(call):
    counter = _Counter()
    gc.disable()
    sys.setprofile(counter)
    try:
        result = call()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counter.cost(), result


async def _acounted(call):
    counter = _Counter()
    gc.disable()
    sys.setprofile(counter)
    try:
        result = await call()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counter.cost(), result


def _local_replays() -> list[Cost]:
    client = LocalClient(_keystore(), deterministic=True, workers=0)
    try:
        first = client.sign(TENANT, MESSAGE).signature
        counts = []
        for _ in range(3):
            count, result = _counted(lambda: client.sign(TENANT, MESSAGE))
            assert result.signature == first
            counts.append(count)
        return counts
    finally:
        client.close()


async def _replays(client) -> list[Cost]:
    first = (await client.sign(TENANT, MESSAGE)).signature
    counts = []
    for _ in range(3):
        count, result = await _acounted(
            lambda: client.sign(TENANT, MESSAGE))
        assert result.signature == first
        counts.append(count)
    return counts


def _service() -> SigningService:
    return SigningService(_keystore(), deterministic=True)


async def _tcp_replays(version: int) -> list[Cost]:
    server = SigningServer(_service(), port=0)
    await server.start()
    try:
        client = await AsyncClient.connect(port=server.port,
                                           version=version)
        try:
            return await _replays(client)
        finally:
            await client.close()
    finally:
        await server.stop()


async def _cluster_replays(version: int) -> list[Cost]:
    cluster = await LocalCluster([_service] * 2,
                                 health_interval_s=_NO_HEALTH_S).start()
    try:
        client = await AsyncClusterClient.connect(port=cluster.port,
                                                  version=version)
        try:
            return await _replays(client)
        finally:
            await client.close()
    finally:
        await cluster.stop()


def measure(tier: str) -> list[Cost]:
    """Three consecutive replay counts through *tier*."""
    if tier == "local":
        return _local_replays()
    kind, version = tier.split("-v")
    replays = _tcp_replays if kind == "tcp" else _cluster_replays
    return asyncio.run(replays(int(version)))


@pytest.mark.parametrize("tier, request_kind", sorted(COSTS))
def test_a_replay_costs_no_more_calls_than_its_pin(tier, request_kind):
    counts = measure(tier)
    assert len(set(counts)) == 1, (
        f"{tier} {request_kind}: three replays made {counts} calls — a "
        "count that moves between identical requests gates nothing")
    pin = COSTS[(tier, request_kind)]
    [cost] = set(counts)
    if sys.version_info[:2] != PINNED_ON:
        # The interpreter's own calls and its event loop's socket
        # operations and turns differ by version.
        cost = Cost(cost.repro, 0, 0, 0, 0)
    over = [name for name, count, pinned in zip(Cost._fields, cost, pin)
            if count > pinned]
    assert not over, (
        f"{tier} {request_kind}: {cost} against its pin {pin}: "
        f"{', '.join(over)} went up — something was added to the path")


if __name__ == "__main__":
    for tier, _ in sorted(COSTS):
        print(tier, measure(tier))
