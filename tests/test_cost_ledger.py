"""The cost ledger: exact Python calls per request, tier by tier.

A timing drifts with the machine; a count of calls does not.  Each row
replays one signed message through one tier, with the client and every
server in one event loop, and counts the calls made between the
client's ``sign`` and its result with :func:`sys.setprofile` — calls
into ``src/repro``, and every other call (the standard library, the
event loop, C functions).  Three consecutive replays must agree
exactly, and no row may exceed its pin.  The calls that are not into
``src/repro`` are the interpreter's and its event loop's, so they are
pinned for the interpreter they were counted on (:data:`PINNED_ON`); on
any other, only the ``src/repro`` count is held to its pin.

A count above its pin fails: find the call the change added to the
path, or, if it pays for itself, raise the pin and say why in
CHANGES.md.  A count below its pin passes; lower the pin to it.
"""

from __future__ import annotations

import asyncio
import gc
import sys
from pathlib import Path

import pytest

from repro.api import AsyncClient, AsyncClusterClient, LocalClient
from repro.cluster import LocalCluster
from repro.service import (Keystore, SigningServer, SigningService,
                           derive_seed)
from repro.params import get_params

#: ``(tier, request)`` -> (calls into ``src/repro``, all other calls),
#: counted on CPython :data:`PINNED_ON`.
PINNED_ON = (3, 11)
COSTS = {
    ("local", "replay"): (25, 33),
    ("tcp-v3", "replay"): (115, 319),
    ("tcp-v2", "replay"): (67, 346),
    ("cluster-v3", "replay"): (153, 518),
    ("cluster-v2", "replay"): (177, 665),
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


class _Counter:
    """A profile hook: ``repro`` Python calls, every other call."""

    def __init__(self):
        self.repro = self.other = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            if frame.f_code.co_filename.startswith(_SRC):
                self.repro += 1
            else:
                self.other += 1
        elif event == "c_call":
            self.other += 1


def _counted(call):
    counter = _Counter()
    gc.disable()
    sys.setprofile(counter)
    try:
        result = call()
    finally:
        sys.setprofile(None)
        gc.enable()
    return (counter.repro, counter.other), result


async def _acounted(call):
    counter = _Counter()
    gc.disable()
    sys.setprofile(counter)
    try:
        result = await call()
    finally:
        sys.setprofile(None)
        gc.enable()
    return (counter.repro, counter.other), result


def _local_replays() -> list[tuple[int, int]]:
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


async def _replays(client) -> list[tuple[int, int]]:
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


async def _tcp_replays(version: int) -> list[tuple[int, int]]:
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


async def _cluster_replays(version: int) -> list[tuple[int, int]]:
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


def measure(tier: str) -> list[tuple[int, int]]:
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
    [(repro_calls, other_calls)] = set(counts)
    if sys.version_info[:2] != PINNED_ON:
        other_calls = 0  # the interpreter's own calls differ by version
    assert repro_calls <= pin[0] and other_calls <= pin[1], (
        f"{tier} {request_kind}: {repro_calls} + {other_calls} calls, "
        f"pinned at {pin[0]} + {pin[1]}: a call was added to the path")


if __name__ == "__main__":
    for tier, _ in sorted(COSTS):
        print(tier, measure(tier))
