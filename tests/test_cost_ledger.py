"""The cost ledger: exact Python calls per request, tier by tier.

A timing drifts with the machine; a count of calls does not.  Each row
sends one request through one tier — a replay of a signed message, a
verify of a triple the verifier already remembers, or a ledger append
whose entry and checkpoint signatures are both replays — with the client
and every server in one event loop, and counts the calls made between the
client's call and its result with :func:`sys.setprofile` — calls into
``src/repro`` (by the resolved path of the code's file, however ``repro``
was imported), and every other call (the standard library, the event
loop, C functions) — and, from the same hook, the transport's work:
socket sends, socket receives and event-loop turns
(``BaseEventLoop._run_once``).  A served verify, and a ledger's call
into a sync client, runs on the loop's executor thread;
:func:`threading.setprofile`, set before any thread starts, counts that
thread's calls too.  Three consecutive requests must agree exactly, and
no row may exceed its pin.  Everything but the calls into ``src/repro``
is the interpreter's and its event loop's, so it is pinned for the
interpreter it was counted on (:data:`PINNED_ON`); on any other, only
the ``src/repro`` count is held to its pin.  A row that counts no call
into ``src/repro`` fails on every interpreter: it is not watching the
package it gates.

A count above its pin fails: find the call the change added to the
path, or, if it pays for itself, raise the pin and say why in
CHANGES.md.  A count below its pin passes; lower the pin to it.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.thread import _WorkItem
from typing import NamedTuple
from pathlib import Path

import pytest

from repro.api import AsyncClient, AsyncClusterClient, LocalClient
from repro.cluster import LocalCluster
from repro.ledger import LedgerService
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
    ("local", "verify"): Cost(36, 43, 0, 0, 0),
    ("tcp-v3", "verify"): Cost(103, 366, 3, 4, 6),
    ("cluster-v3", "verify"): Cost(128, 465, 5, 6, 8),
    ("local", "append"): Cost(83, 477, 2, 4, 6),
}

TENANT, MESSAGE = "ledger", b"a replayed attestation"
_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: Code file name -> whether it resolves under :data:`_SRC`: a relative
#: ``sys.path`` entry leaves ``co_filename`` relative, and resolving it on
#: every call would cost more than the call it counts.
_IN_SRC: dict[str, bool] = {}
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
            inside = _IN_SRC.get(code.co_filename)
            if inside is None:
                inside = _IN_SRC[code.co_filename] = Path(
                    code.co_filename).resolve().is_relative_to(_SRC)
            if inside:
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


#: The counter of the request being counted, if one is.
_COUNTING: list[_Counter] = []
#: An executor thread's job: the calls it makes between picking a work
#: item and resolving its future.  The pool's own bookkeeping after that
#: races the event loop, so it is not counted.
_JOB = _WorkItem.run.__code__
_threads = threading.local()


def _thread_hook(frame, event, arg):
    """Every thread started under :func:`measure` runs this: the calls
    inside an executor job go to the request being counted."""
    if frame.f_code is _JOB and event in ("call", "return"):
        _threads.in_job = event == "call"
    if _COUNTING and getattr(_threads, "in_job", False):
        _COUNTING[0](frame, event, arg)


def _counted(call):
    counter = _Counter()
    gc.disable()
    _COUNTING.append(counter)
    sys.setprofile(counter)
    try:
        result = call()
    finally:
        sys.setprofile(None)
        _COUNTING.clear()
        gc.enable()
    return counter.cost(), result


async def _acounted(call):
    counter = _Counter()
    gc.disable()
    _COUNTING.append(counter)
    sys.setprofile(counter)
    try:
        result = await call()
    finally:
        sys.setprofile(None)
        _COUNTING.clear()
        gc.enable()
    return counter.cost(), result


def _request(client, request: str, signature: bytes):
    """The call to count: a replay of the signed message, or a verify of
    its triple."""
    if request == "replay":
        return lambda: client.sign(TENANT, MESSAGE)
    return lambda: client.verify(TENANT, MESSAGE, signature)


def _answered(result, signature: bytes) -> bool:
    """A replay gave the first signature back; a verify accepted it."""
    return getattr(result, "signature", signature) == signature \
        and getattr(result, "valid", True)


def _local_requests(request: str) -> list[Cost]:
    client = LocalClient(_keystore(), deterministic=True, workers=0)
    try:
        signature = client.sign(TENANT, MESSAGE).signature
        call = _request(client, request, signature)
        call()  # from now on the verifier remembers the triple too
        counts = []
        for _ in range(3):
            count, result = _counted(call)
            assert _answered(result, signature)
            counts.append(count)
        return counts
    finally:
        client.close()


async def _requests(client, request: str) -> list[Cost]:
    signature = (await client.sign(TENANT, MESSAGE)).signature
    call = _request(client, request, signature)
    await call()  # from now on the verifier remembers the triple too
    counts = []
    for _ in range(3):
        count, result = await _acounted(call)
        assert _answered(result, signature)
        counts.append(count)
    return counts


def _service() -> SigningService:
    return SigningService(_keystore(), deterministic=True)


class _OneThread(ThreadPoolExecutor):
    """An executor whose one thread the client's connect starts, before
    any count.  A stock pool asks on every submit whether its last job's
    thread is idle yet, and that answer, and the calls it takes, depend
    on how the two threads were scheduled."""

    def _adjust_thread_count(self):
        if not self._threads:
            super()._adjust_thread_count()


def _one_executor_thread() -> None:
    asyncio.get_running_loop().set_default_executor(_OneThread())


async def _tcp_requests(version: int, request: str) -> list[Cost]:
    _one_executor_thread()
    server = SigningServer(_service(), port=0)
    await server.start()
    try:
        client = await AsyncClient.connect(port=server.port,
                                           version=version)
        try:
            return await _requests(client, request)
        finally:
            await client.close()
    finally:
        await server.stop()


async def _cluster_requests(version: int, request: str) -> list[Cost]:
    _one_executor_thread()
    cluster = await LocalCluster([_service] * 2,
                                 health_interval_s=_NO_HEALTH_S).start()
    try:
        client = await AsyncClusterClient.connect(port=cluster.port,
                                                  version=version)
        try:
            return await _requests(client, request)
        finally:
            await client.close()
    finally:
        await cluster.stop()


async def _append_requests() -> list[Cost]:
    """The first append of a fresh memory-only ledger, three times, on
    a client whose memo a warm-up ledger filled with that history: the
    entry's signature and the size-1 checkpoint's are both replays."""
    _one_executor_thread()
    client = LocalClient(_keystore(), deterministic=True, workers=0)
    try:
        warm = LedgerService(client, tenant=TENANT)
        signed = await warm.append(MESSAGE)
        await warm.close()
        counts = []
        for _ in range(3):
            ledger = LedgerService(client, tenant=TENANT)
            count, receipt = await _acounted(
                lambda: ledger.append(MESSAGE))
            await ledger.close()
            assert receipt.entry == signed.entry
            assert receipt.checkpoint == signed.checkpoint
            counts.append(count)
        return counts
    finally:
        client.close()


def measure(tier: str, request: str = "replay") -> list[Cost]:
    """Three consecutive counts of *request* through *tier*."""
    threading.setprofile(_thread_hook)
    try:
        if request == "append":
            return asyncio.run(_append_requests())
        if tier == "local":
            return _local_requests(request)
        kind, version = tier.split("-v")
        requests = _tcp_requests if kind == "tcp" else _cluster_requests
        return asyncio.run(requests(int(version), request))
    finally:
        threading.setprofile(None)


def _check(tier: str, request: str) -> None:
    counts = measure(tier, request)
    assert len(set(counts)) == 1, (
        f"{tier} {request}: three requests made {counts} calls — a "
        "count that moves between identical requests gates nothing")
    pin = COSTS[(tier, request)]
    [cost] = set(counts)
    assert cost.repro, (
        f"{tier} {request}: no call into {_SRC} was counted — the count "
        "is not seeing the package it gates")
    if sys.version_info[:2] != PINNED_ON:
        # The interpreter's own calls and its event loop's socket
        # operations and turns differ by version.
        cost = Cost(cost.repro, 0, 0, 0, 0)
    over = [name for name, count, pinned in zip(Cost._fields, cost, pin)
            if count > pinned]
    assert not over, (
        f"{tier} {request}: {cost} against its pin {pin}: "
        f"{', '.join(over)} went up — something was added to the path")


@pytest.mark.parametrize("tier, request_kind",
                         sorted(row for row in COSTS if row[1] == "replay"))
def test_a_replay_costs_no_more_calls_than_its_pin(tier, request_kind):
    _check(tier, request_kind)


@pytest.mark.parametrize("tier", sorted(
    tier for tier, request in COSTS if request == "verify"))
def test_a_remembered_verify_costs_no_more_calls_than_its_pin(tier):
    _check(tier, "verify")


def test_a_replayed_append_costs_no_more_calls_than_its_pin():
    _check("local", "append")


if __name__ == "__main__":
    for tier, request in sorted(COSTS):
        print(tier, request, measure(tier, request))
