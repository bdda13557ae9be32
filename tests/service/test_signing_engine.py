"""One signing engine, two fronts.

``SigningEngine`` owns keys → executor → one backend per parameter set,
which signs and verifies → cache stats; ``LocalClient`` and
``SigningService`` are fronts over it.  Whatever the engine promises
is checked here through both fronts from one test body.
"""

import asyncio
import gc
import multiprocessing
import os
import time
import weakref
from collections import deque

import pytest

from repro.api import LocalClient
from repro.errors import BackendError, KeystoreError, ServiceError
from repro.runtime import get_backend
from repro.runtime.fastops import FastVerifier
from repro.runtime.plan import RUN, SUBTREE, cut
from repro.service import Keystore, SigningService, derive_seed
from repro.service.engine import SigningEngine
from repro.sphincs.signer import Sphincs

PARAMS = "SPHINCS+-128f"
FRONTS = ("local", "served")


def make_keystore(*tenants):
    keystore = Keystore()
    for tenant in tenants:
        keystore.add_tenant(tenant, "128f")
        keystore.generate_key(tenant, "default",
                              seed=derive_seed(f"{tenant}/default", 16))
    return keystore


class Front:
    """One calling shape over both fronts of an engine."""

    def __init__(self, kind, keystore, **options):
        self.kind = kind
        if kind == "local":
            self.owner = LocalClient(keystore, deterministic=True, **options)
        else:
            self.owner = SigningService(
                keystore, deterministic=True, target_batch_size=1,
                max_wait_s=0.01, **options)
        self.engine = self.owner.engine

    async def sign(self, tenant, message):
        if self.kind == "local":
            return self.owner.sign(tenant, message).signature
        return (await self.owner.sign(message, tenant)).signature

    async def verify(self, tenant, message, signature):
        if self.kind == "local":
            return self.owner.verify(tenant, message, signature).valid
        return (await self.owner.verify(message, signature, tenant))[0]

    async def close(self):
        if self.kind == "served":
            await self.owner.drain()
        self.owner.close()


def run_on(kind, keystore, scenario, **options):
    """Run ``scenario(front)`` on a fresh front of *kind*, then close it."""
    async def main():
        front = Front(kind, keystore, **options)
        try:
            return await scenario(front)
        finally:
            await front.close()

    return asyncio.run(main())


@pytest.fixture
def one_cpu(monkeypatch):
    """In-process executor on both fronts: no pool to fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)


@pytest.mark.parametrize("kind", FRONTS)
def test_a_rotated_key_stops_signing(kind, one_cpu):
    keystore = make_keystore("t")

    async def scenario(front):
        old_public = keystore.resolve("t")[0].public
        await front.sign("t", b"before rotation")
        new_public = keystore.rotate_key("t", "default").public
        fresh = await front.sign("t", b"after rotation")
        scheme = Sphincs("128f")
        assert scheme.verify(b"after rotation", fresh, new_public)
        assert not scheme.verify(b"after rotation", fresh, old_public)
        assert await front.verify("t", b"after rotation", fresh)

    run_on(kind, keystore, scenario)


@pytest.mark.parametrize("kind", FRONTS)
def test_a_set_verifies_on_its_backends_one_verifier(kind, one_cpu,
                                                     monkeypatch):
    """Every verify of a set runs on one ``FastVerifier``, its backend's,
    on a hash context signing does not use; a set so far only verified
    gets it too (the verify builds the backend)."""
    used, genuine = [], FastVerifier.verify_batch

    def spy(self, *args):
        used.append(self)
        return genuine(self, *args)

    monkeypatch.setattr(FastVerifier, "verify_batch", spy)
    keystore = make_keystore("t")
    elsewhere = get_backend("vectorized", PARAMS, deterministic=True).sign(
        b"signed elsewhere", keystore.resolve("t")[0])

    async def scenario(front):
        assert await front.verify("t", b"signed elsewhere", elsewhere)
        assert not await front.verify("t", b"tampered", elsewhere)
        signed = await front.sign("t", b"signed here")
        assert await front.verify("t", b"signed here", signed)
        backend = front.engine.backend_for(PARAMS)
        assert len(used) == 3
        assert all(verifier is backend.verifier for verifier in used)
        assert backend.verifier.ctx is not backend.ctx
        scopes = front.engine.cache_stats()["scopes"]
        assert scopes[f"verify {PARAMS}"]["memo_entries"] == 2

    run_on(kind, keystore, scenario)


def test_budget_reports_the_same_through_the_service(one_cpu):
    """``cache_budget_mb`` is the engine's: built directly or by the
    service (``serve-async --cache-budget-mb``), a key's first sign fills
    its one path through the 3 pinned layers and ``stats`` says so."""
    async def through_the_service():
        service = SigningService(make_keystore("acme"), deterministic=True,
                                 cache_budget_mb=2)
        try:
            stats = service.engine.backend_for(PARAMS).cache_stats()
            assert stats["keys"] == stats["bytes"] == 0  # nothing filled
            await service.sign(b"first sign", "acme")
            return service.stats()["cache"]
        finally:
            await service.drain()
            service.close()

    engine = SigningEngine(make_keystore("acme"), deterministic=True,
                           cache_budget_mb=2)
    try:
        engine.sign_batch("acme", "default", [b"first sign"])
        direct = engine.cache_stats()
    finally:
        engine.close()
    assert direct["budget_mb"] == 2
    scope = direct["scopes"][f"in-process {PARAMS}"]
    assert (scope["pinned_layers"], scope["pinned_trees"]) == (3, 3)
    assert asyncio.run(through_the_service()) == direct
    # No budget, the same fills: the budget only sizes the cache.
    with LocalClient(make_keystore("acme"), deterministic=True) as client:
        client.sign("acme", b"first sign")
        scope = client.engine.backend_for(PARAMS).cache_stats()
        assert scope["pinned_trees"] == 3  # the one path's
        assert "budget_mb" not in client.engine.cache_stats()


def spy_on_the_pool(monkeypatch, engine):
    """Every task list *engine*'s pool is handed, as a list of kinds
    (``SUBTREE`` fills keep their ``(layer, tree)``)."""
    plans, genuine = [], engine.pool.run

    def run(params, keys, tasks, **options):
        plans.append([task[:3] if task[0] == SUBTREE else task[0]
                      for task in tasks])
        return genuine(params, keys, tasks, **options)

    monkeypatch.setattr(engine.pool, "run", run)
    return plans


def fills(plan):
    return [task for task in plan if task != RUN]


def test_a_first_sign_fills_its_path_beside_its_runs(monkeypatch):
    """Ten keys on one set, on a pool: a key's first sign hands the pool
    one plan — its message's run pieces and, beside them, the 3 pinned
    subtrees on its path, never more — and a key that never signs fills
    nothing.  A replay, the first key's too, reaches no pool."""
    tenants = [f"tenant-{index}" for index in range(10)]
    engine = SigningEngine(make_keystore(*tenants), deterministic=True,
                           workers=2, cache_budget_mb=2)
    plans = spy_on_the_pool(monkeypatch, engine)
    try:
        for signed, tenant in enumerate(tenants[:9], 1):
            del plans[:]
            result, _ = engine.sign_batch(tenant, "default", [b"first"])
            [plan] = plans
            assert plan.count(RUN) == len(cut(19, 2, 1))
            assert sorted(layer for _, layer, _ in fills(plan)) \
                == [19, 20, 21]
            # The set's cache: 3 subtrees and 22 missed layers per key.
            assert result.cache_stats["pinned_trees"] == 3 * signed
            assert result.cache_stats["misses"] == 22 * signed
        assert engine.backend_for(PARAMS).cache_stats()["keys"] == 9
        del plans[:]
        engine.sign_batch(tenants[0], "default", [b"first"])
        assert plans == []  # a memo hit: no plan
    finally:
        engine.close()


def test_no_subtree_is_filled_twice_nor_alone(monkeypatch):
    """64 fresh messages under one key, eight plans of eight on a pool:
    every plan runs messages (no plan of fills alone reaches the pool),
    no ``(layer, tree)`` is filled twice, and the cache holds each fill."""
    engine = SigningEngine(make_keystore("acme"), deterministic=True,
                           workers=2, cache_budget_mb=2)
    plans = spy_on_the_pool(monkeypatch, engine)
    try:
        for batch in range(8):
            engine.sign_batch("acme", "default", [
                f"fresh {batch}/{index}".encode() for index in range(8)])
        scope = engine.cache_stats()["scopes"][f"in-process {PARAMS}"]
    finally:
        engine.close()
    assert len(plans) == 8 and all(RUN in plan for plan in plans)
    filled = [fill for plan in plans for fill in fills(plan)]
    assert len(filled) == len(set(filled)) == scope["pinned_trees"]
    assert len(filled) < 73  # not the whole region


def child_pids():
    """Pids of this process's children, the ended ones reaped."""
    multiprocessing.active_children()
    with open(f"/proc/self/task/{os.getpid()}/children") as handle:
        return set(handle.read().split())


@pytest.mark.parametrize("backend", ("scalar", "modeled-gpu"))
def test_a_pool_is_refused_for_them(backend):
    """A front's ``backend=`` takes one value, ``vectorized``; the scalar
    reference is ``get_backend("scalar")``.  A refused front starts no
    pool."""
    keystore, before = Keystore(), child_pids()
    refusal = f"unknown backend '{backend}'.*get_backend"
    with pytest.raises(ServiceError, match=refusal):
        SigningService(keystore, backend=backend, workers=2)
    with pytest.raises(BackendError, match=refusal):
        LocalClient(keystore, backend=backend, workers=2)
    assert child_pids() == before


@pytest.mark.parametrize("workers", (0, 2))
@pytest.mark.parametrize("kind", FRONTS)
def test_workers_is_a_number_and_close_stops_every_one(kind, workers):
    """However many CPUs there are: ``workers`` processes after a sign,
    every view of the front saying so, none a second after ``close()``."""
    keystore = make_keystore("acme")
    before = child_pids()

    async def scenario(front):
        await front.sign("acme", b"one message")
        assert len(child_pids() - before) == workers
        pool = front.engine.pool
        assert (pool.workers if pool is not None else 0) == workers
        if kind == "local":
            assert front.owner.info().workers == workers
            return
        stats = front.owner.stats()
        assert stats["config"]["workers"] == workers
        assert ("pool" in stats) == bool(workers)
        if workers:
            assert stats["pool"]["alive"] == workers
        outcome = await front.owner.sign(b"labelled", "acme")
        assert outcome.backend == (f"pooled[{workers}]" if workers
                                   else "vectorized")

    run_on(kind, keystore, scenario, backend="vectorized", workers=workers)
    time.sleep(1.0)
    assert child_pids() - before == set()


def test_pooled_is_not_a_backend_name():
    """A pool is ``workers=N``: the name that used to start a hidden one
    (which no ``close()`` stopped) is an unknown backend everywhere."""
    unknown = "unknown backend 'pooled'"
    keystore, before = Keystore(), child_pids()
    with pytest.raises(BackendError, match=unknown + "; known: "):
        get_backend("pooled", "128f", workers=2)
    with pytest.raises(ServiceError, match=unknown):
        SigningService(keystore, backend="pooled")
    with pytest.raises(BackendError, match=unknown):
        LocalClient(keystore, backend="pooled")
    assert child_pids() == before


def test_unknown_tenant_or_key_raises_before_any_backend_exists():
    engine = SigningEngine(make_keystore("acme"))
    try:
        for tenant, key in (("ghost", "default"), ("acme", "missing")):
            with pytest.raises(KeystoreError):
                engine.sign_batch(tenant, key, [b"x"])
            with pytest.raises(KeystoreError):
                engine.verify_batch(tenant, key, [b"x"], [b"y"])
        assert engine.cache_stats() == {}
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Bounded: one backend per parameter set, nothing kept per call
# ----------------------------------------------------------------------
def test_twelve_tenants_share_one_backend_and_one_cache(one_cpu):
    tenants = [f"tenant-{index:02d}" for index in range(12)]
    keystore = make_keystore(*tenants)
    reference = Sphincs("128f", deterministic=True)
    with LocalClient(keystore, deterministic=True) as client:
        signed = {tenant: client.sign(tenant, b"shared message").signature
                  for tenant in tenants}
        assert list(client.engine._backends) == [PARAMS]
        backend = client.engine.backend_for(PARAMS)
        assert backend.cache_stats()["keys"] == 12
        # Every key stays resident under the set's budget: the first
        # one's replay is a memo hit with the same bytes.
        assert (client.sign(tenants[0], b"shared message").signature
                == signed[tenants[0]])
        assert backend.cache_stats()["memo_hits"] == 1
    for tenant in tenants[8:]:
        assert signed[tenant] == reference.sign(
            b"shared message", keystore.resolve(tenant)[0])


def container_sizes(root, depth=8):
    """``{path: len}`` of every dict/list/set/deque reachable from
    *root*'s attributes, *depth* levels down."""
    sizes, seen = {}, set()

    def walk(value, path, left):
        if id(value) in seen or left < 0:
            return
        seen.add(id(value))
        if isinstance(value, (dict, list, set, deque)):
            sizes[path] = len(value)
        if isinstance(value, dict):
            children = value.items()
        elif isinstance(value, (list, set, tuple, deque)):
            children = enumerate(value)
        else:
            children = getattr(value, "__dict__", {}).items()
        for key, item in children:
            walk(item, f"{path}[{key!r}]", left - 1)

    walk(root, "client", depth)
    return sizes


def test_sign_many_grows_no_per_call_container(one_cpu):
    """A long-lived client (a ``LedgerService``'s) must stay flat: 200
    calls leave every container it can reach the size two calls did."""
    with LocalClient(make_keystore("acme"), deterministic=True) as client:
        for _ in range(2):
            client.sign_many("acme", [b"replayed"])
        before = container_sizes(client)
        assert any(path.endswith("['_backends']") for path in before)
        for _ in range(200):
            client.sign_many("acme", [b"replayed"])
        after = container_sizes(client)
    assert {path: size for path, size in after.items()
            if before.get(path) != size} == {}


# ----------------------------------------------------------------------
# A closed front is garbage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", FRONTS)
def test_a_closed_owner_is_collectable(kind, monkeypatch):
    keystore = make_keystore("acme")
    # The default client from two CPUs up: the engine owns a pool.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)

    async def scenario(front):
        await front.sign("acme", b"signed")
        return weakref.ref(front.owner), weakref.ref(front.engine)

    owner, engine = run_on(kind, keystore, scenario)
    gc.collect()
    assert owner() is None and engine() is None
