"""The pooled service tier.

Covers the service-side half of the multi-core story: the pooled
end-to-end signing path (byte-identical, crash-transparent, one request
spread over every worker), per-worker telemetry in the ``stats``
snapshot, and dispatch order — one batch signs at a time, each on all
cores, so two tenants' batches follow one another instead of competing.
"""

import asyncio
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.runtime import get_backend
from repro.service import (Keystore, SigningService, derive_seed,
                           render_snapshot)

SEED = bytes(48)


def _keystore(tenants=("acme", "beta")) -> Keystore:
    keystore = Keystore()
    for name in tenants:
        keystore.add_tenant(name, "128f")
        keystore.generate_key(name, "default",
                              seed=derive_seed(f"{name}/default", 16))
    return keystore


class TestPooledService:
    def test_end_to_end_byte_identical_with_stats(self):
        keystore = _keystore()
        service = SigningService(keystore, target_batch_size=2,
                                 max_wait_s=0.05, deterministic=True,
                                 workers=2)

        async def run():
            outcomes = await asyncio.gather(*[
                service.sign(f"m{i}".encode(), tenant)
                for i in range(2) for tenant in ("acme", "beta")])
            await service.drain()
            return outcomes, service.stats()

        try:
            outcomes, stats = asyncio.run(run())
        finally:
            service.close()

        assert all(o.backend == "pooled[2]" for o in outcomes)
        for tenant in ("acme", "beta"):
            keys, _ = keystore.resolve(tenant, "default")
            scalar = get_backend("scalar", "128f", deterministic=True)
            for i, outcome in enumerate(o for o in outcomes
                                        if o.tenant == tenant):
                assert outcome.signature == scalar.sign(
                    f"m{i}".encode(), keys)
        # Per-worker telemetry rides the stats verb...
        assert stats["config"]["workers"] == 2
        pool_stats = stats["pool"]
        assert pool_stats["alive"] == 2
        # ... every worker took part (4 signatures in batches of one or
        # two: each message's run cut into four or eight pieces) ...
        assert all(worker["tasks"] >= 8
                   for worker in pool_stats["per_worker"].values())
        # ... the layer caches are this process's, one scope per set ...
        assert set(stats["cache"]["scopes"]) == {"in-process SPHINCS+-128f"}
        # ...and it all renders in the human report.
        report = render_snapshot(stats)
        assert "Worker pool (2/2 alive" in report
        assert "Hypertree layer caches" in report

    def test_pool_cannot_host_another_backend(self):
        with pytest.raises(ServiceError, match="signs on 'vectorized'"):
            SigningService(_keystore(), backend="scalar", workers=1)

    def test_worker_crash_is_transparent_to_clients(self):
        keystore = _keystore(("acme",))
        service = SigningService(keystore, target_batch_size=4,
                                 max_wait_s=0.05, deterministic=True,
                                 workers=2)

        async def run():
            service.pool.inject_crash(0, when="next-job")
            outcome = await service.sign(b"survives", "acme")
            await service.drain()
            return outcome

        try:
            outcome = asyncio.run(run())
        finally:
            service.close()
        keys, _ = keystore.resolve("acme", "default")
        scalar = get_backend("scalar", "128f", deterministic=True)
        assert outcome.signature == scalar.sign(b"survives", keys)

    def test_rejects_negative_workers(self):
        with pytest.raises(Exception, match="workers"):
            SigningService(_keystore(), workers=-1)


class TestDispatchOrder:
    """One batch signs at a time — the layer caches are not thread-safe,
    and a batch already uses every core."""

    def test_two_tenants_batches_never_overlap(self, monkeypatch):
        inside = threading.Semaphore(1)
        overlaps = []
        service = SigningService(_keystore(), target_batch_size=1,
                                 max_wait_s=0.05, deterministic=True)
        backend = service.engine.backend_for("SPHINCS+-128f")

        def exclusive(messages, keys):
            overlaps.append(not inside.acquire(blocking=False))
            time.sleep(0.02)
            inside.release()
            return backend._timed_result(
                [b"sig" for _ in messages], time.perf_counter())

        monkeypatch.setattr(backend, "sign_batch", exclusive)

        async def run():
            return await asyncio.gather(*[
                service.sign(f"m{i}".encode(), tenant)
                for i in range(3) for tenant in ("acme", "beta")])

        try:
            outcomes = asyncio.run(run())
            assert [o.signature for o in outcomes] == [b"sig"] * 6
            # target_batch_size=1: six batches of one, one at a time.
            assert len(overlaps) == 6 and not any(overlaps)
        finally:
            service.close()
