"""Chaos: the ledger's invariant under crashing workers and dying nodes.

The transparency-log pipeline promises **no accepted-but-unverifiable
entries**: an append either fails with a typed error (and is not in the
log), or it is acknowledged with a receipt whose inclusion proof
verifies against a signed checkpoint — even when the signing tier
underneath is losing pool workers or whole cluster nodes mid-append.

Both scenarios drive the ledger from real load-generator traces (bursty
for the pool, ramp for the cluster) and finish with the differential
audit replaying the on-disk bytes — the same ``ledger:audit`` check the
conformance oracle runs.
"""

import asyncio

import pytest

from repro.api import AsyncClusterClient, LocalClient, verify_inclusion
from repro.ledger import LedgerService, run_audit
from repro.params import get_params
from repro.runtime.pool import auto_workers
from repro.service import Keystore, SigningService, derive_seed
from repro.service.loadgen import bursty_trace, ramp_trace

TENANT = "ledger"


def make_keystore():
    keystore = Keystore()
    keystore.add_tenant(TENANT, "128f")
    keystore.generate_key(TENANT, "default",
                          seed=derive_seed(f"{TENANT}/default",
                                           get_params("128f").n))
    return keystore


async def drive(ledger, offsets, chaos_after, chaos):
    """Replay *offsets* as concurrent appends; fire *chaos* once the
    *chaos_after*-th append has been issued.  Returns (receipts, failed).
    """
    receipts, failed = [], []
    issued = 0
    fired = asyncio.Event()
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def one(index, offset):
        nonlocal issued
        delay = start + offset * 0.01 - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        issued += 1
        if issued == chaos_after and not fired.is_set():
            fired.set()
            await chaos()
        try:
            receipts.append(await ledger.append(b"chaos event %d" % index))
        except Exception as exc:  # noqa: BLE001 — typed failure is fine
            failed.append(exc)

    await asyncio.gather(*(one(i, offset)
                           for i, offset in enumerate(offsets)))
    return receipts, failed


def assert_invariant(ledger, client, receipts, tmp_path, keystore):
    """Every acknowledged receipt must be provable; the audit must agree."""
    for receipt in receipts:
        proof = ledger.prove(receipt.index, receipt.checkpoint.size)
        assert verify_inclusion(client, proof), (
            f"acked entry {receipt.index} has no verifying inclusion "
            "proof — the invariant is broken")
    # Only acknowledged entries are in the log: indexes are a contiguous
    # prefix and nothing else got committed.
    assert sorted(r.index for r in receipts) == list(range(len(receipts)))
    assert ledger.log.size == len(receipts)
    report = run_audit(tmp_path / "log", keystore, tenant=TENANT,
                       deterministic=True)
    assert report["ok"], report["problems"]
    assert report["entries_verified"] == len(receipts)
    assert report["signatures_matched"] == report["checkpoints"]


class TestPoolWorkerCrash:
    def survive_worker_crash(self, tmp_path, **client_options):
        async def scenario():
            keystore = make_keystore()
            client = LocalClient(keystore, deterministic=True,
                                 **client_options)
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=4)
            offsets = bursty_trace(12, rate=400.0, burst=4, seed=7)

            async def crash():
                # Kill one worker on its next sign job — mid-batch for
                # whatever seal is in flight.
                client.engine.pool.inject_crash(0, when="next-job")

            receipts, failed = await drive(ledger, offsets,
                                           chaos_after=5, chaos=crash)
            await ledger.close()
            try:
                # The pool's recovery machinery requeues the dead
                # worker's jobs, so appends should generally succeed;
                # any that did fail must have failed typed and clean.
                assert receipts, "no append survived the worker crash"
                assert len(receipts) + len(failed) == len(offsets)
                assert client.engine.pool.stats()["respawns"] == 1
                assert_invariant(ledger, client, receipts, tmp_path,
                                 keystore)
            finally:
                client.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))

    def test_bursty_appends_survive_worker_crash(self, tmp_path):
        self.survive_worker_crash(tmp_path, workers=2)

    @pytest.mark.skipif(auto_workers() == 0,
                        reason="one CPU: the default client has no pool")
    def test_default_client_survives_worker_crash(self, tmp_path):
        """The pool ``LocalClient()`` picks for itself recovers like the
        one a caller sized."""
        self.survive_worker_crash(tmp_path)


class TestClusterNodeKill:
    def test_ramp_appends_survive_node_kill(self, tmp_path):
        async def scenario():
            from repro.cluster import LocalCluster

            def factory():
                return SigningService(make_keystore(),
                                      target_batch_size=2,
                                      max_wait_s=0.02, max_pending=64,
                                      deterministic=True)

            cluster = await LocalCluster([factory, factory],
                                         health_interval_s=0.05).start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=4)
            offsets = ramp_trace(10, rate=300.0, seed=11)

            async def crash():
                await cluster.kill_node(cluster.owner(TENANT))

            try:
                receipts, failed = await drive(ledger, offsets,
                                               chaos_after=4,
                                               chaos=crash)
                # Appends that hit the failover window fail typed; late
                # ones ride the surviving node.  Give the router a beat,
                # then prove the ledger still accepts and covers writes.
                await asyncio.sleep(0.3)
                more, late_failed = await drive(
                    ledger, [0.0, 0.0], chaos_after=10**9,
                    chaos=lambda: None)
                receipts.extend(more)
                failed.extend(late_failed)
                await ledger.close()
                assert receipts, "no append survived the node kill"
                assert len(receipts) + len(failed) == len(offsets) + 2
                # Failover must not have changed signature bytes: the
                # deterministic audit byte-compares every checkpoint.
                with LocalClient(make_keystore(),
                                 deterministic=True) as verifier:
                    assert_invariant(ledger, verifier, receipts, tmp_path,
                                     make_keystore())
            finally:
                await ledger.close()
                await client.close()
                await cluster.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))
