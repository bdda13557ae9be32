"""LedgerService pipeline tests: seal policy and ordering, recovery,
served verbs.

Everything here runs deterministic SPHINCS+-128f so signatures are
byte-reproducible; the wire tests drive the ``log-*`` verbs over both
protocol generations against a live :class:`LedgerServer`.
"""

import asyncio
import hashlib
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import LocalClient, verify_inclusion
from repro.errors import LedgerError, ProtocolError, ServiceError
from repro.ledger import (InclusionProof, LedgerServer, LedgerService,
                          MerkleLog, decode_entry, root_from_inclusion_path,
                          verify_consistency_path)
from repro.ledger import merkle, service as ledger_service
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningService,
                           derive_seed)

TENANT = "ledger"


def make_client(keystore=None):
    client = LocalClient(keystore, deterministic=True)
    client.add_tenant(TENANT, "128f")
    return client


def make_keystore():
    keystore = Keystore()
    keystore.add_tenant(TENANT, "128f")
    keystore.generate_key(TENANT, "default",
                          seed=derive_seed(f"{TENANT}/default",
                                           get_params("128f").n))
    return keystore


class TestPipeline:
    def test_append_acks_with_signed_checkpoint(self, tmp_path):
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2)
            receipts = await ledger.append_many([b"a", b"b", b"c"])
            await ledger.close()
            assert [r.index for r in receipts] == [0, 1, 2]
            head = ledger.head
            assert head is not None and head.size == 3
            for receipt in receipts:
                payload, signature = decode_entry(receipt.entry)
                assert client.verify(TENANT, payload, signature).valid
                assert receipt.checkpoint.size >= receipt.index + 1
            # The checkpoint signature covers the recomputed body.
            assert client.verify(TENANT, head.body, head.signature).valid
            client.close()

        asyncio.run(scenario())

    def test_inclusion_proof_round_trip(self, tmp_path):
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=4)
            receipts = await ledger.append_many(
                [f"event {i}".encode() for i in range(5)])
            await ledger.close()
            for receipt in receipts:
                proof = ledger.prove(receipt.index)
                assert verify_inclusion(client, proof)
                # The wire shape round-trips through from_dict too.
                assert verify_inclusion(client,
                                        InclusionProof.from_dict(
                                            proof.as_dict()))
            client.close()

        asyncio.run(scenario())

    def test_consistency_between_sealed_heads(self, tmp_path):
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=8)
            first = await ledger.append_many([b"a", b"b", b"c"])
            second = await ledger.append_many([b"d", b"e"])
            await ledger.close()
            old = first[-1].checkpoint
            head, path = ledger.consistency(old.size)
            assert head.size == second[-1].checkpoint.size
            assert verify_consistency_path(old.size, old.root, head.size,
                                           head.root, path)
            client.close()

        asyncio.run(scenario())

    def test_signing_failure_commits_nothing(self, tmp_path):
        class FailingClient:
            def sign_many(self, tenant, payloads, key="default"):
                raise ServiceError("signer down")

            def sign(self, tenant, payload, key="default"):
                raise ServiceError("signer down")

        async def scenario():
            ledger = LedgerService(FailingClient(), tenant=TENANT,
                                   root=tmp_path / "log", batch_size=1)
            with pytest.raises(ServiceError, match="signer down"):
                await ledger.append(b"doomed")
            assert ledger.log.size == 0
            assert ledger.head is None
            assert not list((tmp_path / "log" / "segments").glob("*.seg"))

        asyncio.run(scenario())

    def test_closed_ledger_rejects_appends(self, tmp_path):
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT, batch_size=1)
            await ledger.append(b"one")
            await ledger.close()
            with pytest.raises(LedgerError, match="closed"):
                await ledger.append(b"late")
            client.close()

        asyncio.run(scenario())

    def test_non_bytes_payload_rejected(self):
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT)
            with pytest.raises(ProtocolError, match="payload must be"):
                await ledger.append("a string")
            client.close()

        asyncio.run(scenario())

    def test_metrics_and_spans_flow(self, tmp_path):
        async def scenario():
            client = make_client()
            metrics = MetricsRegistry()
            tracer = Tracer()
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2,
                                   metrics=metrics, tracer=tracer)
            receipts = await ledger.append_many([b"a", b"b"])
            ledger.prove(receipts[0].index)
            await ledger.close()
            text = metrics.render_prometheus()
            assert 'repro_ledger_appends_total{outcome="acked"} 2' in text
            assert "repro_ledger_checkpoints_total 1" in text
            assert 'repro_ledger_proofs_total{kind="inclusion"} 1' in text
            assert "repro_ledger_entries 2" in text
            names = {span.name for span in tracer.spans()}
            assert {"append", "seal"} <= names
            client.close()

        asyncio.run(scenario())


class InstantClient:
    """A sync client that signs at once: a signature is the message's
    SHA-256.  ``batches`` holds each ``sign_many``'s payloads and
    ``called_at`` its ``time.monotonic()``; while ``gate`` is set to an
    unset :class:`threading.Event`, ``sign_many`` (on the seal's worker
    thread) waits for it."""

    def __init__(self):
        self.batches: list[list[bytes]] = []
        self.called_at: list[float] = []
        self.gate: threading.Event | None = None

    def sign_many(self, tenant, payloads, key="default"):
        self.batches.append(list(payloads))
        self.called_at.append(time.monotonic())
        if self.gate is not None:
            self.gate.wait(5)
        return [SimpleNamespace(signature=hashlib.sha256(p).digest())
                for p in payloads]

    def sign(self, tenant, payload, key="default"):
        return SimpleNamespace(signature=hashlib.sha256(payload).digest(),
                               params="SPHINCS+-128f")


def proves(ledger, receipt) -> bool:
    """The receipt's inclusion path leads to its checkpoint's root."""
    proof = ledger.prove(receipt.index, receipt.checkpoint.size)
    return root_from_inclusion_path(
        proof.index, proof.size, receipt.leaf_hash,
        list(proof.path)) == receipt.checkpoint.root


class TestSealPolicy:
    """One seal in flight, ``batch_size`` as the cap, and no timer."""

    def test_batch_size_below_one_is_refused(self):
        with pytest.raises(LedgerError, match="batch_size"):
            LedgerService(InstantClient(), tenant=TENANT, batch_size=0)

    def test_a_lone_append_seals_at_once(self):
        async def scenario():
            client = InstantClient()
            ledger = LedgerService(client, tenant=TENANT, batch_size=8)
            started = time.monotonic()
            receipt = await ledger.append(b"alone")
            assert client.batches == [[b"alone"]]
            assert client.called_at[0] - started < 0.010
            assert receipt.checkpoint.size == 1
            await ledger.close()

        asyncio.run(scenario())

    def test_appends_during_a_seal_join_the_next_one(self):
        async def scenario():
            client = InstantClient()
            client.gate = threading.Event()
            ledger = LedgerService(client, tenant=TENANT, batch_size=8)
            first = asyncio.ensure_future(ledger.append(b"first"))
            try:
                while not client.batches:  # the first seal is in flight
                    await asyncio.sleep(0.001)
                later = [asyncio.ensure_future(ledger.append(payload))
                         for payload in (b"b", b"c", b"d")]
                await asyncio.sleep(0.01)
                assert client.batches == [[b"first"]]
                assert ledger.stats()["pending"] == 3
            finally:
                client.gate.set()
            receipts = [await first] + [await task for task in later]
            assert client.batches == [[b"first"], [b"b", b"c", b"d"]]
            assert [r.checkpoint.size for r in receipts] == [1, 4, 4, 4]
            await ledger.close()

        asyncio.run(scenario())

    def test_a_burst_over_batch_size_seals_in_waves(self):
        async def scenario():
            client = InstantClient()
            ledger = LedgerService(client, tenant=TENANT, batch_size=2)
            receipts = await ledger.append_many(
                [b"e%d" % i for i in range(5)])
            assert [len(batch) for batch in client.batches] == [2, 2, 1]
            assert [r.checkpoint.size for r in receipts] == [2, 2, 4, 4, 5]
            await ledger.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("failing", ["segment", "checkpoint"])
    def test_a_failed_seal_write_fails_every_append_of_the_seal(
            self, tmp_path, monkeypatch, failing):
        def broken(*args):
            raise OSError(f"{failing} write failed")

        if failing == "segment":
            monkeypatch.setattr(MerkleLog, "write_segment", broken)
        else:
            monkeypatch.setattr(ledger_service, "write_durably", broken)

        async def scenario():
            metrics = MetricsRegistry()
            ledger = LedgerService(InstantClient(), tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2,
                                   metrics=metrics)
            log = ledger.log
            outcomes = await asyncio.wait_for(asyncio.gather(
                ledger.append(b"a"), ledger.append(b"b"),
                return_exceptions=True), 5)
            assert [str(outcome) for outcome in outcomes] == [
                f"{failing} write failed"] * 2
            assert all(isinstance(outcome, OSError)
                       for outcome in outcomes)
            assert ledger.head is None and ledger.log.size == 0
            # Memory never moved, so nothing was rebuilt from disk.
            assert ledger.log is log
            assert ('repro_ledger_appends_total{outcome="failed"} 2'
                    in metrics.render_prometheus())

            monkeypatch.undo()
            receipt = await asyncio.wait_for(ledger.append(b"c"), 5)
            assert receipt.index == 0 and receipt.checkpoint.size == 1
            assert ledger.log is log
            assert proves(ledger, receipt)
            await ledger.close()

        asyncio.run(scenario())
        reborn = LedgerService(InstantClient(), tenant=TENANT,
                               root=tmp_path / "log")
        assert reborn.log.size == 1
        assert decode_entry(reborn.log.entry(0))[0] == b"c"

    def test_a_proof_answers_on_the_loop_while_a_seal_writes(
            self, tmp_path, monkeypatch):
        real_write = merkle.write_durably
        writes = []  # when each durable write began

        def slow_write(path, text, mode):
            writes.append(time.monotonic())
            time.sleep(0.3)
            real_write(path, text, mode)

        async def scenario():
            ledger = LedgerService(InstantClient(), tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2)
            first = await ledger.append(b"sealed")
            for module in (merkle, ledger_service):
                monkeypatch.setattr(module, "write_durably", slow_write)
            sealing = asyncio.ensure_future(ledger.append(b"writing"))
            while not writes:  # the seal's segment write has begun
                await asyncio.sleep(0.001)
            proof = ledger.prove(first.index)
            answered = time.monotonic() - writes[0]
            assert answered < 0.1
            # Memory moves only after both writes: the proof is against
            # the old head.
            assert proof.size == 1 and ledger.log.size == 1
            receipt = await sealing
            assert len(writes) == 2
            assert receipt.index == 1 and ledger.log.size == 2
            assert proves(ledger, receipt)
            await ledger.close()

        asyncio.run(scenario())


class TestRecovery:
    def test_reload_resumes_from_sealed_head(self, tmp_path):
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2)
            await ledger.append_many([b"a", b"b"])
            head = ledger.head
            await ledger.close()

            reborn = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2)
            assert reborn.log.size == 2
            assert reborn.head is not None
            assert reborn.head.root == head.root
            receipts = await reborn.append_many([b"c"])
            await reborn.close()
            assert receipts[0].index == 2
            assert receipts[0].checkpoint.prev_root == head.root
            client.close()

        asyncio.run(scenario())

    def test_crash_between_segment_and_checkpoint_truncates(self,
                                                            tmp_path):
        # Simulate the crash window: a segment lands on disk but the
        # covering checkpoint never does.  Those entries were never
        # acknowledged, so reload must drop them — the invariant is "no
        # accepted-but-unverifiable", not "nothing ever lost".
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2)
            await ledger.append_many([b"a", b"b"])
            sealed = ledger.head.size
            await ledger.close()
            # The un-checkpointed tail, written as the crash left it.
            ledger.log.write_segment(sealed, [b"never acked"])

            reborn = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2)
            assert reborn.log.size == sealed
            assert reborn.head.size == sealed
            receipts = await reborn.append_many([b"c"])
            await reborn.close()
            # The truncated index is reused; the new entry is covered.
            assert receipts[0].index == sealed
            assert verify_inclusion(client, reborn.prove(sealed))
            client.close()

        asyncio.run(scenario())

    def test_checkpoint_without_entries_raises(self, tmp_path):
        async def scenario():
            client = make_client()
            ledger = LedgerService(client, tenant=TENANT,
                                   root=tmp_path / "log", batch_size=2)
            await ledger.append_many([b"a", b"b"])
            await ledger.close()
            client.close()

        asyncio.run(scenario())
        for segment in (tmp_path / "log" / "segments").glob("*.seg"):
            segment.unlink()
        with make_client() as client, \
                pytest.raises(LedgerError, match="missing"):
            LedgerService(client, tenant=TENANT, root=tmp_path / "log")


class TestServedVerbs:
    @staticmethod
    async def make_server(tmp_path):
        keystore = make_keystore()
        service = SigningService(keystore, target_batch_size=2,
                                 max_wait_s=0.05, deterministic=True)
        signer = LocalClient(make_keystore(), deterministic=True)
        ledger = LedgerService(signer, tenant=TENANT,
                               root=tmp_path / "log", batch_size=4)
        server = LedgerServer(service, ledger, port=0)
        await server.start()
        return server, ledger, signer

    @pytest.mark.parametrize("version", [2, 3])
    def test_log_verbs_over_the_wire(self, tmp_path, version):
        async def scenario():
            server, ledger, signer = await self.make_server(tmp_path)
            client = None
            try:
                client = await ServiceClient.open(port=server.port,
                                                  version=version)
                assert client.hello["version"] == version
                assert client.binary is (version >= 3)
                appended = await client.call(
                    "log-append",
                    entries=[b"wire event %d" % i for i in range(3)])
                assert appended["ok"]
                assert [r["index"] for r in appended["receipts"]] == [
                    0, 1, 2]
                checkpoint = appended["checkpoint"]
                assert checkpoint["size"] == 3

                proof = await client.call("log-proof", index=1, size=3)
                assert proof["ok"]
                with LocalClient(make_keystore(),
                                 deterministic=True) as verifier:
                    assert verify_inclusion(verifier, proof["proof"])

                head = await client.call("log-checkpoint")
                assert head["ok"]
                assert head["checkpoint"] == checkpoint

                with pytest.raises(LedgerError):
                    await client.call("log-proof", index=9, size=3)
            finally:
                if client is not None:
                    await client.close()
                await server.stop()
                signer.close()

        asyncio.run(scenario())

    def test_log_checkpoint_consistency_since(self, tmp_path):
        async def scenario():
            server, ledger, signer = await self.make_server(tmp_path)
            client = None
            try:
                client = await ServiceClient.open(port=server.port,
                                                  version=2)
                first = await client.call("log-append",
                                          entries=[b"a", b"b"])
                await client.call("log-append", entries=[b"c"])
                old = first["checkpoint"]
                response = await client.call("log-checkpoint",
                                             since=old["size"])
                head = response["checkpoint"]
                assert head["size"] == 3
                assert verify_consistency_path(
                    old["size"], bytes.fromhex(old["root"]),
                    head["size"], bytes.fromhex(head["root"]),
                    [bytes.fromhex(node)
                     for node in response["consistency"]])
            finally:
                if client is not None:
                    await client.close()
                await server.stop()
                signer.close()

        asyncio.run(scenario())

    def test_plain_server_has_no_ledger(self, tmp_path):
        from repro.service import SigningServer
        from repro.service.verbs import ledger_registry

        async def scenario():
            service = SigningService(make_keystore(),
                                     target_batch_size=1,
                                     max_wait_s=0.02, deterministic=True)
            server = SigningServer(service, port=0,
                                   registry=ledger_registry())
            await server.start()
            client = None
            try:
                client = await ServiceClient.open(port=server.port,
                                                  version=2)
                with pytest.raises(LedgerError, match="does not host"):
                    await client.call("log-checkpoint")
            finally:
                if client is not None:
                    await client.close()
                await server.stop()

        asyncio.run(scenario())
