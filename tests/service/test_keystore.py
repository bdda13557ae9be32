"""Multi-tenant keystore: naming, resolution, atomic persistence."""

import json
import os

import pytest

from repro.errors import KeystoreError
from repro.service import Keystore, derive_seed
from repro.service.keystore import shard_prefix
from repro.sphincs.signer import Sphincs


class TestTenants:
    def test_add_and_resolve(self):
        keystore = Keystore()
        keystore.add_tenant("acme", "128f")
        keys = keystore.generate_key("acme", "default", seed=bytes(48))
        resolved, params = keystore.resolve("acme", "default")
        assert resolved is keys
        assert params == "SPHINCS+-128f"
        assert keystore.tenants() == ("acme",)
        assert keystore.key_names("acme") == ("default",)

    def test_per_tenant_parameter_set(self):
        keystore = Keystore()
        keystore.add_tenant("small", "128s")
        keystore.add_tenant("big", "256f")
        keystore.generate_key("small", seed=bytes(48))
        keystore.generate_key("big", seed=bytes(96))
        _, params_small = keystore.resolve("small")
        _, params_big = keystore.resolve("big")
        assert params_small == "SPHINCS+-128s"
        assert params_big == "SPHINCS+-256f"

    def test_duplicate_tenant_rejected(self):
        keystore = Keystore()
        keystore.add_tenant("acme")
        with pytest.raises(KeystoreError, match="already exists"):
            keystore.add_tenant("acme")
        # exist_ok tolerates a re-register on the same parameter set...
        keystore.add_tenant("acme", exist_ok=True)
        # ...but never a silent parameter-set change.
        with pytest.raises(KeystoreError, match="pinned"):
            keystore.add_tenant("acme", "192f", exist_ok=True)

    def test_invalid_names_rejected(self):
        keystore = Keystore()
        for bad in ("../escape", "", "a/b", ".hidden"):
            with pytest.raises(KeystoreError, match="invalid tenant name"):
                keystore.add_tenant(bad)
        keystore.add_tenant("ok")
        with pytest.raises(KeystoreError, match="invalid key name"):
            keystore.generate_key("ok", "../../etc/passwd")

    def test_unknown_lookups(self):
        keystore = Keystore()
        with pytest.raises(KeystoreError, match="unknown tenant"):
            keystore.resolve("ghost")
        keystore.add_tenant("acme")
        with pytest.raises(KeystoreError, match="no key 'missing'"):
            keystore.resolve("acme", "missing")

    def test_duplicate_key_rejected(self):
        keystore = Keystore()
        keystore.add_tenant("acme")
        keys = keystore.generate_key("acme", seed=bytes(48))
        with pytest.raises(KeystoreError, match="already exists"):
            keystore.generate_key("acme")
        assert keystore.generate_key("acme", exist_ok=True) is keys


class TestPersistence:
    def test_round_trip(self, tmp_path):
        keystore = Keystore(tmp_path)
        keystore.add_tenant("acme", "128f")
        keystore.add_tenant("edge", "192f")
        original = keystore.generate_key("acme", "signing", seed=bytes(48))
        keystore.generate_key("edge", seed=bytes(72))

        reloaded = Keystore(tmp_path)
        assert reloaded.tenants() == ("acme", "edge")
        keys, params = reloaded.resolve("acme", "signing")
        assert params == "SPHINCS+-128f"
        assert keys.secret == original.secret
        # The reloaded key signs and verifies like the original.
        scheme = Sphincs(params, deterministic=True)
        signature = scheme.sign(b"persisted", keys)
        assert scheme.verify(b"persisted", signature, original.public)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        keystore = Keystore(tmp_path)
        keystore.add_tenant("acme")
        keystore.generate_key("acme", seed=bytes(48))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shards"]
        shard = keystore.shard_path("acme")
        assert shard.read_text()  # the live file, no .tmp siblings
        assert sorted(p.name for p in shard.parent.iterdir()) == ["acme.json"]

    def test_save_fsyncs_before_replace(self, tmp_path, monkeypatch):
        """The tenant file's bytes reach the disk before the rename makes
        them live: the fsynced inode is the one that lands at the path."""
        keystore = Keystore(tmp_path)
        keystore.add_tenant("acme")
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (
            calls.append(("fsync", os.fstat(fd).st_ino)), real_fsync(fd)))
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            calls.append(("replace", str(src), str(dst))),
            real_replace(src, dst)))
        keystore.generate_key("acme", seed=bytes(48))
        path = keystore.shard_path("acme")
        assert calls == [("fsync", path.stat().st_ino),
                         ("replace", f"{path}.tmp", str(path))]

    def test_failed_save_leaves_old_file_and_no_temp(self, tmp_path,
                                                     monkeypatch):
        keystore = Keystore(tmp_path)
        keystore.add_tenant("acme")
        keystore.generate_key("acme", seed=bytes(48))
        path = keystore.shard_path("acme")
        before = path.read_bytes()

        def broken_fsync(fd):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="No space"):
            keystore.generate_key("acme", "second", seed=bytes(48))
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["acme.json"]
        monkeypatch.undo()
        assert Keystore(tmp_path).key_names("acme") == ("default",)

    def test_tenant_files_are_owner_only(self, tmp_path):
        """The files hold secret key material — never world-readable."""
        keystore = Keystore(tmp_path)
        keystore.add_tenant("acme")
        keystore.generate_key("acme", seed=bytes(48))
        mode = keystore.shard_path("acme").stat().st_mode & 0o777
        assert mode == 0o600

    def test_sharded_layout(self, tmp_path):
        """Tenant files fan out under shards/<first-sha256-byte>/."""
        keystore = Keystore(tmp_path)
        keystore.add_tenant("acme")
        path = keystore.shard_path("acme")
        assert path == tmp_path / "shards" / shard_prefix("acme") / "acme.json"
        assert path.is_file()

    def test_file_layout(self, tmp_path):
        keystore = Keystore(tmp_path)
        keystore.add_tenant("acme", "128f")
        keystore.generate_key("acme", seed=bytes(48))
        payload = json.loads(keystore.shard_path("acme").read_text())
        assert payload["tenant"] == "acme"
        assert payload["params"] == "SPHINCS+-128f"
        key = payload["keys"]["default"]
        assert sorted(key) == ["pk_root", "pk_seed", "sk_prf", "sk_seed"]
        assert all(len(bytes.fromhex(v)) == 16 for v in key.values())

    def test_tenant_name_validated_on_load(self, tmp_path):
        """A tampered payload must not smuggle a path-escaping name past
        the write-path rules (a later save would write outside root)."""
        (tmp_path / "wallet.json").write_text(json.dumps({
            "tenant": "../outside", "params": "SPHINCS+-128f", "keys": {}}))
        with pytest.raises(KeystoreError, match="invalid tenant name"):
            Keystore(tmp_path)

    def test_tenant_name_must_match_file(self, tmp_path):
        (tmp_path / "wallet.json").write_text(json.dumps({
            "tenant": "other", "params": "SPHINCS+-128f", "keys": {}}))
        with pytest.raises(KeystoreError, match="expected 'wallet'"):
            Keystore(tmp_path)

    def test_corrupt_file_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(KeystoreError, match="corrupt keystore"):
            Keystore(tmp_path)

    def test_wrong_key_length_rejected(self, tmp_path):
        (tmp_path / "acme.json").write_text(json.dumps({
            "tenant": "acme", "params": "SPHINCS+-128f",
            "keys": {"default": {f: "00" * 8 for f in
                                 ("sk_seed", "sk_prf", "pk_seed", "pk_root")}},
        }))
        with pytest.raises(KeystoreError, match="must be 16 bytes"):
            Keystore(tmp_path)


class TestMigration:
    """Opening a flat pre-shard root upgrades it transparently."""

    def _seed_flat_layout(self, tmp_path):
        """Write two tenants in the historical flat layout and return the
        original file bytes for later byte-identity checks."""
        old = Keystore()  # memory-only: build records without touching disk
        originals = {}
        for name, params, n in (("acme", "128f", 16), ("edge", "192f", 24)):
            old.add_tenant(name, params)
            old.generate_key(name, seed=derive_seed(name, n))
            sharded = Keystore(tmp_path / "scratch")
            sharded.add_tenant(name, params)
            sharded.generate_key(name, seed=derive_seed(name, n))
            flat = tmp_path / f"{name}.json"
            flat.write_bytes(sharded.shard_path(name).read_bytes())
            originals[name] = flat.read_bytes()
        import shutil
        shutil.rmtree(tmp_path / "scratch")
        return originals

    def test_flat_layout_migrates_to_shards(self, tmp_path):
        originals = self._seed_flat_layout(tmp_path)
        keystore = Keystore(tmp_path)
        assert keystore.tenants() == ("acme", "edge")
        for name in ("acme", "edge"):
            # Keys come through byte-identical...
            assert keystore.shard_path(name).read_bytes() == originals[name]
            # ...the flat original is kept aside for rollback...
            assert (tmp_path / f"{name}.json.migrated").exists()
            assert not (tmp_path / f"{name}.json").exists()

    def test_migrated_keys_byte_identical(self, tmp_path):
        self._seed_flat_layout(tmp_path)
        migrated = Keystore(tmp_path)
        reference = Keystore()
        for name, n in (("acme", 16), ("edge", 24)):
            reference.add_tenant(name, migrated.params_for(name))
            reference.generate_key(name, seed=derive_seed(name, n))
            got, _ = migrated.resolve(name)
            want, _ = reference.resolve(name)
            assert got.secret == want.secret
            assert got.public == want.public

    def test_migration_is_idempotent(self, tmp_path):
        self._seed_flat_layout(tmp_path)
        Keystore(tmp_path)
        again = Keystore(tmp_path)  # second open: nothing left to migrate
        assert again.tenants() == ("acme", "edge")
        assert sorted(p.name for p in tmp_path.glob("*.json")) == []

    def test_corrupt_flat_file_quarantined_in_place(self, tmp_path):
        self._seed_flat_layout(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(KeystoreError, match="corrupt keystore"):
            Keystore(tmp_path)
        assert (tmp_path / "bad.json.corrupt").exists()
        assert not (tmp_path / "bad.json").exists()
        # Healthy tenants still migrated; a clean reload succeeds.
        reloaded = Keystore(tmp_path)
        assert reloaded.tenants() == ("acme", "edge")

    def test_interrupted_migration_completes_on_rerun(self, tmp_path):
        """A crash mid-migration leaves some tenants sharded (flat file
        renamed ``.migrated``) and some still flat.  Re-opening must
        finish the job without duplicating or clobbering anything."""
        originals = self._seed_flat_layout(tmp_path)
        # Simulate the interrupted first run: "acme" fully migrated
        # (shard written, flat renamed aside), "edge" untouched.
        done = Keystore(tmp_path / "scratch2")
        done.add_tenant("acme", "128f")
        done.generate_key("acme", seed=derive_seed("acme", 16))
        sharded_path = done.shard_path("acme")
        target = tmp_path / sharded_path.relative_to(tmp_path / "scratch2")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(sharded_path.read_bytes())
        (tmp_path / "acme.json").rename(tmp_path / "acme.json.migrated")
        import shutil
        shutil.rmtree(tmp_path / "scratch2")

        resumed = Keystore(tmp_path)  # the re-run
        assert resumed.tenants() == ("acme", "edge")
        for name in ("acme", "edge"):
            assert resumed.shard_path(name).read_bytes() == originals[name]
            assert (tmp_path / f"{name}.json.migrated").exists()
            assert not (tmp_path / f"{name}.json").exists()
        # A third open changes nothing — the migration reached its fixed
        # point.
        before = {path: path.read_bytes()
                  for path in tmp_path.rglob("*.json")}
        Keystore(tmp_path)
        after = {path: path.read_bytes()
                 for path in tmp_path.rglob("*.json")}
        assert before == after


class TestLRUCache:
    def _populated(self, tmp_path, count=4, max_cached=None):
        seedstore = Keystore(tmp_path)
        for i in range(count):
            seedstore.add_tenant(f"t{i}")
            seedstore.generate_key(f"t{i}", seed=derive_seed(f"t{i}", 16))
        return Keystore(tmp_path, max_cached=max_cached)

    def test_eviction_bounds_residency(self, tmp_path):
        keystore = self._populated(tmp_path, count=4, max_cached=2)
        for i in range(4):
            keystore.resolve(f"t{i}")
        stats = keystore.cache_stats()
        assert stats["resident"] <= 2
        assert stats["known"] == 4
        assert stats["evictions"] >= 2

    def test_evicted_tenant_reloads_from_shard(self, tmp_path):
        keystore = self._populated(tmp_path, count=3, max_cached=1)
        first, _ = keystore.resolve("t0")
        keystore.resolve("t1")  # evicts t0
        keystore.resolve("t2")  # evicts t1
        again, _ = keystore.resolve("t0")  # cache miss -> shard reload
        assert again.secret == first.secret
        assert keystore.cache_stats()["loads"] >= 3

    def test_hot_tenant_stays_resident(self, tmp_path):
        keystore = self._populated(tmp_path, count=3, max_cached=2)
        keystore.resolve("t0")
        before = keystore.cache_stats()["hits"]
        for other in ("t1", "t2", "t1", "t2"):
            keystore.resolve(other)
            keystore.resolve("t0")  # touch keeps t0 most-recently-used
        assert keystore.cache_stats()["loads"] <= 3 + 2  # t0 loaded once
        assert keystore.cache_stats()["hits"] > before

    def test_memory_only_store_never_evicts(self, tmp_path):
        keystore = Keystore(max_cached=1)  # ignored without a root
        keystore.add_tenant("a")
        keystore.add_tenant("b")
        keys = keystore.generate_key("a", seed=bytes(48))
        keystore.generate_key("b", seed=bytes(48))
        resolved, _ = keystore.resolve("a")
        assert resolved is keys
        assert keystore.cache_stats()["evictions"] == 0

    def test_writes_to_evicted_tenant_persist(self, tmp_path):
        keystore = self._populated(tmp_path, count=3, max_cached=1)
        keystore.generate_key("t0", "extra", seed=derive_seed("x", 16))
        keystore.resolve("t1")
        keystore.resolve("t2")  # t0 long gone from cache
        assert keystore.key_names("t0") == ("default", "extra")


class TestRateLimit:
    def _clocked(self, **kwargs):
        now = [0.0]
        keystore = Keystore(clock=lambda: now[0], **kwargs)
        keystore.add_tenant("acme")
        return keystore, now

    def test_unlimited_by_default(self):
        keystore = Keystore()
        keystore.add_tenant("acme")
        assert all(keystore.admit("acme") for _ in range(1000))

    def test_bucket_denies_past_burst(self):
        keystore, _ = self._clocked(rate_limit=10, rate_burst=3)
        assert [keystore.admit("acme") for _ in range(4)] == [
            True, True, True, False]
        assert keystore.cache_stats()["rate_denials"] == 1

    def test_bucket_refills_over_time(self):
        keystore, now = self._clocked(rate_limit=10, rate_burst=1)
        assert keystore.admit("acme")
        assert not keystore.admit("acme")
        now[0] += 0.1  # one token refilled at 10/s
        assert keystore.admit("acme")
        assert not keystore.admit("acme")

    def test_per_tenant_override(self):
        keystore, _ = self._clocked(rate_limit=1, rate_burst=1)
        keystore.add_tenant("vip")
        keystore.set_rate_limit("vip", None)  # exempt
        assert keystore.admit("acme")
        assert not keystore.admit("acme")
        assert all(keystore.admit("vip") for _ in range(100))
        keystore.set_rate_limit("acme", 100, 2)
        assert [keystore.admit("acme") for _ in range(3)] == [
            True, True, False]

    def test_tenants_do_not_share_budget(self):
        keystore, _ = self._clocked(rate_limit=5, rate_burst=1)
        keystore.add_tenant("edge")
        assert keystore.admit("acme")
        assert keystore.admit("edge")  # acme's spend doesn't starve edge
        assert not keystore.admit("acme")

    def test_admission_under_concurrent_ledger_appends(self, tmp_path):
        """The bucket gates real concurrent append traffic: each wave of
        ledger appends costs entry signs plus one checkpoint sign, a
        frozen clock never refills, and once the budget is gone further
        appends fail with :class:`OverloadedError` — typed, with nothing
        committed for the denied wave."""
        import asyncio

        from repro.api import AsyncClient, verify_inclusion
        from repro.errors import OverloadedError
        from repro.ledger import LedgerService, run_audit
        from repro.service import SigningServer, SigningService

        keystore = Keystore(rate_limit=1e-9, rate_burst=7.0,
                            clock=lambda: 0.0)
        keystore.add_tenant("ledger")
        keystore.generate_key("ledger", seed=derive_seed("ledger/default",
                                                         16))

        from repro.api import LocalClient

        # verify_inclusion drives client.verify; a local facade bound to
        # the same deterministic key material checks the receipts without
        # spending admission tokens.
        verifier_store = Keystore()
        verifier_store.add_tenant("ledger")
        verifier_store.generate_key("ledger",
                                    seed=derive_seed("ledger/default", 16))
        verifier = LocalClient(verifier_store, deterministic=True)

        async def scenario():
            service = SigningService(keystore, target_batch_size=2,
                                     max_wait_s=0.02, deterministic=True)
            server = SigningServer(service, port=0)
            await server.start()
            client = await AsyncClient.connect(port=server.port)
            ledger = LedgerService(client, root=tmp_path / "log",
                                   batch_size=4, max_wait_ms=5.0)
            try:
                # Wave 1: 2 entries + 1 checkpoint = 3 of 7 tokens.
                first = await ledger.append_many([b"w1-a", b"w1-b"])
                # Wave 2: 3 entries + 1 checkpoint = 4 — budget spent.
                second = await ledger.append_many([b"w2-a", b"w2-b",
                                                   b"w2-c"])
                # Wave 3: no tokens left; every append in the sealed
                # batch fails together, typed, and commits nothing.
                with pytest.raises(OverloadedError, match="rate-limit"):
                    await ledger.append_many([b"w3-a", b"w3-b"])
                await ledger.close()
                receipts = first + second
                assert ledger.log.size == 5
                for receipt in receipts:
                    proof = ledger.prove(receipt.index,
                                         receipt.checkpoint.size)
                    assert verify_inclusion(verifier, proof)
            finally:
                await client.close()
                await server.stop()

        try:
            asyncio.run(scenario())
        finally:
            verifier.close()
        assert keystore.cache_stats()["rate_denials"] >= 1
        report = run_audit(tmp_path / "log", keystore, tenant="ledger",
                           deterministic=True)
        assert report["ok"], report["problems"]
        assert report["entries"] == 5

    def test_invalid_config_rejected(self):
        with pytest.raises(KeystoreError, match="rate_limit"):
            Keystore(rate_limit=0)
        with pytest.raises(KeystoreError, match="max_cached"):
            Keystore("unused", max_cached=0)
        keystore = Keystore()
        keystore.add_tenant("acme")
        with pytest.raises(KeystoreError, match="rate_limit"):
            keystore.set_rate_limit("acme", -1)
        with pytest.raises(KeystoreError, match="unknown tenant"):
            keystore.set_rate_limit("ghost", 1)


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed("a", 16) == derive_seed("a", 16)
        assert derive_seed("a", 16) != derive_seed("b", 16)
        assert len(derive_seed("a", 24)) == 72
        assert len(derive_seed("a", 32)) == 96
