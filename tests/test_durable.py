"""Durability: every rename and every new directory entry is fsynced.

A file's own fsync does not make its name durable: POSIX promises that
a rename or a new directory survives a power loss only once the
directory holding it is fsynced too.  These tests record ``os.fsync``
on directory descriptors, by inode, and check that each write path —
ledger segments and checkpoints, keystore shards — syncs the directory
of every name it creates.
"""

import asyncio
import hashlib
import os
import stat
from types import SimpleNamespace

import pytest

from repro.durable import make_dirs, write_durably
from repro.ledger import LedgerService
from repro.service import Keystore
from repro.service.keystore import shard_prefix


@pytest.fixture
def synced(monkeypatch):
    """The ``(st_dev, st_ino)`` of each directory fsynced, in order,
    and ``"replace"`` where each ``os.replace`` ran."""
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            events.append((info.st_dev, info.st_ino))
        fsync(fd)

    def recording_replace(*args, **kwargs):
        replace(*args, **kwargs)
        events.append("replace")

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return events


def ident(path):
    info = os.stat(path)
    return info.st_dev, info.st_ino


class TestHelpers:
    def test_a_write_syncs_its_directory_after_the_rename(self, tmp_path,
                                                          synced):
        write_durably(tmp_path / "file.json", "{}\n", 0o644)
        assert synced == ["replace", ident(tmp_path)]
        assert (tmp_path / "file.json").read_text() == "{}\n"

    def test_make_dirs_syncs_the_parent_of_each_directory_it_makes(
            self, tmp_path, synced):
        make_dirs(tmp_path / "a" / "b" / "c")
        assert synced == [ident(tmp_path), ident(tmp_path / "a"),
                          ident(tmp_path / "a" / "b")]
        synced.clear()
        make_dirs(tmp_path / "a" / "b" / "c")  # nothing new, nothing synced
        assert synced == []


class SyncClient:
    """Signs at once: a signature is the message's SHA-256."""

    def sign_many(self, tenant, payloads, key="default"):
        return [self.sign(tenant, payload) for payload in payloads]

    def sign(self, tenant, payload, key="default"):
        return SimpleNamespace(signature=hashlib.sha256(payload).digest(),
                               params="SPHINCS+-128f")


class TestWriters:
    def test_a_new_ledger_and_its_seal_sync_every_name(self, tmp_path,
                                                       synced):
        root = tmp_path / "log"
        ledger = LedgerService(SyncClient(), root=root)
        # The log directory, then its checkpoints/ and segments/.
        assert synced == [ident(tmp_path), ident(root), ident(root)]
        synced.clear()

        async def seal():
            await ledger.append(b"durable")
            await ledger.close()

        asyncio.run(seal())
        assert synced == ["replace", ident(root / "segments"),
                          "replace", ident(root / "checkpoints")]

    def test_a_keystore_shard_syncs_every_name(self, tmp_path, synced):
        root = tmp_path / "keys"
        keystore = Keystore(root)
        assert synced == [ident(tmp_path)]
        synced.clear()
        keystore.add_tenant("acme", "128f")
        shard = root / "shards" / shard_prefix("acme")
        assert synced == [ident(root), ident(root / "shards"),
                          "replace", ident(shard)]
        synced.clear()
        keystore.generate_key("acme", seed=bytes(48))
        assert synced == ["replace", ident(shard)]
