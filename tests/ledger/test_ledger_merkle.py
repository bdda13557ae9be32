"""Property tests for the Merkle log: proofs, persistence, truncation.

The generator and the verifier are independent implementations of the
RFC 6962 algorithms, so checking them against each other over *every*
(index, size) pair of every small tree is a real cross-check, not a
tautology — and every mutation of a valid proof must fail closed.
"""

import base64
import hashlib
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import LedgerError
from repro.ledger import (EMPTY_ROOT, MerkleLog, leaf_hash, node_hash,
                          root_from_inclusion_path, verify_consistency_path)

MAX_SIZE = 16
GOLDEN = Path(__file__).parent / "golden"


def _blob(size):
    """*size* deterministic bytes: SHA-256 of a counter, concatenated."""
    return b"".join(hashlib.sha256(b"entry" + i.to_bytes(4, "big")).digest()
                    for i in range(size // 32 + 1))[:size]


# The recursive RFC 6962 definitions (MTH, PATH, PROOF/SUBPROOF), over a
# list of leaf hashes: what the log's kept levels must reproduce.
def split(n):
    """The largest power of two strictly less than *n* (n >= 2)."""
    k = 1 << (n.bit_length() - 1)
    return k >> 1 if k == n else k


def mth(hashes, lo, hi):
    if hi - lo == 0:
        return EMPTY_ROOT
    if hi - lo == 1:
        return hashes[lo]
    k = split(hi - lo)
    return node_hash(mth(hashes, lo, lo + k), mth(hashes, lo + k, hi))


def audit_path(hashes, index, lo, hi):
    if hi - lo <= 1:
        return []
    k = split(hi - lo)
    if index < lo + k:
        return audit_path(hashes, index, lo, lo + k) + [
            mth(hashes, lo + k, hi)]
    return audit_path(hashes, index, lo + k, hi) + [mth(hashes, lo, lo + k)]


def subproof(hashes, m, lo, hi, complete):
    if m == hi - lo:
        return [] if complete else [mth(hashes, lo, hi)]
    k = split(hi - lo)
    if m <= k:
        return subproof(hashes, m, lo, lo + k, complete) + [
            mth(hashes, lo + k, hi)]
    return subproof(hashes, m - k, lo + k, hi, False) + [
        mth(hashes, lo, lo + k)]


def consistency(hashes, old, new):
    return [] if old in (0, new) else subproof(hashes, old, 0, new, True)


def entries_up_to(n):
    return [f"entry-{i}".encode() for i in range(n)]


def full_log(n):
    log = MerkleLog()
    log.extend(entries_up_to(n))
    return log


def seal(log, entries):
    """Write *entries* as the log's next segment, then extend the tree:
    the two halves a ledger seal runs, in its order."""
    log.write_segment(log.size, entries)
    log.extend(entries)


class TestTreeHeads:
    def test_empty_root_is_rfc6962_hash_of_empty_string(self):
        assert MerkleLog().root_hash() == EMPTY_ROOT

    def test_single_leaf_root_is_the_leaf_hash(self):
        log = full_log(1)
        assert log.root_hash() == leaf_hash(b"entry-0")

    def test_two_leaf_root_is_one_interior_node(self):
        log = full_log(2)
        assert log.root_hash() == node_hash(leaf_hash(b"entry-0"),
                                            leaf_hash(b"entry-1"))

    def test_prefix_roots_are_size_stable(self):
        # The head over the first k entries never changes as the log
        # grows — append-only means history is immutable.
        big = full_log(MAX_SIZE)
        for k in range(1, MAX_SIZE + 1):
            assert big.root_hash(k) == full_log(k).root_hash()
        assert big.root_hash(0) == EMPTY_ROOT

    def test_preview_is_pure_and_matches_append(self):
        log = full_log(5)
        tail = [b"six", b"seven"]
        new_size, new_root = log.preview(tail)
        assert log.size == 5  # nothing mutated
        log.extend(tail)
        assert (new_size, new_root) == (7, log.root_hash())


class TestInclusionProofs:
    def test_every_index_of_every_small_tree_verifies(self):
        log = full_log(MAX_SIZE)
        for size in range(1, MAX_SIZE + 1):
            root = log.root_hash(size)
            for index in range(size):
                path = log.inclusion_path(index, size)
                leaf = leaf_hash(log.entry(index))
                assert root_from_inclusion_path(index, size, leaf,
                                                path) == root

    def test_wrong_leaf_changes_the_implied_root(self):
        log = full_log(MAX_SIZE)
        for size in (1, 2, 7, MAX_SIZE):
            root = log.root_hash(size)
            for index in range(size):
                path = log.inclusion_path(index, size)
                wrong = leaf_hash(b"not this entry")
                assert root_from_inclusion_path(index, size, wrong,
                                                path) != root

    def test_mutated_sibling_changes_the_implied_root(self):
        log = full_log(MAX_SIZE)
        for size in (3, 8, 13):
            root = log.root_hash(size)
            for index in range(size):
                path = log.inclusion_path(index, size)
                for hop in range(len(path)):
                    bad = list(path)
                    bad[hop] = bytes(32)
                    assert root_from_inclusion_path(
                        index, size, leaf_hash(log.entry(index)), bad) != root

    def test_truncated_and_padded_paths_raise(self):
        log = full_log(MAX_SIZE)
        for size in (2, 5, MAX_SIZE):
            for index in range(size):
                path = log.inclusion_path(index, size)
                leaf = leaf_hash(log.entry(index))
                if path:
                    with pytest.raises(LedgerError):
                        root_from_inclusion_path(index, size, leaf,
                                                 path[:-1])
                with pytest.raises(LedgerError):
                    root_from_inclusion_path(index, size, leaf,
                                             path + [bytes(32)])

    def test_out_of_range_index_raises(self):
        with pytest.raises(LedgerError):
            root_from_inclusion_path(3, 3, bytes(32), [])
        with pytest.raises(LedgerError):
            full_log(3).inclusion_path(3, 3)


class TestConsistencyProofs:
    def test_every_size_pair_of_every_small_tree_verifies(self):
        log = full_log(MAX_SIZE)
        for new in range(MAX_SIZE + 1):
            new_root = log.root_hash(new)
            for old in range(new + 1):
                path = log.consistency_path(old, new)
                assert verify_consistency_path(
                    old, log.root_hash(old), new, new_root, path)

    def test_forked_history_fails(self):
        log = full_log(MAX_SIZE)
        fork = MerkleLog()
        fork.extend(entries_up_to(3))
        fork.extend([b"forked!"])
        for new in range(5, MAX_SIZE + 1):
            path = log.consistency_path(4, new)
            assert not verify_consistency_path(
                4, fork.root_hash(4), new, log.root_hash(new), path)

    def test_mutated_path_fails_or_raises(self):
        log = full_log(13)
        for old in range(1, 13):
            path = log.consistency_path(old, 13)
            for hop in range(len(path)):
                bad = list(path)
                bad[hop] = bytes(32)
                try:
                    verdict = verify_consistency_path(
                        old, log.root_hash(old), 13, log.root_hash(13),
                        bad)
                except LedgerError:
                    continue
                assert not verdict

    def test_wrong_length_paths_raise(self):
        log = full_log(12)
        path = log.consistency_path(5, 12)
        with pytest.raises(LedgerError):
            verify_consistency_path(5, log.root_hash(5), 12,
                                    log.root_hash(12), path + [bytes(32)])
        with pytest.raises(LedgerError):
            verify_consistency_path(5, log.root_hash(5), 12,
                                    log.root_hash(12), path[:-1])
        with pytest.raises(LedgerError):
            verify_consistency_path(7, log.root_hash(7), 5,
                                    log.root_hash(5), [])

    def test_equal_and_empty_sizes(self):
        log = full_log(6)
        assert verify_consistency_path(6, log.root_hash(), 6,
                                       log.root_hash(), [])
        assert verify_consistency_path(0, EMPTY_ROOT, 6, log.root_hash(),
                                       [])
        with pytest.raises(LedgerError):
            verify_consistency_path(6, log.root_hash(), 6, log.root_hash(),
                                    [bytes(32)])


class TestPersistence:
    def test_reload_preserves_entries_and_root(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        seal(log, entries_up_to(3))
        seal(log, [b"three", b"four"])
        reloaded = MerkleLog(tmp_path / "log")
        assert reloaded.size == 5
        assert reloaded.root_hash() == log.root_hash()
        assert reloaded.entry(3) == b"three"

    def test_segments_are_atomic_no_temp_residue(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        seal(log, entries_up_to(4))
        segment_dir = tmp_path / "log" / "segments"
        assert sorted(p.name for p in segment_dir.iterdir()) == [
            "000000000000.seg"]
        seal(log, [b"more"])
        assert not list(segment_dir.glob("*.tmp"))

    def test_trusted_size_truncates_unacked_tail(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        seal(log, entries_up_to(4))
        seal(log, [b"never acked", b"also not"])
        truncated = MerkleLog(tmp_path / "log", trusted_size=4)
        assert truncated.size == 4
        assert truncated.root_hash() == log.root_hash(4)

    def test_trusted_size_beyond_disk_raises(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        seal(log, entries_up_to(2))
        with pytest.raises(LedgerError, match="missing"):
            MerkleLog(tmp_path / "log", trusted_size=5)

    def test_corrupt_segment_raises(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        seal(log, entries_up_to(2))
        segment = next((tmp_path / "log" / "segments").glob("*.seg"))
        segment.write_text("{not json")
        with pytest.raises(LedgerError, match="corrupt segment"):
            MerkleLog(tmp_path / "log")

    def test_missing_middle_segment_detected(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        seal(log, entries_up_to(2))
        seal(log, [b"second batch"])
        first = tmp_path / "log" / "segments" / "000000000000.seg"
        first.unlink()
        with pytest.raises(LedgerError, match="missing or duplicated"):
            MerkleLog(tmp_path / "log")

    def test_segment_payload_is_base64_json(self, tmp_path):
        # The storage format is part of the audit surface: an external
        # tool must be able to read segments without this codebase.
        log = MerkleLog(tmp_path / "log")
        seal(log, [b"\x00\x01binary"])
        record = json.loads(
            (tmp_path / "log" / "segments" / "000000000000.seg")
            .read_text())
        assert record["start"] == 0
        assert base64.b64decode(record["entries"][0]) == b"\x00\x01binary"

    def test_segments_match_the_golden_bytes(self, tmp_path):
        # golden/ holds the segments this exact history wrote before
        # entries were spliced into the segment JSON as raw bytes.
        log = MerkleLog(tmp_path / "log")
        seal(log, [b"first", b"", bytes(range(256))])
        seal(log, [_blob(1000), "café ☃".encode()])
        written = tmp_path / "log" / "segments"
        assert sorted(p.name for p in written.iterdir()) == sorted(
            p.name for p in GOLDEN.iterdir())
        for golden in GOLDEN.iterdir():
            assert (written / golden.name).read_bytes() == \
                golden.read_bytes(), golden.name
        # ... and those segments still load as the same log.
        shutil.copytree(GOLDEN, tmp_path / "old" / "segments")
        reloaded = MerkleLog(tmp_path / "old")
        assert reloaded.size == 5
        assert reloaded.root_hash() == log.root_hash() == bytes.fromhex(
            "5de0c060c56dbc65e3988f6372dc8a83"
            "51c6e2b4db8e61d1ed6469dbf4353aea")


class TestAgainstTheRecursiveDefinition:
    """The kept levels against RFC 6962's recursion, over random batch
    sequences: every tree head, preview, inclusion path and consistency
    path, before and after a reload from disk."""

    @staticmethod
    def check(log, entries):
        hashes = [leaf_hash(entry) for entry in entries]
        assert log.size == len(entries)
        for size in range(len(entries) + 1):
            assert log.root_hash(size) == mth(hashes, 0, size)
            for index in range(size):
                assert log.inclusion_path(index, size) == audit_path(
                    hashes, index, 0, size)
            for old in range(size + 1):
                assert log.consistency_path(old, size) == consistency(
                    hashes, old, size)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(batches=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           reload_after=st.integers(0, 5))
    def test_random_batches_and_a_reload(self, tmp_path_factory, batches,
                                         reload_after):
        root = tmp_path_factory.mktemp("log")
        log, entries = MerkleLog(root), []
        for number, count in enumerate(batches):
            batch = [b"batch %d entry %d" % (number, i) for i in range(count)]
            hashes = [leaf_hash(entry) for entry in entries + batch]
            assert log.preview(batch) == (len(hashes),
                                          mth(hashes, 0, len(hashes)))
            seal(log, batch)
            entries += batch
            if number == reload_after:
                log = MerkleLog(root)
            self.check(log, entries)
        self.check(MerkleLog(root), entries)
        truncated = len(entries) - batches[-1]
        self.check(MerkleLog(root, trusted_size=truncated),
                   entries[:truncated])


class RecursiveLog(MerkleLog):
    """A log whose tree heads and consistency proofs come from the
    recursion instead of the kept levels."""

    def hashes(self):
        return [leaf_hash(self.entry(i)) for i in range(self.size)]

    def root_hash(self, size=None):
        return mth(self.hashes(), 0, self.size if size is None else size)

    def consistency_path(self, old_size, new_size=None):
        return consistency(self.hashes(), old_size,
                           self.size if new_size is None else new_size)


class TestAuditReport:
    def test_unchanged_on_a_200_entry_log(self, tmp_path, monkeypatch):
        """``run_audit`` over a real 200-entry log, clean and then with
        one entry corrupted: the same report from the kept levels as from
        the recursion.  Each distinct verdict is computed once."""
        import asyncio

        from repro.api import LocalClient
        from repro.ledger import LedgerService, audit, run_audit
        from repro.params import get_params
        from repro.service import Keystore, derive_seed
        from repro.sphincs.signer import Sphincs

        keystore = Keystore()
        keystore.add_tenant("ledger", "128f")
        keystore.generate_key("ledger", "default", seed=derive_seed(
            "ledger/default", get_params("128f").n))

        async def fill():
            client = LocalClient(keystore, deterministic=True)
            try:
                ledger = LedgerService(client, tenant="ledger",
                                       root=tmp_path / "log")
                start = 0
                for wave in (7, 24, 41, 64, 64):  # heads at 7 ... 200
                    await ledger.append_many([b"audit event %d" % i for i in
                                              range(start, start + wave)])
                    start += wave
                await ledger.close()
            finally:
                client.close()

        asyncio.run(fill())
        verdicts = {}
        verify = Sphincs.verify
        monkeypatch.setattr(Sphincs, "verify", lambda self, *args: (
            verdicts[args] if args in verdicts
            else verdicts.setdefault(args, verify(self, *args))))

        def both():
            kept = run_audit(tmp_path / "log", keystore)
            with monkeypatch.context() as patch:
                patch.setattr(audit, "MerkleLog", RecursiveLog)
                assert run_audit(tmp_path / "log", keystore) == kept
            return kept

        clean = both()
        assert clean["ok"] and clean["entries_verified"] == 200
        assert clean["checkpoints"] == clean["checkpoints_verified"] >= 5
        segment = sorted((tmp_path / "log" / "segments").glob("*.seg"))[2]
        record = json.loads(segment.read_text())
        blob = bytearray(base64.b64decode(record["entries"][0]))
        blob[5] ^= 0xFF
        record["entries"][0] = base64.b64encode(bytes(blob)).decode("ascii")
        segment.write_text(json.dumps(record))
        damaged = both()
        assert not damaged["ok"] and damaged["first_bad_index"] == 31
        assert any("recomputed root" in p for p in damaged["problems"])
