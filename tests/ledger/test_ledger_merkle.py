"""Property tests for the Merkle log: proofs, persistence, truncation.

The generator and the verifier are independent implementations of the
RFC 6962 algorithms, so checking them against each other over *every*
(index, size) pair of every small tree is a real cross-check, not a
tautology — and every mutation of a valid proof must fail closed.
"""

import base64
import json

import pytest

from repro.errors import LedgerError
from repro.ledger import (EMPTY_ROOT, MerkleLog, leaf_hash, node_hash,
                          root_from_inclusion_path, verify_consistency_path)

MAX_SIZE = 16


def entries_up_to(n):
    return [f"entry-{i}".encode() for i in range(n)]


def full_log(n):
    log = MerkleLog()
    log.append(entries_up_to(n))
    return log


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
        log.append(tail)
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
        fork.append(entries_up_to(3))
        fork.append([b"forked!"])
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
        log.append(entries_up_to(3))
        log.append([b"three", b"four"])
        reloaded = MerkleLog(tmp_path / "log")
        assert reloaded.size == 5
        assert reloaded.root_hash() == log.root_hash()
        assert reloaded.entry(3) == b"three"

    def test_segments_are_atomic_no_temp_residue(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        log.append(entries_up_to(4))
        segment_dir = tmp_path / "log" / "segments"
        assert sorted(p.name for p in segment_dir.iterdir()) == [
            "000000000000.seg"]
        log.append([b"more"])
        assert not list(segment_dir.glob("*.tmp"))

    def test_trusted_size_truncates_unacked_tail(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        log.append(entries_up_to(4))
        log.append([b"never acked", b"also not"])
        truncated = MerkleLog(tmp_path / "log", trusted_size=4)
        assert truncated.size == 4
        assert truncated.root_hash() == log.root_hash(4)

    def test_trusted_size_beyond_disk_raises(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        log.append(entries_up_to(2))
        with pytest.raises(LedgerError, match="missing"):
            MerkleLog(tmp_path / "log", trusted_size=5)

    def test_corrupt_segment_raises(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        log.append(entries_up_to(2))
        segment = next((tmp_path / "log" / "segments").glob("*.seg"))
        segment.write_text("{not json")
        with pytest.raises(LedgerError, match="corrupt segment"):
            MerkleLog(tmp_path / "log")

    def test_missing_middle_segment_detected(self, tmp_path):
        log = MerkleLog(tmp_path / "log")
        log.append(entries_up_to(2))
        log.append([b"second batch"])
        first = tmp_path / "log" / "segments" / "000000000000.seg"
        first.unlink()
        with pytest.raises(LedgerError, match="missing or duplicated"):
            MerkleLog(tmp_path / "log")

    def test_segment_payload_is_base64_json(self, tmp_path):
        # The storage format is part of the audit surface: an external
        # tool must be able to read segments without this codebase.
        log = MerkleLog(tmp_path / "log")
        log.append([b"\x00\x01binary"])
        record = json.loads(
            (tmp_path / "log" / "segments" / "000000000000.seg")
            .read_text())
        assert record["start"] == 0
        assert base64.b64decode(record["entries"][0]) == b"\x00\x01binary"
