"""The append-only Merkle log: hashing, proofs, persisted segments.

:class:`MerkleLog` keeps an ordered list of opaque entry blobs and the
RFC 6962-shaped hash tree over them — domain-separated leaf hashing
(``H(0x00 || entry)``) and interior nodes (``H(0x01 || left || right)``)
over SHA-256, with the standard largest-power-of-two-left split, so the
tree head for any prefix size is a pure function of the entries and
every proof algorithm below matches the Certificate Transparency ones
bit for bit.

The split always puts a complete subtree, aligned to its own size, on
the left.  So the log keeps the root of every complete aligned subtree,
level by level, extending the levels as leaves arrive; a tree head or a
proof is then lookups plus O(log n) hashes along the right edge.

Persistence follows the sharded keystore's storage conventions
(:mod:`repro.service.keystore`): every write lands in a ``.tmp``
sibling first and is atomically renamed over the live name, with an
``fsync`` before the rename (the log is an audit trail — a checkpoint
must never point at entry bytes the disk has not accepted).  Each
sealed batch is one immutable segment file under ``segments/``, named
by the index of its first entry, so a crash can only ever lose *whole
un-acked batches*, never tear one.

The proof helpers (:func:`root_from_inclusion_path`,
:func:`verify_consistency_path`) are pure functions over hashes so
clients can verify proofs without constructing a log — the typed
facade's ``verify_inclusion`` builds on them.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

from ..durable import make_dirs, write_durably
from ..errors import LedgerError
from ..service.protocol import pack_json

__all__ = [
    "EMPTY_ROOT", "MerkleLog", "leaf_hash", "node_hash",
    "root_from_inclusion_path", "verify_consistency_path",
]

#: Segment files live here under the log root, one per sealed batch.
SEGMENT_DIR = "segments"
#: Width of the zero-padded start index in a segment file name: enough
#: for 10^12 entries, and lexicographic order == append order.
_INDEX_WIDTH = 12

#: The tree head of an empty log (RFC 6962: the hash of the empty string).
EMPTY_ROOT = hashlib.sha256(b"").digest()


def leaf_hash(entry: bytes) -> bytes:
    """``H(0x00 || entry)`` — domain-separated from interior nodes."""
    return hashlib.sha256(b"\x00" + entry).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    """``H(0x01 || left || right)`` for one interior node."""
    return hashlib.sha256(b"\x01" + left + right).digest()


def _split(n: int) -> int:
    """The largest power of two strictly less than *n* (n >= 2)."""
    k = 1 << (n.bit_length() - 1)
    return k >> 1 if k == n else k


def _fold(nodes: list[bytes]) -> bytes:
    """The tree head over consecutive complete subtrees, given their
    roots largest (leftmost) first: RFC 6962 hangs each on the left of
    the tree over everything to its right."""
    if not nodes:
        return EMPTY_ROOT
    root = nodes[-1]
    for node in reversed(nodes[:-1]):
        root = node_hash(node, root)
    return root


def root_from_inclusion_path(index: int, size: int, leaf: bytes,
                             path: list[bytes]) -> bytes:
    """Recompute the tree head an inclusion proof commits to.

    *leaf* is the already-hashed leaf (:func:`leaf_hash` of the entry);
    *path* is bottom-up sibling hashes for entry *index* in a tree of
    *size* entries.  Returns the implied root; the caller compares it to
    a trusted tree head.  Raises :class:`LedgerError` when the path
    length cannot match ``(index, size)`` — a malformed proof must never
    "verify" by accident.
    """
    if not 0 <= index < size:
        raise LedgerError(
            f"inclusion index {index} outside a tree of {size} entries")
    fn, sn = index, size - 1
    result = leaf
    for sibling in path:
        if sn == 0:
            raise LedgerError(
                f"inclusion path for index {index}/{size} is too long")
        if fn & 1 or fn == sn:
            result = node_hash(sibling, result)
            if not fn & 1:
                while True:
                    fn >>= 1
                    sn >>= 1
                    if fn & 1 or fn == 0:
                        break
        else:
            result = node_hash(result, sibling)
        fn >>= 1
        sn >>= 1
    if sn != 0:
        raise LedgerError(
            f"inclusion path for index {index}/{size} is too short")
    return result


def verify_consistency_path(old_size: int, old_root: bytes,
                            new_size: int, new_root: bytes,
                            path: list[bytes]) -> bool:
    """Whether *path* proves the *old* tree head is a prefix of the new.

    The RFC 6962 consistency check: ``True`` iff the proof reconstructs
    both tree heads.  Malformed proofs (wrong length for the size pair)
    raise :class:`LedgerError` rather than returning ``False``, so
    callers can distinguish "the log forked" from "the proof is junk".
    """
    if old_size > new_size:
        raise LedgerError(
            f"consistency sizes must not shrink: {old_size} > {new_size}")
    if old_size == new_size:
        if path:
            raise LedgerError("equal-size consistency proof must be empty")
        return old_root == new_root
    if old_size == 0:
        if path:
            raise LedgerError("empty-log consistency proof must be empty")
        return old_root == EMPTY_ROOT
    hashes = list(path)
    if old_size & (old_size - 1) == 0:  # old tree is a complete subtree
        hashes.insert(0, old_root)
    if not hashes:
        raise LedgerError("consistency proof is empty")
    fn, sn = old_size - 1, new_size - 1
    while fn & 1:
        fn >>= 1
        sn >>= 1
    old_result = new_result = hashes[0]
    for sibling in hashes[1:]:
        if sn == 0:
            raise LedgerError(
                f"consistency path for {old_size}->{new_size} is too long")
        if fn & 1 or fn == sn:
            old_result = node_hash(sibling, old_result)
            new_result = node_hash(sibling, new_result)
            while fn != 0 and not fn & 1:
                fn >>= 1
                sn >>= 1
        else:
            new_result = node_hash(new_result, sibling)
        fn >>= 1
        sn >>= 1
    if sn != 0:
        raise LedgerError(
            f"consistency path for {old_size}->{new_size} is too short")
    return old_result == old_root and new_result == new_root


class MerkleLog:
    """Append-only entry store plus the Merkle tree over it.

    Parameters
    ----------
    root:
        Log directory (``None`` = memory-only).  Existing segments are
        loaded in append order; *trusted_size* truncates entries beyond
        the last sealed checkpoint — a segment that landed on disk but
        whose checkpoint write never did was never acknowledged, so it
        must not resurrect.
    """

    def __init__(self, root: str | Path | None = None, *,
                 trusted_size: int | None = None):
        self.root = Path(root) if root is not None else None
        self._entries: list[bytes] = []
        #: ``_levels[h][i]``: the root of leaves ``[i << h, (i + 1) << h)``,
        #: for every such complete subtree; ``_levels[0]`` is leaf hashes.
        self._levels: list[list[bytes]] = [[]]
        if self.root is not None:
            make_dirs(self.root / SEGMENT_DIR)
            self._load(trusted_size)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._entries)

    def entry(self, index: int) -> bytes:
        if not 0 <= index < len(self._entries):
            raise LedgerError(
                f"unknown entry index {index} (log holds "
                f"{len(self._entries)} entries)")
        return self._entries[index]

    def root_hash(self, size: int | None = None) -> bytes:
        """The tree head over the first *size* entries (default: all)."""
        if size is None:
            size = len(self._entries)
        if not 0 <= size <= len(self._entries):
            raise LedgerError(
                f"no tree head at size {size} (log holds "
                f"{len(self._entries)} entries)")
        return self._root(0, size)

    def _pieces(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """``(height, root)`` of the complete subtrees tiling leaves
        ``[lo, hi)``, largest first.  *lo* is a multiple of the largest,
        as every range the RFC 6962 split reaches is."""
        pieces = []
        while lo < hi:
            height = (hi - lo).bit_length() - 1
            pieces.append((height, self._levels[height][lo >> height]))
            lo += 1 << height
        return pieces

    def _root(self, lo: int, hi: int) -> bytes:
        """The tree head over leaves ``[lo, hi)``."""
        return _fold([node for _, node in self._pieces(lo, hi)])

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def inclusion_path(self, index: int, size: int | None = None
                       ) -> list[bytes]:
        """Bottom-up sibling hashes proving entry *index* is in the
        first-*size* tree (RFC 6962 audit path)."""
        if size is None:
            size = len(self._entries)
        if not 0 <= size <= len(self._entries):
            raise LedgerError(
                f"no tree of size {size} (log holds "
                f"{len(self._entries)} entries)")
        if not 0 <= index < size:
            raise LedgerError(
                f"unknown entry index {index} in a tree of {size} entries")
        path, lo, hi = [], 0, size
        while hi - lo > 1:
            k = _split(hi - lo)
            if index < lo + k:
                path.append(self._root(lo + k, hi))
                hi = lo + k
            else:
                path.append(self._root(lo, lo + k))
                lo += k
        return path[::-1]

    def consistency_path(self, old_size: int,
                         new_size: int | None = None) -> list[bytes]:
        """The RFC 6962 proof that the *old_size* tree head is a prefix
        of the *new_size* one."""
        if new_size is None:
            new_size = len(self._entries)
        if not 0 <= old_size <= new_size <= len(self._entries):
            raise LedgerError(
                f"no consistency path {old_size}->{new_size} (log holds "
                f"{len(self._entries)} entries)")
        if old_size == new_size or old_size == 0:
            return []
        # Down from the new tree towards the old one's last subtree; that
        # subtree's own root leads the proof unless it is the old tree.
        path, m, lo, hi, complete = [], old_size, 0, new_size, True
        while m != hi - lo:
            k = _split(hi - lo)
            if m <= k:
                path.append(self._root(lo + k, hi))
                hi = lo + k
            else:
                path.append(self._root(lo, lo + k))
                m, lo, complete = m - k, lo + k, False
        if not complete:
            path.append(self._root(lo, hi))
        return path[::-1]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def preview(self, entries: list[bytes]) -> tuple[int, bytes]:
        """``(new_size, new_root)`` as if *entries* were appended.

        Pure: nothing is mutated or written.  The seal path signs this
        candidate tree head *first* and only commits entries once the
        signature exists, so a signing failure leaves the log untouched.
        """
        pieces = self._pieces(0, len(self._entries))
        for entry in entries:
            height, node = 0, leaf_hash(entry)
            while pieces and pieces[-1][0] == height:
                node = node_hash(pieces.pop()[1], node)
                height += 1
            pieces.append((height, node))
        return (len(self._entries) + len(entries),
                _fold([node for _, node in pieces]))

    def extend(self, entries: list[bytes]) -> None:
        """Add *entries* and every complete subtree they close."""
        levels = self._levels
        self._entries.extend(entries)
        for entry in entries:
            levels[0].append(leaf_hash(entry))
            height = 0
            while len(levels[height]) % 2 == 0:  # closes a pair
                if height + 1 == len(levels):
                    levels.append([])
                levels[height + 1].append(
                    node_hash(levels[height][-2], levels[height][-1]))
                height += 1

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def write_segment(self, start: int, entries: list[bytes]) -> None:
        """Persist *entries* as the segment starting at index *start*,
        fsync-then-rename: a crash leaves all of it or none.  Memory is
        untouched; a seal calls :meth:`extend` once its checkpoint is
        durable too."""
        assert self.root is not None
        write_durably(
            self.root / SEGMENT_DIR / f"{start:0{_INDEX_WIDTH}d}.seg",
            pack_json({"start": start, "entries": entries}) + b"\n", 0o644)

    def _load(self, trusted_size: int | None) -> None:
        assert self.root is not None
        entries: list[bytes] = []
        for path in sorted((self.root / SEGMENT_DIR).glob("*.seg")):
            try:
                record = json.loads(path.read_text())
                start = record["start"]
                blobs = [base64.b64decode(item, validate=True)
                         for item in record["entries"]]
            except (ValueError, KeyError, TypeError) as exc:
                raise LedgerError(
                    f"corrupt segment {path.name}: {exc}") from exc
            if start != len(entries):
                raise LedgerError(
                    f"segment {path.name} starts at {start} but the log "
                    f"holds {len(entries)} entries — a segment is missing "
                    "or duplicated")
            entries.extend(blobs)
        if trusted_size is not None:
            if trusted_size > len(entries):
                raise LedgerError(
                    f"checkpoint covers {trusted_size} entries but the "
                    f"segments hold only {len(entries)} — entry data is "
                    "missing")
            # Beyond the last checkpoint nothing was ever acknowledged:
            # drop the tail (the next seal rewrites that segment name).
            entries = entries[:trusted_size]
        self.extend(entries)

    def __repr__(self) -> str:
        where = str(self.root) if self.root is not None else "memory"
        return f"<MerkleLog size={self.size} root_dir={where}>"
