"""SPHINCS+ hash addresses (ADRS).

An address ties every hash call to its unique position in the SPHINCS+
structure, which is what makes the scheme's security proof multi-target
resistant.  The full ADRS is 32 bytes; the SHA-256 instantiation hashes a
*compressed* 22-byte form (layer as 1 byte, tree as 8 bytes, type as 1
byte, then the three 4-byte words).

The class is deliberately mutable with a :meth:`copy` helper because the
reference signing flow mutates one address object as it walks trees, and we
mirror that flow.
"""

from __future__ import annotations

import enum
import functools
import struct

from ..errors import AddressError

__all__ = ["AddressType", "Address", "AddressTemplate", "packed_u32"]


class AddressType(enum.IntEnum):
    """The seven ADRS type words of the SPHINCS+ specification."""

    WOTS_HASH = 0
    WOTS_PK = 1
    TREE = 2
    FORS_TREE = 3
    FORS_ROOTS = 4
    WOTS_PRF = 5
    FORS_PRF = 6


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


@functools.lru_cache(maxsize=65536)
def packed_u32(value: int) -> bytes:
    """Big-endian 4-byte encoding of *value*, memoized.

    The hot signing loops re-encode the same small word values (chain
    indices, hash positions, tree heights, leaf indices) millions of times;
    caching the packed bytes removes the per-call ``struct.pack`` cost.
    """
    return struct.pack(">I", value)


class AddressTemplate:
    """Precomputed compressed-ADRS byte fragments for hot hash loops.

    A template freezes the slowly-varying part of a compressed address —
    layer, tree, type and optionally the leading words — so an inner loop
    can form the full 22-byte compressed ADRS by appending cached 4-byte
    words to :attr:`prefix` instead of re-packing all six fields per hash
    call (see ``repro.runtime.fastops`` for the consuming loops).
    """

    __slots__ = ("prefix",)

    def __init__(self, layer: int, tree: int, type_: AddressType,
                 *words: int):
        if not 0 <= layer <= 0xFF:
            raise AddressError(f"layer {layer} out of range for compressed ADRS")
        if not 0 <= tree <= _MASK64:
            raise AddressError(f"tree index {tree} exceeds 64 bits")
        if len(words) > 3:
            raise AddressError("an ADRS has only three trailing words")
        self.prefix = (
            bytes([layer])
            + struct.pack(">Q", tree)
            + bytes([int(AddressType(type_))])
            + b"".join(packed_u32(w) for w in words)
        )


class Address:
    """Mutable SPHINCS+ hash address.

    The three trailing words are interpreted per type:

    * WOTS types: ``keypair`` / ``chain`` / ``hash`` (chain position)
    * tree types: ``keypair`` (unused) / ``tree_height`` / ``tree_index``

    The same storage backs both views, as in the specification.
    """

    __slots__ = ("layer", "tree", "type", "word1", "word2", "word3")

    def __init__(self) -> None:
        self.layer = 0
        self.tree = 0
        self.type = AddressType.WOTS_HASH
        self.word1 = 0
        self.word2 = 0
        self.word3 = 0

    # -- structural setters -------------------------------------------------
    def set_layer(self, layer: int) -> "Address":
        if not 0 <= layer <= 0xFF:
            raise AddressError(f"layer {layer} out of range for compressed ADRS")
        self.layer = layer
        return self

    def set_tree(self, tree: int) -> "Address":
        if not 0 <= tree <= _MASK64:
            raise AddressError(f"tree index {tree} exceeds 64 bits")
        self.tree = tree
        return self

    def set_type(self, type_: AddressType) -> "Address":
        """Set the type word and zero the type-specific words (per spec)."""
        self.type = AddressType(type_)
        self.word1 = self.word2 = self.word3 = 0
        return self

    # -- WOTS view -----------------------------------------------------------
    def set_keypair(self, keypair: int) -> "Address":
        self._check32(keypair, "keypair")
        self.word1 = keypair
        return self

    @property
    def keypair(self) -> int:
        return self.word1

    def set_chain(self, chain: int) -> "Address":
        self._check32(chain, "chain")
        self.word2 = chain
        return self

    def set_hash(self, hash_: int) -> "Address":
        self._check32(hash_, "hash")
        self.word3 = hash_
        return self

    # -- tree view -----------------------------------------------------------
    def set_tree_height(self, height: int) -> "Address":
        self._check32(height, "tree_height")
        self.word2 = height
        return self

    @property
    def tree_height(self) -> int:
        return self.word2

    def set_tree_index(self, index: int) -> "Address":
        self._check32(index, "tree_index")
        self.word3 = index
        return self

    # -- serialization -------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Full 32-byte ADRS (layer 4B, tree 12B, type 4B, 3 words)."""
        return (
            struct.pack(">I", self.layer)
            + struct.pack(">Q", self.tree).rjust(12, b"\x00")
            + struct.pack(">I", int(self.type))
            + struct.pack(">III", self.word1, self.word2, self.word3)
        )

    def compressed(self) -> bytes:
        """22-byte compressed ADRS used by the SHA-256 instantiation."""
        return (
            bytes([self.layer])
            + struct.pack(">Q", self.tree)
            + bytes([int(self.type)])
            + struct.pack(">III", self.word1, self.word2, self.word3)
        )

    def copy(self) -> "Address":
        dup = Address()
        dup.layer = self.layer
        dup.tree = self.tree
        dup.type = self.type
        dup.word1 = self.word1
        dup.word2 = self.word2
        dup.word3 = self.word3
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Address):
            return NotImplemented
        return self.compressed() == other.compressed()

    def __hash__(self) -> int:
        return hash(self.compressed())

    def __repr__(self) -> str:
        return (
            f"Address(layer={self.layer}, tree={self.tree}, type={self.type.name}, "
            f"words=({self.word1}, {self.word2}, {self.word3}))"
        )

    @staticmethod
    def _check32(value: int, name: str) -> None:
        if not 0 <= value <= _MASK32:
            raise AddressError(f"{name} {value} exceeds 32 bits")
