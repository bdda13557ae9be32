"""SHA-256 with an instrumented compression function.

:class:`Sha256` is a from-scratch pure-Python implementation.  Nothing
signs with it — the reference SPHINCS+ layer hashes with ``hashlib`` and
the runtime's hot loops with whichever stdlib SHA-256 wins each kernel
(see :mod:`repro.hashes.thash`).  It exists for two reasons: (1) as an
independently testable reference the test suite checks against
``hashlib`` and the interpreter's builtin SHA-256, and (2) as the *source
of truth for the GPU compiler model*: :func:`count_compression_ops`
replays one compression-function invocation while tallying the primitive
32-bit operations (rotates, shifts, xors, ands, adds, big-endian loads).
The native-vs-PTX instruction mixes in :mod:`repro.gpusim.compiler` are
derived from these measured counts, mirroring how HERO-Sign's PTX branch
replaces multi-``shl`` byte swaps with single ``prmt`` permutations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = ["Sha256", "OpCounts", "count_compression_ops"]

_MASK32 = 0xFFFFFFFF

# FIPS 180-4 round constants.
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)


def _rotr(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & _MASK32


@dataclass
class OpCounts:
    """Primitive 32-bit operation counts for one SHA-256 compression call.

    The fields map onto the instruction classes the GPU compiler model
    cares about.  ``endian_loads`` counts the 16 big-endian word loads of a
    block — the operation HERO-Sign's PTX branch rewrites from a four-shift
    byte swap into one ``prmt``.
    """

    rotates: int = 0
    shifts: int = 0
    xors: int = 0
    ands: int = 0
    nots: int = 0
    adds: int = 0
    endian_loads: int = 0

    def total(self) -> int:
        return (
            self.rotates + self.shifts + self.xors + self.ands + self.nots
            + self.adds + self.endian_loads
        )


class Sha256:
    """Incremental pure-Python SHA-256 (FIPS 180-4).

    Parameters
    ----------
    counts:
        Optional :class:`OpCounts` accumulator; when given, every
        compression call tallies its primitive operations into it.
    """

    block_size = 64
    digest_size = 32

    def __init__(self, counts: OpCounts | None = None):
        self._h = list(_IV)
        self._buffer = b""
        self._length = 0
        self._counts = counts

    def update(self, data: bytes) -> "Sha256":
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def digest(self) -> bytes:
        # Finalize a copy so the object stays usable.
        clone = Sha256()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        clone._counts = self._counts
        bit_len = clone._length * 8
        pad = b"\x80" + b"\x00" * ((55 - clone._length) % 64)
        clone.update(pad + struct.pack(">Q", bit_len))
        # Bypass update()'s length accounting for the padding we just fed.
        return b"".join(struct.pack(">I", word) for word in clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def _compress(self, block: bytes) -> None:
        c = self._counts
        w = list(struct.unpack(">16I", block))
        if c is not None:
            c.endian_loads += 16

        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK32)
            if c is not None:
                c.rotates += 4
                c.shifts += 2
                c.xors += 4
                c.adds += 3

        a, b, cc, d, e, f, g, h = self._h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK32
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & cc) ^ (b & cc)
            temp2 = (s0 + maj) & _MASK32
            h, g, f = g, f, e
            e = (d + temp1) & _MASK32
            d, cc, b = cc, b, a
            a = (temp1 + temp2) & _MASK32
            if c is not None:
                c.rotates += 6
                c.xors += 6
                c.ands += 5
                c.nots += 1
                c.adds += 7

        self._h = [
            (x + y) & _MASK32 for x, y in zip(self._h, (a, b, cc, d, e, f, g, h))
        ]
        if c is not None:
            c.adds += 8


def count_compression_ops() -> OpCounts:
    """Measure the primitive-operation profile of one compression call.

    Returns the :class:`OpCounts` for hashing a single 64-byte block
    (exactly one compression-function invocation, padding excluded).
    """
    counts = OpCounts()
    h = Sha256(counts=counts)
    h._compress(b"\x00" * 64)
    return counts
