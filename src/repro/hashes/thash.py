"""Tweakable hash functions — the SHA-256 *simple* instantiation.

SPHINCS+ builds every internal operation from a small family of keyed,
addressed hash functions.  This module implements the "simple" SHA-256
construction of the round-3 specification:

* ``T_l(pk_seed, adrs, m)   = SHA-256(pk_seed || pad || compressed(adrs) || m)``
* ``PRF(pk_seed, sk_seed, adrs)`` — same construction over ``sk_seed``
* ``H_msg / PRF_msg``        — message digesting with MGF1 expansion

``pad`` right-pads ``pk_seed`` to the 64-byte SHA-256 block so the first
compression-function call depends only on the seed and can be cached — the
same precomputation trick every optimized implementation (including the
paper's CUDA kernels) relies on.  We cache that midstate per context, and a
``hash_counter`` tallies compression-equivalent calls so the GPU workload
builders can be validated against the functional layer's true hash counts.

Outputs longer than ``n`` bytes are truncated; H_msg uses MGF1 to stretch
the digest to the index-extraction length.

Where the hashing happens: the methods of :class:`HashContext` and
:func:`mgf1_sha256` are the *reference* and always run on
``hashlib.sha256``.  The signer's and verifier's hot loops
(``repro.runtime.fastops``) hash off :meth:`HashContext.kernel_midstates`
instead, one midstate per hash *kernel*: ``one_block`` (WOTS chain step,
PRF, FORS leaf, Merkle node — one compression past the seed block at
n = 16) and ``multi_block`` (``T_len`` over the WOTS chain ends and the
FORS roots).  CPython ships two SHA-256 implementations — ``hashlib``'s
(OpenSSL's when built with it) and the interpreter's builtin module.  The
builtin ``_sha256`` of 3.10 and 3.11 hashes one block faster than
OpenSSL's EVP object and ``T_len``'s ten blocks at half its speed; the
HACL* ``_sha2`` of 3.12+ wins neither.  :func:`sha256_choice` states that
as a fixed rule: ``one_block`` on ``_sha256`` where it imports,
``multi_block`` always on ``hashlib``.  Both compute SHA-256, so the
choice moves time, never a byte.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import threading
from typing import Callable

from ..params import SphincsParams
from .address import Address

__all__ = ["HashContext", "KERNELS", "mgf1_sha256", "sha256_candidates",
           "sha256_choice"]

_BLOCK = 64
#: Seed midstates one context keeps.  A signer holds a handful of keys; a
#: long-lived verifier is asked about any public seed a caller names, so
#: the cache evicts oldest-first past this many rather than growing.
_MAX_MIDSTATES = 1024

#: The hash kernels of the hot loops, in :meth:`HashContext.kernel_midstates`
#: order.
KERNELS = ("one_block", "multi_block")


@functools.cache
def sha256_candidates() -> dict[str, Callable]:
    """``{name: constructor}`` of the stdlib SHA-256s a kernel can run on:
    ``hashlib``'s first (``openssl``, or ``builtin`` on a CPython built
    without OpenSSL), then the builtin ``_sha256`` where it imports."""
    found = {"openssl" if "openssl" in hashlib.sha256.__name__
             else "builtin": hashlib.sha256}
    try:
        from _sha256 import sha256 as builtin
    except ImportError:
        return found
    found.setdefault("builtin", builtin)
    return found


def sha256_choice() -> dict[str, str]:
    """``{kernel: candidate name}`` on this interpreter: ``one_block`` on
    the last candidate (``_sha256`` where it imports), ``multi_block`` on
    ``hashlib``'s — a rule of the platform, the same in every process."""
    names = list(sha256_candidates())
    return {"one_block": names[-1], "multi_block": names[0]}


def mgf1_sha256(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation (PKCS#1) over SHA-256."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + struct.pack(">I", counter)).digest()
        counter += 1
    return bytes(out[:length])


class HashContext:
    """All tweakable-hash operations for one parameter set and key pair.

    Parameters
    ----------
    params:
        The SPHINCS+ parameter set (supplies ``n``).
    count_hashes:
        When true, every T-hash/PRF call increments :attr:`hash_calls`
        (by the number of SHA-256 compression invocations beyond the cached
        seed midstate), letting tests cross-check the analytical workload
        model against ground truth.
    The midstate cache is shared *through* the context object:
    :meth:`midstate` exposes the reference's primed seed-block hash and
    :meth:`kernel_midstates` the hot loops' (``repro.runtime.fastops``),
    so every message of a batch signs off one precomputation per seed.
    Only the reference walk calls :meth:`thash` and :meth:`prf`, so the
    conformance oracle taps them (a bit flip shadowing one method) on the
    ``scalar`` backend's context alone.
    """

    def __init__(self, params: SphincsParams, count_hashes: bool = False):
        self.params = params
        self.n = params.n
        self._count = count_hashes
        self.hash_calls = 0
        #: Per seed: the reference's midstate, then one per kernel.
        self._midstates: dict[bytes, tuple] = {}
        self._midstates_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _prime(self, seed: bytes) -> tuple:
        """Cache and return *seed*'s entry: ``seed || pad`` absorbed by
        ``hashlib`` and by each kernel's chosen constructor (one object
        where they coincide).  Safe to call from several threads: an entry
        evicted while a caller still holds it stays valid for that caller.
        """
        block = seed + b"\x00" * (_BLOCK - len(seed))
        candidates, choice = sha256_candidates(), sha256_choice()
        news = (hashlib.sha256,
                *(candidates[choice[kernel]] for kernel in KERNELS))
        made = {new: new(block) for new in set(news)}
        entry = tuple(made[new] for new in news)
        with self._midstates_lock:
            if len(self._midstates) >= _MAX_MIDSTATES:
                del self._midstates[next(iter(self._midstates))]
            self._midstates[seed] = entry
        return entry

    def midstate(self, seed: bytes) -> "hashlib._Hash":
        """The cached ``hashlib`` SHA-256 object primed with ``seed || pad``
        — the reference's.  Callers must ``.copy()`` before updating; the
        returned object is the shared cache entry."""
        return (self._midstates.get(seed) or self._prime(seed))[0]

    def kernel_midstates(self, seed: bytes) -> tuple:
        """``(one_block, multi_block)`` midstates primed with ``seed || pad``
        on each kernel's :func:`sha256_choice` — what the runtime's hot
        loops hash off.  Copy before updating, as with :meth:`midstate`."""
        return (self._midstates.get(seed) or self._prime(seed))[1:]

    def _seeded(self, seed: bytes) -> "hashlib._Hash":
        """A SHA-256 object primed with ``seed || pad`` (cached midstate)."""
        return self.midstate(seed).copy()

    def _tally(self, message_bytes: int) -> None:
        if self._count:
            # Compression calls past the cached seed block: ADRS (22B) +
            # message, plus padding.
            total = 22 + message_bytes + 9  # 0x80 byte + 8-byte length
            self.hash_calls += (total + _BLOCK - 1) // _BLOCK

    # ------------------------------------------------------------------
    # Core tweakable hash
    # ------------------------------------------------------------------
    def thash(self, pk_seed: bytes, adrs: Address, *chunks: bytes) -> bytes:
        """``T_l``: hash ``l`` n-byte chunks under (pk_seed, adrs)."""
        h = self._seeded(pk_seed)
        h.update(adrs.compressed())
        total = 0
        for chunk in chunks:
            h.update(chunk)
            total += len(chunk)
        self._tally(total)
        return h.digest()[: self.n]

    def prf(self, pk_seed: bytes, sk_seed: bytes, adrs: Address) -> bytes:
        """``PRF``: derive an n-byte secret value for *adrs*."""
        h = self._seeded(pk_seed)
        h.update(adrs.compressed())
        h.update(sk_seed)
        self._tally(self.n)
        return h.digest()[: self.n]

    # ------------------------------------------------------------------
    # Message hashing
    # ------------------------------------------------------------------
    def prf_msg(self, sk_prf: bytes, opt_rand: bytes, message: bytes) -> bytes:
        """Randomizer ``R = PRF_msg(sk_prf, opt_rand, M)`` (HMAC-SHA-256)."""
        import hmac

        digest = hmac.new(sk_prf, opt_rand + message, hashlib.sha256).digest()
        if self._count:
            self.hash_calls += 2 + (len(opt_rand) + len(message) + 72) // _BLOCK
        return digest[: self.n]

    def h_msg(self, randomizer: bytes, pk_seed: bytes, pk_root: bytes,
              message: bytes) -> bytes:
        """``H_msg``: digest the message to ``params.digest_bytes`` bytes."""
        inner = hashlib.sha256(randomizer + pk_seed + pk_root + message).digest()
        if self._count:
            payload = len(randomizer) + len(pk_seed) + len(pk_root) + len(message)
            self.hash_calls += (payload + 9 + _BLOCK - 1) // _BLOCK
        return mgf1_sha256(randomizer + pk_seed + inner, self.params.digest_bytes)
