"""The full SPHINCS+ scheme: key generation, signing, verification.

:class:`Sphincs` composes FORS and the hypertree exactly as the paper's
Figure 2 snippet does: hash the message, precompute ``indices`` and
``leaf_idx``, FORS-sign, then walk the ``d`` Merkle layers.  Signatures
serialize to the specified byte layout (``R || FORS || d * XMSS``) and the
sizes match the specification (17,088 bytes for 128f, as quoted in the
paper's introduction).

Signing is four stages — :meth:`Sphincs.prepare`, ``fors_stage``,
``hypertree_stage`` and ``assemble`` — that the batch runtime drives one
by one; under ``count_hashes=True`` the context's ``hash_calls`` tallies
what each costs, which the test suite checks against the analytical model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import SignatureFormatError
from ..hashes.address import Address, AddressType
from ..hashes.thash import HashContext
from ..params import SphincsParams, get_params
from .encoding import split_digest
from .fors import Fors, ForsSignature
from .hypertree import Hypertree, HypertreeSignature

__all__ = ["KeyPair", "SignTask", "Sphincs"]


@dataclass(frozen=True)
class KeyPair:
    """A SPHINCS+ key pair.

    ``secret = (sk_seed, sk_prf, pk_seed, pk_root)``; the public key is the
    last two components.
    """

    sk_seed: bytes
    sk_prf: bytes
    pk_seed: bytes
    pk_root: bytes

    @property
    def public(self) -> bytes:
        return self.pk_seed + self.pk_root

    @property
    def secret(self) -> bytes:
        return self.sk_seed + self.sk_prf + self.pk_seed + self.pk_root


@dataclass(frozen=True)
class SignTask:
    """The message-digestion stage's output: everything signing needs.

    Produced by :meth:`Sphincs.prepare`; consumed by the FORS and hypertree
    stages.  Runtime backends build one task per message up front, then
    schedule the expensive stages however they like.
    """

    message: bytes
    randomizer: bytes
    fors_msg: bytes
    idx_tree: int
    idx_leaf: int


class Sphincs:
    """SPHINCS+ for one parameter set.

    >>> scheme = Sphincs("128f", deterministic=True)
    >>> keys = scheme.keygen(seed=bytes(48))
    >>> sig = scheme.sign(b"hello", keys)
    >>> scheme.verify(b"hello", sig, keys.public)
    True
    """

    def __init__(self, params: SphincsParams | str, deterministic: bool = False,
                 count_hashes: bool = False):
        self.params = get_params(params) if isinstance(params, str) else params
        self.deterministic = deterministic
        self.ctx = HashContext(self.params, count_hashes=count_hashes)
        self.fors = Fors(self.ctx)
        self.hypertree = Hypertree(self.ctx)

    # ------------------------------------------------------------------
    def keygen(self, seed: bytes | None = None) -> KeyPair:
        """Generate a key pair; *seed* (3n bytes) makes it deterministic."""
        n = self.params.n
        if seed is None:
            seed = os.urandom(3 * n)
        if len(seed) != 3 * n:
            raise SignatureFormatError(f"keygen seed must be {3 * n} bytes")
        sk_seed, sk_prf, pk_seed = seed[:n], seed[n:2 * n], seed[2 * n:]
        pk_root = self.hypertree.root(sk_seed, pk_seed)
        return KeyPair(sk_seed, sk_prf, pk_seed, pk_root)

    # ------------------------------------------------------------------
    # Signing stages
    #
    # ``sign`` composes four reusable stages — prepare / fors_stage /
    # hypertree_stage / assemble — so the batch runtime can drive each
    # stage itself (cache subtrees, reorder work, time components) while
    # this method stays the one-call scalar reference path.
    # ------------------------------------------------------------------
    def prepare(self, message: bytes, keys: KeyPair) -> SignTask:
        """Stage 1: digest the message into indices and the randomizer."""
        params = self.params
        opt_rand = keys.pk_seed if self.deterministic else os.urandom(params.n)
        randomizer = self.ctx.prf_msg(keys.sk_prf, opt_rand, message)
        digest = self.ctx.h_msg(randomizer, keys.pk_seed, keys.pk_root, message)
        fors_msg, idx_tree, idx_leaf = split_digest(digest, params)
        return SignTask(message, randomizer, fors_msg, idx_tree, idx_leaf)

    def fors_stage(self, task: SignTask,
                   keys: KeyPair) -> tuple[ForsSignature, bytes]:
        """Stage 2: FORS-sign the task's message chunk."""
        fors_adrs = Address().set_layer(0).set_tree(task.idx_tree)
        fors_adrs.set_type(AddressType.FORS_TREE)
        fors_adrs.set_keypair(task.idx_leaf)
        return self.fors.sign(
            task.fors_msg, keys.sk_seed, keys.pk_seed, fors_adrs
        )

    def hypertree_stage(self, task: SignTask, keys: KeyPair,
                        fors_pk: bytes) -> HypertreeSignature:
        """Stage 3: sign the FORS public key along the hypertree path."""
        ht_sig, root = self.hypertree.sign(
            fors_pk, keys.sk_seed, keys.pk_seed, task.idx_tree, task.idx_leaf
        )
        if root != keys.pk_root:
            raise SignatureFormatError(
                "internal error: hypertree root does not match public key"
            )
        return ht_sig

    def assemble(self, task: SignTask, fors_sig: ForsSignature,
                 ht_sig: HypertreeSignature) -> bytes:
        """Stage 4: serialize the components into the wire format."""
        return self.serialize(task.randomizer, fors_sig, ht_sig)

    def sign(self, message: bytes, keys: KeyPair) -> bytes:
        """Sign *message*, returning the serialized signature."""
        task = self.prepare(message, keys)
        fors_sig, fors_pk = self.fors_stage(task, keys)
        ht_sig = self.hypertree_stage(task, keys, fors_pk)
        return self.assemble(task, fors_sig, ht_sig)

    # ------------------------------------------------------------------
    def verify(self, message: bytes, signature: bytes, public_key: bytes) -> bool:
        """Verify *signature* over *message* under *public_key*."""
        params = self.params
        if len(public_key) != params.pk_bytes:
            return False
        if len(signature) != params.sig_bytes:
            return False
        pk_seed, pk_root = public_key[:params.n], public_key[params.n:]
        try:
            randomizer, fors_sig, ht_sig = self.deserialize(signature)
        except SignatureFormatError:
            return False

        digest = self.ctx.h_msg(randomizer, pk_seed, pk_root, message)
        fors_msg, idx_tree, idx_leaf = split_digest(digest, params)

        fors_adrs = Address().set_layer(0).set_tree(idx_tree)
        fors_adrs.set_type(AddressType.FORS_TREE)
        fors_adrs.set_keypair(idx_leaf)
        fors_pk = self.fors.pk_from_sig(fors_sig, fors_msg, pk_seed, fors_adrs)

        root = self.hypertree.pk_from_sig(
            ht_sig, fors_pk, pk_seed, idx_tree, idx_leaf
        )
        return root == pk_root

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def serialize(self, randomizer: bytes, fors_sig: ForsSignature,
                  ht_sig: HypertreeSignature) -> bytes:
        """Serialize signature components to ``R || FORS || d * XMSS``."""
        parts = [randomizer]
        for secret, path in fors_sig:
            parts.append(secret)
            parts.extend(path)
        for chain_values, path in ht_sig:
            parts.extend(chain_values)
            parts.extend(path)
        blob = b"".join(parts)
        if len(blob) != self.params.sig_bytes:
            raise SignatureFormatError(
                f"serialized signature is {len(blob)} bytes, expected "
                f"{self.params.sig_bytes}"
            )
        return blob

    def deserialize(self, blob: bytes) -> tuple[bytes, ForsSignature,
                                                HypertreeSignature]:
        """Split a signature blob back into its typed components."""
        params = self.params
        n = params.n
        if len(blob) != params.sig_bytes:
            raise SignatureFormatError(
                f"signature is {len(blob)} bytes, expected {params.sig_bytes}"
            )
        pos = 0

        def take(count: int) -> bytes:
            nonlocal pos
            chunk = blob[pos:pos + count]
            pos += count
            return chunk

        randomizer = take(n)
        fors_sig: ForsSignature = []
        for _ in range(params.k):
            secret = take(n)
            path = [take(n) for _ in range(params.log_t)]
            fors_sig.append((secret, path))
        ht_sig: HypertreeSignature = []
        for _ in range(params.d):
            chains = [take(n) for _ in range(params.wots_len)]
            path = [take(n) for _ in range(params.tree_height)]
            ht_sig.append((chains, path))
        return randomizer, fors_sig, ht_sig
