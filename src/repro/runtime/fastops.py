"""Template-based SPHINCS+ hot loops for the vectorized backend.

The scalar functional layer spends most of its time in Python overhead, not
SHA-256: every hash call re-packs a 22-byte compressed address from six
fields, walks through ``HashContext.thash``'s varargs loop, and tallies.
This module removes that overhead without changing a single hash input:

* address byte strings are precomputed with :class:`AddressTemplate`
  (``hashes.address``) — inner loops append cached words, a WOTS chain
  step its 8-byte ``chain word ‖ hash word``;
* every hash is ``midstate.copy() -> update -> digest`` against the
  *shared* ``HashContext`` midstate cache, on the SHA-256 implementation
  its kernel runs on (``HashContext.kernel_midstates``), and the ADRS
  words a loop does not vary — a WOTS leaf's, a Merkle level's, a FORS
  forest's — are absorbed once into a midstate the loop copies;
* the top layers' Merkle subtrees and WOTS link signatures are held in
  the set's :class:`~repro.runtime.layercache.HypertreeLayerCache` — every
  message signed under one key revisits the upper hypertree layers, and
  at layers >= 1 the signed node (the child subtree root) is
  message-independent, so the whole link signature is reusable;
* a subtree build keeps every chain value of its *signing* leaves (the
  leaf's chain table), so WOTS-signing with that leaf is a lookup instead
  of a second walk (:mod:`repro.runtime.plan` consumes the tables);
* a built subtree is one ``bytes`` object — every node, level after
  level, leaves first, root last (:func:`node_slice`) — and a link
  signature one more: what the cache holds per entry is what its byte
  model says, not a few dozen small objects.

Because the byte stream fed to SHA-256 is identical to the scalar path's,
:class:`FastOps` produces **byte-identical** signatures; the test suite
pins this equivalence.

:class:`FastVerifier` is the same treatment for verification: it reads the
signature fields by offset straight out of the blob and completes the WOTS
chains and auth-path climbs with the chain-step and node-hash loops the
signer uses, so it feeds SHA-256 the reference ``Sphincs.verify`` byte
stream and returns the reference verdict — and remembers the exact
triples it accepted, so a signature that verified once (a ledger
checkpoint every inclusion proof carries) is a lookup afterwards, and
the upper layers every signature under a key shares.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

from ..hashes.address import AddressTemplate, AddressType, packed_u32
from ..hashes.thash import HashContext
from ..params import SphincsParams, get_params
from ..sphincs.encoding import base_w, message_to_indices, split_digest
from ..sphincs.fors import ForsSignature
from ..sphincs.merkle import TreeLevels, auth_path, batched_leaves

if TYPE_CHECKING:
    from .layercache import HypertreeLayerCache

__all__ = ["FastOps", "FastVerifier", "flat_auth_path", "node_slice",
           "path_hops", "wots_digits"]

#: Accepted triples a :class:`FastVerifier` remembers, as 32-byte digests
#: (~100 KB full): several thousand ledger rounds' distinct checkpoints.
VERIFY_MEMO_CAPACITY = 1024
#: Upper-layer nodes a :class:`FastVerifier` remembers, keyed by 32-byte
#: digests: every memoized pair of seven 128f keys.
LAYER_MEMO_CAPACITY = 4096
#: The memoized layers: those with at most this many ``(tree, leaf)``
#: pairs under one key, which a few hundred of its signatures revisit.
LAYER_MEMO_PAIRS = 512


@functools.cache
def _digit_tables(params: SphincsParams) -> tuple[list, list]:
    """Per byte value, its base-w digits (``log_w`` divides 8 for every
    SPHINCS+ w); per sum of the message digits, the checksum digits."""
    w, log_w, len2 = params.w, params.log_w, params.wots_len2
    per_byte = [base_w(bytes([value]), w, 8 // log_w) for value in range(256)]
    most = params.wots_len1 * (w - 1)
    checksums = [[(most - total) >> (log_w * place) & (w - 1)
                  for place in reversed(range(len2))]
                 for total in range(most + 1)]
    return per_byte, checksums


def wots_digits(message: bytes, params: SphincsParams) -> list[int]:
    """Base-w digits of an n-byte *message* followed by its checksum."""
    per_byte, checksums = _digit_tables(params)
    digits = [digit for value in message for digit in per_byte[value]]
    return digits + checksums[sum(digits)]


@functools.cache
def _step_words(params: SphincsParams) -> list[list[bytes]]:
    """Per WOTS chain, ``chain word ‖ hash word`` for each of its ``w - 1``
    steps: the ADRS tail a chain step appends to its leaf's midstate."""
    return [[packed_u32(chain) + packed_u32(step)
             for step in range(params.w - 1)]
            for chain in range(params.wots_len)]


def node_slice(level: int, index: int, n: int, leaves: int) -> slice:
    """Where node *index* of *level* (0 = leaves) sits in a flat subtree
    of *leaves* leaves: levels are laid end to end, ``leaves >> level``
    nodes each, so the root is the last *n* bytes."""
    start = (2 * leaves - (2 * leaves >> level) + index) * n
    return slice(start, start + n)


def flat_auth_path(nodes: bytes, leaf: int, n: int,
                   height: int) -> list[bytes]:
    """Sibling nodes from *leaf* up to (excluding) the root of a flat
    subtree — ``merkle.auth_path`` for the one-buffer layout."""
    return [nodes[node_slice(level, (leaf >> level) ^ 1, n, 1 << height)]
            for level in range(height)]


def path_hops(params: SphincsParams, tree: int, leaf: int,
              first: int = 0) -> list[tuple[int, int, int]]:
    """The ``(layer, tree, leaf)`` a hypertree path visits from layer
    *first*, where it stands at *tree* and *leaf*, to the top: a layer's
    root is signed one layer up by leaf ``tree mod tree_leaves`` of tree
    ``tree >> tree_height``."""
    hops, height = [], params.tree_height
    for layer in range(first, params.d):
        hops.append((layer, tree, leaf))
        leaf, tree = tree & (params.tree_leaves - 1), tree >> height
    return hops


def _absorbed(mid, prefix: bytes):
    """A copy of *mid* that has absorbed *prefix*: ADRS words that do not
    change inside a loop are hashed once for every hash under them."""
    h = mid.copy()
    h.update(prefix)
    return h


def _node_hash(mid, n: int, node_prefix: bytes, height: int, index: int,
               left: bytes, right: bytes) -> bytes:
    """One Merkle node; *node_prefix* freezes ADRS through word1."""
    h = mid.copy()
    h.update(node_prefix)
    h.update(packed_u32(height)); h.update(packed_u32(index))
    h.update(left); h.update(right)
    return h.digest()[:n]


def _compress(mid, n: int, adrs: bytes, values: Sequence[bytes]) -> bytes:
    """``T_l`` over *values* under the full 22-byte *adrs*; *mid* is the
    multi-block kernel's, and *values* go in as one join."""
    h = mid.copy()
    h.update(adrs); h.update(b"".join(values))
    return h.digest()[:n]


class FastOps:
    """Low-overhead signing primitives for one (parameter set, key pair).

    Bound to the *sk_seed*/*pk_seed* of one key, and cheap to build per
    call: the midstates come out of the context's cache, and the layer
    *cache* (subtrees, link signatures) is the parameter set's, which
    files this key's entries under :attr:`seed`.
    """

    def __init__(self, ctx: HashContext, sk_seed: bytes, pk_seed: bytes,
                 cache: HypertreeLayerCache | None = None):
        self.params: SphincsParams = ctx.params
        self.n = ctx.n
        self.sk_seed = sk_seed
        self.seed = (sk_seed, pk_seed)  # files its entries in the cache
        # Through the context, so a recording context sees every input.
        self._mid, self._mid_tlen = ctx.kernel_midstates(pk_seed)
        #: ``None`` in a pool worker: it runs tasks, the coordinator caches.
        self.cache = cache
        # Each chain step's ADRS tail, and each chain's PRF input past the
        # keypair word: chain word, hash word 0, sk_seed.
        self._steps = _step_words(self.params)
        self._prf_tails = [steps[0] + sk_seed for steps in self._steps]

    # ------------------------------------------------------------------
    # WOTS+
    # ------------------------------------------------------------------
    def _wots_bases(self, layer: int, tree: int, keypair: int):
        """The leaf's PRF and chain-hash midstates, ADRS through the
        keypair word absorbed."""
        return (_absorbed(self._mid, AddressTemplate(
                    layer, tree, AddressType.WOTS_PRF, keypair).prefix),
                _absorbed(self._mid, AddressTemplate(
                    layer, tree, AddressType.WOTS_HASH, keypair).prefix))

    def wots_leaf(self, layer: int, tree: int, keypair: int,
                  keep: list[bytes] | None = None) -> bytes:
        """``wots_gen_leaf`` — the hottest loop of the whole scheme.

        With *keep*, every chain value the walk passes — secret first,
        ``w`` per chain, chain after chain — is appended to it: the
        leaf's chain table, from which a WOTS signature is a lookup.
        """
        n = self.n
        prf, hashed = self._wots_bases(layer, tree, keypair)
        values = []
        for steps, tail in zip(self._steps, self._prf_tails):
            h = prf.copy()
            h.update(tail)
            value = h.digest()[:n]
            if keep is not None:
                keep.append(value)
            for word in steps:
                h = hashed.copy()
                h.update(word); h.update(value)
                value = h.digest()[:n]
                if keep is not None:
                    keep.append(value)
            values.append(value)
        return _compress(self._mid_tlen, n, AddressTemplate(
            layer, tree, AddressType.WOTS_PK, keypair, 0, 0).prefix, values)

    def wots_sign(self, message: bytes, layer: int, tree: int,
                  keypair: int) -> list[bytes]:
        """WOTS-sign an n-byte *message*: walk each chain to its digit."""
        n = self.n
        prf, hashed = self._wots_bases(layer, tree, keypair)
        signature = []
        for steps, tail, digit in zip(self._steps, self._prf_tails,
                                      wots_digits(message, self.params)):
            h = prf.copy()
            h.update(tail)
            value = h.digest()[:n]
            for word in steps[:digit]:
                h = hashed.copy()
                h.update(word); h.update(value)
                value = h.digest()[:n]
            signature.append(value)
        return signature

    # ------------------------------------------------------------------
    # Merkle reduction (shared by FORS trees and XMSS subtrees)
    # ------------------------------------------------------------------
    def merkle_levels(self, leaves: list[bytes], node_prefix: bytes,
                      base: int = 0) -> TreeLevels:
        """Bottom-up reduction; *node_prefix* freezes ADRS through word1.

        ``base`` applies the FORS forest's global node offset
        (``base >> height`` per level); XMSS subtrees use 0.
        """
        n = self.n
        levels: TreeLevels = [leaves]
        height = 1
        while len(levels[-1]) > 1:
            below = levels[-1]
            at_height = _absorbed(self._mid, node_prefix + packed_u32(height))
            offset = base >> height
            level = []
            for i in range(0, len(below), 2):
                h = at_height.copy()
                h.update(packed_u32(offset + (i >> 1)))
                h.update(below[i]); h.update(below[i + 1])
                level.append(h.digest()[:n])
            levels.append(level)
            height += 1
        return levels

    # ------------------------------------------------------------------
    # Hypertree
    # ------------------------------------------------------------------
    def subtree_nodes(self, layer: int, tree: int) -> bytes:
        """XMSS subtree at (layer, tree), flat (:func:`node_slice`): out
        of the cache, or built (and offered to it)."""
        nodes = self.cache.lookup_tree(self.seed, layer, tree)
        if nodes is None:
            nodes = self.build_subtree(layer, tree)[0]
            self.cache.store_tree(self.seed, layer, tree, nodes)
        return nodes

    def build_subtree(self, layer: int, tree: int,
                      sign_leaves: Sequence[int] = ()
                      ) -> tuple[bytes, dict[int, bytes]]:
        """Build the XMSS subtree at (layer, tree) from scratch.

        Returns its nodes, flat, and for each leaf in *sign_leaves* that
        leaf's chain table (``wots_len * w`` values of n bytes, joined).
        A table holds WOTS secret-chain values: sign from it and drop it.
        """
        tables: dict[int, bytes] = {}

        def leaf(index: int) -> bytes:
            if index not in sign_leaves:
                return self.wots_leaf(layer, tree, index)
            keep: list[bytes] = []
            node = self.wots_leaf(layer, tree, index, keep)
            tables[index] = b"".join(keep)
            return node

        leaves = batched_leaves(leaf, self.params.tree_leaves)
        node_prefix = AddressTemplate(layer, tree, AddressType.TREE, 0).prefix
        levels = self.merkle_levels(leaves, node_prefix)
        return b"".join(node for level in levels for node in level), tables

    def tree_node_hash(self, layer: int, tree: int, height: int,
                       index: int, left: bytes, right: bytes) -> bytes:
        """One XMSS internal node — same byte stream as ``merkle_levels``.

        Exposed for targeted recomputation of cached-tree ancestors (the
        fault injector's consistent-flip mode rebuilds a node's path to
        the root after corrupting a leaf-level sibling).
        """
        return _node_hash(
            self._mid, self.n,
            AddressTemplate(layer, tree, AddressType.TREE, 0).prefix,
            height, index, left, right)

    def root(self) -> bytes:
        """The SPHINCS+ public root (top-layer subtree root)."""
        return self.subtree_nodes(self.params.d - 1, 0)[-self.n:]

    # ------------------------------------------------------------------
    # FORS
    # ------------------------------------------------------------------
    def fors_sign(self, fors_msg: bytes, idx_tree: int,
                  idx_leaf: int) -> tuple[ForsSignature, bytes]:
        """FORS-sign the message chunk (see ``Fors.sign``)."""
        params = self.params
        n, sk_seed = self.n, self.sk_seed
        indices = message_to_indices(fors_msg, params)
        prf = _absorbed(self._mid, AddressTemplate(
            0, idx_tree, AddressType.FORS_PRF, idx_leaf, 0).prefix)
        leaf_base = _absorbed(self._mid, AddressTemplate(
            0, idx_tree, AddressType.FORS_TREE, idx_leaf, 0).prefix)
        node_prefix = AddressTemplate(
            0, idx_tree, AddressType.FORS_TREE, idx_leaf).prefix
        t = params.t
        signature: ForsSignature = []
        roots = []
        for tree, leaf_idx in enumerate(indices):
            base = tree * t
            secrets = []
            leaves = []
            for j in range(t):
                i4 = packed_u32(base + j)
                h = prf.copy()
                h.update(i4); h.update(sk_seed)
                secret = h.digest()[:n]
                secrets.append(secret)
                h = leaf_base.copy()
                h.update(i4); h.update(secret)
                leaves.append(h.digest()[:n])
            levels = self.merkle_levels(leaves, node_prefix, base=base)
            signature.append((secrets[leaf_idx], auth_path(levels, leaf_idx)))
            roots.append(levels[-1][0])
        return signature, _compress(self._mid_tlen, n, AddressTemplate(
            0, idx_tree, AddressType.FORS_ROOTS, idx_leaf, 0, 0).prefix, roots)


class FastVerifier:
    """Template-driven verification for one parameter set.

    Holds no per-key state beyond the context's bounded midstate cache and
    two memos, so one instance serves every public key of its parameter
    set and :meth:`verify_batch` may run on several threads at once.
    *ctx* shares an existing context (a test's recording one) instead of
    a fresh one; a backend's verifier takes a fresh one, so a verify
    never shares a context with signing.

    The **verify memo** is the read-side twin of the signing replay memo
    (:class:`~repro.runtime.layercache.HypertreeLayerCache`): a bounded,
    least-recently-used set of digests of triples that verified *true*.
    A false verdict is never kept, and the digest covers all three of
    key, message and signature, so a rotated key or a signature that
    differs in one bit misses and is walked in full.

    The **layer memo** is the read-side twin of the layer cache: on the
    upper layers every signature under a key shares, it maps a digest of
    a layer's whole input — seed, layer, tree, leaf, node in and the
    layer's signature bytes — to the node out, a pure function of it.
    It learns only from signatures that verified *true*, under its own
    bound (``LAYER_MEMO_CAPACITY``) with the verify memo's LRU order and
    lock.
    """

    def __init__(self, params: SphincsParams | str,
                 ctx: HashContext | None = None):
        self.params = params = (get_params(params) if isinstance(params, str)
                                else params)
        self.ctx = ctx if ctx is not None else HashContext(params)
        self._steps = _step_words(params)
        #: The lowest memoized layer: ``tree_leaves ** (d - layer)`` pairs
        #: at most ``LAYER_MEMO_PAIRS``.
        self._memo_floor = params.d - (
            (LAYER_MEMO_PAIRS.bit_length() - 1) // params.tree_height)
        self._memo: OrderedDict[bytes, None] = OrderedDict()
        self._layers: OrderedDict[bytes, bytes] = OrderedDict()
        self._memo_lock = threading.Lock()
        self.memo_hits = self.layer_hits = 0

    @staticmethod
    def _memo_key(public_key: bytes, message: bytes,
                  signature: bytes) -> bytes:
        """SHA-256 over the length-framed triple: framing keeps two
        triples that split the same bytes differently apart."""
        digest = hashlib.sha256()
        for part in (public_key, message, signature):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
        return digest.digest()

    @staticmethod
    def _layer_key(pk_seed: bytes, prefix: bytes, node: bytes,
                   layer_sig: bytes) -> bytes:
        """SHA-256 over one layer's input: the seed, the ADRS *prefix*
        naming layer, tree and leaf, the node in and the layer's signature
        bytes — fixed widths under one parameter set, so no framing."""
        return hashlib.sha256(pk_seed + prefix + node + layer_sig).digest()

    def cache_stats(self) -> dict[str, int]:
        """Verify-memo counters, under the replay memo's field names, and
        the layer memo's."""
        return {"memo_hits": self.memo_hits,
                "memo_entries": len(self._memo),
                "layer_hits": self.layer_hits,
                "layer_entries": len(self._layers)}

    def verify_batch(self, messages: Sequence[bytes],
                     signatures: Sequence[bytes],
                     public_key: bytes) -> list[bool]:
        """Per-pair verdicts under one *public_key*.

        Never raises on a malformed key or signature — the verdict is
        ``False``, exactly as ``Sphincs.verify`` answers.
        """
        params = self.params
        if len(public_key) != params.pk_bytes:
            return [False] * len(messages)
        mids = self.ctx.kernel_midstates(public_key[:params.n])
        return [
            len(signature) == params.sig_bytes
            and self._verdict(mids, message, signature, public_key)
            for message, signature in zip(messages, signatures, strict=True)
        ]

    def _verdict(self, mids, message: bytes, signature: bytes,
                 public_key: bytes) -> bool:
        """Whether a well-sized *signature* verifies: recalled, or walked
        and — only when true — remembered, with the layers it walked."""
        key = self._memo_key(public_key, message, signature)
        with self._memo_lock:
            if key in self._memo:
                self._memo.move_to_end(key)
                self.memo_hits += 1
                return True
        n = self.params.n
        pk_seed, pk_root = public_key[:n], public_key[n:]
        learned: list[tuple[bytes, bytes]] = []
        if self._root(mids, message, signature, pk_seed, pk_root,
                      learned) != pk_root:
            return False
        with self._memo_lock:
            _remember(self._memo, key, None, VERIFY_MEMO_CAPACITY)
            for layer_key, node in learned:
                _remember(self._layers, layer_key, node, LAYER_MEMO_CAPACITY)
        return True

    def _root(self, mids, message: bytes, sig: bytes, pk_seed: bytes,
              pk_root: bytes, learned: list) -> bytes:
        """The hypertree root a well-sized *sig* over *message* implies,
        hashed off the ``(one_block, multi_block)`` kernel *mids*.  Each
        memoized layer it walks is appended to *learned* as ``(key,
        node out)``."""
        params = self.params
        n = params.n
        mid, mid_tlen = mids
        digest = self.ctx.h_msg(sig[:n], pk_seed, pk_root, message)
        fors_msg, tree, leaf = split_digest(digest, params)

        # FORS: each revealed secret -> leaf -> climb; compress the k roots.
        leaf_base = _absorbed(mid, AddressTemplate(
            0, tree, AddressType.FORS_TREE, leaf, 0).prefix)
        node_pre = AddressTemplate(0, tree, AddressType.FORS_TREE, leaf).prefix
        log_t, off = params.log_t, n
        roots = []
        for fors_tree, index in enumerate(
                message_to_indices(fors_msg, params)):
            base = fors_tree * params.t
            h = leaf_base.copy()
            h.update(packed_u32(base + index)); h.update(sig[off:off + n])
            roots.append(self._climb(mid, node_pre, h.digest()[:n], index,
                                     sig, off + n, log_t, base))
            off += (1 + log_t) * n
        node = _compress(mid_tlen, n, AddressTemplate(
            0, tree, AddressType.FORS_ROOTS, leaf, 0, 0).prefix, roots)

        # Hypertree: per layer, the node out of its memo or of its walk;
        # the root is the next layer's message.
        span = params.xmss_sig_bytes
        for layer, tree, leaf in path_hops(params, tree, leaf):
            prefix = AddressTemplate(
                layer, tree, AddressType.WOTS_HASH, leaf).prefix
            layer_sig = sig[off:off + span]
            off += span
            key = out = None
            if layer >= self._memo_floor:
                key = self._layer_key(pk_seed, prefix, node, layer_sig)
                with self._memo_lock:
                    out = self._layers.get(key)
                    if out is not None:
                        self._layers.move_to_end(key)
                        self.layer_hits += 1
            if out is None:
                out = self._layer(mids, layer, tree, leaf, prefix, node,
                                  layer_sig)
                if key is not None:
                    learned.append((key, out))
            node = out
        return node

    def _layer(self, mids, layer: int, tree: int, leaf: int, prefix: bytes,
               node: bytes, layer_sig: bytes) -> bytes:
        """One hypertree layer's node out: finish the WOTS chains of
        *layer_sig* from *node*'s digits, compress the chain ends into
        the leaf, climb the auth path that follows them."""
        params = self.params
        n = params.n
        mid, mid_tlen = mids
        hashed = _absorbed(mid, prefix)
        values, off = [], 0
        for steps, digit in zip(self._steps, wots_digits(node, params)):
            value = layer_sig[off:off + n]
            off += n
            for word in steps[digit:]:
                h = hashed.copy()
                h.update(word); h.update(value)
                value = h.digest()[:n]
            values.append(value)
        wots_pk = _compress(mid_tlen, n, AddressTemplate(
            layer, tree, AddressType.WOTS_PK, leaf, 0, 0).prefix, values)
        return self._climb(
            mid, AddressTemplate(layer, tree, AddressType.TREE, 0).prefix,
            wots_pk, leaf, layer_sig, off, params.tree_height)

    def _climb(self, mid, node_prefix: bytes, node: bytes, index: int,
               sig: bytes, off: int, height: int, base: int = 0) -> bytes:
        """Root of the tree holding *node* at leaf *index*, from the
        *height* siblings stored at ``sig[off:]``.  *base* is the FORS
        forest's global leaf offset; XMSS subtrees use 0."""
        n = self.params.n
        for level in range(1, height + 1):
            sibling = sig[off:off + n]
            off += n
            left, right = (sibling, node) if index & 1 else (node, sibling)
            index >>= 1
            node = _node_hash(mid, n, node_prefix, level,
                              (base >> level) + index, left, right)
        return node


def _remember(memo: OrderedDict, key: bytes, value, capacity: int) -> None:
    """Insert into a least-recently-used *memo* of *capacity* entries."""
    memo[key] = value
    if len(memo) > capacity:
        memo.popitem(last=False)
