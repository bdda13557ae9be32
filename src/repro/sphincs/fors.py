"""FORS — Forest Of Random Subsets, the few-time signature of SPHINCS+.

FORS is ``k`` Merkle trees of ``t = 2**log_t`` leaves each, all keyed under
one keypair address.  A message selects one leaf per tree
(:func:`repro.sphincs.encoding.message_to_indices`); the signature reveals
each selected secret with its authentication path, and the ``k`` roots are
compressed into the FORS public key that the first WOTS+ layer signs.

The per-tree and per-level independence noted in paper §II-A.2 is what the
``FORS_Sign`` kernel (and its Fusion strategy) exploits.
"""

from __future__ import annotations

from ..errors import SignatureFormatError
from ..hashes.address import Address, AddressType
from ..hashes.thash import HashContext
from ..params import SphincsParams
from .encoding import message_to_indices
from .merkle import auth_path, root_from_auth, treehash

__all__ = ["Fors", "ForsSignature"]

# One entry per tree: (revealed secret value, auth path).
ForsSignature = list[tuple[bytes, list[bytes]]]


class Fors:
    """FORS operations bound to one parameter set and hash context."""

    def __init__(self, ctx: HashContext):
        self.ctx = ctx
        self.params: SphincsParams = ctx.params

    # ------------------------------------------------------------------
    def _secret(self, sk_seed: bytes, pk_seed: bytes, adrs: Address,
                leaf_global_index: int) -> bytes:
        sk_adrs = adrs.copy()
        sk_adrs.set_type(AddressType.FORS_PRF)
        sk_adrs.set_keypair(adrs.keypair)
        sk_adrs.set_tree_index(leaf_global_index)
        return self.ctx.prf(pk_seed, sk_seed, sk_adrs)

    def _leaf(self, sk_seed: bytes, pk_seed: bytes, adrs: Address,
              leaf_global_index: int) -> bytes:
        secret = self._secret(sk_seed, pk_seed, adrs, leaf_global_index)
        adrs.set_tree_height(0)
        adrs.set_tree_index(leaf_global_index)
        return self.ctx.thash(pk_seed, adrs, secret)

    def tree_levels(self, tree: int, sk_seed: bytes, pk_seed: bytes,
                    adrs: Address):
        """All levels of FORS tree *tree* (leaves are offset globally).

        Public as a reusable per-tree stage; the runtime backends schedule
        these k independent builds however they like.
        """
        t = self.params.t
        base = tree * t
        leaves = [
            self._leaf(sk_seed, pk_seed, adrs, base + j) for j in range(t)
        ]
        return treehash(leaves, self.ctx, pk_seed, adrs, base)

    # ------------------------------------------------------------------
    def sign(self, fors_msg: bytes, sk_seed: bytes, pk_seed: bytes,
             adrs: Address) -> tuple[ForsSignature, bytes]:
        """Sign the FORS message chunk; returns (signature, fors_pk_root)."""
        indices = message_to_indices(fors_msg, self.params)
        signature: ForsSignature = []
        roots: list[bytes] = []
        for tree, leaf_idx in enumerate(indices):
            base = tree * self.params.t
            secret = self._secret(sk_seed, pk_seed, adrs, base + leaf_idx)
            levels = self.tree_levels(tree, sk_seed, pk_seed, adrs)
            signature.append((secret, auth_path(levels, leaf_idx)))
            roots.append(levels[-1][0])
        return signature, self._compress_roots(roots, pk_seed, adrs)

    def pk_from_sig(self, signature: ForsSignature, fors_msg: bytes,
                    pk_seed: bytes, adrs: Address) -> bytes:
        """Recompute the FORS public key from a signature."""
        if len(signature) != self.params.k:
            raise SignatureFormatError(
                f"expected {self.params.k} FORS tree entries, got {len(signature)}"
            )
        indices = message_to_indices(fors_msg, self.params)
        roots = []
        for tree, (leaf_idx, (secret, path)) in enumerate(zip(indices, signature)):
            if len(path) != self.params.log_t:
                raise SignatureFormatError(
                    f"FORS auth path must have {self.params.log_t} nodes, "
                    f"got {len(path)}"
                )
            base = tree * self.params.t
            adrs.set_tree_height(0)
            adrs.set_tree_index(base + leaf_idx)
            leaf = self.ctx.thash(pk_seed, adrs, secret)
            roots.append(root_from_auth(leaf, leaf_idx, path, self.ctx,
                                        pk_seed, adrs, base))
        return self._compress_roots(roots, pk_seed, adrs)

    def _compress_roots(self, roots: list[bytes], pk_seed: bytes,
                        adrs: Address) -> bytes:
        pk_adrs = adrs.copy()
        pk_adrs.set_type(AddressType.FORS_ROOTS)
        pk_adrs.set_keypair(adrs.keypair)
        return self.ctx.thash(pk_seed, pk_adrs, *roots)
