"""The SPHINCS+ hypertree: ``d`` layers of XMSS (MSS with WOTS+ leaves).

Layer 0's chosen WOTS+ keypair signs the FORS public key; each layer above
signs the Merkle root of the layer below; the top root is the SPHINCS+
public key.  Every subtree and every ``wots_gen_leaf`` within a layer is
independent — the tree-level parallelism behind the paper's ``TREE_Sign``
kernel (MMTP).
"""

from __future__ import annotations

from ..errors import SignatureFormatError
from ..hashes.address import Address, AddressType
from ..hashes.thash import HashContext
from ..params import SphincsParams
from .merkle import TreeLevels, auth_path, batched_leaves, root_from_auth, treehash
from .wots import Wots

__all__ = ["Hypertree", "XmssSignature", "HypertreeSignature"]

# One layer: (wots signature chain values, auth path).
XmssSignature = tuple[list[bytes], list[bytes]]
HypertreeSignature = list[XmssSignature]


class Hypertree:
    """Hypertree operations bound to one parameter set and hash context."""

    def __init__(self, ctx: HashContext):
        self.ctx = ctx
        self.params: SphincsParams = ctx.params
        self.wots = Wots(ctx)

    # ------------------------------------------------------------------
    def subtree_levels(self, sk_seed: bytes, pk_seed: bytes, layer: int,
                       tree: int) -> TreeLevels:
        """All Merkle levels of the subtree at (layer, tree)."""
        def leaf(i: int) -> bytes:
            adrs = Address().set_layer(layer).set_tree(tree)
            adrs.set_type(AddressType.WOTS_HASH)
            adrs.set_keypair(i)
            return self.wots.gen_leaf(sk_seed, pk_seed, adrs)

        leaves = batched_leaves(leaf, self.params.tree_leaves)
        tree_adrs = Address().set_layer(layer).set_tree(tree)
        tree_adrs.set_type(AddressType.TREE)
        return treehash(leaves, self.ctx, pk_seed, tree_adrs)

    def root(self, sk_seed: bytes, pk_seed: bytes) -> bytes:
        """The public root (top-layer subtree root)."""
        levels = self.subtree_levels(sk_seed, pk_seed, self.params.d - 1, 0)
        return levels[-1][0]

    # ------------------------------------------------------------------
    def layer_stage(self, node: bytes, sk_seed: bytes, pk_seed: bytes,
                    layer: int, tree: int, leaf: int,
                    ) -> tuple[XmssSignature, bytes]:
        """One XMSS layer of the signing walk.

        WOTS-signs *node* with keypair *leaf* of subtree (layer, tree) and
        returns that layer's signature plus the subtree root (the next
        layer's message).
        """
        levels = self.subtree_levels(sk_seed, pk_seed, layer, tree)
        wots_adrs = Address().set_layer(layer).set_tree(tree)
        wots_adrs.set_type(AddressType.WOTS_HASH)
        wots_adrs.set_keypair(leaf)
        chain_values = self.wots.sign(node, sk_seed, pk_seed, wots_adrs)
        return (chain_values, auth_path(levels, leaf)), levels[-1][0]

    def sign(self, message: bytes, sk_seed: bytes, pk_seed: bytes,
             idx_tree: int, idx_leaf: int) -> tuple[HypertreeSignature, bytes]:
        """Sign *message* (the FORS pk) along the hypertree path.

        Returns the d-layer signature and the recomputed top root (callers
        may compare it against the public key as a self-check).
        """
        params = self.params
        signature: HypertreeSignature = []
        node = message
        tree, leaf = idx_tree, idx_leaf
        for layer in range(params.d):
            xmss_sig, node = self.layer_stage(
                node, sk_seed, pk_seed, layer, tree, leaf
            )
            signature.append(xmss_sig)
            # Walk up: the low tree_height bits of `tree` select the next
            # leaf, the rest the next tree (paper Figure 2's index update).
            leaf = tree & (params.tree_leaves - 1)
            tree >>= params.tree_height
        return signature, node

    def pk_from_sig(self, signature: HypertreeSignature, message: bytes,
                    pk_seed: bytes, idx_tree: int, idx_leaf: int) -> bytes:
        """Recompute the top root from a hypertree signature."""
        params = self.params
        if len(signature) != params.d:
            raise SignatureFormatError(
                f"expected {params.d} hypertree layers, got {len(signature)}"
            )
        node = message
        tree, leaf = idx_tree, idx_leaf
        for layer, (chain_values, path) in enumerate(signature):
            if len(path) != params.tree_height:
                raise SignatureFormatError(
                    f"layer {layer}: auth path must have {params.tree_height} "
                    f"nodes, got {len(path)}"
                )
            wots_adrs = Address().set_layer(layer).set_tree(tree)
            wots_adrs.set_type(AddressType.WOTS_HASH)
            wots_adrs.set_keypair(leaf)
            wots_pk = self.wots.pk_from_sig(chain_values, node, pk_seed, wots_adrs)
            tree_adrs = Address().set_layer(layer).set_tree(tree)
            tree_adrs.set_type(AddressType.TREE)
            node = root_from_auth(wots_pk, leaf, path, self.ctx, pk_seed, tree_adrs)
            leaf = tree & (params.tree_leaves - 1)
            tree >>= params.tree_height
        return node
