"""Per-key hypertree layer cache — pinned top layers plus a replay memo —
and its shared cost/memory model.

The top ``c`` XMSS layers of a SPHINCS+ hypertree are message-independent
per key: at layer ``l >= 1`` the node being WOTS-signed is the root of
the child subtree at ``(l - 1, tree * tree_leaves + leaf)``, which is a
pure function of the key — only layer 0 signs the (message-dependent)
FORS public key.  So both the subtrees *and* the WOTS link signatures of
the upper layers can be computed once per key and reused for every
signature, and in deterministic mode WOTS signing is reproducible, so a
cached link is byte-identical to a recomputed one.

:class:`HypertreeLayerCache` holds two things per key:

* the **pinned** top ``pinned_layers`` layers — subtrees and link
  signatures that every signing path traverses, each filled by the first
  signing plan whose path needs it and never evicted.
  Nothing below them is kept: two fresh messages share a lower subtree
  with probability ``1 / tree_leaves`` per layer at best, so on fresh
  traffic it would never be read again;
* a **replay memo** of finished signatures, keyed by the backend on
  SHA-256(``sk_prf`` || message) — with ``R = PRF_msg(sk_prf, pk_seed,
  M)``, everything a signature depends on besides the cache's own
  ``sk_seed`` and ``pk_seed`` — least-recently-used out, in the bytes
  the pinned layers leave of the budget.  The backend reads and fills
  it in deterministic mode only — with a random ``opt_rand`` the
  randomizer never repeats.

The model functions size both: every tier converts the single
``--cache-budget-mb`` knob to bytes and asks :func:`choose_pinned_layers`
for the default ``c`` per parameter set, trading the cost of filling the
whole region and its memory against per-signature hash savings (the
caching/fault-analysis trade-off follows Genet's SPHINCS+ layer-caching
work — see ``docs/architecture.md`` ("The hypertree layer cache") for
the per-set table and the fault-attack caveat).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

from ..params import PARAMETER_SETS, SphincsParams, get_params

__all__ = [
    "DEFAULT_BUDGET_MB",
    "HypertreeLayerCache",
    "choose_pinned_layers",
    "link_entry_bytes",
    "memo_capacity",
    "memo_entry_bytes",
    "pinned_bytes",
    "pinned_link_count",
    "pinned_tree_count",
    "prewarm_hashes",
    "savings_fraction",
    "subtree_build_hashes",
    "tradeoff_table",
    "tree_entry_bytes",
    "wots_link_sign_hashes",
]

DEFAULT_BUDGET_MB = 32.0

# Per-entry bookkeeping (dict slot, key tuple, bytes header) on top of the
# raw bytes.  Deliberately coarse: the model only has to rank layer
# counts against a megabyte-scale budget, not audit the allocator.
_ENTRY_OVERHEAD = 96


# ----------------------------------------------------------------------
# Cost/memory model
# ----------------------------------------------------------------------
def tree_entry_bytes(params: SphincsParams) -> int:
    """Bytes to hold one cached XMSS subtree (all Merkle levels)."""
    return (2 * params.tree_leaves - 1) * params.n + _ENTRY_OVERHEAD


def link_entry_bytes(params: SphincsParams) -> int:
    """Bytes to hold one cached WOTS link signature (the chain values)."""
    return params.wots_len * params.n + _ENTRY_OVERHEAD


def memo_entry_bytes(params: SphincsParams) -> int:
    """Bytes to hold one memoised signature."""
    return params.sig_bytes + _ENTRY_OVERHEAD


def subtree_build_hashes(params: SphincsParams) -> int:
    """Hash calls to build one XMSS subtree from scratch."""
    return (params.tree_leaves * params.hashes_per_wots_leaf
            + params.tree_leaves - 1)


def wots_link_sign_hashes(params: SphincsParams) -> int:
    """Average hash calls for one WOTS signature (PRF + w/2 steps/chain)."""
    return params.wots_len * (1 + params.w // 2)


def pinned_tree_count(params: SphincsParams, layers: int) -> int:
    """Subtrees in the top *layers* layers reachable from the root.

    Layer ``d-1`` has one tree; each layer below multiplies by
    ``tree_leaves``: ``1 + L + L^2 + ... + L^(layers-1)``.
    """
    layers = max(0, min(layers, params.d))
    leaves = params.tree_leaves
    return (leaves ** layers - 1) // (leaves - 1)


def pinned_link_count(params: SphincsParams, layers: int) -> int:
    """WOTS link signatures the pinned region can come to hold.

    Every leaf of a pinned tree at layer ``>= 1`` signs one child root,
    whatever the message; a link is kept the first time a signature's
    path passes through it.
    """
    layers = max(0, min(layers, params.d))
    trees = pinned_tree_count(params, layers)
    if layers == params.d:  # layer 0 signs the FORS pk: never cached
        trees -= params.tree_leaves ** (params.d - 1)
    return trees * params.tree_leaves


def pinned_bytes(params: SphincsParams, layers: int) -> int:
    """Resident bytes of a fully populated pinned region."""
    return (pinned_tree_count(params, layers) * tree_entry_bytes(params)
            + pinned_link_count(params, layers) * link_entry_bytes(params))


def prewarm_hashes(params: SphincsParams, layers: int) -> int:
    """Hash cost of filling the whole pinned region for one key: the
    subtree builds, whose chain tables hold every link signature.  Fills
    on demand pay it at most once, and only for the paths traffic walks."""
    return pinned_tree_count(params, layers) * subtree_build_hashes(params)


def savings_fraction(params: SphincsParams, layers: int) -> float:
    """Fraction of a fresh signature's hash calls a warm pinned region
    removes.

    Every signing path traverses all pinned layers: *layers* subtree
    builds plus, for each pinned layer except the lowest, the WOTS link
    signature above it.
    """
    layers = max(0, min(layers, params.d))
    saved = (layers * subtree_build_hashes(params)
             + max(0, layers - 1) * wots_link_sign_hashes(params))
    return saved / params.total_sign_hashes()


def choose_pinned_layers(params: SphincsParams, budget_bytes: int,
                         max_prewarm_hashes: int = 600_000) -> int:
    """Default pinned layer count for *params* under *budget_bytes*.

    Picks the largest ``c`` whose fully populated pinned region fits in
    half the budget (the other half is the replay memo's) and whose
    whole fill stays under *max_prewarm_hashes* — well under a second of
    hashing per key, whatever path its traffic takes.
    """
    best = 0
    for layers in range(1, params.d + 1):
        if pinned_bytes(params, layers) > budget_bytes // 2:
            break
        if prewarm_hashes(params, layers) > max_prewarm_hashes:
            break
        best = layers
    return best


def memo_capacity(params: SphincsParams, budget_bytes: int,
                  layers: int) -> int:
    """Signatures the replay memo holds: the bytes a fully populated
    pinned region of *layers* layers leaves of *budget_bytes*."""
    return (max(0, budget_bytes - pinned_bytes(params, layers))
            // memo_entry_bytes(params))


def tradeoff_table(budget_bytes: int | None = None,
                   max_prewarm_hashes: int = 600_000) -> list[dict]:
    """Per-parameter-set cache trade-off rows (docs + tests).

    Each row reports the chosen default ``c``, resident pinned bytes,
    hashes to fill the whole region, per-signature savings fraction, and
    how many replayable signatures the rest of the budget remembers.
    """
    if budget_bytes is None:
        budget_bytes = int(DEFAULT_BUDGET_MB * 1024 * 1024)
    rows = []
    for name in sorted(PARAMETER_SETS):
        params = get_params(name)
        layers = choose_pinned_layers(params, budget_bytes,
                                      max_prewarm_hashes)
        rows.append({
            "params": name,
            "pinned_layers": layers,
            "pinned_trees": pinned_tree_count(params, layers),
            "pinned_kib": round(pinned_bytes(params, layers) / 1024, 1),
            "prewarm_hashes": prewarm_hashes(params, layers),
            "saved_fraction": round(savings_fraction(params, layers), 4),
            "memo_entries": memo_capacity(params, budget_bytes, layers),
        })
    return rows


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class HypertreeLayerCache:
    """Pinned top layers + a replay memo of finished signatures, one key.

    Subtrees are keyed ``(layer, tree)`` and held flat (see
    :func:`~repro.runtime.fastops.node_slice`); WOTS link signatures are
    keyed ``(layer, tree, leaf)``, one buffer of chain values, and only
    ever cached for ``layer >= 1`` (layer 0 signs the message-dependent
    FORS pk).  Only entries at or above the pinned floor
    (``d - pinned_layers``) are kept, and those are never evicted; a
    store below it is dropped.
    """

    def __init__(self, params: SphincsParams | str,
                 budget_bytes: int | None = None,
                 pinned_layers: int | None = None):
        self.params = get_params(params) if isinstance(params, str) else params
        if budget_bytes is None:
            budget_bytes = int(DEFAULT_BUDGET_MB * 1024 * 1024)
        self.budget_bytes = max(0, int(budget_bytes))
        if pinned_layers is None:
            pinned_layers = choose_pinned_layers(self.params,
                                                 self.budget_bytes)
        self.pinned_layers = max(0, min(pinned_layers, self.params.d))
        #: Lowest pinned layer; nothing below it is kept.
        self.pinned_floor = self.params.d - self.pinned_layers
        self.memo_capacity = memo_capacity(self.params, self.budget_bytes,
                                           self.pinned_layers)

        self._tree_bytes = tree_entry_bytes(self.params)
        self._link_bytes = link_entry_bytes(self.params)
        self._memo_bytes = memo_entry_bytes(self.params)
        self._trees: dict[tuple[int, int], bytes] = {}
        self._links: dict[tuple[int, int, int], bytes] = {}
        self._memo: OrderedDict[Hashable, bytes] = OrderedDict()
        # The memo alone has a second reader: a service's event loop.
        self._memo_lock = threading.Lock()

        self.hits = 0
        self.misses = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    # Subtrees
    # ------------------------------------------------------------------
    def lookup_tree(self, layer: int, tree: int) -> bytes | None:
        nodes = self._trees.get((layer, tree))
        if nodes is None:
            self.misses += 1
        else:
            self.hits += 1
        return nodes

    def store_tree(self, layer: int, tree: int, nodes: bytes) -> None:
        if layer >= self.pinned_floor:
            self._trees[(layer, tree)] = nodes

    # ------------------------------------------------------------------
    # WOTS link signatures (layer >= 1 only)
    # ------------------------------------------------------------------
    def lookup_link(self, layer: int, tree: int, leaf: int) -> bytes | None:
        return self._links.get((layer, tree, leaf))

    def store_link(self, layer: int, tree: int, leaf: int,
                   chains: bytes) -> None:
        if layer >= max(1, self.pinned_floor):
            self._links[(layer, tree, leaf)] = chains

    # ------------------------------------------------------------------
    # Replay memo
    # ------------------------------------------------------------------
    def recall(self, key: Hashable) -> bytes | None:
        """The signature remembered under *key*, now the most recent.

        A hit counts as a cache hit: it stands for every lookup the
        replayed signature would have made.
        """
        with self._memo_lock:
            signature = self._memo.get(key)
            if signature is not None:
                self._memo.move_to_end(key)
                self.memo_hits += 1
        return signature

    def remember(self, key: Hashable, signature: bytes) -> None:
        """Keep *signature* under *key*, the least recently used out."""
        with self._memo_lock:
            self._memo[key] = signature
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_capacity:
                self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (key rotation / tenant delete)."""
        self._trees.clear()
        self._links.clear()
        with self._memo_lock:
            self._memo.clear()

    @property
    def bytes_used(self) -> int:
        return (len(self._trees) * self._tree_bytes
                + len(self._links) * self._link_bytes
                + len(self._memo) * self._memo_bytes)

    @property
    def stats(self) -> dict[str, int]:
        """Counters: ``hits`` / ``misses`` count subtree lookups, and a
        memo hit is one more hit."""
        return {
            "hits": self.hits + self.memo_hits,
            "misses": self.misses,
            "memo_hits": self.memo_hits,
            "memo_entries": len(self._memo),
            "bytes": self.bytes_used,
            "pinned_trees": len(self._trees),
            "pinned_layers": self.pinned_layers,
            "budget_bytes": self.budget_bytes,
        }
