"""The hypertree layer cache — pinned top layers plus a replay memo, one
per parameter set under one byte budget — and its cost/memory model.

The top ``c`` XMSS layers of a SPHINCS+ hypertree are message-independent
per key: at layer ``l >= 1`` the node being WOTS-signed is the root of
the child subtree at ``(l - 1, tree * tree_leaves + leaf)``, which is a
pure function of the key — only layer 0 signs the (message-dependent)
FORS public key.  So both the subtrees *and* the WOTS link signatures of
the upper layers can be computed once per key and reused for every
signature, and in deterministic mode WOTS signing is reproducible, so a
cached link is byte-identical to a recomputed one.

:class:`HypertreeLayerCache` holds, for every key of its parameter set:

* the **pinned** top ``pinned_layers`` layers — subtrees and link
  signatures that every signing path traverses, each filled by the first
  signing plan whose path needs it.  Nothing below them is kept: two
  fresh messages share a lower subtree with probability
  ``1 / tree_leaves`` per layer at best, so on fresh traffic it would
  never be read again;
* a **replay memo** of finished signatures, keyed by the backend on
  SHA-256(``sk_prf`` || message) beside the key's ``sk_seed`` and
  ``pk_seed`` — with ``R = PRF_msg(sk_prf, pk_seed, M)``, everything a
  signature depends on — and read and filled in deterministic mode only.

All of it shares one ``--cache-budget-mb`` and one recency order, least
recently used bytes out, so a key that keeps signing keeps its pinned
path and an idle key's entries go first.  The model functions size the
pinned region: every tier converts the budget to bytes and asks
:func:`choose_pinned_layers` for the default ``c`` per parameter set,
trading the cost of filling the whole region and its memory against
per-signature hash savings (the caching/fault-analysis trade-off follows
Genet's SPHINCS+ layer-caching work — see ``docs/architecture.md`` ("The
hypertree layer cache") for the per-set table and the fault-attack
caveat).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import BackendError
from ..params import PARAMETER_SETS, SphincsParams, get_params
from .plan import fors_hashes, subtree_hashes

__all__ = [
    "DEFAULT_BUDGET_MB",
    "HypertreeLayerCache",
    "MAX_FILL_HASHES",
    "budget_to_bytes",
    "choose_pinned_layers",
    "fill_hashes",
    "link_entry_bytes",
    "pinned_bytes",
    "pinned_link_count",
    "pinned_tree_count",
    "savings_fraction",
    "tradeoff_table",
    "tree_entry_bytes",
]

DEFAULT_BUDGET_MB = 32.0


def budget_to_bytes(budget_mb: float | None) -> int:
    """A ``cache_budget_mb`` in bytes (``None``: :data:`DEFAULT_BUDGET_MB`);
    one not above zero is a :class:`~repro.errors.BackendError`."""
    if budget_mb is not None and budget_mb <= 0:
        raise BackendError(f"cache_budget_mb must be > 0, got {budget_mb}")
    return int((budget_mb or DEFAULT_BUDGET_MB) * 1024 * 1024)


#: Most hashes filling one key's whole pinned region may cost — well
#: under a second of hashing per key, whatever path its traffic takes.
MAX_FILL_HASHES = 600_000

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


def fill_hashes(params: SphincsParams, layers: int) -> int:
    """Hash cost of filling the whole pinned region for one key: a
    ``SUBTREE`` task per tree, whose chain tables hold every link
    signature.  Fills on demand pay it at most once, and only for the
    paths traffic walks."""
    return pinned_tree_count(params, layers) * subtree_hashes(params)


def savings_fraction(params: SphincsParams, layers: int) -> float:
    """Fraction of a fresh signature's hashes a warm pinned region
    removes: a cold plan is one ``RUN`` with FORS up all ``d`` layers,
    and every signing path takes *layers* subtree builds of it out of
    the cache (its links with them: a table lookup costs no hash)."""
    layers = max(0, min(layers, params.d))
    subtree = subtree_hashes(params)
    return layers * subtree / (fors_hashes(params) + params.d * subtree)


def choose_pinned_layers(params: SphincsParams, budget_bytes: int) -> int:
    """Default pinned layer count for *params* under *budget_bytes*.

    Picks the largest ``c`` whose fully populated pinned region fits in
    half the budget (one key never holds the whole of it) and whose
    whole fill stays under :data:`MAX_FILL_HASHES`.
    """
    best = 0
    for layers in range(1, params.d + 1):
        if pinned_bytes(params, layers) > budget_bytes // 2:
            break
        if fill_hashes(params, layers) > MAX_FILL_HASHES:
            break
        best = layers
    return best


def tradeoff_table() -> list[dict]:
    """Per-parameter-set cache trade-off rows at the default budget (docs
    + tests).

    Each row reports the chosen default ``c``, one key's resident pinned
    bytes, hashes to fill its whole region, per-signature savings
    fraction, and how many fully warm keys the budget holds.
    """
    budget_bytes = int(DEFAULT_BUDGET_MB * 1024 * 1024)
    rows = []
    for name in sorted(PARAMETER_SETS):
        params = get_params(name)
        layers = choose_pinned_layers(params, budget_bytes)
        rows.append({
            "params": name,
            "pinned_layers": layers,
            "pinned_trees": pinned_tree_count(params, layers),
            "pinned_kib": round(pinned_bytes(params, layers) / 1024, 1),
            "fill_hashes": fill_hashes(params, layers),
            "saved_fraction": round(savings_fraction(params, layers), 4),
            "warm_keys": budget_bytes // max(1, pinned_bytes(params,
                                                             layers)),
        })
    return rows


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
#: A key pair's ``(sk_seed, pk_seed)``: every entry's key starts with it,
#: then a memo digest, ``(layer, tree)`` or ``(layer, tree, leaf)``, so the
#: entry key's length names its kind.
Seed = tuple[bytes, bytes]
_MEMO, _TREE, _LINK = 2, 3, 4


class HypertreeLayerCache:
    """Pinned top layers + a replay memo of finished signatures, every key
    of one parameter set, least recently used out by bytes.

    Subtrees are keyed ``(seed, layer, tree)`` and held flat (see
    :func:`~repro.runtime.fastops.node_slice`); WOTS link signatures are
    keyed ``(seed, layer, tree, leaf)``, one buffer of chain values, and
    only ever cached for ``layer >= 1`` (layer 0 signs the
    message-dependent FORS pk); signatures are keyed ``(seed, digest)``.
    Only subtrees and links at or above the pinned floor
    (``d - pinned_layers``) are kept; a store below it is dropped.  An
    entry weighs its bytes plus a fixed overhead, a hit makes it the most
    recent, and a store past ``budget_bytes`` evicts the least recent
    entries, whatever their key or kind.  One lock guards it all: a
    service's event loop recalls beside the thread that signs.
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

        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._kinds = dict.fromkeys((_MEMO, _TREE, _LINK), 0)
        self._seeds: dict[Seed, int] = {}  # entries per key
        self._lock = threading.Lock()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.memo_hits = 0

    def _get(self, entry: tuple) -> bytes | None:
        """The value under *entry*, now the most recent; lock held."""
        value = self._entries.get(entry)
        if value is not None:
            self._entries.move_to_end(entry)
        return value

    def _put(self, entry: tuple, value: bytes) -> None:
        """Keep *value* under *entry*, the least recent out past the
        budget."""
        with self._lock:
            if entry in self._entries:
                self._forget(entry)
            self._entries[entry] = value
            self.bytes_used += len(value) + _ENTRY_OVERHEAD
            self._kinds[len(entry)] += 1
            self._seeds[entry[0]] = self._seeds.get(entry[0], 0) + 1
            while self.bytes_used > self.budget_bytes:
                self._forget(next(iter(self._entries)))

    def _forget(self, entry: tuple) -> None:
        """Drop *entry*; lock held."""
        self.bytes_used -= len(self._entries.pop(entry)) + _ENTRY_OVERHEAD
        self._kinds[len(entry)] -= 1
        self._seeds[entry[0]] -= 1
        if not self._seeds[entry[0]]:
            del self._seeds[entry[0]]

    # ------------------------------------------------------------------
    # Subtrees
    # ------------------------------------------------------------------
    def lookup_tree(self, seed: Seed, layer: int, tree: int) -> bytes | None:
        with self._lock:
            nodes = self._get((seed, layer, tree))
            if nodes is None:
                self.misses += 1
            else:
                self.hits += 1
        return nodes

    def store_tree(self, seed: Seed, layer: int, tree: int,
                   nodes: bytes) -> None:
        if layer >= self.pinned_floor:
            self._put((seed, layer, tree), nodes)

    # ------------------------------------------------------------------
    # WOTS link signatures (layer >= 1 only)
    # ------------------------------------------------------------------
    def lookup_link(self, seed: Seed, layer: int, tree: int,
                    leaf: int) -> bytes | None:
        with self._lock:
            return self._get((seed, layer, tree, leaf))

    def store_link(self, seed: Seed, layer: int, tree: int, leaf: int,
                   chains: bytes) -> None:
        if layer >= max(1, self.pinned_floor):
            self._put((seed, layer, tree, leaf), chains)

    # ------------------------------------------------------------------
    # Replay memo
    # ------------------------------------------------------------------
    def recall(self, seed: Seed, digest: bytes) -> bytes | None:
        """The signature remembered under *digest*, now the most recent.
        A hit counts as a cache hit: it stands for every lookup the
        replayed signature would have made."""
        with self._lock:
            signature = self._get((seed, digest))
            if signature is not None:
                self.memo_hits += 1
        return signature

    def remember(self, seed: Seed, digest: bytes, signature: bytes) -> None:
        """Keep *signature* under *digest*."""
        self._put((seed, digest), signature)

    @property
    def stats(self) -> dict[str, int]:
        """Counters: ``hits`` / ``misses`` count subtree lookups, and a
        memo hit is one more hit; ``keys`` counts the keys holding an
        entry."""
        return {
            "keys": len(self._seeds),
            "hits": self.hits + self.memo_hits,
            "misses": self.misses,
            "memo_hits": self.memo_hits,
            "memo_entries": self._kinds[_MEMO],
            "bytes": self.bytes_used,
            "pinned_trees": self._kinds[_TREE],
            "pinned_layers": self.pinned_layers,
            "budget_bytes": self.budget_bytes,
        }
