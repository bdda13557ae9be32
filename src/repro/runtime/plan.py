"""The signing plan: a batch of signatures as fused runs of layers + a stitch.

Once ``H_msg`` is split, everything expensive in a SPHINCS+ signature is
known: the FORS forest under ``(idx_tree, idx_leaf)``, and the XMSS
subtree at each of the ``d`` hypertree layers on the path from that leaf
to the root.  Only the WOTS signatures chain the layers together — layer
``l`` signs the root of layer ``l - 1`` — and a subtree build has just
walked every WOTS chain of its signing leaf, so it keeps the visited
values as that leaf's *chain table* and the signature becomes a lookup.

Below the layer cache's pinned floor nothing is kept or shared, so a
message's work there is one **run** (the paper's Tree Fusion): FORS, then
each layer signing the root below out of the table it has just walked.
:func:`cut` splits a run at layer boundaries to keep every worker busy;
only a piece above a cut, not knowing the root below it, hands a table back.

:class:`SigningPlan` lists those pieces for a batch of prepared messages,
plus one ``SUBTREE`` fill per pinned subtree on their paths that the
layer cache does not hold for the key yet (a message its replay memo answered
never reaches a plan); :meth:`SigningPlan.stitch` chains the results and
keeps every fill, so a key's pinned region grows only along the paths its
traffic walks, each subtree built once.  Who runs the tasks is the
backend's business: :class:`~.vectorized.VectorizedBackend` calls
:func:`run_task` in a loop or, given a :class:`~.pool.WorkerPool`, hands
the same tuples to its worker processes.  The cache lives with the plan, in the
caller's process; a task is a plain tuple and its executor keeps nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import BackendError
from ..params import SphincsParams
from ..sphincs.signer import SignTask
from .fastops import FastOps, flat_auth_path, path_hops, wots_digits

__all__ = ["RUN", "SUBTREE", "SigningPlan", "TaskRun", "chain_values",
           "cut", "fors_hashes", "run_task", "subtree_hashes"]

#: Task kinds — ``(RUN, fors_msg | None, layer, tree, leaf, layers)``: FORS
#: if given, then *layers* layers up — and ``(SUBTREE, layer, tree, leaves)``
RUN, SUBTREE = "run", "subtree"


@dataclass
class TaskRun:
    """What running a plan's tasks gave back."""

    results: list
    #: Wall seconds per named stage the run accounts for itself.
    stages: dict[str, float]
    #: For ``BatchSignResult.cache_stats``: tasks, ipc_bytes, requeues, ...
    stats: dict[str, int] = field(default_factory=dict)
    #: Per worker process that took part: ``{"start", "end"}`` on the wall
    #: clock, ``"tasks"`` and ``"busy_s"``.  Empty when run in-process.
    workers: dict[int, dict] = field(default_factory=dict)


def cut(floor: int, workers: int, messages: int) -> list[range]:
    """The layer ranges a message's run below *floor* is cut into, bottom
    up, FORS riding the first: one in-process (*workers* 0) and from four
    messages per worker, else about four near-equal tasks per worker
    between the messages, at the finest FORS and each layer by itself."""
    pieces = min(floor + 1, max(1, -(-4 * workers // messages)))
    size, larger = divmod(floor + 1, pieces)  # larger first: handed out first
    bounds = [piece * size + min(piece, larger) for piece in range(pieces + 1)]
    return [range(max(low - 1, 0), high - 1)
            for low, high in zip(bounds, bounds[1:])]


def run_task(ops: FastOps, task: tuple):
    """``SUBTREE``: ``(nodes, tables)``.  ``RUN``: ``(fors_sig, table,
    hops, root, fors_seconds)``, a ``([wots_sig], auth_path)`` hop per layer;
    above a cut the first ``wots_sig`` is ``None`` and *table* its leaf's."""
    if task[0] == SUBTREE:
        return ops.build_subtree(*task[1:])
    _, fors_msg, first, tree, leaf, layers = task
    params, n, height = ops.params, ops.n, ops.params.tree_height
    started = time.perf_counter()
    fors_sig, node = (None, None) if fors_msg is None else ops.fors_sign(
        fors_msg, tree, leaf)
    fors_seconds = time.perf_counter() - started
    table, hops = None, []
    for layer, tree, leaf in path_hops(params, tree, leaf, first)[:layers]:
        nodes, tables = ops.build_subtree(layer, tree, (leaf,))
        if node is None:  # above a cut: the root below is another piece's
            table, chains = tables[leaf], None
        else:
            chains = chain_values(tables[leaf], wots_digits(node, params),
                                  n, params.w)
        # One buffer of wots_len chain values: serializes the same.
        hops.append(([chains], flat_auth_path(nodes, leaf, n, height)))
        node = nodes[-n:]
    return fors_sig, table, hops, node, fors_seconds


def subtree_hashes(params: SphincsParams) -> int:
    """Tweakable-hash digests :func:`run_task` makes per layer, hashing
    nothing: a subtree build, every WOTS chain walked whole (a PRF and
    ``w - 1`` steps) and compressed into its leaf, then the Merkle
    levels.  Chain tables are read, not hashed, and a signing leaf costs
    no more than any other.  A task makes ``layers`` of these (one for a
    ``SUBTREE``) and, when a ``RUN`` carries FORS, :func:`fors_hashes`."""
    leaves = params.tree_leaves
    return leaves * (params.wots_len * params.w + 1) + leaves - 1


def fors_hashes(params: SphincsParams) -> int:
    """Tweakable-hash digests a ``RUN``'s FORS makes, hashing nothing: a
    PRF and a leaf hash per leaf, the nodes, one compress of the roots."""
    return params.k * (3 * params.t - 1) + 1


def chain_values(table: bytes, digits: Sequence[int], n: int,
                 w: int) -> bytes:
    """The WOTS signature of *digits* read out of a leaf's chain table."""
    return b"".join(
        table[(chain * w + digit) * n:(chain * w + digit + 1) * n]
        for chain, digit in enumerate(digits))


class SigningPlan:
    """The tasks a batch of prepared messages needs, and their stitch.

    ``tasks`` lists every message's run (``len(cuts)`` pieces each, bottom
    up, messages in order; *cuts* is :func:`cut`'s answer, by default one
    piece) and then one subtree fill per distinct uncached ``(layer, tree)``
    at or above the pinned floor on any message's path.  ``paths[i]``
    is message *i*'s walk through those pinned layers as ``(layer, tree,
    leaf, nodes)``, ``nodes`` being the cached subtree (flat, see
    :func:`~.fastops.node_slice`) or ``None`` where a fill builds it.
    """

    def __init__(self, ops: FastOps, sign_tasks: Sequence[SignTask],
                 cuts: Sequence[range] | None = None):
        params, cache, floor = ops.params, ops.cache, ops.cache.pinned_floor
        self.ops = ops
        self.cuts = cuts if cuts is not None else [range(floor)]
        self.tasks: list[tuple] = []
        self.paths: list[list[tuple]] = []
        wanted: dict[tuple[int, int], set[int]] = {}
        for task in sign_tasks:
            hops = path_hops(params, task.idx_tree, task.idx_leaf)
            self.tasks += [
                (RUN, None if index else task.fors_msg, *hops[piece.start],
                 len(piece)) for index, piece in enumerate(self.cuts)]
            path = []
            for layer, tree, leaf in hops:
                # Below the floor, always a miss.
                nodes = cache.lookup_tree(ops.seed, layer, tree)
                if layer >= floor:
                    if nodes is None:
                        wanted.setdefault((layer, tree), set()).add(leaf)
                    path.append((layer, tree, leaf, nodes))
            self.paths.append(path)
        self._built_by = {}  # (layer, tree) -> index into tasks
        for key, leaves in wanted.items():
            self._built_by[key] = len(self.tasks)
            self.tasks.append((SUBTREE, *key, tuple(sorted(leaves))))

    def stitch(self, results: Sequence, pk_root: bytes) -> list[tuple]:
        """``(fors_sig, ht_sig)`` per message from the tasks' *results*
        (same order as :attr:`tasks`).  The cache is offered every new
        pinned subtree and link signature; chain tables are read and
        dropped.  Raises if a walk does not end at *pk_root*.
        """
        ops, params, cache = self.ops, self.ops.params, self.ops.cache
        n, height, pieces = params.n, params.tree_height, len(self.cuts)
        for key, index in self._built_by.items():
            cache.store_tree(ops.seed, *key, results[index][0])
        signatures = []
        for index, path in enumerate(self.paths):
            run = results[index * pieces:(index + 1) * pieces]
            fors_sig, node, ht_sig = run[0][0], None, []
            for _, table, hops, root, _ in run:
                if table is not None:  # above a cut: signs the root below
                    hops[0] = ([chain_values(table, wots_digits(
                        node, params), n, params.w)], hops[0][1])
                ht_sig += hops
                node = root
            for layer, tree, leaf, nodes in path:
                table = None
                if nodes is None:
                    nodes, tables = results[self._built_by[layer, tree]]
                    table = tables[leaf]
                chains = cache.lookup_link(ops.seed, layer, tree, leaf)
                if chains is None:
                    if table is not None:
                        chains = chain_values(
                            table, wots_digits(node, params), n, params.w)
                    else:  # a cached subtree has no table: walk the chains
                        chains = b"".join(
                            ops.wots_sign(node, layer, tree, leaf))
                    # Kept where the layer is pinned, dropped below.
                    cache.store_link(ops.seed, layer, tree, leaf, chains)
                ht_sig.append(([chains],
                               flat_auth_path(nodes, leaf, n, height)))
                node = nodes[-n:]
            if node != pk_root:
                raise BackendError(
                    "signing plan's hypertree root does not match the "
                    "public key")
            signatures.append((fors_sig, ht_sig))
        return signatures
