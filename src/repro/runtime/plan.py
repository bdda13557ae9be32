"""The signing plan: a batch of signatures as independent tasks + a stitch.

Once ``H_msg`` is split, everything expensive in a SPHINCS+ signature is
known and mutually independent: the FORS forest under ``(idx_tree,
idx_leaf)``, and the XMSS subtree at each of the ``d`` hypertree layers
on the path from that leaf to the root.  Only the WOTS signatures chain
the layers together — layer ``l`` signs the root of layer ``l - 1`` —
and a subtree build has just walked every WOTS chain of its signing
leaf, so it hands the visited values back as that leaf's *chain table*
and the signature becomes a lookup.

:class:`SigningPlan` enumerates those tasks for a batch of prepared
messages against the per-key layer cache (a cached subtree — the pinned
top layers — needs no task; a subtree two messages share is one task
carrying both leaves; a message the cache's replay memo answered never
reaches a plan) and
:meth:`SigningPlan.stitch` chains the results.  Who runs the tasks is
the backend's business: :class:`~.vectorized.VectorizedBackend` calls
:func:`run_task` in a loop, :class:`~.pool.PooledBackend` hands the same
tuples to worker processes.  The cache lives with the plan, in the
caller's process; a task is a plain tuple and its executor keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import BackendError
from ..sphincs.signer import SignTask
from .fastops import FastOps, flat_auth_path, wots_digits

__all__ = ["FORS", "SUBTREE", "SigningPlan", "TaskRun", "chain_values",
           "run_task"]

#: Task kinds — ``(FORS, fors_msg, idx_tree, idx_leaf)`` and
#: ``(SUBTREE, layer, tree, sign_leaves)``.
FORS, SUBTREE = "fors", "subtree"


@dataclass
class TaskRun:
    """What running a plan's tasks gave back."""

    results: list
    #: Wall seconds per named stage the run accounts for itself.
    stages: dict[str, float]
    #: Counters for ``BatchSignResult.cache_stats`` (pool: requeues, ...).
    stats: dict[str, int] = field(default_factory=dict)
    #: Per worker process that took part: ``{"start", "end"}`` on the wall
    #: clock, ``"tasks"`` and ``"busy_s"``.  Empty when run in-process.
    workers: dict[int, dict] = field(default_factory=dict)


def run_task(ops: FastOps, task: tuple):
    """Execute one task: ``(fors_sig, fors_pk)`` or ``(nodes, tables)``."""
    if task[0] == FORS:
        return ops.fors_sign(*task[1:])
    return ops.build_subtree(*task[1:])


def chain_values(table: bytes, digits: Sequence[int], n: int,
                 w: int) -> bytes:
    """The WOTS signature of *digits* read out of a leaf's chain table."""
    return b"".join(
        table[(chain * w + digit) * n:(chain * w + digit + 1) * n]
        for chain, digit in enumerate(digits))


class SigningPlan:
    """The tasks a batch of prepared messages needs, and their stitch.

    ``tasks`` lists the FORS tasks (one per message, same order) and then
    one subtree task per distinct uncached ``(layer, tree)`` on any
    message's path.  ``paths[i]`` is message *i*'s walk up the hypertree
    as ``(layer, tree, leaf, nodes)``, ``nodes`` being the cached subtree
    (flat, see :func:`~.fastops.node_slice`) or ``None`` where a task
    builds it.
    """

    def __init__(self, ops: FastOps, sign_tasks: Sequence[SignTask]):
        params, cache = ops.params, ops.cache
        self.ops = ops
        self.tasks: list[tuple] = [
            (FORS, task.fors_msg, task.idx_tree, task.idx_leaf)
            for task in sign_tasks]
        self.paths: list[list[tuple]] = []
        wanted: dict[tuple[int, int], set[int]] = {}
        for task in sign_tasks:
            path = []
            tree, leaf = task.idx_tree, task.idx_leaf
            for layer in range(params.d):
                nodes = None
                if (layer, tree) in wanted:
                    wanted[layer, tree].add(leaf)
                else:
                    nodes = cache.lookup_tree(layer, tree)
                    if nodes is None:
                        wanted[layer, tree] = {leaf}
                path.append((layer, tree, leaf, nodes))
                leaf = tree & (params.tree_leaves - 1)
                tree >>= params.tree_height
            self.paths.append(path)
        self._built_by = {}  # (layer, tree) -> index into tasks
        for key, leaves in wanted.items():
            self._built_by[key] = len(self.tasks)
            self.tasks.append((SUBTREE, *key, tuple(sorted(leaves))))

    def stitch(self, results: Sequence, pk_root: bytes) -> list[tuple]:
        """``(fors_sig, ht_sig)`` per message from the tasks' *results*
        (same order as :attr:`tasks`).  The cache is offered every new
        subtree and link signature and keeps the pinned layers'; chain
        tables are read and dropped.  Raises if a walk does not end at
        *pk_root*.
        """
        ops, params, cache = self.ops, self.ops.params, self.ops.cache
        n, height = params.n, params.tree_height
        for key, index in self._built_by.items():
            cache.store_tree(*key, results[index][0])
        pieces = []
        for (fors_sig, node), path in zip(results, self.paths):
            ht_sig = []
            for layer, tree, leaf, nodes in path:
                table = None
                if nodes is None:
                    nodes, tables = results[self._built_by[layer, tree]]
                    table = tables[leaf]
                chains = cache.lookup_link(layer, tree, leaf)
                if chains is None:
                    if table is not None:
                        chains = chain_values(
                            table, wots_digits(node, params), n, params.w)
                    else:  # a cached subtree has no table: walk the chains
                        chains = b"".join(
                            ops.wots_sign(node, layer, tree, leaf))
                    # Kept where the layer is pinned, dropped below.
                    cache.store_link(layer, tree, leaf, chains)
                # One buffer of wots_len chain values: serializes the same.
                ht_sig.append(([chains],
                               flat_auth_path(nodes, leaf, n, height)))
                node = nodes[-n:]
            if node != pk_root:
                raise BackendError(
                    "signing plan's hypertree root does not match the "
                    "public key")
            pieces.append((fors_sig, ht_sig))
        return pieces
