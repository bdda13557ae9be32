"""The vectorized CPU backend: batched, template-driven, cache-amortized.

Same hashes, far less interpreter overhead.  One shared
:class:`HashContext` midstate cache feeds every stage; addresses come from
precomputed templates (:mod:`repro.runtime.fastops`); the top hypertree
layers' subtrees and WOTS link signatures persist in a per-key
:class:`~repro.runtime.layercache.HypertreeLayerCache` — they are shared
by construction, so a warm key recomputes only the message-dependent
bottom of each path — and in deterministic mode the same object
remembers finished signatures, so a replayed message is a lookup.

Signatures are byte-identical to the scalar backend in deterministic mode
(pinned by ``tests/runtime``) because every SHA-256 input is unchanged —
this backend only reorganizes *when* and *how cheaply* they are computed.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import TYPE_CHECKING, Sequence

from ..errors import BackendError
from ..hashes.thash import HashContext
from ..params import SphincsParams
from ..sphincs.signer import KeyPair
from .backend import BatchSignResult, SigningBackend
from .fastops import FastOps, FastVerifier
from .layercache import DEFAULT_BUDGET_MB, HypertreeLayerCache
from .plan import RUN, SigningPlan, TaskRun, cut, run_task

if TYPE_CHECKING:
    from .pool import WorkerPool

__all__ = ["VectorizedBackend"]


class VectorizedBackend(SigningBackend):
    """Batch signing with amortized hot paths.

    A batch is one :class:`~.plan.SigningPlan`: the same plan and stitch
    wherever its tasks run, so the same bytes.

    Parameters
    ----------
    cache_budget_mb:
        Per-key layer-cache byte budget (pinned top layers + replay
        memo, sized by :mod:`repro.runtime.layercache`).  Default
        ``DEFAULT_BUDGET_MB``.
    pool:
        A :class:`~.pool.WorkerPool` to run the plan's tasks on — the
        caller's to close, and one may serve every parameter set's
        backend; without one they run here, one after another.  On a
        pool, results are labelled ``pooled``; planning, the layer
        cache, the stitch and serialization stay in this process, and a
        replayed message (a memo hit) has no plan: it never touches IPC.

    Verification runs on :attr:`verifier`, this parameter set's one
    :class:`~.fastops.FastVerifier`, built by the first verify on a hash
    context of its own, so a verify may run beside a sign.
    """

    name = "vectorized"

    def __init__(self, params: SphincsParams | str,
                 deterministic: bool = False,
                 cache_budget_mb: float | None = None,
                 pool: WorkerPool | None = None):
        super().__init__(params, deterministic=deterministic)
        self.pool = pool
        if pool is not None:
            self.name = "pooled"
        #: Processes the plan's tasks run on (0: this one); sizes the cut.
        self._workers = pool.workers if pool is not None else 0
        if cache_budget_mb is not None and cache_budget_mb <= 0:
            raise BackendError(
                f"cache_budget_mb must be > 0, got {cache_budget_mb}")
        self._budget_bytes = int(
            (cache_budget_mb or DEFAULT_BUDGET_MB) * 1024 * 1024)
        self.ctx: HashContext = self._scheme.ctx  # shared midstate cache
        self._fastops: dict[tuple[bytes, bytes], FastOps] = {}
        self.verifier: FastVerifier | None = None
        self._verifier_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _ops(self, keys: KeyPair) -> FastOps:
        key = (keys.sk_seed, keys.pk_seed)
        ops = self._fastops.get(key)
        if ops is None:
            if len(self._fastops) >= 8:  # a service signs under few keys
                self._fastops.pop(next(iter(self._fastops)))
            ops = FastOps(self.ctx, keys.sk_seed, keys.pk_seed,
                          HypertreeLayerCache(self.params,
                                              self._budget_bytes))
            self._fastops[key] = ops
        return ops

    # ------------------------------------------------------------------
    def invalidate_key(self, keys: KeyPair) -> None:
        """Drop all cached state for *keys* (rotation / tenant delete)."""
        self._fastops.pop((keys.sk_seed, keys.pk_seed), None)

    def cache_stats(self) -> dict[str, int]:
        """Aggregate layer-cache counters across every resident key."""
        totals: dict[str, int] = {"keys": len(self._fastops)}
        for ops in self._fastops.values():
            for field, value in ops.cache.stats.items():
                if field in ("pinned_layers", "budget_bytes"):
                    totals[field] = max(totals.get(field, 0), value)
                else:
                    totals[field] = totals.get(field, 0) + value
        return totals

    # ------------------------------------------------------------------
    def hash_context(self) -> HashContext:
        """Not tappable: the hot path hashes straight off midstate
        templates (:mod:`repro.runtime.fastops`) and never calls
        ``HashContext.thash``/``prf``, so a fault installed there would
        silently never fire.  Fault injection targets the scalar
        backend."""
        raise BackendError(
            f"backend {self.name!r} hashes via midstate templates, not "
            "through HashContext.thash/prf; install faults on the "
            "'scalar' backend instead"
        )

    # ------------------------------------------------------------------
    def keygen(self, seed: bytes | None = None) -> KeyPair:
        """Fast-path keygen; the root build pins the top subtree in the cache."""
        n = self.params.n
        if seed is None:
            seed = os.urandom(3 * n)
        if len(seed) != 3 * n:
            # Delegate so the error message stays identical to the scalar path.
            return self._scheme.keygen(seed=seed)
        sk_seed, sk_prf, pk_seed = seed[:n], seed[n:2 * n], seed[2 * n:]
        keys = KeyPair(sk_seed, sk_prf, pk_seed, b"")
        ops = self._ops(keys)  # bounded insert; shares the eviction policy
        return KeyPair(sk_seed, sk_prf, pk_seed, ops.root())

    # ------------------------------------------------------------------
    @staticmethod
    def _memo_key(message: bytes, keys: KeyPair) -> bytes:
        """With ``opt_rand = pk_seed``, R = PRF_msg(sk_prf, pk_seed, M): in
        one ``(sk_seed, pk_seed)`` cache a signature is a pure function of
        ``sk_prf`` and the message, so one hash of the two names it."""
        return hashlib.sha256(keys.sk_prf + message).digest()

    def recall(self, message: bytes, keys: KeyPair) -> bytes | None:
        """The remembered signature of *message* or ``None``: one hash and a
        lookup, safe beside a running :meth:`sign_batch`, and nothing built."""
        ops = self._fastops.get((keys.sk_seed, keys.pk_seed))
        return None if ops is None else ops.cache.recall(
            self._memo_key(message, keys))

    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        started = time.perf_counter()
        ops, scheme = self._ops(keys), self._scheme
        if self.deterministic:
            memo_keys = [self._memo_key(message, keys) for message in messages]
            signatures = [ops.cache.recall(key) for key in memo_keys]
        else:  # R never repeats: the memo stays empty, every message misses
            memo_keys, signatures = range(len(messages)), [None] * len(messages)
        # A memo key missed twice in one batch is planned once, the first time.
        first: dict[bytes | int, int] = {}
        missed = [index for index, signature in enumerate(signatures)
                  if signature is None
                  and first.setdefault(memo_keys[index], index) == index]
        sign_tasks = {index: scheme.prepare(messages[index], keys)
                      for index in missed}
        prepared = stitched = time.perf_counter()
        run = TaskRun([], {"fors": 0.0})
        if missed:
            plan = SigningPlan(
                ops, list(sign_tasks.values()),
                cut(ops.cache.pinned_floor, self._workers, len(missed)))
            run = self._run_tasks(plan.tasks, keys)
            pieces = plan.stitch(run.results, keys.pk_root)
            stitched = time.perf_counter()
            for index, (fors_sig, ht_sig) in zip(missed, pieces):
                signature = signatures[index] = scheme.assemble(
                    sign_tasks[index], fors_sig, ht_sig)
                if self.deterministic:
                    ops.cache.remember(memo_keys[index], signature)
            signatures = [signature or signatures[first[key]]
                          for key, signature in zip(memo_keys, signatures)]
        # "hypertree" is what this process spent between prepare and
        # serialize outside the stages the run accounted for.
        stage_seconds = {"prepare": prepared - started, **run.stages}
        stage_seconds["hypertree"] = (stitched - prepared
                                      - sum(run.stages.values()))
        stage_seconds["serialize"] = time.perf_counter() - stitched
        return self._timed_result(
            signatures, started, stage_seconds=stage_seconds,
            cache_stats={**ops.cache.stats, **run.stats},
            workers=run.workers)

    def _verify_pairs(self, messages: Sequence[bytes],
                      signatures: Sequence[bytes],
                      public_key: bytes) -> list[bool]:
        with self._verifier_lock:
            if self.verifier is None:
                self.verifier = FastVerifier(self.params)
        return self.verifier.verify_batch(messages, signatures, public_key)

    def _run_tasks(self, tasks: Sequence[tuple], keys: KeyPair) -> TaskRun:
        """Run the plan's *tasks* under *keys*: on the pool, else here and
        in order."""
        if self.pool is not None:
            return self.pool.run(self.params.name, keys, tasks)
        ops = self._ops(keys)
        results = [run_task(ops, task) for task in tasks]
        fors_s = sum(result[-1] for task, result in zip(tasks, results)
                     if task[0] == RUN)
        return TaskRun(results, {"fors": fors_s},
                       {"tasks": len(tasks), "ipc_bytes": 0})
