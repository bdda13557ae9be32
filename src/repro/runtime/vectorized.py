"""The vectorized CPU backend: batched, template-driven, cache-amortized.

Same hashes, far less interpreter overhead.  One shared
:class:`HashContext` midstate cache feeds every stage; addresses come from
precomputed templates (:mod:`repro.runtime.fastops`); the top hypertree
layers' subtrees and WOTS link signatures persist in the parameter set's
one :class:`~repro.runtime.layercache.HypertreeLayerCache`, filed under
each key's seeds — they are shared by construction, so a warm key
recomputes only the message-dependent bottom of each path — and in
deterministic mode the same cache remembers finished signatures, so a
replayed message is a lookup.

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

from ..hashes.thash import HashContext
from ..params import SphincsParams
from ..sphincs.signer import KeyPair
from .backend import BatchSignResult, SigningBackend
from .fastops import FastOps, FastVerifier
from .layercache import HypertreeLayerCache, budget_to_bytes
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
        The layer cache's byte budget: every key's pinned top layers and
        replayable signatures together, least recently used out
        (:mod:`repro.runtime.layercache`).  Default ``DEFAULT_BUDGET_MB``.
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
        self.ctx: HashContext = self._scheme.ctx  # shared midstate cache
        self.cache = HypertreeLayerCache(self.params,
                                         budget_to_bytes(cache_budget_mb))
        self.verifier: FastVerifier | None = None
        self._verifier_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _ops(self, keys: KeyPair) -> FastOps:
        """This call's signing primitives for *keys*, on the shared cache."""
        return FastOps(self.ctx, keys.sk_seed, keys.pk_seed, self.cache)

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """The layer cache's counters, every key's entries together."""
        return self.cache.stats

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
        return KeyPair(sk_seed, sk_prf, pk_seed, self._ops(keys).root())

    # ------------------------------------------------------------------
    @staticmethod
    def _memo_key(message: bytes, keys: KeyPair) -> bytes:
        """With ``opt_rand = pk_seed``, R = PRF_msg(sk_prf, pk_seed, M):
        under one ``(sk_seed, pk_seed)`` a signature is a pure function of
        ``sk_prf`` and the message, so one hash of the two names it."""
        return hashlib.sha256(keys.sk_prf + message).digest()

    def recall(self, message: bytes, keys: KeyPair) -> bytes | None:
        """The remembered signature of *message* or ``None``: one hash and a
        lookup, safe beside a running :meth:`sign_batch`, and nothing built."""
        return self.cache.recall((keys.sk_seed, keys.pk_seed),
                                 self._memo_key(message, keys))

    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        started = time.perf_counter()
        scheme, seed = self._scheme, (keys.sk_seed, keys.pk_seed)
        if self.deterministic:
            memo_keys = [self._memo_key(message, keys) for message in messages]
            signatures = [self.cache.recall(seed, key) for key in memo_keys]
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
                self._ops(keys), list(sign_tasks.values()),
                cut(self.cache.pinned_floor, self._workers, len(missed)))
            run = self._run_tasks(plan, keys)
            pieces = plan.stitch(run.results, keys.pk_root)
            stitched = time.perf_counter()
            for index, (fors_sig, ht_sig) in zip(missed, pieces):
                signature = signatures[index] = scheme.assemble(
                    sign_tasks[index], fors_sig, ht_sig)
                if self.deterministic:
                    self.cache.remember(seed, memo_keys[index], signature)
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
            cache_stats={**self.cache.stats, **run.stats},
            workers=run.workers)

    def _verify_pairs(self, messages: Sequence[bytes],
                      signatures: Sequence[bytes],
                      public_key: bytes) -> list[bool]:
        with self._verifier_lock:
            if self.verifier is None:
                self.verifier = FastVerifier(self.params)
        return self.verifier.verify_batch(messages, signatures, public_key)

    def _run_tasks(self, plan: SigningPlan, keys: KeyPair) -> TaskRun:
        """Run *plan*'s tasks under *keys*: on the pool, else here and in
        order."""
        tasks = plan.tasks
        if self.pool is not None:
            return self.pool.run(self.params.name, keys, tasks)
        results = [run_task(plan.ops, task) for task in tasks]
        fors_s = sum(result[-1] for task, result in zip(tasks, results)
                     if task[0] == RUN)
        return TaskRun(results, {"fors": fors_s},
                       {"tasks": len(tasks), "ipc_bytes": 0})
