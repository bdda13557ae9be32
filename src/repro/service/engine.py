"""The signing engine: what every front signs and verifies through.

:class:`SigningEngine` owns the chain *keystore → executor → one backend
per parameter set, which signs and verifies → cache stats*.  A rotated or
deleted key needs no hook here: every cache entry is keyed by its key
pair's seeds, so a retired pair's entries answer for no other key and age
out by recency.  It has two fronts and knows neither: the in-process
:class:`~repro.api.local.LocalClient` calls it synchronously,
:class:`~.server.SigningService` from executor threads, one batch at a
time (and, for ``recall`` only, from its event loop).
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..errors import BackendError, ServiceError
from ..runtime.backend import BatchSignResult
from ..runtime.layercache import budget_to_bytes
from ..runtime.pool import WorkerPool
from ..runtime.vectorized import VectorizedBackend
from ..sphincs.signer import KeyPair
from .keystore import Keystore

__all__ = ["ON_LOOP_BYTES", "SigningEngine", "require_vectorized"]

#: Most bytes ``recall`` hashes, in one SHA-256 pass (at the bound a
#: service's event loop waits ~0.05 ms).
ON_LOOP_BYTES = 64 * 1024


def require_vectorized(backend: str) -> None:
    """A front's ``backend=`` names its one signer, ``vectorized``; any
    other name is a :class:`BackendError`."""
    if backend != "vectorized":
        raise BackendError(
            f"unknown backend {backend!r}: every front signs on "
            "'vectorized' (the scalar reference is get_backend('scalar'))")


class SigningEngine:
    """Sign and verify batches under keystore keys.

    Parameters
    ----------
    keystore:
        Where ``(tenant, key)`` resolves, on every call.
    workers:
        ``> 0`` runs the signing plan on a pool of that many processes —
        one pool under every parameter set, started here and stopped by
        :meth:`close`.
    cache_budget_mb:
        Each backend's layer-cache budget, all keys of its parameter set
        together: it sets the pinned layer count and bounds every pinned
        subtree and replayable signature, least recently used out
        (default :data:`~repro.runtime.layercache.DEFAULT_BUDGET_MB`); not
        above zero is a :class:`BackendError` here, at start.  A pinned
        subtree is filled by the first plan whose path needs it, beside
        that message's run.

    One :class:`~repro.runtime.vectorized.VectorizedBackend` per parameter
    set, built on first use, each with one layer cache for all its keys.
    """

    def __init__(self, keystore: Keystore, *, deterministic: bool = False,
                 workers: int = 0, cache_budget_mb: float | None = None):
        budget_to_bytes(cache_budget_mb)  # a bad budget fails before any sign
        self.keystore = keystore
        self.deterministic = deterministic
        self.cache_budget_mb = cache_budget_mb
        self.pool = WorkerPool(workers) if workers > 0 else None
        self._backends: dict[str, VectorizedBackend] = {}
        # Callers arrive on several threads (the service's executor, a
        # ledger's ``to_thread``): backends are built under it.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def backend_for(self, params_name: str) -> VectorizedBackend:
        """The backend for *params_name* (canonical), built on first use."""
        with self._lock:
            backend = self._backends.get(params_name)
            if backend is None:
                backend = self._backends[params_name] = VectorizedBackend(
                    params_name, deterministic=self.deterministic,
                    cache_budget_mb=self.cache_budget_mb, pool=self.pool)
            return backend

    # ------------------------------------------------------------------
    def recall(self, keys: KeyPair, params_name: str, message: bytes
               ) -> bytes | None:
        """The signature the replay memo remembers for *message* under
        *keys*, a key pair of *params_name* the caller has resolved
        (deterministic mode only).  Non-blocking: one hash pass over at
        most ``ON_LOOP_BYTES``, nothing built; its one effect is the
        memo's recency and hit count."""
        if not self.deterministic or len(message) > ON_LOOP_BYTES:
            return None
        backend = self._backends.get(params_name)
        return backend.recall(message, keys) if backend else None

    def sign_batch(self, tenant: str, key: str, messages: Sequence[bytes]
                   ) -> tuple[BatchSignResult, str]:
        """*messages* signed under the tenant's named key as one backend
        batch: ``(result, canonical params name)``.  An unknown tenant
        or key raises :class:`~repro.errors.KeystoreError` first."""
        keys, params_name = self.keystore.resolve(tenant, key)
        result = self.backend_for(params_name).sign_batch(messages, keys)
        if len(result.signatures) != len(messages):
            raise ServiceError(
                f"backend {result.backend!r} returned "
                f"{len(result.signatures)} signatures for "
                f"{len(messages)} messages")
        return result, params_name

    def verify_batch(self, tenant: str, key: str, messages: Sequence[bytes],
                     signatures: Sequence[bytes]) -> tuple[list[bool], str]:
        """``(per-pair verdicts, canonical params name)`` under the
        tenant's named key, resolved once; a bad signature is ``False``,
        never an error.  The backend's verifier keeps its own hash
        context, so a verify may run while a sign is in flight."""
        keys, params_name = self.keystore.resolve(tenant, key)
        return (self.backend_for(params_name).verify_batch(
            messages, signatures, keys.public), params_name)

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """The ``cache`` section of a stats snapshot: one scope per
        parameter set's backend (layer cache + replay memo) and one per
        backend that has verified (verify memo), all in this process: pool
        workers hold none."""
        backends = sorted(self._backends.items())
        scopes: dict[str, dict] = {}
        for params_name, backend in backends:
            scopes[f"in-process {params_name}"] = backend.cache_stats()
        for params_name, backend in backends:
            if backend.verifier is not None:
                scopes[f"verify {params_name}"] = \
                    backend.verifier.cache_stats()
        if not scopes:
            return {}
        snapshot: dict = {"scopes": scopes}
        if self.cache_budget_mb is not None:
            snapshot["budget_mb"] = self.cache_budget_mb
        return snapshot

    def close(self) -> None:
        """Stop the pool; idempotent."""
        if self.pool is not None:
            self.pool.close()
