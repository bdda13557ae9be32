"""The scalar reference backend: the plain functional layer, batched.

This is the correctness anchor of the runtime — it drives the refactored
:class:`Sphincs` stages one message at a time with no caching beyond the
hash midstate the functional layer always had.  Every other backend is
validated (and benchmarked) against it.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..params import SphincsParams
from ..sphincs.signer import KeyPair
from .backend import BackendCapabilities, BatchSignResult, SigningBackend
from .layercache import HypertreeLayerCache

__all__ = ["ScalarBackend"]


class ScalarBackend(SigningBackend):
    """One-message-at-a-time signing through the reference stages.

    The layer cache is **off by default** here: an uncached walk is what
    makes this backend the correctness anchor (and the fault-injection
    tap point).  Passing ``cache_budget_mb`` opts one in — used by the
    differential oracle to prove the cached reference path is
    byte-identical to the cold one.
    """

    name = "scalar"

    def __init__(self, params: SphincsParams | str,
                 deterministic: bool = False,
                 cache_budget_mb: float | None = None):
        super().__init__(params, deterministic=deterministic)
        self._budget_bytes = (int(cache_budget_mb * 1024 * 1024)
                              if cache_budget_mb else None)
        self._caches: dict[tuple[bytes, bytes], HypertreeLayerCache] = {}

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            kind="cpu",
            vectorized=False,
            deterministic=self.deterministic,
            preferred_batch=1,
            notes="reference functional layer; correctness baseline"
            + (", layer cache on" if self._budget_bytes else ""),
        )

    def _cache_for(self, keys: KeyPair) -> HypertreeLayerCache | None:
        if self._budget_bytes is None:
            return None
        key = (keys.sk_seed, keys.pk_seed)
        cache = self._caches.get(key)
        if cache is None:
            if len(self._caches) >= 8:
                self._caches.pop(next(iter(self._caches)))
            cache = HypertreeLayerCache(self.params, self._budget_bytes)
            self._caches[key] = cache
        return cache

    def invalidate_key(self, keys: KeyPair) -> None:
        self._caches.pop((keys.sk_seed, keys.pk_seed), None)

    def invalidate_all(self) -> None:
        self._caches.clear()

    def cache_stats(self) -> dict[str, int]:
        totals: dict[str, int] = {"keys": len(self._caches)}
        for cache in self._caches.values():
            for field, value in cache.stats.items():
                if field in ("pinned_layers", "budget_bytes"):
                    totals[field] = max(totals.get(field, 0), value)
                else:
                    totals[field] = totals.get(field, 0) + value
        return totals

    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        started = time.perf_counter()
        scheme = self._scheme
        cache = self._cache_for(keys)
        result = self._staged_sign(
            messages, keys, started,
            lambda task: scheme.fors_stage(task, keys),
            lambda task, fors_pk: scheme.hypertree_stage(
                task, keys, fors_pk, cache=cache),
        )
        if cache is not None:
            result.cache_stats = dict(cache.stats)
        return result

    def _verify_pairs(self, messages: Sequence[bytes],
                      signatures: Sequence[bytes],
                      public_key: bytes) -> list[bool]:
        """The reference ``Sphincs.verify`` walk: the second, independent
        implementation the oracle diffs the fast verifier against."""
        return [self._scheme.verify(message, signature, public_key)
                for message, signature in zip(messages, signatures)]
