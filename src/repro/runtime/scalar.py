"""The scalar reference backend: the plain functional layer, batched.

This is the correctness anchor of the runtime — it drives the refactored
:class:`Sphincs` stages one message at a time with no caching beyond the
hash midstate the functional layer always had.  Every other backend is
validated (and benchmarked) against it.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..hashes.thash import HashContext
from ..sphincs.signer import KeyPair
from .backend import BatchSignResult, SigningBackend

__all__ = ["ScalarBackend"]


class ScalarBackend(SigningBackend):
    """One-message-at-a-time signing through the reference stages.

    No cache, no memo, no fast path: an uncached walk is what makes this
    backend the correctness anchor (and the fault-injection tap point).
    """

    name = "scalar"

    @property
    def ctx(self) -> HashContext:
        """The context every signing hash goes through: where the
        conformance oracle installs a ``thash``/``prf`` bit flip."""
        return self._scheme.ctx

    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        started = time.perf_counter()
        scheme = self._scheme
        stage = dict.fromkeys(
            ("prepare", "fors", "hypertree", "serialize"), 0.0)
        signatures: list[bytes] = []
        for message in messages:
            t0 = time.perf_counter()
            task = scheme.prepare(message, keys)
            t1 = time.perf_counter()
            fors_sig, fors_pk = scheme.fors_stage(task, keys)
            t2 = time.perf_counter()
            ht_sig = scheme.hypertree_stage(task, keys, fors_pk)
            t3 = time.perf_counter()
            signatures.append(scheme.assemble(task, fors_sig, ht_sig))
            t4 = time.perf_counter()
            for name, spent in zip(stage, (t1 - t0, t2 - t1, t3 - t2,
                                           t4 - t3)):
                stage[name] += spent
        return self._timed_result(signatures, started, stage_seconds=stage)
