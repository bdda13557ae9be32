"""The :class:`SigningBackend` contract of the batch-signing runtime.

A backend is a signing engine with a first-class *batch* API: callers hand
it a list of messages and get back a :class:`BatchSignResult` carrying the
signatures plus per-stage timing and cache statistics.  Both signers —
the scalar reference path and the vectorized CPU path — implement this
one interface, so schedulers and benchmarks route work without knowing
how a backend executes it.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..errors import BackendError
from ..params import SphincsParams, get_params
from ..sphincs.signer import KeyPair, Sphincs

__all__ = ["BatchSignResult", "SigningBackend"]


@dataclass
class BatchSignResult:
    """The outcome of one ``sign_batch`` call."""

    backend: str
    params: str
    signatures: list[bytes]
    elapsed_s: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_stats: dict[str, int] = field(default_factory=dict)
    # On a worker pool: what each worker process contributed
    # (``plan.TaskRun.workers``); empty on in-process paths.
    workers: dict[int, dict] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.signatures)


class SigningBackend(abc.ABC):
    """Base class for batch signing engines.

    Subclasses set :attr:`name` and implement :meth:`sign_batch`; keygen,
    scalar convenience signing, and batch verification are shared here so
    every backend agrees on key formats and the verification contract
    (verify never raises on bad input — it returns ``False``).
    """

    name: str = "abstract"

    def __init__(self, params: SphincsParams | str,
                 deterministic: bool = False):
        self.params = get_params(params) if isinstance(params, str) else params
        self.deterministic = deterministic
        self._scheme = Sphincs(self.params, deterministic=deterministic)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        """Sign every message in *messages* under *keys*."""

    # ------------------------------------------------------------------
    def keygen(self, seed: bytes | None = None) -> KeyPair:
        """Generate a key pair (see :meth:`Sphincs.keygen`)."""
        return self._scheme.keygen(seed=seed)

    def sign(self, message: bytes, keys: KeyPair) -> bytes:
        """Scalar convenience wrapper over :meth:`sign_batch`."""
        return self.sign_batch([message], keys).signatures[0]

    def verify_batch(self, messages: Sequence[bytes],
                     signatures: Sequence[bytes],
                     public_key: bytes) -> list[bool]:
        """Per-message verification verdicts; malformed input yields False."""
        if len(messages) != len(signatures):
            raise BackendError(
                f"verify_batch got {len(messages)} messages but "
                f"{len(signatures)} signatures"
            )
        return self._verify_pairs(messages, signatures, public_key)

    def _verify_pairs(self, messages: Sequence[bytes],
                      signatures: Sequence[bytes],
                      public_key: bytes) -> list[bool]:
        """Verdicts for equally many messages and signatures: the
        reference ``Sphincs.verify`` walk, the second, independent
        implementation the oracle diffs the fast verifier against."""
        return [self._scheme.verify(message, signature, public_key)
                for message, signature in zip(messages, signatures)]

    # ------------------------------------------------------------------
    def _timed_result(self, signatures: list[bytes], started: float,
                      **extra: Any) -> BatchSignResult:
        return BatchSignResult(
            backend=self.name,
            params=self.params.name,
            signatures=signatures,
            elapsed_s=time.perf_counter() - started,
            **extra,
        )
