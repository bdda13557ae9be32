"""The unified batch-signing runtime.

This package is the scaling seam of the reproduction: every execution
engine — the scalar reference path, the vectorized CPU path, the modeled
GPU — sits behind one :class:`SigningBackend` interface with first-class
batch APIs, and :class:`BatchScheduler` provides the service layer that
queues messages, routes them to backends, and accounts throughput.

Adding a new device or strategy (sharded, async, a real GPU) means
registering one new backend — not forking the signer.

>>> from repro import runtime
>>> backend = runtime.get_backend("vectorized", "128f", deterministic=True)
>>> keys = backend.keygen(seed=bytes(48))
>>> result = backend.sign_batch([b"a", b"b"], keys)
>>> backend.verify_batch([b"a", b"b"], result.signatures, keys.public)
[True, True]
"""

from .backend import BatchSignResult, SigningBackend
from .pool import WorkerPool
from .registry import available_backends, get_backend, register_backend
from .scheduler import BatchScheduler, BatchStats

__all__ = [
    "BatchSignResult",
    "SigningBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "BatchScheduler",
    "BatchStats",
    "WorkerPool",
]
