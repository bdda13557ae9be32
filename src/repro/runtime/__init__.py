"""The unified batch-signing runtime.

Two signers sit behind one :class:`SigningBackend` interface with
first-class batch APIs: ``scalar``, the reference walk, and
``vectorized``, the signing plan every serving front runs (in process or
on a :class:`WorkerPool`).  :class:`BatchScheduler` signs the message
lists it is handed, in batches, on either, and accounts throughput.  The
paper's GPU is modeled apart from signing, by
:func:`repro.core.batch.run_batch`.

>>> from repro import runtime
>>> backend = runtime.get_backend("vectorized", "128f", deterministic=True)
>>> keys = backend.keygen(seed=bytes(48))
>>> result = backend.sign_batch([b"a", b"b"], keys)
>>> backend.verify_batch([b"a", b"b"], result.signatures, keys.public)
[True, True]
"""

from .backend import BatchSignResult, SigningBackend
from .pool import WorkerPool
from .registry import get_backend
from .scheduler import BatchScheduler, BatchStats

__all__ = [
    "BatchSignResult",
    "SigningBackend",
    "get_backend",
    "BatchScheduler",
    "BatchStats",
    "WorkerPool",
]
