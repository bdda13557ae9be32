"""The modeled-GPU backend: real signatures + analytical GPU timings.

This backend unifies the repository's two halves for the first time.  The
functional layer signs the batch (via the vectorized CPU path, so outputs
stay byte-identical to the reference), while ``repro.core.batch.run_batch``
models the same batch on a simulated device under a chosen execution
strategy (HERO-Sign task graphs by default).  One ``sign_batch`` call
therefore returns verifiable signatures *and* the throughput the paper's
GPU architecture would achieve on that workload — ``BatchSignResult.modeled``
carries the full ``BatchResult`` (makespan, launch latency, KOPS).
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core.batch import MODES, run_batch
from ..errors import BackendError
from ..gpusim.device import get_device
from ..params import SphincsParams
from ..sphincs.signer import KeyPair
from .backend import BatchSignResult, SigningBackend
from .vectorized import VectorizedBackend

__all__ = ["ModeledGpuBackend"]

#: Concurrent GPU batches to model; clipped to divide the message count
#: (``run_batch`` requires an even split).
_GPU_BATCHES = 8


class ModeledGpuBackend(SigningBackend):
    """Sign on the CPU, model the batch on a simulated GPU.

    Parameters
    ----------
    device:
        A name from the ``repro.gpusim`` device catalog.
    mode:
        One of ``repro.core.batch.MODES`` (default ``"graph"`` —
        HERO-Sign's CUDA-graph strategy).
    """

    name = "modeled-gpu"

    def __init__(self, params: SphincsParams | str,
                 deterministic: bool = False, device: str = "RTX 4090",
                 mode: str = "graph"):
        super().__init__(params, deterministic=deterministic)
        if mode not in MODES:
            raise BackendError(
                f"unknown GPU execution mode {mode!r}; known: {MODES}"
            )
        self.device = get_device(device)
        self.mode = mode
        self._functional = VectorizedBackend(
            self.params, deterministic=deterministic
        )

    def keygen(self, seed: bytes | None = None) -> KeyPair:
        return self._functional.keygen(seed=seed)

    def hash_context(self):
        """Delegates to the vectorized engine — which is not tappable
        (midstate templates), so this raises its explanatory error."""
        return self._functional.hash_context()

    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        started = time.perf_counter()
        if not messages:
            return self._timed_result([], started)
        functional = self._functional.sign_batch(messages, keys)
        t_model = time.perf_counter()
        # Largest divisor of the count not exceeding _GPU_BATCHES, so the
        # modeled concurrency stays near the configured level instead of
        # collapsing for coprime counts (run_batch needs an even split).
        count = len(messages)
        batches = max(b for b in range(1, min(count, _GPU_BATCHES) + 1)
                      if count % b == 0)
        modeled = run_batch(
            self.params, self.device, self.mode,
            messages=len(messages), batches=batches,
        )
        stage = dict(functional.stage_seconds)
        stage["gpu_model"] = time.perf_counter() - t_model
        return self._timed_result(
            list(functional.signatures), started,
            stage_seconds=stage,
            cache_stats=functional.cache_stats,
            modeled=modeled,
        )
