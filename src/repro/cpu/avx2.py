"""Analytical AVX2 CPU model for SPHINCS+ signing (paper Table X).

SPHINCS+ signing is hash-bound, so a CPU model needs exactly two things:
the total hash count per signature — which the parameter layer computes and
the functional layer cross-checks — and the machine's 8-way SHA-256 rate.

Calibration: one constant (`single_thread_hashes_per_s`) is fitted to the
paper's 128f single-thread figure (0.143 KOPS).  The 192f and 256f
single-thread predictions then follow purely from the hash-count ratios —
and land within 3% of the paper's 0.087 and 0.044 KOPS, which independently
validates the hash accounting used by the GPU workload builders.

Multi-thread scaling uses a measured-shape exponent (memory bandwidth,
turbo and hyper-thread effects keep 16 threads well below 16x; the paper's
ratio is 5.79x).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import SphincsParams

__all__ = ["Avx2Model"]


@dataclass(frozen=True)
class Avx2Model:
    """Throughput model for an AVX2 (8-lane SHA-256) implementation.

    Attributes
    ----------
    single_thread_hashes_per_s:
        Effective hash invocations per second for one thread driving all
        8 SIMD lanes (calibrated to paper Table X, 128f).
    thread_scaling_exponent:
        ``throughput(T) = throughput(1) * T ** exponent``; 0.633 reproduces
        the paper's 16-thread scaling of ~5.8x.
    """

    single_thread_hashes_per_s: float = 16.0e6
    thread_scaling_exponent: float = 0.633

    def hashes_per_signature(self, params: SphincsParams) -> int:
        return params.total_sign_hashes()

    def kops(self, params: SphincsParams, threads: int = 1) -> float:
        """Signing throughput in KOPS for *threads* CPU threads."""
        if threads < 1:
            raise ValueError(f"thread count must be positive, got {threads}")
        rate = self.single_thread_hashes_per_s * threads ** self.thread_scaling_exponent
        return rate / self.hashes_per_signature(params) / 1e3
