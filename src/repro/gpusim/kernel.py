"""Kernel workload descriptors and launch configurations.

A :class:`KernelWorkload` describes what one *block* of a kernel does, as a
sequence of :class:`WorkloadPhase` items — e.g. for ``FORS_Sign``: leaf
generation, then one reduction phase per tree level, each ending in a
barrier.  The descriptors are built by :mod:`repro.core.kernels` from the
SPHINCS+ parameter geometry, so the numbers the timing engine consumes are
derived from the same structure the functional layer executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LaunchConfigError
from .device import DeviceSpec

__all__ = ["WorkloadPhase", "KernelWorkload", "LaunchConfig"]


@dataclass(frozen=True)
class WorkloadPhase:
    """One phase of per-block work.

    Attributes
    ----------
    name:
        Label for reports (e.g. ``"leaves"``, ``"reduce_h3"``).
    hash_total:
        Total hash invocations performed by the block in this phase.
    hash_depth:
        Dependent hash invocations on the critical thread path (a thread
        computing a WOTS+ chain of length 15 has depth 15 even though the
        block performs thousands of hashes in parallel).
    active_threads:
        Threads doing useful work (lane efficiency = active / launched).
    syncs:
        ``__syncthreads()`` barriers executed in this phase.
    smem_load_passes / smem_store_passes:
        Serialized shared-memory wavefronts (conflict-inflated transaction
        counts) per block, from :mod:`repro.gpusim.memory`.
    global_bytes:
        Off-chip traffic per block (bytes).
    constant_bytes:
        Constant-memory traffic per block (bytes; broadcast, nearly free).
    """

    name: str
    hash_total: float
    hash_depth: float
    active_threads: int
    syncs: int = 0
    smem_load_passes: float = 0.0
    smem_store_passes: float = 0.0
    global_bytes: float = 0.0
    constant_bytes: float = 0.0


@dataclass
class KernelWorkload:
    """Per-block workload of one kernel."""

    kernel: str
    phases: list[WorkloadPhase] = field(default_factory=list)

    def total_global_bytes(self) -> float:
        return sum(phase.global_bytes for phase in self.phases)


@dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry of one kernel launch."""

    grid_blocks: int
    threads_per_block: int
    smem_per_block: int = 0

    def validate(self, device: DeviceSpec) -> None:
        if self.grid_blocks < 1:
            raise LaunchConfigError(f"grid of {self.grid_blocks} blocks")
        if not 1 <= self.threads_per_block <= device.max_threads_per_block:
            raise LaunchConfigError(
                f"{self.threads_per_block} threads/block outside [1, "
                f"{device.max_threads_per_block}] on {device.name}"
            )
        if self.smem_per_block > device.shared_mem_per_block_optin:
            raise LaunchConfigError(
                f"{self.smem_per_block} B/block exceeds opt-in shared memory "
                f"limit {device.shared_mem_per_block_optin} B on {device.name}"
            )
