"""The timing engine: how long a kernel launch takes on a device.

The model is deliberately mechanistic.  For each phase of a block's
workload it computes three candidate bounds and takes the governing one:

* **Issue-throughput bound** — scheduler cycles to issue every instruction
  of all block-resident work, scaled by a latency-hiding factor that grows
  with resident warps (this is where occupancy pays off, and why the PTX
  branch's register savings matter on ``TREE_Sign``/256f).
* **Latency bound** — the dependent-hash critical path of a single thread
  (a WOTS+ chain cannot go faster than its data dependences).
* **DRAM bound** — off-chip traffic over the device bandwidth share (this
  is what HybridME's constant-memory placement reduces).

Shared-memory wavefronts (conflict-inflated, from
:mod:`repro.gpusim.memory`) are charged on the LSU path and added to the
compute bound; ``__syncthreads()`` barriers add a fixed cost each (this is
what FORS Fusion reduces).

All constants live in :class:`repro.gpusim.calibration.Calibration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calibration import Calibration, DEFAULT_CALIBRATION
from .compiler import CompiledKernel
from .device import DeviceSpec
from .kernel import KernelWorkload, LaunchConfig, WorkloadPhase
from .occupancy import OccupancyResult, occupancy

__all__ = ["PhaseTiming", "KernelTiming", "TimingEngine"]


@dataclass(frozen=True)
class PhaseTiming:
    """Per-phase cycle accounting for one resident-block group."""

    name: str
    compute_cycles: float
    latency_cycles: float
    memory_cycles: float
    smem_cycles: float
    sync_cycles: float
    governing: str

    @property
    def cycles(self) -> float:
        return (
            max(self.compute_cycles + self.smem_cycles,
                self.latency_cycles, self.memory_cycles)
            + self.sync_cycles
        )


@dataclass(frozen=True)
class KernelTiming:
    """Result of timing one kernel launch."""

    kernel: str
    device: DeviceSpec
    launch: LaunchConfig
    occupancy: OccupancyResult
    waves: int
    time_s: float
    phases: tuple[PhaseTiming, ...]
    achieved_occupancy: float
    compute_throughput_pct: float
    memory_throughput_pct: float

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3


class TimingEngine:
    """Times kernel launches against the analytical model."""

    def __init__(self, calibration: Calibration = DEFAULT_CALIBRATION):
        self.calibration = calibration

    # ------------------------------------------------------------------
    def time_kernel(
        self,
        compiled: CompiledKernel,
        workload: KernelWorkload,
        launch: LaunchConfig,
    ) -> KernelTiming:
        """Execution time (excluding launch overhead) of one launch."""
        device = compiled.device
        launch.validate(device)
        occ = occupancy(
            device, launch.threads_per_block,
            compiled.regs_per_thread, launch.smem_per_block,
        )

        # Blocks resident on one SM, given how many the grid can supply.
        supply = math.ceil(launch.grid_blocks / device.num_sms)
        resident = max(1, min(occ.blocks_per_sm, supply))
        active_warps = resident * occ.warps_per_block
        waves = math.ceil(launch.grid_blocks / (resident * device.num_sms))

        cal = self.calibration
        hide = min(
            1.0,
            active_warps
            / (device.schedulers_per_sm * cal.warps_to_hide_latency_per_scheduler),
        )
        issue_rate = device.schedulers_per_sm * cal.issue_efficiency * hide

        phase_timings = [
            self._time_phase(phase, compiled, launch, device, resident, issue_rate)
            for phase in workload.phases
        ]
        cycles_per_wave = sum(pt.cycles for pt in phase_timings)
        total_cycles = waves * cycles_per_wave
        time_s = total_cycles / device.clock_hz

        return KernelTiming(
            kernel=workload.kernel,
            device=device,
            launch=launch,
            occupancy=occ,
            waves=waves,
            time_s=time_s,
            phases=tuple(phase_timings),
            achieved_occupancy=self._achieved_occupancy(
                occ, resident, phase_timings
            ),
            compute_throughput_pct=self._compute_pct(
                compiled, workload, launch, device, time_s
            ),
            memory_throughput_pct=self._memory_pct(
                workload, launch, device, time_s
            ),
        )

    # ------------------------------------------------------------------
    def _time_phase(
        self,
        phase: WorkloadPhase,
        compiled: CompiledKernel,
        launch: LaunchConfig,
        device: DeviceSpec,
        resident: int,
        issue_rate: float,
    ) -> PhaseTiming:
        cal = self.calibration

        # Throughput view: warp-granular issue work for all resident blocks.
        active_warps_phase = max(1, math.ceil(phase.active_threads / device.warp_size))
        packing = (active_warps_phase * device.warp_size) / max(1, phase.active_threads)
        hash_warp_units = phase.hash_total / device.warp_size * packing
        issue_cycles = hash_warp_units * compiled.issue_cycles_per_hash
        compute = issue_cycles * resident / issue_rate

        # Latency view: one thread's dependent-hash chain.
        latency = phase.hash_depth * compiled.dependent_cycles_per_hash

        # Shared-memory wavefronts through the LSU.
        smem = (
            (phase.smem_load_passes + phase.smem_store_passes)
            * resident
            / cal.smem_wavefronts_per_cycle
        )

        # DRAM: the device bandwidth divided evenly across SMs.
        bytes_per_sm_cycle = (
            device.dram_bandwidth_gbps * 1e9 / device.clock_hz / device.num_sms
        )
        memory = phase.global_bytes * resident / bytes_per_sm_cycle
        if phase.global_bytes > 0:
            # Exposed latency when occupancy is too thin to hide DRAM trips.
            warps = resident * max(1, launch.threads_per_block // device.warp_size)
            exposure = max(
                0.0,
                1.0
                - warps
                / (device.schedulers_per_sm * cal.warps_to_hide_latency_per_scheduler),
            )
            memory += exposure * cal.dram_latency_cycles

        sync = phase.syncs * cal.sync_cycles

        candidates = {
            "compute": compute + smem,
            "latency": latency,
            "memory": memory,
        }
        governing = max(candidates, key=candidates.get)
        return PhaseTiming(
            name=phase.name,
            compute_cycles=compute,
            latency_cycles=latency,
            memory_cycles=memory,
            smem_cycles=smem,
            sync_cycles=sync,
            governing=governing,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _achieved_occupancy(
        occ: OccupancyResult, resident: int, phases: list[PhaseTiming]
    ) -> float:
        """Theoretical occupancy derated by the issue-busy fraction.

        When phases are latency- or sync-bound the resident warps sit
        stalled, which is what Nsight's achieved ("warp") occupancy
        captures relative to the theoretical bound.
        """
        total = sum(pt.cycles for pt in phases)
        if total <= 0:
            return 0.0
        busy = sum(pt.compute_cycles + pt.smem_cycles for pt in phases)
        fraction = min(1.0, busy / total)
        theoretical = (resident * occ.warps_per_block) / occ.max_warps
        return theoretical * max(fraction, 0.05)

    def _compute_pct(
        self,
        compiled: CompiledKernel,
        workload: KernelWorkload,
        launch: LaunchConfig,
        device: DeviceSpec,
        time_s: float,
    ) -> float:
        if time_s <= 0:
            return 0.0
        total_issue = sum(
            phase.hash_total / device.warp_size * compiled.issue_cycles_per_hash
            for phase in workload.phases
        ) * launch.grid_blocks
        peak = time_s * device.clock_hz * device.schedulers_per_sm * device.num_sms
        return min(100.0, 100.0 * total_issue / peak)

    @staticmethod
    def _memory_pct(
        workload: KernelWorkload,
        launch: LaunchConfig,
        device: DeviceSpec,
        time_s: float,
    ) -> float:
        if time_s <= 0:
            return 0.0
        total_bytes = workload.total_global_bytes() * launch.grid_blocks
        peak = time_s * device.dram_bandwidth_gbps * 1e9
        return min(100.0, 100.0 * total_bytes / peak)
