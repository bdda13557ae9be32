"""GPU device catalog — paper Table VII plus the micro-architectural limits
the occupancy and timing models need.

Values are the public NVIDIA specifications for each part.  The paper
evaluates RTX 4090 in depth and extends to GTX 1070 (Pascal), V100 (Volta),
RTX 2080 Ti (Turing), A100 (Ampere) and H100 (Hopper); the catalog covers
all six.  ``query`` mirrors ``cudaGetDeviceProperties`` for the Tree Tuning
algorithm's shared-memory probe.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GpuModelError

__all__ = ["DeviceSpec", "DEVICES", "get_device"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static properties of one GPU model.

    Attributes mirror ``cudaDeviceProp`` fields where one exists.
    """

    name: str
    architecture: str
    sm_version: int            # compute capability, e.g. 89 for Ada
    num_sms: int
    cuda_cores: int
    base_clock_mhz: int        # paper Table VII uses base clocks
    max_threads_per_block: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    registers_per_sm: int      # 32-bit registers
    max_registers_per_thread: int
    shared_mem_per_sm: int     # bytes
    shared_mem_per_block_static: int   # classic 48 KB static limit
    shared_mem_per_block_optin: int    # dynamic (cudaFuncAttributeMaxDynamicSharedMemorySize)
    shared_mem_banks: int
    warp_size: int
    schedulers_per_sm: int     # warp schedulers (issue slots per cycle)
    dram_bandwidth_gbps: float
    l2_cache_bytes: int
    tdp_watts: float

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @property
    def clock_hz(self) -> float:
        return self.base_clock_mhz * 1e6

    def query(self) -> dict[str, int]:
        """A ``cudaGetDeviceProperties``-style dict (Tree Tuning's probe)."""
        return {
            "multiProcessorCount": self.num_sms,
            "maxThreadsPerBlock": self.max_threads_per_block,
            "maxThreadsPerMultiProcessor": self.max_threads_per_sm,
            "regsPerMultiprocessor": self.registers_per_sm,
            "sharedMemPerBlock": self.shared_mem_per_block_static,
            "sharedMemPerBlockOptin": self.shared_mem_per_block_optin,
            "sharedMemPerMultiprocessor": self.shared_mem_per_sm,
            "warpSize": self.warp_size,
            "clockRate": self.base_clock_mhz * 1000,  # kHz, as CUDA reports
        }


def _catalog() -> dict[str, DeviceSpec]:
    specs = [
        DeviceSpec(
            name="GTX 1070", architecture="Pascal", sm_version=61,
            num_sms=15, cuda_cores=1920, base_clock_mhz=1506,
            max_threads_per_block=1024, max_threads_per_sm=2048,
            max_blocks_per_sm=32, registers_per_sm=65536,
            max_registers_per_thread=255,
            shared_mem_per_sm=96 * 1024,
            shared_mem_per_block_static=48 * 1024,
            shared_mem_per_block_optin=48 * 1024,
            shared_mem_banks=32, warp_size=32, schedulers_per_sm=4,
            dram_bandwidth_gbps=256.0, l2_cache_bytes=2 * 1024 * 1024,
            tdp_watts=150.0,
        ),
        DeviceSpec(
            name="V100", architecture="Volta", sm_version=70,
            num_sms=80, cuda_cores=5120, base_clock_mhz=1230,
            max_threads_per_block=1024, max_threads_per_sm=2048,
            max_blocks_per_sm=32, registers_per_sm=65536,
            max_registers_per_thread=255,
            shared_mem_per_sm=96 * 1024,
            shared_mem_per_block_static=48 * 1024,
            shared_mem_per_block_optin=96 * 1024,
            shared_mem_banks=32, warp_size=32, schedulers_per_sm=4,
            dram_bandwidth_gbps=900.0, l2_cache_bytes=6 * 1024 * 1024,
            tdp_watts=300.0,
        ),
        DeviceSpec(
            name="RTX 2080 Ti", architecture="Turing", sm_version=75,
            num_sms=68, cuda_cores=4352, base_clock_mhz=1350,
            max_threads_per_block=1024, max_threads_per_sm=1024,
            max_blocks_per_sm=16, registers_per_sm=65536,
            max_registers_per_thread=255,
            shared_mem_per_sm=64 * 1024,
            shared_mem_per_block_static=48 * 1024,
            shared_mem_per_block_optin=64 * 1024,
            shared_mem_banks=32, warp_size=32, schedulers_per_sm=4,
            dram_bandwidth_gbps=616.0, l2_cache_bytes=5_767_168,
            tdp_watts=250.0,
        ),
        DeviceSpec(
            name="A100", architecture="Ampere", sm_version=80,
            num_sms=108, cuda_cores=6912, base_clock_mhz=1095,
            max_threads_per_block=1024, max_threads_per_sm=2048,
            max_blocks_per_sm=32, registers_per_sm=65536,
            max_registers_per_thread=255,
            shared_mem_per_sm=164 * 1024,
            shared_mem_per_block_static=48 * 1024,
            shared_mem_per_block_optin=163 * 1024,
            shared_mem_banks=32, warp_size=32, schedulers_per_sm=4,
            dram_bandwidth_gbps=1555.0, l2_cache_bytes=40 * 1024 * 1024,
            tdp_watts=400.0,
        ),
        DeviceSpec(
            name="RTX 4090", architecture="Ada", sm_version=89,
            num_sms=128, cuda_cores=16384, base_clock_mhz=2235,
            max_threads_per_block=1024, max_threads_per_sm=1536,
            max_blocks_per_sm=24, registers_per_sm=65536,
            max_registers_per_thread=255,
            shared_mem_per_sm=100 * 1024,
            shared_mem_per_block_static=48 * 1024,
            shared_mem_per_block_optin=99 * 1024,
            shared_mem_banks=32, warp_size=32, schedulers_per_sm=4,
            dram_bandwidth_gbps=1008.0, l2_cache_bytes=72 * 1024 * 1024,
            tdp_watts=450.0,
        ),
        DeviceSpec(
            name="H100", architecture="Hopper", sm_version=90,
            num_sms=132, cuda_cores=16896, base_clock_mhz=1035,
            max_threads_per_block=1024, max_threads_per_sm=2048,
            max_blocks_per_sm=32, registers_per_sm=65536,
            max_registers_per_thread=255,
            shared_mem_per_sm=228 * 1024,
            shared_mem_per_block_static=48 * 1024,
            shared_mem_per_block_optin=227 * 1024,
            shared_mem_banks=32, warp_size=32, schedulers_per_sm=4,
            dram_bandwidth_gbps=3350.0, l2_cache_bytes=50 * 1024 * 1024,
            tdp_watts=700.0,
        ),
    ]
    return {spec.name: spec for spec in specs}


DEVICES: dict[str, DeviceSpec] = _catalog()

_ALIASES = {
    "rtx4090": "RTX 4090",
    "4090": "RTX 4090",
    "a100": "A100",
    "h100": "H100",
    "v100": "V100",
    "gtx1070": "GTX 1070",
    "1070": "GTX 1070",
    "2080ti": "RTX 2080 Ti",
    "rtx2080ti": "RTX 2080 Ti",
    "pascal": "GTX 1070",
    "volta": "V100",
    "turing": "RTX 2080 Ti",
    "ampere": "A100",
    "ada": "RTX 4090",
    "hopper": "H100",
}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by name, architecture, or common alias.

    >>> get_device("RTX 4090").num_sms
    128
    >>> get_device("hopper").architecture
    'Hopper'
    """
    if name in DEVICES:
        return DEVICES[name]
    key = name.lower().replace(" ", "").replace("-", "")
    canonical = _ALIASES.get(key)
    if canonical is None:
        known = ", ".join(sorted(DEVICES))
        raise GpuModelError(f"unknown device {name!r}; known: {known}")
    return DEVICES[canonical]
