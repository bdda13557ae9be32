"""Device catalog tests against paper Table VII and public specs."""

import pytest

from repro.errors import GpuModelError
from repro.gpusim.device import DEVICES, get_device


class TestCatalog:
    def test_all_six_architectures_present(self):
        archs = {spec.architecture for spec in DEVICES.values()}
        assert archs == {"Pascal", "Volta", "Turing", "Ampere", "Ada", "Hopper"}

    @pytest.mark.parametrize(
        "name, sm_version, clock",
        [
            ("GTX 1070", 61, 1506),
            ("V100", 70, 1230),
            ("RTX 2080 Ti", 75, 1350),
            ("A100", 80, 1095),
            ("RTX 4090", 89, 2235),
            ("H100", 90, 1035),
        ],
    )
    def test_table7_sm_versions_and_clocks(self, name, sm_version, clock):
        spec = get_device(name)
        assert spec.sm_version == sm_version
        assert spec.base_clock_mhz == clock

    def test_paper_quoted_properties(self):
        """Figures quoted in the paper's §IV-F discussion."""
        assert get_device("GTX 1070").cuda_cores == 1920
        assert get_device("H100").shared_mem_per_sm == 228 * 1024
        assert get_device("RTX 4090").cuda_cores == 16384
        assert get_device("H100").cuda_cores == 16896
        assert get_device("RTX 4090").shared_mem_per_block_static == 48 * 1024

    def test_aliases(self):
        assert get_device("hopper").name == "H100"
        assert get_device("rtx4090") is get_device("RTX 4090")
        assert get_device("2080ti").architecture == "Turing"

    def test_unknown_device(self):
        with pytest.raises(GpuModelError, match="unknown device"):
            get_device("RTX 9090")


class TestDerivedProperties:
    def test_max_warps(self, rtx4090):
        assert rtx4090.max_warps_per_sm == 48  # Ada: 1536 threads / 32

    def test_query_mirrors_cuda_properties(self, rtx4090):
        props = rtx4090.query()
        assert props["multiProcessorCount"] == 128
        assert props["sharedMemPerBlock"] == 48 * 1024
        assert props["sharedMemPerBlockOptin"] == 99 * 1024
        assert props["clockRate"] == 2_235_000

    def test_invariants_hold_for_all_devices(self, any_device):
        d = any_device
        assert d.max_threads_per_block <= d.max_threads_per_sm
        assert d.shared_mem_per_block_static <= d.shared_mem_per_sm
        assert d.shared_mem_per_block_optin <= d.shared_mem_per_sm
        assert d.warp_size == 32
        assert d.cuda_cores % d.num_sms == 0
