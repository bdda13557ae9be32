"""Batch/graph execution tests (paper Figure 12's shape claims)."""

import pytest

from repro.errors import GpuModelError
from repro.core.batch import MODES, end_to_end_kops, run_batch
from repro.params import get_params


@pytest.fixture(scope="module")
def rtx4090_module():
    from repro.gpusim.device import get_device

    return get_device("RTX 4090")


@pytest.fixture(scope="module")
def results(rtx4090_module):
    return {
        alias: end_to_end_kops(get_params(alias), rtx4090_module)
        for alias in ("128f", "192f", "256f")
    }


class TestOrdering:
    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_paper_figure12_ordering(self, results, alias):
        """baseline < baseline+graph < streams ~<= graph, as in Fig. 12.
        Streams and graph saturate the machine, so their throughputs are
        within a fraction of a percent (the paper's gap is 2.6%); the
        graph's decisive win is launch latency, tested below."""
        r = results[alias]
        assert r["baseline"].kops < r["baseline-graph"].kops
        assert r["baseline-graph"].kops < r["graph"].kops
        assert r["streams"].kops <= r["graph"].kops * 1.005
        assert r["baseline"].kops < r["streams"].kops
        assert r["graph"].launch_latency_us < r["streams"].launch_latency_us

    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_graph_over_baseline_speedup_band(self, results, alias):
        """Paper: 1.28x / 1.28x / 1.42x; require 1.1x-2.0x."""
        r = results[alias]
        speedup = r["graph"].kops / r["baseline"].kops
        assert 1.1 <= speedup <= 2.0, f"{alias}: {speedup:.2f}x"

    def test_throughput_decreases_with_security_level(self, results):
        for mode in MODES:
            kops = [results[a][mode].kops for a in ("128f", "192f", "256f")]
            assert kops == sorted(kops, reverse=True)


class TestLaunchLatency:
    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_graph_slashes_launch_latency(self, results, alias):
        r = results[alias]
        reduction = r["baseline"].launch_latency_us / r["graph"].launch_latency_us
        assert reduction > 3.0

    def test_baseline_latency_scales_with_layers(self, results):
        """TCAS launches one TREE kernel per hypertree layer, so its
        launch latency tracks d (22/22/17)."""
        l128 = results["128f"]["baseline"].launch_latency_us
        l256 = results["256f"]["baseline"].launch_latency_us
        assert l128 > l256

    def test_graph_latency_independent_of_layers(self, results):
        l128 = results["128f"]["graph"].launch_latency_us
        l256 = results["256f"]["graph"].launch_latency_us
        assert l128 == pytest.approx(l256, rel=0.05)


class TestMechanics:
    def test_unknown_mode_rejected(self, rtx4090_module):
        with pytest.raises(GpuModelError, match="unknown batch mode"):
            run_batch(get_params("128f"), rtx4090_module, "warp-speed")

    def test_indivisible_batches_rejected(self, rtx4090_module):
        with pytest.raises(GpuModelError, match="divide"):
            run_batch(get_params("128f"), rtx4090_module, "graph",
                      messages=1000, batches=7)

    @pytest.mark.parametrize("batches", [0, -1])
    def test_batches_below_one_rejected(self, rtx4090_module, batches):
        """A typed model error, never a ZeroDivisionError from
        ``messages % batches``."""
        with pytest.raises(GpuModelError, match="batches must be >= 1"):
            run_batch(get_params("128f"), rtx4090_module, "graph",
                      batches=batches)

    def test_more_batches_do_not_break_graph_mode(self, rtx4090_module):
        few = run_batch(get_params("128f"), rtx4090_module, "graph",
                        messages=1024, batches=4)
        many = run_batch(get_params("128f"), rtx4090_module, "graph",
                         messages=1024, batches=32)
        # Same work; makespans within 25% of each other.
        assert few.makespan_s == pytest.approx(many.makespan_s, rel=0.25)

    def test_idle_time_present_in_baseline(self, results):
        """The Table II idle-time row: the host-synchronized baseline
        leaves the GPU idle between kernels."""
        for alias in ("128f", "192f", "256f"):
            assert results[alias]["baseline"].gpu_idle_s > 1e-4
            assert results[alias]["graph"].gpu_idle_s < (
                results[alias]["baseline"].gpu_idle_s
            )
