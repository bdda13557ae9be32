"""Timeline tests: ordering, dependences, water-filling, conservation."""

import pytest

from repro.errors import GpuModelError
from repro.gpusim.calibration import Calibration
from repro.gpusim.stream import Timeline, _water_fill


CAL = Calibration()


def _timeline(rtx4090):
    return Timeline(rtx4090, CAL)


class TestWaterFill:
    def test_single_full_demand(self):
        assert _water_fill([1.0]) == [1.0]

    def test_two_full_demands_split(self):
        assert _water_fill([1.0, 1.0]) == [0.5, 0.5]

    def test_small_demands_all_satisfied(self):
        assert _water_fill([0.3, 0.2]) == [0.3, 0.2]

    def test_mixed_demands(self):
        # 0.2 is satisfied; the remaining 0.8 goes to the big kernel.
        rates = _water_fill([1.0, 0.2])
        assert rates[1] == pytest.approx(0.2)
        assert rates[0] == pytest.approx(0.8)

    def test_never_exceeds_capacity(self):
        for demands in ([1.0] * 5, [0.7, 0.7, 0.7], [0.1] * 3):
            assert sum(_water_fill(demands)) <= 1.0 + 1e-9


class TestSequentialStream:
    def test_stream_serializes(self, rtx4090):
        tl = _timeline(rtx4090)
        s = tl.stream("s")
        a = tl.launch(s, "a", 1e-3)
        b = tl.launch(s, "b", 1e-3)
        result = tl.run()
        assert a.end_time <= b.start_time
        assert result.makespan_s == pytest.approx(2e-3, rel=0.05)

    def test_sync_gap_creates_idle(self, rtx4090):
        tl = _timeline(rtx4090)
        s = tl.stream("s")
        tl.launch(s, "a", 1e-3)
        tl.launch(s, "b", 1e-3, start_after_s=5e-4)
        result = tl.run()
        assert result.gpu_idle_s >= 4e-4


class TestConcurrency:
    def test_independent_streams_overlap(self, rtx4090):
        tl = _timeline(rtx4090)
        tl.launch(tl.stream("a"), "a", 1e-3, demand=0.5)
        tl.launch(tl.stream("b"), "b", 1e-3, demand=0.5)
        result = tl.run()
        # Both fit simultaneously: makespan ~ max, not sum.
        assert result.makespan_s < 1.5e-3

    def test_oversubscription_conserves_machine_seconds(self, rtx4090):
        """Two full-demand kernels overlap but cannot beat serial total."""
        tl = _timeline(rtx4090)
        tl.launch(tl.stream("a"), "a", 1e-3, demand=1.0)
        tl.launch(tl.stream("b"), "b", 1e-3, demand=1.0)
        result = tl.run()
        assert result.makespan_s == pytest.approx(2e-3, rel=0.05)

    def test_dependences_respected(self, rtx4090):
        tl = _timeline(rtx4090)
        a = tl.launch(tl.stream("a"), "a", 1e-3)
        b = tl.launch(tl.stream("b"), "b", 1e-3)
        c = tl.launch(tl.stream("c"), "c", 1e-4, deps=(a, b))
        tl.run()
        assert c.start_time >= max(a.end_time, b.end_time)

    def test_partial_demand_kernel_alone_runs_full_speed(self, rtx4090):
        """The water-fill normalization: demand < 1 does not stretch a
        kernel running alone."""
        tl = _timeline(rtx4090)
        rec = tl.launch(tl.stream("a"), "a", 2e-3, demand=0.25)
        tl.run()
        assert rec.end_time - rec.start_time == pytest.approx(2e-3, rel=0.01)


class TestAccounting:
    def test_launch_overhead_accumulates(self, rtx4090):
        tl = _timeline(rtx4090)
        s = tl.stream("s")
        for _ in range(10):
            tl.launch(s, "k", 1e-4)
        result = tl.run()
        expected = 10 * CAL.kernel_launch_us * 1e-6
        assert result.launch_overhead_s == pytest.approx(expected)

    def test_launch_latency_includes_queueing(self, rtx4090):
        tl = _timeline(rtx4090)
        s = tl.stream("s")
        tl.launch(s, "a", 1e-3)
        b = tl.launch(s, "b", 1e-4)
        tl.run()
        # b was submitted almost immediately but started after a finished.
        assert b.launch_latency_s > 0.9e-3

    def test_zero_work_allowed(self, rtx4090):
        tl = _timeline(rtx4090)
        tl.launch(tl.stream("s"), "empty", 0.0)
        result = tl.run()
        assert result.makespan_s >= 0


class TestValidation:
    def test_bad_demand_rejected(self, rtx4090):
        tl = _timeline(rtx4090)
        with pytest.raises(GpuModelError):
            tl.launch(tl.stream("s"), "k", 1e-3, demand=0.0)
        with pytest.raises(GpuModelError):
            tl.launch(tl.stream("s"), "k", 1e-3, demand=1.5)

    def test_negative_work_rejected(self, rtx4090):
        tl = _timeline(rtx4090)
        with pytest.raises(GpuModelError):
            tl.launch(tl.stream("s"), "k", -1.0)
