"""Bank-padding rule tests (paper Equations 2 and 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SharedMemoryError
from repro.core.padding import padding_rule
from repro.gpusim.memory import Layout, count_reduction_conflicts


class TestPaperSolutions:
    def test_16_byte_rule(self):
        """Eq. 2: 128 = 4 banks x 4 B x 8 threads."""
        rule = padding_rule(16)
        assert rule.banks_per_thread == 4
        assert rule.thread_interval == 8
        assert rule.rows == 1
        assert rule.pad_period == 128

    def test_32_byte_rule(self):
        """Eq. 2: 128 = 8 banks x 4 B x 4 threads."""
        rule = padding_rule(32)
        assert rule.banks_per_thread == 8
        assert rule.thread_interval == 4
        assert rule.pad_period == 128

    def test_24_byte_rule_needs_three_rows(self):
        """Eq. 3: 128 x 3 = 6 banks x 4 B x 16 threads (paper Figure 9:
        a padding bank after the 16th thread)."""
        rule = padding_rule(24)
        assert rule.rows == 3
        assert rule.banks_per_thread == 6
        assert rule.thread_interval == 16
        assert rule.pad_period == 384

    def test_equation_identity(self):
        for width in (8, 12, 16, 20, 24, 32):
            rule = padding_rule(width)
            assert 128 * rule.rows == rule.banks_per_thread * 4 * rule.thread_interval


class TestEffectiveness:
    @pytest.mark.parametrize("width", [16, 24, 32])
    @pytest.mark.parametrize("leaves", [64, 256, 512])
    def test_zero_conflicts_in_reduction(self, width, leaves):
        """Criterion (1) of §III-E: effective during the Reduction process,
        for every security level's access width."""
        rule = padding_rule(width)
        report = count_reduction_conflicts(leaves, width, rule.pad_period)
        assert report.total_conflicts == 0

    def test_overhead_is_small(self):
        rule = padding_rule(16)
        # One 4-byte bank per 128 data bytes ~ 3% overhead.
        assert rule.overhead_bytes(48 * 1024) <= 48 * 1024 * 0.04

    def test_layout_helper(self):
        rule = padding_rule(16)
        layout = Layout(rule.access_bytes, rule.pad_period)
        assert layout.pad_period == 128
        assert layout.address(8) == 132


class TestValidation:
    def test_bad_width_rejected(self):
        with pytest.raises(SharedMemoryError):
            padding_rule(10)
        with pytest.raises(SharedMemoryError):
            padding_rule(0)

    def test_unsolvable_width_raises(self):
        # 36 bytes: 128R % 36 == 0 needs R = 9, past the 8 rows searched.
        with pytest.raises(SharedMemoryError, match="no padding rule"):
            padding_rule(36)


class TestProperty:
    @given(width=st.sampled_from([8, 16, 24, 32]), leaf_log=st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_rule_always_eliminates_reduction_conflicts(self, width, leaf_log):
        rule = padding_rule(width)
        report = count_reduction_conflicts(1 << leaf_log, width, rule.pad_period)
        assert report.total_conflicts == 0
