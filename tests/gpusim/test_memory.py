"""Shared-memory bank-model tests: the documented conflict rule, broadcast,
and the reduction traces behind paper Table VI."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SharedMemoryError
from repro.gpusim.memory import (
    AccessPattern,
    Layout,
    SharedMemoryBankModel,
    count_reduction_conflicts,
    reduction_trace,
)


@pytest.fixture(scope="module")
def model():
    return SharedMemoryBankModel()


class TestWavefrontRule:
    def test_contiguous_4b_is_conflict_free(self, model):
        pattern = AccessPattern({t: (4 * t, 4) for t in range(32)})
        assert model.warp_wavefronts(pattern) == (1, 1)

    def test_same_word_broadcasts(self, model):
        pattern = AccessPattern({t: (0, 4) for t in range(32)})
        assert model.warp_wavefronts(pattern) == (1, 1)

    def test_stride_two_words_is_two_way(self, model):
        # Threads hit words 0,2,4,... -> banks repeat after 16 threads.
        pattern = AccessPattern({t: (8 * t, 4) for t in range(32)})
        actual, ideal = model.warp_wavefronts(pattern)
        assert (actual, ideal) == (2, 1)

    def test_stride_32_words_is_32_way(self, model):
        pattern = AccessPattern({t: (128 * t, 4) for t in range(32)})
        actual, _ = model.warp_wavefronts(pattern)
        assert actual == 32

    def test_16_byte_access_has_four_ideal_wavefronts(self, model):
        """A 16-byte per-thread access needs at least 4 word phases.  The
        model applies the per-phase warp-wide rule, which is conservative
        for *contiguous* vector accesses (real hardware splits them into
        conflict-free quarter-warp transactions); the kernels feed it only
        the strided reduction patterns, where the rule is accurate."""
        pattern = AccessPattern({t: (16 * t, 16) for t in range(32)})
        actual, ideal = model.warp_wavefronts(pattern)
        assert ideal == 4
        assert actual >= ideal

    def test_16_byte_padded_layout_is_conflict_free(self, model):
        """With the Eq. 2 padding, even the warp-wide rule reports zero
        conflicts for the 16-byte layout."""
        layout = Layout(16, pad_period=128)
        pattern = AccessPattern({t: (layout.address(t), 16) for t in range(32)})
        actual, ideal = model.warp_wavefronts(pattern)
        assert actual == ideal == 4

    def test_empty_pattern(self, model):
        assert model.warp_wavefronts(AccessPattern({})) == (0, 0)

    def test_partial_warp(self, model):
        pattern = AccessPattern({t: (4 * t, 4) for t in range(7)})
        assert model.warp_wavefronts(pattern) == (1, 1)


class TestValidation:
    def test_misaligned_address_rejected(self):
        with pytest.raises(SharedMemoryError):
            AccessPattern({0: (2, 4)})

    def test_bad_width_rejected(self):
        with pytest.raises(SharedMemoryError):
            AccessPattern({0: (0, 6)})

    def test_bad_lane_rejected(self):
        with pytest.raises(SharedMemoryError):
            AccessPattern({32: (0, 4)})

    def test_bad_layout_rejected(self):
        with pytest.raises(SharedMemoryError):
            Layout(node_bytes=10)
        with pytest.raises(SharedMemoryError):
            Layout(node_bytes=16, pad_period=5)


class TestLayout:
    def test_packed_addresses(self):
        layout = Layout(16)
        assert [layout.address(i) for i in range(4)] == [0, 16, 32, 48]

    def test_padded_addresses_skip_a_bank(self):
        layout = Layout(16, pad_period=128)
        assert layout.address(7) == 112
        assert layout.address(8) == 132  # one 4-byte pad inserted


class TestReductionConflicts:
    """The paper's Table VI shape: packed layouts conflict heavily during
    the Merkle reduction; the Eq. 2/3 padded layouts are conflict-free."""

    @pytest.mark.parametrize(
        "node_bytes, pad_period",
        [(16, 128), (24, 384), (32, 128)],
    )
    def test_padding_eliminates_all_conflicts(self, node_bytes, pad_period):
        packed = count_reduction_conflicts(64, node_bytes, 0)
        padded = count_reduction_conflicts(64, node_bytes, pad_period)
        assert packed.total_conflicts > 0
        assert padded.load_conflicts == 0
        assert padded.store_conflicts == 0

    def test_conflicts_grow_with_access_width(self):
        c16 = count_reduction_conflicts(64, 16, 0).total_conflicts
        c32 = count_reduction_conflicts(64, 32, 0).total_conflicts
        assert c32 > c16

    def test_repeats_scale_linearly(self):
        one = count_reduction_conflicts(64, 16, 0, repeats=1)
        ten = count_reduction_conflicts(64, 16, 0, repeats=10)
        assert ten.load_conflicts == 10 * one.load_conflicts
        assert ten.store_conflicts == 10 * one.store_conflicts

    def test_trace_shape(self):
        trace = list(reduction_trace(8, Layout(16)))
        # 3 levels; each level has one warp group of (2 loads + 1 store).
        assert len(trace) == 9
        kinds = [p.kind for p in trace]
        assert kinds == ["load", "load", "store"] * 3

    def test_two_tree_trace_shape(self):
        """Two 8-leaf trees side by side: thread t owns global parent t,
        its children sit tree-major in the level below."""
        trace = list(reduction_trace(8, Layout(16), trees=2))
        assert [p.kind for p in trace] == ["load", "load", "store"] * 3
        left, right, store = trace[:3]  # bottom level: 2 x 4 parents
        assert left.accesses == {t: (32 * t, 16) for t in range(8)}
        assert right.accesses == {t: (32 * t + 16, 16) for t in range(8)}
        assert store.accesses == {t: (16 * t, 16) for t in range(8)}
        # Level 2: 2 x 2 parents; tree 1's children start at node 4.
        assert trace[3].accesses == {0: (0, 16), 1: (32, 16),
                                     2: (64, 16), 3: (96, 16)}
        assert trace[-1].accesses == {0: (0, 16), 1: (16, 16)}

    def test_trace_rejects_non_power_of_two(self):
        with pytest.raises(SharedMemoryError):
            list(reduction_trace(12, Layout(16)))
        with pytest.raises(SharedMemoryError):
            list(reduction_trace(8, Layout(16), trees=0))

    @given(
        leaf_log=st.integers(2, 7),
        node_bytes=st.sampled_from([16, 24, 32]),
    )
    @settings(max_examples=30, deadline=None)
    def test_padding_never_increases_conflicts(self, leaf_log, node_bytes):
        """Property: for any tree size and supported width, the Eq. 2/3
        pad period gives no more conflicts than the packed layout."""
        from repro.core.padding import padding_rule

        period = padding_rule(node_bytes).pad_period
        packed = count_reduction_conflicts(1 << leaf_log, node_bytes, 0)
        padded = count_reduction_conflicts(1 << leaf_log, node_bytes, period)
        assert padded.total_conflicts <= packed.total_conflicts
        assert padded.total_conflicts == 0
