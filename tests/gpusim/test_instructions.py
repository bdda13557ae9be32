"""Instruction-timing table and mix-algebra tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.instructions import (
    IADD3,
    InstructionMix,
    InstructionTimings,
    LOP3,
    MISC,
    PRMT,
    SHF,
    SHL,
)


class TestTimingsTable:
    def test_all_classes_covered(self):
        t = InstructionTimings.for_device(89)
        classes = {SHF, SHL, LOP3, IADD3, PRMT, MISC,
                   "MAD", "LDS", "STS", "LDG", "LDC"}
        assert classes <= set(t.issue_cost)
        assert classes <= set(t.latency)

    def test_pascal_rotates_cost_double(self):
        pascal = InstructionTimings.for_device(61)
        volta = InstructionTimings.for_device(70)
        assert pascal.issue_cost[SHF] == 2 * volta.issue_cost[SHF]

    def test_prmt_slower_issue_than_shl(self):
        """The paper's trade-off: prmt replaces several shifts but has
        lower throughput."""
        for sm in (61, 75, 89, 90):
            t = InstructionTimings.for_device(sm)
            assert t.issue_cost[PRMT] > t.issue_cost[SHL]

    def test_memory_latencies_ordered(self):
        t = InstructionTimings.for_device(89)
        assert t.latency["LDG"] > t.latency["LDS"] > t.latency[SHL]


class TestMixAlgebra:
    def test_add_accumulates(self):
        mix = InstructionMix().add(SHL, 3).add(SHL, 2)
        assert mix.counts[SHL] == 5
        assert mix.total() == 5

    def test_issue_cycles(self):
        t = InstructionTimings.for_device(89)
        mix = InstructionMix().add(SHL, 10).add(PRMT, 5)
        assert mix.issue_cycles(t) == 10 * 1.0 + 5 * 2.0

    def test_dependent_cycles_respects_ilp_and_exclusion(self):
        t = InstructionTimings.for_device(89)
        mix = InstructionMix().add(SHL, 8).add(MISC, 100)
        # MISC is off the dependent path; 8 SHL x 4 cycles / ilp 2.
        assert mix.dependent_cycles(t, 2.0) == pytest.approx(16.0)

    def test_merged(self):
        a = InstructionMix().add(SHL, 4)
        b = InstructionMix().add(SHL, 1).add(LOP3, 2)
        merged = a.merged(a).merged(b)
        assert merged.counts[SHL] == 9
        assert merged.counts[LOP3] == 2
        # Originals untouched.
        assert a.counts[SHL] == 4

    @given(
        counts=st.dictionaries(
            st.sampled_from([SHL, LOP3, IADD3, PRMT, MISC]),
            st.floats(0, 1000, allow_nan=False),
            max_size=5,
        ),
        factor=st.floats(0.1, 10, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_issue_cycles_scale_linearly(self, counts, factor):
        t = InstructionTimings.for_device(89)
        mix = InstructionMix(dict(counts))
        scaled = InstructionMix(
            {cls_: count * factor for cls_, count in counts.items()})
        assert scaled.issue_cycles(t) == pytest.approx(
            factor * mix.issue_cycles(t)
        )
