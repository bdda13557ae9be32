"""TCAS-SPHINCSp baseline-model tests against paper Tables II and III."""

import pytest

from repro.analysis import PAPER
from repro.analysis.reporting import shape_check
from repro.core.baseline import BASELINE_FLAGS, baseline_plans
from repro.core.batch import run_batch
from repro.core.pipeline import kernel_report
from repro.gpusim.compiler import Branch
from repro.params import get_params


class TestFlags:
    def test_baseline_has_no_optimizations(self):
        assert not BASELINE_FLAGS.mmtp
        assert not BASELINE_FLAGS.fusion
        assert BASELINE_FLAGS.branch is Branch.NATIVE
        assert not BASELINE_FLAGS.hybrid_memory
        assert not BASELINE_FLAGS.free_bank


class TestBaselineLaunches:
    def test_baseline_launches_per_layer(self, rtx4090):
        """The 24 launches ``run_batch``'s ``baseline`` mode puts on the
        timeline: one FORS, one TREE per hypertree layer (the
        ``merkle_sign`` loop), one WOTS, each behind a host sync."""
        records = run_batch(get_params("128f"), rtx4090,
                            "baseline").timeline.records
        assert [r.name for r in records] == (
            ["FORS_Sign"] + [f"TREE_Sign.L{layer}" for layer in range(22)]
            + ["WOTS_Sign"])
        assert all(r.start_after_s > 0 for r in records)


class TestTable3Profile:
    """Paper Table III: baseline 128f kernel profiles."""

    @pytest.fixture(scope="class")
    def reports(self, rtx4090, engine):
        plans = baseline_plans(get_params("128f"), rtx4090)
        return {k: kernel_report(p, engine) for k, p in plans.items()}

    def test_registers_match(self, reports):
        for kernel, expected in (("FORS_Sign", 64), ("TREE_Sign", 128),
                                 ("WOTS_Sign", 72)):
            assert reports[kernel].profile.registers_per_thread == expected

    def test_theoretical_occupancies(self, reports):
        paper = PAPER["table3_occupancy_128f"]
        for kernel in ("FORS_Sign", "TREE_Sign", "WOTS_Sign"):
            shape_check(
                reports[kernel].profile.theoretical_occupancy_pct,
                paper[kernel]["theoretical_occ"],
                0.35,
                label=f"table3 theoretical {kernel}",
            )

    def test_fors_achieved_well_below_theoretical(self, reports):
        """Table III's headline: FORS at 17% achieved vs 66.67% theoretical
        (sequential single-tree processing starves the SM)."""
        p = reports["FORS_Sign"].profile
        assert p.warp_occupancy_pct < 0.8 * p.theoretical_occupancy_pct

    def test_tree_achieved_near_theoretical(self, reports):
        """TREE_Sign is compute-saturated: achieved ~= theoretical."""
        p = reports["TREE_Sign"].profile
        assert p.warp_occupancy_pct > 0.85 * p.theoretical_occupancy_pct


class TestTable2Breakdown:
    """Paper Table II: per-component kernel time (ms) at 1024 messages."""

    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_mss_dominates(self, alias, rtx4090, engine):
        plans = baseline_plans(get_params(alias), rtx4090)
        times = {
            k: kernel_report(p, engine).time_ms for k, p in plans.items()
        }
        assert times["TREE_Sign"] > times["FORS_Sign"]
        assert times["TREE_Sign"] > times["WOTS_Sign"]

    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_component_times_within_band(self, alias, rtx4090, engine):
        """FORS and MSS (TREE) times within x2.5 of paper Table II."""
        plans = baseline_plans(get_params(alias), rtx4090)
        paper = PAPER["table2_breakdown_ms"][alias]
        fors = kernel_report(plans["FORS_Sign"], engine).time_ms
        tree = kernel_report(plans["TREE_Sign"], engine).time_ms
        shape_check(fors, paper["FORS"], 1.5, label=f"table2 FORS {alias}")
        shape_check(tree, paper["MSS"], 1.5, label=f"table2 MSS {alias}")
