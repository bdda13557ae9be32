"""Workload-builder tests: the kernels' hash totals must equal the
parameter layer's analytical counts, barriers must match the fusion plan,
and every launch must be valid on the target device."""


import pytest

from repro.core.baseline import baseline_plans
from repro.core.kernels import OptimizationFlags, build_plans
from repro.gpusim.compiler import Branch
from repro.params import get_params

BRANCHES = {k: Branch.NATIVE for k in ("FORS_Sign", "TREE_Sign", "WOTS_Sign")}


def _hero(params, device, **kw):
    return build_plans(params, device, OptimizationFlags.full(),
                       branches=BRANCHES, **kw)


def _hashes(plan):
    return sum(phase.hash_total for phase in plan.workload.phases)


class TestHashAccounting:
    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_fors_workload_matches_analytical_count(self, alias, rtx4090):
        params = get_params(alias)
        for plans in (_hero(params, rtx4090), baseline_plans(params, rtx4090)):
            total = _hashes(plans["FORS_Sign"])
            expected = params.fors_sign_hashes()
            # The workload adds only the root-compression tail.
            assert expected <= total <= expected * 1.01

    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_tree_workload_matches_analytical_count(self, alias, rtx4090):
        params = get_params(alias)
        total = _hashes(_hero(params, rtx4090)["TREE_Sign"])
        expected = params.tree_sign_hashes()
        assert expected * 0.99 <= total <= expected * 1.01

    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_wots_workload_matches_analytical_count(self, alias, rtx4090):
        params = get_params(alias)
        total = _hashes(_hero(params, rtx4090)["WOTS_Sign"])
        assert total == pytest.approx(params.wots_sign_hashes(), rel=0.01)


class TestStructure:
    def test_fors_sync_count_matches_plan(self, rtx4090):
        """Barriers per block = the Tree Tuning sync metric (+1 barrier per
        round for the leaf phase)."""
        params = get_params("128f")
        plan = _hero(params, rtx4090)["FORS_Sign"]
        fors = plan.fors_plan
        expected_reduction_syncs = fors.rounds * params.log_t
        assert (sum(phase.syncs for phase in plan.workload.phases)
                == expected_reduction_syncs + fors.rounds)

    def test_relax_skips_bottom_level(self, rtx4090):
        params = get_params("256f")
        plan = _hero(params, rtx4090)["FORS_Sign"]
        assert plan.fors_plan.relax
        names = [ph.name for ph in plan.workload.phases]
        assert not any("reduce_h1_" in name for name in names)
        assert any("reduce_h2_" in name for name in names)

    def test_baseline_fors_is_single_tree(self, rtx4090):
        params = get_params("128f")
        plan = baseline_plans(params, rtx4090)["FORS_Sign"]
        assert plan.fors_plan.n_tree == 1
        assert plan.fors_plan.fusion_f == 1
        assert plan.launch.threads_per_block == params.t
        # Global-memory nodes: no shared-memory reservation.
        assert plan.launch.smem_per_block == 0
        assert plan.workload.total_global_bytes() > 0

    def test_tree_threads_one_per_hypertree_leaf(self, rtx4090):
        for alias, expected in (("128f", 176), ("192f", 176), ("256f", 272)):
            plan = _hero(get_params(alias), rtx4090)["TREE_Sign"]
            assert plan.launch.threads_per_block == expected

    def test_wots_threads_capped_at_block_limit(self, rtx4090):
        plan = _hero(get_params("192f"), rtx4090)["WOTS_Sign"]
        # 22 layers x 51 chains = 1122 chains > 1024 threads.
        assert plan.launch.threads_per_block == 1024
        assert plan.workload.phases[0].hash_depth > (1 + 16 / 2)

    def test_free_bank_removes_conflict_passes(self, rtx4090):
        params = get_params("128f")
        flags_off = OptimizationFlags(
            mmtp=True, fusion=True, branch=Branch.NATIVE,
            hybrid_memory=True, free_bank=False,
        )
        padded = _hero(params, rtx4090)["FORS_Sign"]
        packed = build_plans(params, rtx4090, flags_off, branches=BRANCHES)["FORS_Sign"]

        def passes(plan):
            return sum(
                ph.smem_load_passes + ph.smem_store_passes
                for ph in plan.workload.phases
            )

        assert passes(padded) < passes(packed)


class TestLaunchValidity:
    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_all_plans_launchable_everywhere(self, alias, any_device, engine):
        """Every plan must produce a finite, positive kernel time on every
        device in the catalog (the §IV-F portability claim)."""
        params = get_params(alias)
        for plans in (
            _hero(params, any_device, messages=256),
            baseline_plans(params, any_device, messages=256),
        ):
            for plan in plans.values():
                timing = engine.time_kernel(plan.compiled, plan.workload,
                                            plan.launch)
                assert timing.time_s > 0

    def test_launch_bounds_clamp(self, rtx4090):
        """192f MMTP wants 1024 threads x 84 regs > the register file;
        the __launch_bounds__ model must clamp instead of failing."""
        flags = OptimizationFlags(
            mmtp=True, fusion=False, branch=Branch.NATIVE,
            hybrid_memory=False, free_bank=False,
        )
        plan = build_plans(get_params("192f"), rtx4090, flags,
                           branches=BRANCHES)["FORS_Sign"]
        assert plan.launch.threads_per_block == 1024
        assert plan.compiled.regs_per_thread <= 64

    def test_with_branch_preserves_geometry(self, rtx4090):
        plan = _hero(get_params("256f"), rtx4090)["FORS_Sign"]
        flipped = plan.with_branch(Branch.PTX)
        assert flipped.launch == plan.launch
        assert flipped.workload is plan.workload
        assert flipped.compiled.branch is Branch.PTX
