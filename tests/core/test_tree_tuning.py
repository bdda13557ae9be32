"""Tree Tuning (Algorithm 1) tests, anchored on paper Table IV."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TuningError
from repro.core.tree_tuning import ALPHA, tree_tuning_search
from repro.params import SphincsParams, get_params

SMEM_48K = 48 * 1024


class TestPaperTable4:
    def test_128f_result(self):
        best = tree_tuning_search(get_params("128f"), SMEM_48K).best
        assert best.t_set == 704
        assert best.f == 3
        assert best.u_t == pytest.approx(0.6875)
        assert best.u_s == pytest.approx(0.6875)

    def test_192f_result(self):
        best = tree_tuning_search(get_params("192f"), SMEM_48K).best
        assert best.t_set == 768
        assert best.f == 2
        assert best.u_t == pytest.approx(0.75)
        assert best.u_s == pytest.approx(0.75)

    def test_256f_without_relax_is_stuck(self):
        """Standard tuning at 256f can only fit two trees, F=1 — the
        situation that motivates Relax-FORS (paper §III-B.4)."""
        best = tree_tuning_search(get_params("256f"), SMEM_48K).best
        assert best.f == 1
        assert best.n_tree == 2

    def test_256f_relax_unlocks_fusion(self):
        best = tree_tuning_search(get_params("256f"), SMEM_48K, relax=True).best
        assert best.f >= 2
        assert best.n_tree >= 3
        stuck = tree_tuning_search(get_params("256f"), SMEM_48K).best
        assert best.sync_points < stuck.sync_points


class TestAlgorithmConstraints:
    @pytest.mark.parametrize("alias", ["128f", "192f", "256f"])
    def test_all_candidates_feasible(self, alias):
        params = get_params(alias)
        result = tree_tuning_search(params, SMEM_48K)
        for cand in result.candidates:
            assert cand.t_set % params.t == 0          # whole trees (line 1)
            assert cand.t_set <= 1024                   # line 14
            assert cand.smem_bytes <= SMEM_48K          # line 14
            assert cand.u_t >= 0.6                      # line 18
            assert not (cand.u_t == 1.0 and cand.u_s == 1.0)
            assert cand.f * cand.n_tree <= params.k

    def test_sync_formula(self):
        """sync = log2(t) * ceil(k / N_tree) / F (line 21)."""
        params = get_params("128f")
        for cand in tree_tuning_search(params, SMEM_48K).candidates:
            expected = params.log_t * math.ceil(params.k / cand.n_tree) / cand.f
            assert cand.sync_points == pytest.approx(expected)

    def test_best_minimizes_sort_key(self):
        result = tree_tuning_search(get_params("128f"), SMEM_48K)
        best_key = result.best.sort_key()
        assert all(best_key <= c.sort_key() for c in result.candidates)

    def test_top_returns_sorted_prefix(self):
        result = tree_tuning_search(get_params("128f"), SMEM_48K)
        top = result.top(3)
        assert len(top) == min(3, len(result.candidates))
        assert top[0] == result.best


class TestAdaptivity:
    def test_more_shared_memory_never_hurts_sync(self):
        """A larger budget (dynamic smem on newer parts) can only reduce
        or keep the barrier count — the paper's cross-architecture story."""
        params = get_params("192f")
        small = tree_tuning_search(params, 48 * 1024).best
        large = tree_tuning_search(params, 96 * 1024).best
        assert large.sync_points <= small.sync_points

    def test_alpha_floors_thread_utilization(self):
        result = tree_tuning_search(get_params("192f"), SMEM_48K)
        assert all(c.u_t >= ALPHA for c in result.candidates)

    def test_infeasible_budget_raises(self):
        with pytest.raises(TuningError, match="no feasible"):
            tree_tuning_search(get_params("256f"), 8 * 1024)

    def test_tree_larger_than_thread_budget_raises(self):
        giant = SphincsParams("giant", 16, 66, 22, 12, 33, 16)  # t = 4096
        with pytest.raises(TuningError, match="threads"):
            tree_tuning_search(giant, SMEM_48K)

    @given(smem_kb=st.integers(24, 200))
    @settings(max_examples=30, deadline=None)
    def test_search_is_robust_across_budgets(self, smem_kb):
        params = get_params("128f")
        try:
            result = tree_tuning_search(params, smem_kb * 1024)
        except TuningError:
            return
        best = result.best
        assert best.smem_bytes <= smem_kb * 1024
        assert best.t_set <= 1024
