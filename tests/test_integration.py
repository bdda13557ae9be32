"""Cross-layer integration tests.

The key invariant of this reproduction: the GPU workload builders' hash
counts, the parameter layer's analytical formulas, and the *functional*
implementation's actually-executed hash operations must all agree.  If the
functional layer and the model drifted apart, the benchmark numbers would
be fiction — these tests prevent that.
"""

import pytest

from repro.params import get_params
from repro.sphincs.signer import Sphincs


def _stage_hash_calls(message: bytes) -> tuple[int, int]:
    """``(FORS, hypertree)`` counted SHA-256 calls of one 128f signature:
    ``hash_calls`` deltas around the signer's stages."""
    scheme = Sphincs("128f", deterministic=True, count_hashes=True)
    keys = scheme.keygen(seed=bytes(48))
    ctx = scheme.ctx
    task = scheme.prepare(message, keys)
    before = ctx.hash_calls
    _, fors_pk = scheme.fors_stage(task, keys)
    fors_calls, before = ctx.hash_calls - before, ctx.hash_calls
    scheme.hypertree_stage(task, keys, fors_pk)
    return fors_calls, ctx.hash_calls - before


class TestFunctionalVsAnalytical:
    def test_fors_hash_count_matches_formula_128f(self):
        """Counted SHA-256 compressions during real FORS signing vs the
        analytical ``fors_sign_hashes`` (at n=16 every FORS hash is one
        compression past the cached seed midstate)."""
        fors_calls, _ = _stage_hash_calls(b"integration")
        expected = get_params("128f").fors_sign_hashes()
        # Allow the root-compression tail and auth-path bookkeeping.
        assert expected <= fors_calls <= expected * 1.05

    def test_tree_hash_count_matches_formula_128f(self):
        """The hypertree phase covers TREE building plus WOTS signing."""
        _, measured = _stage_hash_calls(b"integration")
        params = get_params("128f")
        low = params.tree_sign_hashes()
        # WOTS chain walks are data-dependent (w/2 is an average), so give
        # the combined bound +-6%.
        high = params.tree_sign_hashes() + params.wots_sign_hashes()
        assert low * 0.98 <= measured <= high * 1.06

    @pytest.mark.parametrize("alias", ["128f", "192f"])
    def test_signature_size_formula_matches_reality(self, alias):
        scheme = Sphincs(alias, deterministic=True)
        keys = scheme.keygen(seed=bytes(3 * scheme.params.n))
        sig = scheme.sign(b"size check", keys)
        assert len(sig) == scheme.params.sig_bytes


class TestWorkloadBuildersVsFunctional:
    def test_fors_workload_equals_functional_count(self, rtx4090):
        """GPU FORS_Sign workload hash total == functional execution."""
        from repro.core.baseline import baseline_plans

        fors_calls, _ = _stage_hash_calls(b"workload check")
        plan = baseline_plans(get_params("128f"), rtx4090)["FORS_Sign"]
        modeled = sum(ph.hash_total for ph in plan.workload.phases)
        assert modeled == pytest.approx(fors_calls, rel=0.05)


class TestEndToEndConsistency:
    def test_throughput_hierarchy_holds_end_to_end(self, rtx4090, engine):
        """The modeled per-kernel times must reproduce the functional
        layer's work proportions: TREE >> FORS > WOTS at 192f."""
        from repro.core.pipeline import hero_plans, kernel_report

        plans = hero_plans(get_params("192f"), rtx4090, engine)
        times = {k: kernel_report(p, engine).time_ms for k, p in plans.items()}
        assert times["TREE_Sign"] > times["FORS_Sign"] > times["WOTS_Sign"]

    def test_verify_catches_cross_parameter_confusion(self):
        """A 128f signature must not verify under a 192f scheme."""
        s128 = Sphincs("128f", deterministic=True)
        s192 = Sphincs("192f", deterministic=True)
        k128 = s128.keygen(seed=bytes(48))
        sig = s128.sign(b"msg", k128)
        assert not s192.verify(b"msg", sig, k128.public)
        # And a 192f key cannot validate it either way.
        k192 = s192.keygen(seed=bytes(72))
        assert not s192.verify(b"msg", sig, k192.public)
