"""Cross-layer integration tests.

The key invariant of this reproduction: the GPU workload builders' hash
counts, the parameter layer's analytical formulas, and the *functional*
implementation's actually-executed hash operations must all agree.  If the
functional layer and the model drifted apart, the benchmark numbers would
be fiction — these tests prevent that.
"""

import pytest

from repro.params import get_params
from repro.sphincs.signer import Sphincs, SigningArtifacts


class TestFunctionalVsAnalytical:
    def test_fors_hash_count_matches_formula_128f(self):
        """Counted SHA-256 compressions during real FORS signing vs the
        analytical ``fors_sign_hashes`` (at n=16 every FORS hash is one
        compression past the cached seed midstate)."""
        scheme = Sphincs("128f", deterministic=True, count_hashes=True)
        keys = scheme.keygen(seed=bytes(48))
        artifacts = SigningArtifacts()
        scheme.sign(b"integration", keys, artifacts=artifacts)
        params = get_params("128f")
        expected = params.fors_sign_hashes()
        # Allow the root-compression tail and auth-path bookkeeping.
        assert expected <= artifacts.fors_hash_calls <= expected * 1.05

    def test_tree_hash_count_matches_formula_128f(self):
        """The hypertree phase covers TREE building plus WOTS signing."""
        scheme = Sphincs("128f", deterministic=True, count_hashes=True)
        keys = scheme.keygen(seed=bytes(48))
        artifacts = SigningArtifacts()
        scheme.sign(b"integration", keys, artifacts=artifacts)
        params = get_params("128f")
        low = params.tree_sign_hashes()
        # WOTS chain walks are data-dependent (w/2 is an average), so give
        # the combined bound +-6%.
        high = params.tree_sign_hashes() + params.wots_sign_hashes()
        measured = artifacts.tree_hash_calls
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

        scheme = Sphincs("128f", deterministic=True, count_hashes=True)
        keys = scheme.keygen(seed=bytes(48))
        artifacts = SigningArtifacts()
        scheme.sign(b"workload check", keys, artifacts=artifacts)

        plan = baseline_plans(get_params("128f"), rtx4090)["FORS_Sign"]
        modeled = sum(ph.hash_total for ph in plan.workload.phases)
        assert modeled == pytest.approx(artifacts.fors_hash_calls, rel=0.05)


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
