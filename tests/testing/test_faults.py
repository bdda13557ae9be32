"""Deterministic fault injection: the detection contract."""

import pytest

from repro.errors import ConformanceError
from repro.runtime import get_backend
from repro.sphincs.signer import Sphincs
from repro.testing import (BitFlipFault, CachedNodeFault, flip_bit,
                           localize_divergence, parse_fault)


class TestFlipBit:
    def test_flips_exactly_one_bit(self):
        data = bytes(16)
        flipped = flip_bit(data, 11)
        assert flipped != data
        diff = int.from_bytes(data, "big") ^ int.from_bytes(flipped, "big")
        assert bin(diff).count("1") == 1
        assert flip_bit(flipped, 11) == data  # involution

    def test_out_of_range_rejected(self):
        with pytest.raises(ConformanceError, match="out of range"):
            flip_bit(bytes(4), 32)


class TestParseFault:
    def test_defaults_and_fields(self):
        fault = parse_fault("thash:bitflip")
        assert (fault.target, fault.call_index, fault.bit) == ("thash", 7, 0)
        fault = parse_fault("prf:bitflip:120:5")
        assert (fault.target, fault.call_index, fault.bit) == ("prf", 120, 5)

    @pytest.mark.parametrize("spec", [
        "thash", "thash:stuckat", "gamma:bitflip", "thash:bitflip:x",
        "thash:bitflip:1:2:3:4", "thash:bitflip:-1",
        "cache:bitflip", "cache:flip:x", "cache:flip:0:0:benign:extra",
        "cache:flip:-1", "memo:flip:x", "memo:flip:-1", "memo:flip:0:1",
        "memo:drop",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConformanceError):
            parse_fault(spec)

    def test_verify_fault_spec(self):
        from repro.testing import VerifyFault

        fault = parse_fault("verify:no-root-compare")
        assert isinstance(fault, VerifyFault)
        assert fault.spec == "verify:no-root-compare"
        assert (fault.target, fault.fired, fault.calls_seen) == (
            "verify", False, 0)
        with pytest.raises(ConformanceError, match="no-root-compare"):
            parse_fault("verify:skip-everything")

    def test_verify_memo_fault_spec_and_install(self):
        from repro.runtime.fastops import FastVerifier
        from repro.testing import VerifyMemoFault

        fault = parse_fault("verify:memo-ignores-signature")
        assert isinstance(fault, VerifyMemoFault)
        assert fault.spec == "verify:memo-ignores-signature"
        genuine = FastVerifier._memo_key
        with fault.install():
            assert (FastVerifier._memo_key(b"k", b"m", b"one")
                    == FastVerifier._memo_key(b"k", b"m", b"other")
                    == genuine(b"k", b"m", b""))
        assert FastVerifier._memo_key is genuine
        assert fault.fired and fault.calls_seen == 2
        assert genuine(b"k", b"m", b"one") != genuine(b"k", b"m", b"other")
        # Length framing: the same bytes split differently stay apart.
        assert genuine(b"ab", b"c", b"") != genuine(b"a", b"bc", b"")

    def test_verify_layer_memo_fault_spec_and_install(self):
        from repro.runtime.fastops import FastVerifier
        from repro.testing import VerifyLayerMemoFault

        fault = parse_fault("verify:layer-memo-ignores-signature")
        assert isinstance(fault, VerifyLayerMemoFault)
        assert fault.spec == "verify:layer-memo-ignores-signature"
        genuine = FastVerifier._layer_key
        args = (b"seed", b"prefix", b"node")
        with fault.install():
            assert (FastVerifier._layer_key(*args, b"one")
                    == FastVerifier._layer_key(*args, b"other")
                    == genuine(*args, b""))
        assert FastVerifier._layer_key is genuine
        assert fault.fired and fault.calls_seen == 2
        assert genuine(*args, b"one") != genuine(*args, b"other")

    def test_plan_fault_spec_and_install(self):
        from repro.runtime import plan
        from repro.testing import PlanFault

        fault = parse_fault("plan:chain-table-off-by-one")
        assert isinstance(fault, PlanFault)
        assert (fault.target, fault.fired, fault.calls_seen) == (
            "plan", False, 0)
        genuine = plan.chain_values
        table = bytes(range(2 * 4 * 2))  # 2 chains, w = 4, n = 2
        with fault.install():
            # Every chain is read one position past its digit.
            assert plan.chain_values(table, [0, 2], 2, 4) == \
                genuine(table, [1, 3], 2, 4)
        assert plan.chain_values is genuine
        assert fault.fired and fault.calls_seen == 1
        with pytest.raises(ConformanceError, match="off-by-one"):
            parse_fault("plan:something-else")

    def test_cache_fault_specs(self):
        fault = parse_fault("cache:flip")
        assert isinstance(fault, CachedNodeFault)
        assert (fault.level, fault.bit, fault.consistent) == (0, 0, True)
        fault = parse_fault("cache:flip:1:5")
        assert (fault.level, fault.bit, fault.consistent) == (1, 5, True)
        fault = parse_fault("cache:flip:0:3:benign")
        assert (fault.level, fault.bit, fault.consistent) == (0, 3, False)
        # The spec round-trips, so CI logs reproduce exactly.
        assert parse_fault(fault.spec).spec == fault.spec

    def test_memo_fault_spec_and_install(self):
        from repro.runtime.layercache import HypertreeLayerCache
        from repro.testing import MemoFault

        fault = parse_fault("memo:flip")
        assert isinstance(fault, MemoFault)
        assert (fault.target, fault.bit, fault.fired, fault.calls_seen) == (
            "memo", 0, False, 0)
        fault = parse_fault("memo:flip:9")
        assert parse_fault(fault.spec).spec == fault.spec == "memo:flip:9"
        genuine = HypertreeLayerCache.remember
        cache = HypertreeLayerCache("128f")
        with fault.install():
            cache.remember(b"seed", b"digest", bytes(4))
        assert HypertreeLayerCache.remember is genuine
        assert cache.recall(b"seed", b"digest") == flip_bit(bytes(4), 9)
        assert fault.fired and fault.calls_seen == 1


class TestInstall:
    def test_hook_installs_and_restores(self):
        scheme = Sphincs("128f", deterministic=True)
        original = scheme.ctx.thash
        fault = BitFlipFault(call_index=0)
        with fault.install(scheme.ctx):
            assert scheme.ctx.thash is not original
        assert scheme.ctx.thash == original
        assert "thash" not in scheme.ctx.__dict__

    def test_double_install_rejected(self):
        scheme = Sphincs("128f", deterministic=True)
        fault = BitFlipFault()
        with fault.install(scheme.ctx):
            with pytest.raises(ConformanceError, match="already installed"):
                with BitFlipFault().install(scheme.ctx):
                    pass

    def test_unreached_call_index_never_fires(self):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        fault = BitFlipFault(call_index=10**9)
        with fault.install(scheme.ctx):
            signature = scheme.sign(b"msg", keys)
        assert not fault.fired
        assert fault.calls_seen > 0
        assert scheme.verify(b"msg", signature, keys.public)


class TestDetection:
    """Every injected fault must be *detected*: either verification fails,
    or the signature bytes diverge from the clean run (the fault-attack
    class the differential oracle exists to catch).  A fault must never
    produce the clean signature."""

    @pytest.mark.parametrize("call_index", [0, 7, 64, 300])
    def test_thash_fault_never_silent(self, call_index):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        clean = scheme.sign(b"fault victim", keys)
        fault = BitFlipFault(call_index=call_index)
        with fault.install(scheme.ctx):
            faulty = scheme.sign(b"fault victim", keys)
        assert fault.fired
        assert faulty != clean  # the corruption reached the output
        # ... and the clean public key still verifies the clean signature
        assert scheme.verify(b"fault victim", clean, keys.public)

    def test_prf_fault_detected_by_verify(self):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        fault = BitFlipFault(target="prf", call_index=0)
        with fault.install(scheme.ctx):
            faulty = scheme.sign(b"prf victim", keys)
        assert fault.fired
        # A corrupted revealed FORS secret cannot reproduce the leaf.
        assert not scheme.verify(b"prf victim", faulty, keys.public)



class TestScalarBackendTap:
    """A hash bit flip goes on the scalar backend's own context
    (``ScalarBackend.ctx``): it reaches that backend's signatures, the
    component localizer names the hop it lands in, and nothing of the
    tap outlives the ``with`` block."""

    @pytest.mark.parametrize("spec, stage, verifies", [
        ("thash:bitflip:0:0", "fors (tree 0 auth path)", True),
        ("thash:bitflip:7:0", "fors (tree 0 auth path)", True),
        ("thash:bitflip:300:0", "fors (tree 2 auth path)", True),
        ("prf:bitflip:0:0", "fors (tree 0 revealed secret)", False),
    ])
    def test_flip_on_the_backend_context_is_localized(self, spec, stage,
                                                       verifies):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        clean = scheme.sign(b"victim", keys)
        backend = get_backend("scalar", "128f", deterministic=True)
        fault = parse_fault(spec)
        with fault.install(backend.ctx):
            faulty = backend.sign_batch([b"victim"], keys).signatures[0]
        assert fault.fired
        assert localize_divergence(scheme, clean, faulty) == stage
        # A flip inside a FORS tree's hashing grafts a consistent tree
        # that still verifies; a flipped revealed secret does not.
        assert scheme.verify(b"victim", faulty, keys.public) is verifies

    def test_tap_detaches_and_the_backend_signs_clean_again(self):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        backend = get_backend("scalar", "128f", deterministic=True)
        fault = BitFlipFault()
        with fault.install(backend.ctx):
            faulty = backend.sign_batch([b"msg"], keys).signatures[0]
        assert fault.fired
        assert "thash" not in backend.ctx.__dict__
        clean = backend.sign_batch([b"msg"], keys).signatures[0]
        assert clean == scheme.sign(b"msg", keys) != faulty

class TestCachedNodeFault:
    """A flip inside the warm layer cache splits into two classes: the
    naive (benign) flip breaks the auth path and verification catches it;
    the consistent flip re-derives the corrupted subtree's ancestors and
    yields a signature that still verifies — only the byte-level
    differential compare sees it.  Either strikes the pinned subtree the
    fault's fresh probe message crosses and shows when the probe is
    signed; a replay is a memo hit and reads no subtree."""

    def _struck_backend(self, fault):
        scheme = Sphincs("128f", deterministic=True)
        backend = get_backend("vectorized", "128f", deterministic=True)
        keys = backend.keygen(seed=bytes(48))
        victim = b"cache fault victim 14"
        clean = backend.sign_batch([victim], keys).signatures[0]
        probe, ops = fault.probe, backend._ops(keys)
        assert probe != victim
        task = scheme.prepare(probe, keys)
        # The probe's own subtree one layer below the top: layer 20 of
        # 22, three tree bits per layer above its idx_tree at layer 0.
        # The victim's walk crosses it, so clean signing built it and
        # the replay below would read it if a memo hit read subtrees.
        tree = task.idx_tree >> 60
        assert scheme.prepare(victim, keys).idx_tree >> 60 == tree
        assert ops.cache.lookup_tree(ops.seed, 20, tree) is not None
        detail = fault.apply(ops, task)
        assert fault.fired
        assert f"(layer 20, tree {tree})" in detail
        # The struck cache is not read for a message it has seen.
        assert backend.sign_batch([victim], keys).signatures[0] == clean
        return scheme, backend, keys, probe, detail

    def test_layer_from_top_zero_rejected(self):
        with pytest.raises(ConformanceError, match="layer_from_top"):
            CachedNodeFault(layer_from_top=0)

    def test_strike_below_the_pinned_layers_rejected(self):
        # 128s pins its top layer only: one below it nothing is cached.
        backend = get_backend("vectorized", "128s", deterministic=True)
        keys = backend.keygen(seed=bytes(48))
        fault = CachedNodeFault()
        task = Sphincs("128s", deterministic=True).prepare(fault.probe, keys)
        with pytest.raises(ConformanceError, match="no cached subtree"):
            fault.apply(backend._ops(keys), task)

    def test_benign_flip_caught_by_verify(self):
        scheme, backend, keys, probe, detail = self._struck_backend(
            CachedNodeFault(consistent=False))
        assert "stale" in detail
        faulty = backend.sign_batch([probe], keys).signatures[0]
        assert faulty != scheme.sign(probe, keys)
        assert not scheme.verify(probe, faulty, keys.public)

    def test_consistent_flip_still_verifies(self):
        scheme, backend, keys, probe, _ = self._struck_backend(
            CachedNodeFault(consistent=True))
        faulty = backend.sign_batch([probe], keys).signatures[0]
        # The dangerous class: wrong bytes, yet verification accepts —
        # which is exactly why the oracle byte-compares every tier.
        assert faulty != scheme.sign(probe, keys)
        assert scheme.verify(probe, faulty, keys.public)
