"""The template-driven verifier against the reference ``Sphincs.verify``.

Two independent implementations, one verdict: every parameter set with a
pinned KAT file, valid signatures, a hypothesis-chosen single-bit flip in
each region of the blob, malformed blobs and keys.  Plus the work itself:
the fast path must hash the *same inputs* as the reference (so the same
~6.4 k compressions on 128f) at well under half the CPU cost.
"""

import functools
import hashlib
import itertools
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import BackendError
from repro.hashes import thash
from repro.hashes.thash import HashContext
from repro.params import get_params
from repro.runtime import fastops, get_backend
from repro.runtime.fastops import FastVerifier
from repro.sphincs.signer import Sphincs
from repro.testing import flip_bit, signature_regions
from repro.testing.kat import KAT_SETS

MESSAGES = [b"", b"fast verify"]


class Signed:
    """One key, two signed messages and both verifiers for a parameter set."""

    def __init__(self, name: str):
        self.params = get_params(name)
        self.backend = get_backend("vectorized", name, deterministic=True)
        self.keys = self.backend.keygen(seed=bytes(range(3 * self.params.n)))
        self.signatures = self.backend.sign_batch(
            MESSAGES, self.keys).signatures
        self.reference = Sphincs(self.params)
        self.fast = FastVerifier(self.params)

    def verdicts(self, message, signature, public_key=None):
        """(reference, fast) verdicts for one pair."""
        public_key = self.keys.public if public_key is None else public_key
        return (self.reference.verify(message, signature, public_key),
                self.fast.verify_batch([message], [signature],
                                       public_key)[0])


signed_set = functools.lru_cache(maxsize=None)(Signed)  # sign each set once


@pytest.fixture(scope="module", params=KAT_SETS)
def signed(request):
    return signed_set(request.param)


@pytest.fixture(scope="module")
def signed_128f():
    return signed_set("128f")


class TestVerdictsMatchReference:
    def test_valid_signatures(self, signed):
        for message, signature in zip(MESSAGES, signed.signatures):
            assert signed.verdicts(message, signature) == (True, True)
        assert signed.fast.verify_batch(
            MESSAGES, signed.signatures, signed.keys.public) == [True, True]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_single_bit_flip_in_each_region(self, signed, data):
        """Randomizer, FORS secret and auth path, and WOTS chain values and
        XMSS auth path at layer 0, a middle layer and the top layer."""
        regions = signature_regions(signed.params)
        name = data.draw(st.sampled_from(sorted(regions)), label="region")
        start, length = regions[name]
        bit = data.draw(st.integers(0, 8 * length - 1), label="bit")
        mutated = flip_bit(signed.signatures[1], 8 * start + bit)
        assert signed.verdicts(MESSAGES[1], mutated) == (False, False)

    @pytest.mark.parametrize("mutate", [
        lambda sig: sig[:-1],
        lambda sig: sig[:len(sig) // 2],
        lambda sig: sig + b"\0",
        lambda sig: b"",
        lambda sig: bytes(len(sig)),
    ], ids=["short-by-one", "half", "extended", "empty", "all-zero"])
    def test_malformed_blobs(self, signed, mutate):
        assert signed.verdicts(
            MESSAGES[1], mutate(signed.signatures[1])) == (False, False)

    def test_wrong_message(self, signed):
        assert signed.verdicts(b"another message",
                               signed.signatures[1]) == (False, False)
        assert signed.verdicts(MESSAGES[0],
                               signed.signatures[1]) == (False, False)

    def test_wrong_public_key(self, signed):
        n, public = signed.params.n, signed.keys.public
        for bit in (0, 8 * n - 1, 8 * n, 16 * n - 1):  # seed and root halves
            assert signed.verdicts(MESSAGES[1], signed.signatures[1],
                                   flip_bit(public, bit)) == (False, False)

    @pytest.mark.parametrize("resize", [
        lambda pk: pk[:-1], lambda pk: pk + b"\0", lambda pk: b"",
        lambda pk: pk[:len(pk) // 2],
    ], ids=["short", "long", "empty", "seed-only"])
    def test_wrong_length_public_key(self, signed, resize):
        public = resize(signed.keys.public)
        assert signed.verdicts(MESSAGES[1], signed.signatures[1],
                               public) == (False, False)
        assert signed.fast.verify_batch(MESSAGES, signed.signatures,
                                        public) == [False, False]


class TestBackendEntryPoint:
    def test_length_mismatch_still_raises(self, signed_128f):
        for name in ("scalar", "vectorized"):
            backend = get_backend(name, "128f")
            with pytest.raises(BackendError, match="verify_batch"):
                backend.verify_batch(MESSAGES, signed_128f.signatures[:1],
                                     signed_128f.keys.public)

    def test_scalar_keeps_the_reference_walk(self, signed_128f, monkeypatch):
        """The oracle needs two implementations: ``scalar`` must not ride
        the fast kernel, every other backend must."""
        calls = []
        monkeypatch.setattr(
            FastVerifier, "verify_batch",
            lambda self, messages, *_: calls.append(1) or [True] * len(messages))
        args = (MESSAGES, signed_128f.signatures, signed_128f.keys.public)
        assert get_backend("scalar", "128f").verify_batch(*args) == [True, True]
        assert not calls
        get_backend("vectorized", "128f").verify_batch(*args)
        assert calls


class _Recorder:
    """Stands in for a SHA-256 midstate; logs each finished hash's input."""

    def __init__(self, log, state, data=b""):
        self._log, self._state, self._data = log, state, data

    def copy(self):
        return _Recorder(self._log, self._state.copy(), self._data)

    def update(self, chunk):
        self._state.update(chunk)
        self._data += bytes(chunk)

    def digest(self):
        self._log.append(self._data)
        return self._state.digest()


class RecordingContext(HashContext):
    """A context whose midstates record every tweakable-hash input."""

    def __init__(self, params):
        super().__init__(params, count_hashes=True)
        self.inputs: list[bytes] = []

    def midstate(self, seed):
        return _Recorder(self.inputs, super().midstate(seed))

    def kernel_midstates(self, seed):
        return tuple(_Recorder(self.inputs, state)
                     for state in super().kernel_midstates(seed))


class TestSameWork:
    def test_same_hash_inputs_and_compressions_as_reference(self, signed_128f):
        """Both walks feed SHA-256 the same inputs in the same order, so
        the reference's own tally (some 6.4 k compressions, by the WOTS
        digits of the signature) prices the fast walk too."""
        message, signature = MESSAGES[1], signed_128f.signatures[1]
        public = signed_128f.keys.public

        ref_ctx = RecordingContext(signed_128f.params)
        reference = Sphincs(signed_128f.params)
        reference.ctx = reference.fors.ctx = ref_ctx
        reference.hypertree.ctx = reference.hypertree.wots.ctx = ref_ctx
        assert reference.verify(message, signature, public)

        fast_ctx = RecordingContext(signed_128f.params)  # memo-cold
        assert FastVerifier(signed_128f.params, fast_ctx).verify_batch(
            [message], [signature], public) == [True]

        assert fast_ctx.inputs == ref_ctx.inputs
        # Compressions past the seed block, as HashContext._tally counts
        # them, plus H_msg's own (tallied by the shared ctx.h_msg).
        h_msg_calls = fast_ctx.hash_calls
        walked = sum((len(data) + 9 + 63) // 64 for data in fast_ctx.inputs)
        assert walked + h_msg_calls == ref_ctx.hash_calls
        assert 6000 < ref_ctx.hash_calls < 7000

    def test_costs_under_half_the_reference(self, signed_128f):
        """≤ 0.45× the reference, same process, interleaved rounds."""
        args = (MESSAGES, signed_128f.signatures, signed_128f.keys.public)

        def cpu(fn) -> float:
            started = time.process_time()
            fn()
            return time.process_time() - started

        ref_s, fast_s = [], []
        for _ in range(5):
            ref_s.append(cpu(lambda: [
                signed_128f.reference.verify(m, s, args[2])
                for m, s in zip(args[0], args[1])]))
            # A verifier that has seen nothing: the walk, not the memo.
            unseen = FastVerifier(signed_128f.params)
            fast_s.append(cpu(lambda: unseen.verify_batch(*args)))
        assert min(fast_s) <= 0.45 * min(ref_s), (fast_s, ref_s)


class TestVerifyMemo:
    """A triple that verified once is a lookup; nothing less than the
    whole triple, and nothing that did not verify, ever is."""

    def test_second_sight_is_a_hit_and_skips_the_walk(self, signed_128f):
        ctx = RecordingContext(signed_128f.params)
        verifier = FastVerifier(signed_128f.params, ctx)
        args = (MESSAGES, signed_128f.signatures, signed_128f.keys.public)
        assert verifier.verify_batch(*args) == [True, True]
        # Three memoized layers each; the two share the top one.
        assert verifier.cache_stats() == {"memo_hits": 0, "memo_entries": 2,
                                          "layer_hits": 1, "layer_entries": 5}
        walked = len(ctx.inputs)
        assert verifier.verify_batch(*args) == [True, True]
        assert verifier.cache_stats() == {"memo_hits": 2, "memo_entries": 2,
                                          "layer_hits": 1, "layer_entries": 5}
        assert len(ctx.inputs) == walked

    def test_flipped_signature_bit_after_its_valid_twin(self, signed_128f):
        verifier = FastVerifier(signed_128f.params)
        message, signature = MESSAGES[1], signed_128f.signatures[1]
        public = signed_128f.keys.public
        flipped = [flip_bit(signature, bit)
                   for bit in (0, 8 * len(signature) // 2,
                               8 * len(signature) - 1)]
        assert verifier.verify_batch(
            [message] * 4, [signature, *flipped], public) == [
                True, False, False, False]
        # A false verdict is never remembered: asked again, walked again.
        assert verifier.verify_batch([message], [flipped[0]],
                                     public) == [False]
        # The last bit is the top layer's: the memoized layers below it
        # are recalled, the top one misses, is walked and rejects.
        assert verifier.cache_stats() == {"memo_hits": 0, "memo_entries": 1,
                                          "layer_hits": 2, "layer_entries": 3}

    def test_same_message_and_signature_under_a_rotated_key(
            self, signed_128f):
        verifier = FastVerifier(signed_128f.params)
        message, signature = MESSAGES[1], signed_128f.signatures[1]
        key_a = signed_128f.keys.public
        key_b = get_backend("vectorized", "128f").keygen(
            seed=bytes(3 * signed_128f.params.n)).public
        assert verifier.verify_batch([message], [signature], key_a) == [True]
        assert verifier.verify_batch([message], [signature],
                                     key_b) == [False]
        assert verifier.memo_hits == 0

    def test_bounded_under_ten_times_its_capacity(self, signed_128f,
                                                  monkeypatch):
        """Least recently used out; accept every blob so ten capacities
        of distinct triples cost no signing."""
        monkeypatch.setattr(fastops, "VERIFY_MEMO_CAPACITY", 8)
        verifier = FastVerifier(signed_128f.params)
        monkeypatch.setattr(
            verifier, "_root",
            lambda mid, msg, sig, seed, root, learned: root)
        public, blob = signed_128f.keys.public, signed_128f.signatures[0]
        messages = [b"distinct %d" % index for index in range(80)]
        for message in messages:
            assert verifier.verify_batch([message], [blob], public) == [True]
            assert verifier.cache_stats()["memo_entries"] <= 8
        assert verifier.cache_stats() == {"memo_hits": 0, "memo_entries": 8,
                                          "layer_hits": 0, "layer_entries": 0}
        # The newest eight are the ones kept.
        assert verifier.verify_batch(messages[-8:], [blob] * 8,
                                     public) == [True] * 8
        assert verifier.memo_hits == 8

    def test_hit_counter_is_exact_under_threads(self, signed_128f):
        """More threads than cores on one verifier: every recall counts
        once (a lost update would leave the counter short)."""
        verifier = FastVerifier(signed_128f.params)
        args = (MESSAGES, signed_128f.signatures, signed_128f.keys.public)
        assert verifier.verify_batch(*args) == [True, True]

        def job(_):
            return [verifier.verify_batch(*args) for _ in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                answers = list(pool.map(job, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [[[True, True]] * 50] * 8
        assert verifier.cache_stats() == {"memo_hits": 8 * 50 * 2,
                                          "memo_entries": 2,
                                          "layer_hits": 1, "layer_entries": 5}

    def test_served_verify_shows_its_hits_in_stats(self, signed_128f):
        import asyncio

        from repro.service import Keystore, SigningService

        keystore = Keystore()
        keystore.add_tenant("acme", "128f")
        keystore.generate_key("acme", "default",
                              seed=bytes(range(3 * signed_128f.params.n)))
        service = SigningService(keystore, deterministic=True)

        async def twice():
            for _ in range(2):
                assert await service.verify(
                    MESSAGES[0], signed_128f.signatures[0], "acme") == (
                        True, "SPHINCS+-128f")
            return service.stats()

        try:
            stats = asyncio.run(twice())
            scrape = service.telemetry.registry.render_prometheus()
        finally:
            service.close()
        assert stats["cache"]["scopes"]["verify SPHINCS+-128f"] == {
            "memo_hits": 1, "memo_entries": 1,
            "layer_hits": 0, "layer_entries": 3}
        for line in ('repro_cache_layer_hits{scope="verify SPHINCS+-128f"} 0',
                     'repro_cache_layer_entries{scope="verify SPHINCS+-128f"}'
                     ' 3'):
            assert line in scrape.splitlines()


class TestLayerMemo:
    """The upper hypertree layers every signature under one key walks:
    recalled exactly, and never more than their capacity."""

    #: 128f's memoized layers: 8, 64 and 512 (tree, leaf) pairs.
    MEMOIZED = range(19, 22)

    def test_warm_key_skips_exactly_the_memoized_layers(self, signed_128f):
        """A second, different signature whose path shares the memoized
        layers with one already verified: its walk is the cold walk minus
        exactly those layers' hash inputs (each input starts with its
        compressed ADRS, layer byte first)."""
        params, keys = signed_128f.params, signed_128f.keys
        scheme = Sphincs(params, deterministic=True)
        shift = params.tree_height * (self.MEMOIZED.start - 1)
        path = scheme.prepare(MESSAGES[1], keys).idx_tree >> shift
        other = next(message for message in (
            b"warm key %d" % attempt for attempt in itertools.count())
            if scheme.prepare(message, keys).idx_tree >> shift == path)
        signature = signed_128f.backend.sign_batch(
            [other], keys).signatures[0]

        cold = RecordingContext(params)
        assert FastVerifier(params, cold).verify_batch(
            [other], [signature], keys.public) == [True]
        warm = RecordingContext(params)
        verifier = FastVerifier(params, warm)
        assert verifier.verify_batch(MESSAGES[1:], signed_128f.signatures[1:],
                                     keys.public) == [True]
        warm.inputs.clear()
        assert verifier.verify_batch([other], [signature],
                                     keys.public) == [True]
        assert verifier.layer_hits == len(self.MEMOIZED)
        assert warm.inputs == [data for data in cold.inputs
                               if data[0] < self.MEMOIZED.start]
        assert {data[0] for data in cold.inputs} == set(range(params.d))

    def test_bounded_under_ten_times_its_capacity(self, signed_128f,
                                                  monkeypatch):
        """Least recently used out, at a capacity of 64.  Each walked
        layer's output is faked from its input and the top one accepts,
        so every message teaches up to three new entries at the cost of
        its FORS."""
        monkeypatch.setattr(fastops, "LAYER_MEMO_CAPACITY", 64)
        params, public = signed_128f.params, signed_128f.keys.public
        verifier = FastVerifier(params)
        top = params.d - 1

        def layer(mids, layer, tree, leaf, prefix, node, layer_sig):
            return public[params.n:] if layer == top else hashlib.sha256(
                prefix + node).digest()[:params.n]

        monkeypatch.setattr(verifier, "_layer", layer)
        blob = signed_128f.signatures[0]
        for index in range(320):
            assert verifier.verify_batch([b"distinct %d" % index], [blob],
                                         public) == [True]
            assert verifier.cache_stats()["layer_entries"] <= 64
        assert verifier.cache_stats()["layer_entries"] == 64

    def test_hit_counter_is_exact_under_threads(self, signed_128f,
                                                monkeypatch):
        """More threads than cores on one verifier whose triple memo
        keeps nothing: every call walks, and every walk recalls all three
        memoized layers (a lost update would leave the counter short)."""
        monkeypatch.setattr(fastops, "VERIFY_MEMO_CAPACITY", 0)
        verifier = FastVerifier(signed_128f.params)
        args = (MESSAGES, signed_128f.signatures, signed_128f.keys.public)
        assert verifier.verify_batch(*args) == [True, True]
        warm = verifier.layer_hits

        def job(_):
            return [verifier.verify_batch(*args) for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                answers = list(pool.map(job, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [[[True, True]] * 10] * 8
        assert verifier.cache_stats() == {
            "memo_hits": 0, "memo_entries": 0,
            "layer_hits": warm + 8 * 10 * 2 * len(self.MEMOIZED),
            "layer_entries": 5}


class TestConcurrentVerify:
    def test_thread_pool_under_midstate_eviction(self, signed_128f,
                                                 monkeypatch):
        """``SigningService.verify`` runs on executor threads: one shared
        verifier, more threads than cores, a midstate cache small enough
        that the keys evict each other — every verdict stays right."""
        monkeypatch.setattr(thash, "_MAX_MIDSTATES", 2)
        verifier = FastVerifier(signed_128f.params)
        real = signed_128f.keys.public
        others = [hashlib.sha256(bytes([i])).digest() for i in range(6)]

        def job(index: int) -> list[bool]:
            public = real if index % 2 else others[index % len(others)]
            return verifier.verify_batch(MESSAGES, signed_128f.signatures,
                                         public)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(job, index) for index in range(32)]
                verdicts = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert verdicts == [[bool(index % 2)] * 2 for index in range(32)]
        assert len(verifier.ctx._midstates) <= 2
