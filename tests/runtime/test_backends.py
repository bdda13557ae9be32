"""The runtime backends: name table, equivalence, and verification.

The load-bearing property: every backend produces signatures that verify,
and in deterministic mode the scalar and vectorized paths are
**byte-identical** — the vectorized backend only reorganizes when and how
cheaply hashes happen, never what is hashed.
"""

import pytest

from repro.errors import BackendError
from repro.runtime import get_backend
from repro.runtime.registry import BACKENDS

MESSAGES = [b"alpha", b"bravo", b"charlie"]
SEED = bytes(48)


@pytest.fixture(scope="module")
def scalar():
    return get_backend("scalar", "128f", deterministic=True)


@pytest.fixture(scope="module")
def vectorized():
    return get_backend("vectorized", "128f", deterministic=True)


@pytest.fixture(scope="module")
def keys(scalar):
    return scalar.keygen(seed=SEED)


class TestRegistry:
    def test_builtins_registered(self):
        assert list(BACKENDS) == ["scalar", "vectorized"]

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown backend "
                           "'modeled-gpu'; known: scalar, vectorized"):
            get_backend("modeled-gpu")


class TestEquivalence:
    def test_keygen_identical(self, scalar, vectorized):
        assert scalar.keygen(seed=SEED) == vectorized.keygen(seed=SEED)

    def test_scalar_vectorized_byte_identical(self, scalar, vectorized, keys):
        sigs_scalar = scalar.sign_batch(MESSAGES, keys).signatures
        sigs_vector = vectorized.sign_batch(MESSAGES, keys).signatures
        assert sigs_scalar == sigs_vector

    def test_vectorized_matches_fused_scalar_sign(self, vectorized, keys):
        from repro.sphincs.signer import Sphincs

        scheme = Sphincs("128f", deterministic=True)
        assert vectorized.sign(b"single", keys) == scheme.sign(b"single", keys)


class TestAllBackendsVerify:
    @pytest.mark.parametrize("name", ["scalar", "vectorized"])
    def test_signatures_verify(self, name, keys):
        backend = get_backend(name, "128f", deterministic=True)
        result = backend.sign_batch(MESSAGES[:2], keys)
        assert result.count == 2
        assert result.elapsed_s > 0
        assert backend.verify_batch(
            MESSAGES[:2], result.signatures, keys.public) == [True, True]

    @pytest.mark.parametrize("name", ["scalar", "vectorized"])
    def test_cross_backend_verification(self, name, scalar, keys):
        """Any backend's signatures verify through any other backend."""
        backend = get_backend(name, "128f", deterministic=True)
        sig = backend.sign(b"cross", keys)
        assert scalar.verify_batch([b"cross"], [sig], keys.public) == [True]

    def test_tampered_signature_rejected(self, vectorized, keys):
        sig = bytearray(vectorized.sign(b"tamper", keys))
        sig[50] ^= 1
        assert vectorized.verify_batch(
            [b"tamper"], [bytes(sig)], keys.public) == [False]

    def test_verify_batch_length_mismatch(self, vectorized, keys):
        with pytest.raises(BackendError, match="verify_batch"):
            vectorized.verify_batch([b"a", b"b"], [b"x"], keys.public)


class TestVectorizedInternals:
    def test_subtree_cache_hits_grow_with_batch(self, keys):
        backend = get_backend("vectorized", "128f", deterministic=True)
        first = backend.sign_batch([b"m0"], keys)
        second = backend.sign_batch([b"m1"], keys)
        # The top hypertree layers repeat across messages under one key
        # (cache statistics are cumulative per backend instance).
        assert second.cache_stats["hits"] > first.cache_stats["hits"]
        new_misses = (second.cache_stats["misses"]
                      - first.cache_stats["misses"])
        assert new_misses < first.cache_stats["misses"]

    def test_stage_seconds_cover_the_pipeline(self, vectorized, keys):
        result = vectorized.sign_batch([b"stages"], keys)
        assert set(result.stage_seconds) == {
            "prepare", "fors", "hypertree", "serialize"}
        assert result.stage_seconds["hypertree"] > 0
