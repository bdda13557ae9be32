"""Full-scheme tests: keygen / sign / verify round-trips, serialization,
tamper rejection, the prepared sign task, and the deterministic-vector
regression."""

import pytest

from repro.errors import SignatureFormatError
from repro.params import get_params
from repro.sphincs.encoding import message_to_indices
from repro.sphincs.signer import Sphincs

SEED_128 = bytes(range(48))


@pytest.fixture(scope="module")
def scheme128():
    return Sphincs("128f", deterministic=True)


@pytest.fixture(scope="module")
def keys128(scheme128):
    return scheme128.keygen(seed=SEED_128)


@pytest.fixture(scope="module")
def sig128(scheme128, keys128):
    return scheme128.sign(b"reproduction message", keys128)


class TestKeygen:
    def test_deterministic_from_seed(self, scheme128, keys128):
        again = scheme128.keygen(seed=SEED_128)
        assert again == keys128

    def test_key_components(self, keys128):
        params = get_params("128f")
        assert len(keys128.public) == params.pk_bytes
        assert len(keys128.secret) == 4 * params.n
        assert keys128.public == keys128.pk_seed + keys128.pk_root

    def test_random_keygen_differs(self, scheme128, keys128):
        assert scheme128.keygen() != keys128

    def test_wrong_seed_length_rejected(self, scheme128):
        with pytest.raises(SignatureFormatError, match="seed"):
            scheme128.keygen(seed=b"short")


class TestSignVerify128f:
    def test_signature_length(self, sig128):
        assert len(sig128) == 17088  # the paper's quoted 128f size

    def test_verify_accepts(self, scheme128, keys128, sig128):
        assert scheme128.verify(b"reproduction message", sig128, keys128.public)

    def test_verify_rejects_other_message(self, scheme128, keys128, sig128):
        assert not scheme128.verify(b"reproduction messagE", sig128, keys128.public)

    def test_verify_rejects_bitflips(self, scheme128, keys128, sig128):
        # Flip one bit in several signature regions: randomizer, FORS,
        # WOTS chains, auth paths.
        for offset in (0, 20, 600, 3000, 9000, 17000):
            tampered = bytearray(sig128)
            tampered[offset] ^= 1
            assert not scheme128.verify(
                b"reproduction message", bytes(tampered), keys128.public
            ), f"bit flip at {offset} accepted"

    def test_verify_rejects_wrong_key(self, scheme128, keys128, sig128):
        other = scheme128.keygen(seed=bytes(48))
        assert not scheme128.verify(b"reproduction message", sig128, other.public)

    def test_verify_rejects_wrong_lengths(self, scheme128, keys128, sig128):
        assert not scheme128.verify(b"m", sig128[:-1], keys128.public)
        assert not scheme128.verify(b"m", sig128 + b"\x00", keys128.public)
        assert not scheme128.verify(b"m", sig128, keys128.public[:-1])

    def test_deterministic_mode_repeats(self, scheme128, keys128, sig128):
        assert scheme128.sign(b"reproduction message", keys128) == sig128

    def test_randomized_mode_differs(self, keys128):
        randomized = Sphincs("128f", deterministic=False)
        a = randomized.sign(b"msg", keys128)
        b = randomized.sign(b"msg", keys128)
        assert a != b
        assert randomized.verify(b"msg", a, keys128.public)
        assert randomized.verify(b"msg", b, keys128.public)

    def test_empty_message(self, scheme128, keys128):
        sig = scheme128.sign(b"", keys128)
        assert scheme128.verify(b"", sig, keys128.public)

    def test_long_message(self, scheme128, keys128):
        msg = bytes(range(256)) * 16  # 4 KiB
        sig = scheme128.sign(msg, keys128)
        assert scheme128.verify(msg, sig, keys128.public)


class TestPrepare:
    def test_prepare_fills_the_sign_task(self, scheme128, keys128):
        task = scheme128.prepare(b"artifact run", keys128)
        params = get_params("128f")
        indices = message_to_indices(task.fors_msg, params)
        assert len(task.randomizer) == params.n
        assert len(indices) == params.k
        assert all(0 <= i < params.t for i in indices)
        assert 0 <= task.idx_tree < 1 << (params.h - params.tree_height)
        assert 0 <= task.idx_leaf < params.tree_leaves


class TestOtherParameterSets:
    @pytest.mark.parametrize("alias", ["192f", "256f"])
    def test_roundtrip(self, alias):
        scheme = Sphincs(alias, deterministic=True)
        params = get_params(alias)
        keys = scheme.keygen(seed=bytes(3 * params.n))
        sig = scheme.sign(b"cross-set", keys)
        assert len(sig) == params.sig_bytes
        assert scheme.verify(b"cross-set", sig, keys.public)
        assert not scheme.verify(b"cross-sat", sig, keys.public)

    def test_128s_roundtrip(self):
        """The -s sets share all component code; exercise one."""
        scheme = Sphincs("128s", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        sig = scheme.sign(b"small variant", keys)
        assert len(sig) == scheme.params.sig_bytes
        assert scheme.verify(b"small variant", sig, keys.public)


class TestDeterministicVectors:
    """Regression pins: deterministic signatures must never change across
    refactors (they are this library's self-generated test vectors)."""

    def test_128f_public_key_vector(self, keys128):
        assert keys128.public.hex() == _VECTORS["128f_pk"]

    def test_128f_signature_digest_vector(self, scheme128, keys128):
        import hashlib

        sig = scheme128.sign(b"golden vector", keys128)
        assert hashlib.sha256(sig).hexdigest() == _VECTORS["128f_sig_digest"]


# Computed once from this implementation (deterministic seed = bytes(0..47)).
_VECTORS = {
    "128f_pk": (
        "202122232425262728292a2b2c2d2e2f"
        "3b56e816847f000386aeec2e2bb9e1b5"
    ),
    "128f_sig_digest": (
        "4da47bee836c8813f4a2afc8c6d852652eef147fc65ee5d0f0906ccbd9e04942"
    ),
}
