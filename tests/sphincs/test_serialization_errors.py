"""Error paths for signature (de)serialization.

Contract: structurally malformed blobs raise :class:`SignatureFormatError`
from the typed APIs, and **never** crash or garbage-verify through
``verify`` — verification answers False for anything that is not a valid
signature of the message.
"""

import pytest

from repro.errors import SignatureFormatError
from repro.sphincs.signer import Sphincs


@pytest.fixture(scope="module")
def scheme():
    return Sphincs("128f", deterministic=True)


@pytest.fixture(scope="module")
def keys(scheme):
    return scheme.keygen(seed=bytes(48))


@pytest.fixture(scope="module")
def signature(scheme, keys):
    return scheme.sign(b"error paths", keys)


class TestDeserializeRejects:
    def test_empty_blob(self, scheme):
        with pytest.raises(SignatureFormatError, match="expected"):
            scheme.deserialize(b"")

    @pytest.mark.parametrize("cut", [1, 16, 4096])
    def test_truncated(self, scheme, signature, cut):
        with pytest.raises(SignatureFormatError, match="17088"):
            scheme.deserialize(signature[:-cut])

    def test_extended(self, scheme, signature):
        with pytest.raises(SignatureFormatError):
            scheme.deserialize(signature + b"\x00")


class TestVerifyNeverCrashes:
    def test_truncated_is_false(self, scheme, keys, signature):
        assert scheme.verify(b"error paths", signature[:-1],
                             keys.public) is False

    def test_empty_is_false(self, scheme, keys):
        assert scheme.verify(b"error paths", b"", keys.public) is False

    def test_garbage_full_length_is_false(self, scheme, keys):
        blob = bytes(scheme.params.sig_bytes)
        assert scheme.verify(b"error paths", blob, keys.public) is False

    @pytest.mark.parametrize("position", [0, 15, 16, 8000, 17087])
    def test_corrupted_byte_is_false(self, scheme, keys, signature, position):
        tampered = bytearray(signature)
        tampered[position] ^= 0x01
        assert scheme.verify(b"error paths", bytes(tampered),
                             keys.public) is False

    def test_wrong_public_key_length_is_false(self, scheme, signature):
        assert scheme.verify(b"error paths", signature, b"short") is False


class TestComponentApisReject:
    """The typed component APIs validate structure explicitly."""

    def test_fors_wrong_tree_count(self, scheme, keys, signature):
        from repro.hashes.address import Address, AddressType

        _, fors_sig, _ = scheme.deserialize(signature)
        adrs = Address().set_type(AddressType.FORS_TREE)
        with pytest.raises(SignatureFormatError, match="FORS tree entries"):
            scheme.fors.pk_from_sig(fors_sig[:-1], b"\x00" * 21,
                                    keys.pk_seed, adrs)

    def test_hypertree_wrong_layer_count(self, scheme, keys, signature):
        _, _, ht_sig = scheme.deserialize(signature)
        with pytest.raises(SignatureFormatError, match="hypertree layers"):
            scheme.hypertree.pk_from_sig(ht_sig[:-1], bytes(scheme.params.n),
                                         keys.pk_seed, 0, 0)

    def test_wots_wrong_chain_count(self, scheme, keys):
        from repro.hashes.address import Address

        with pytest.raises(SignatureFormatError, match="chain values"):
            scheme.hypertree.wots.pk_from_sig(
                [bytes(scheme.params.n)], bytes(scheme.params.n),
                keys.pk_seed, Address())

    def test_serialize_rejects_wrong_total(self, scheme, signature):
        randomizer, fors_sig, ht_sig = scheme.deserialize(signature)
        with pytest.raises(SignatureFormatError, match="serialized signature"):
            scheme.serialize(randomizer + b"\x00", fors_sig, ht_sig)

    def test_runtime_verify_batch_handles_malformed(self, scheme, keys,
                                                    signature):
        from repro.runtime import get_backend

        backend = get_backend("scalar", "128f", deterministic=True)
        verdicts = backend.verify_batch(
            [b"error paths"] * 3,
            [signature, signature[:-5], b"junk"],
            keys.public,
        )
        assert verdicts == [True, False, False]
