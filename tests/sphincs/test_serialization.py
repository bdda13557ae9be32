"""Signature serialization round-trip properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SignatureFormatError
from repro.sphincs.signer import Sphincs


@pytest.fixture(scope="module")
def scheme():
    return Sphincs("128f", deterministic=True)


@pytest.fixture(scope="module")
def keys(scheme):
    return scheme.keygen(seed=bytes(48))


class TestRoundTrip:
    def test_deserialize_serialize_identity(self, scheme, keys):
        blob = scheme.sign(b"roundtrip", keys)
        randomizer, fors_sig, ht_sig = scheme.deserialize(blob)
        assert scheme.serialize(randomizer, fors_sig, ht_sig) == blob

    def test_component_counts(self, scheme, keys):
        blob = scheme.sign(b"counts", keys)
        randomizer, fors_sig, ht_sig = scheme.deserialize(blob)
        p = scheme.params
        assert len(randomizer) == p.n
        assert len(fors_sig) == p.k
        assert len(ht_sig) == p.d
        for chains, path in ht_sig:
            assert len(chains) == p.wots_len
            assert len(path) == p.tree_height

    @given(st.integers(0, 17087))
    @settings(max_examples=30, deadline=None)
    def test_any_single_byte_position_is_load_bearing(self, scheme, keys,
                                                      position):
        """Deserialization partitions the signature exactly: changing any
        byte changes exactly one recovered component."""
        blob = bytearray(scheme.sign(b"positions", keys))
        before = scheme.deserialize(bytes(blob))
        blob[position] ^= 0xFF
        after = scheme.deserialize(bytes(blob))
        diffs = 0
        if before[0] != after[0]:
            diffs += 1
        for (s_a, p_a), (s_b, p_b) in zip(before[1], after[1]):
            diffs += (s_a != s_b) + sum(x != y for x, y in zip(p_a, p_b))
        for (c_a, p_a), (c_b, p_b) in zip(before[2], after[2]):
            diffs += sum(x != y for x, y in zip(c_a, c_b))
            diffs += sum(x != y for x, y in zip(p_a, p_b))
        assert diffs == 1

    def test_wrong_length_rejected(self, scheme):
        with pytest.raises(SignatureFormatError):
            scheme.deserialize(b"\x00" * 100)
