"""The pure-Python SHA-256 against hashlib, plus the op-count profile the
compiler model is derived from."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashes.sha256 import OpCounts, Sha256, count_compression_ops


class TestAgainstHashlib:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"abc",
            b"a" * 55,       # exactly one padded block
            b"a" * 56,       # padding spills into a second block
            b"a" * 64,       # exactly one data block
            b"a" * 65,
            b"a" * 1000,
            bytes(range(256)) * 3,
        ],
    )
    def test_known_boundaries(self, data):
        assert Sha256().update(data).digest() == hashlib.sha256(data).digest()

    def test_abc_vector(self):
        """FIPS 180-4 test vector."""
        assert Sha256().update(b"abc").hexdigest() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_empty_vector(self):
        assert Sha256().update(b"").hexdigest() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_random_inputs(self, data):
        assert Sha256().update(data).digest() == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(min_size=0, max_size=90), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_incremental_update_equivalent(self, chunks):
        h = Sha256()
        for chunk in chunks:
            h.update(chunk)
        assert h.digest() == hashlib.sha256(b"".join(chunks)).digest()

    def test_digest_is_idempotent(self):
        h = Sha256().update(b"hello")
        assert h.digest() == h.digest()
        h.update(b" world")
        assert h.digest() == hashlib.sha256(b"hello world").digest()


class TestOpCounts:
    def test_profile_matches_sha256_structure(self):
        """The compression function's operation counts follow directly from
        the FIPS 180-4 round structure."""
        ops = count_compression_ops()
        assert ops.endian_loads == 16
        # Message schedule: 48 expansions x (4 rot, 2 shift, 4 xor, 3 add).
        # Rounds: 64 x (6 rot, 6 xor, 5 and, 1 not, 7 add). Final: 8 adds.
        assert ops.rotates == 48 * 4 + 64 * 6
        assert ops.shifts == 48 * 2
        assert ops.xors == 48 * 4 + 64 * 6
        assert ops.ands == 64 * 5
        assert ops.nots == 64
        assert ops.adds == 48 * 3 + 64 * 7 + 8

    def test_total_in_expected_range(self):
        """A SHA-256 compression is ~2.2-2.5k primitive 32-bit ops."""
        assert 2000 <= count_compression_ops().total() <= 2600

    def test_counting_does_not_change_digest(self):
        counts = OpCounts()
        assert (Sha256(counts=counts).update(b"abc").digest()
                == hashlib.sha256(b"abc").digest())
        assert counts.total() > 0
