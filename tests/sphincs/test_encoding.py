"""base-w encoding, checksums and index extraction — and the hot loops'
fast forms of the digits and the indices, checked against them."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.params import get_params
from repro.runtime.fastops import wots_digits
from repro.sphincs.encoding import (
    base_w,
    checksum_digits,
    message_to_indices,
    split_digest,
)
from repro.testing.kat import KAT_SETS


class TestBaseW:
    def test_nibbles(self):
        assert base_w(b"\x12\x34", 16, 4) == [1, 2, 3, 4]

    def test_w4_pairs(self):
        assert base_w(b"\xe4", 4, 4) == [3, 2, 1, 0]

    def test_w256_bytes(self):
        assert base_w(b"\x01\xff", 256, 2) == [1, 255]

    def test_partial_extraction(self):
        assert base_w(b"\xab\xcd", 16, 2) == [0xA, 0xB]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            base_w(b"\x00", 10, 1)

    def test_rejects_too_many_digits(self):
        with pytest.raises(ParameterError):
            base_w(b"\x00", 16, 3)

    @given(st.binary(min_size=1, max_size=32), st.sampled_from([4, 16, 256]))
    @settings(max_examples=60, deadline=None)
    def test_digits_in_range_and_reconstructible(self, data, w):

        log_w = w.bit_length() - 1
        out_len = (len(data) * 8) // log_w
        digits = base_w(data, w, out_len)
        assert all(0 <= d < w for d in digits)
        # Reassembling the digits must reproduce the consumed bit prefix.
        acc = 0
        for d in digits:
            acc = (acc << log_w) | d
        consumed_bits = out_len * log_w
        expected = int.from_bytes(data, "big") >> (len(data) * 8 - consumed_bits)
        assert acc == expected


class TestChecksum:
    def test_checksum_length(self):
        p = get_params("128f")
        digits = [0] * p.wots_len1
        assert len(checksum_digits(digits, p)) == p.wots_len2

    def test_all_zero_digits_give_max_checksum(self):
        p = get_params("128f")
        csums = checksum_digits([0] * p.wots_len1, p)
        value = 0
        for d in csums:
            value = value * p.w + d
        assert value == p.wots_len1 * (p.w - 1)

    def test_all_max_digits_give_zero_checksum(self):
        p = get_params("128f")
        assert checksum_digits([p.w - 1] * p.wots_len1, p) == [0, 0, 0]

    @given(st.integers(0, 31), st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_increasing_a_digit_decreases_checksum(self, position, bump):
        """The anti-forgery property: raising any message digit strictly
        lowers the checksum value."""
        p = get_params("128f")
        digits = [7] * p.wots_len1
        raised = list(digits)
        raised[position] = min(p.w - 1, digits[position] + bump)

        def value(ds):
            acc = 0
            for d in checksum_digits(ds, p):
                acc = acc * p.w + d
            return acc

        assert value(raised) < value(digits)


class TestIndexExtraction:
    def test_index_count_and_range(self):
        for alias in ("128f", "192f", "256f"):
            p = get_params(alias)
            msg = bytes(range(p.fors_msg_bytes))
            indices = message_to_indices(msg, p)
            assert len(indices) == p.k
            assert all(0 <= i < p.t for i in indices)

    def test_known_extraction(self):
        """First 6-bit groups of 0b10110100... for 128f."""
        p = get_params("128f")
        msg = b"\xb4" + b"\x00" * (p.fors_msg_bytes - 1)
        indices = message_to_indices(msg, p)
        assert indices[0] == 0b101101

    def test_split_digest_128f(self):
        p = get_params("128f")
        digest = bytes(range(p.digest_bytes))
        fors_msg, idx_tree, idx_leaf = split_digest(digest, p)
        assert fors_msg == digest[:25]
        assert idx_tree < (1 << 63)
        assert idx_leaf < 8
        # idx_tree is the top 63 bits of bytes 25..33.
        raw = int.from_bytes(digest[25:33], "big")
        assert idx_tree == raw >> 1

    @given(st.binary(min_size=34, max_size=34))
    @settings(max_examples=40, deadline=None)
    def test_split_ranges(self, digest):
        p = get_params("128f")
        _, idx_tree, idx_leaf = split_digest(digest, p)
        assert 0 <= idx_tree < (1 << (p.h - p.tree_height))
        assert 0 <= idx_leaf < p.tree_leaves


def bitwise_indices(fors_msg, p):
    """The reference ``message_to_indices``: one bit at a time, MSB first."""
    indices, offset = [], 0
    for _ in range(p.k):
        idx = 0
        for _ in range(p.log_t):
            bit = (fors_msg[offset >> 3] >> (7 - (offset & 7))) & 1
            idx = (idx << 1) | bit
            offset += 1
        indices.append(idx)
    return indices


@pytest.mark.parametrize("alias", KAT_SETS)
class TestFastEncodingsMatchTheReference:
    """The table-driven WOTS digits and the one-integer FORS indices the
    hot loops use, against ``base_w`` + ``checksum_digits`` and the
    bitwise loop, on every parameter set with pinned vectors."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_wots_digits(self, alias, data):
        p = get_params(alias)
        message = data.draw(st.binary(min_size=p.n, max_size=p.n))
        digits = base_w(message, p.w, p.wots_len1)
        assert wots_digits(message, p) == digits + checksum_digits(digits, p)

    @pytest.mark.parametrize("fill", [0x00, 0xFF])
    def test_wots_digits_at_the_checksum_extremes(self, alias, fill):
        p = get_params(alias)
        message = bytes([fill]) * p.n
        digits = base_w(message, p.w, p.wots_len1)
        assert wots_digits(message, p) == digits + checksum_digits(digits, p)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_message_to_indices(self, alias, data):
        p = get_params(alias)
        fors_msg = data.draw(st.binary(min_size=p.fors_msg_bytes,
                                       max_size=p.fors_msg_bytes))
        assert message_to_indices(fors_msg, p) == bitwise_indices(fors_msg, p)
