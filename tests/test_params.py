"""Parameter-set geometry tests against the SPHINCS+ specification and
the figures quoted in the paper."""

import pytest

from repro.errors import ParameterError
from repro.params import FAST_SETS, PARAMETER_SETS, SphincsParams, get_params


class TestLookups:
    def test_aliases(self):
        assert get_params("128f") is PARAMETER_SETS["SPHINCS+-128f"]
        assert get_params("SPHINCS+-256f").n == 32
        assert get_params("192S").name == "SPHINCS+-192s"

    def test_unknown_raises(self):
        with pytest.raises(ParameterError, match="unknown parameter set"):
            get_params("384f")

    def test_catalog_complete(self):
        assert len(PARAMETER_SETS) == 6
        assert all(name in PARAMETER_SETS for name in FAST_SETS)


class TestPaperTable1:
    """Paper Table I values, verbatim."""

    @pytest.mark.parametrize(
        "alias, n, h, d, log_t, k, w",
        [
            ("128f", 16, 66, 22, 6, 33, 16),
            ("192f", 24, 66, 22, 8, 33, 16),
            ("256f", 32, 68, 17, 9, 35, 16),
        ],
    )
    def test_f_sets(self, alias, n, h, d, log_t, k, w):
        p = get_params(alias)
        assert (p.n, p.h, p.d, p.log_t, p.k, p.w) == (n, h, d, log_t, k, w)


class TestWotsGeometry:
    @pytest.mark.parametrize(
        "alias, len1, len2, total",
        [("128f", 32, 3, 35), ("192f", 48, 3, 51), ("256f", 64, 3, 67)],
    )
    def test_chain_counts(self, alias, len1, len2, total):
        p = get_params(alias)
        assert p.wots_len1 == len1
        assert p.wots_len2 == len2
        assert p.wots_len == total

    @pytest.mark.parametrize(
        "alias, expected", [("128f", 560), ("192f", 816), ("256f", 1072)]
    )
    def test_hashes_per_wots_leaf_matches_paper(self, alias, expected):
        """Paper §III: 560/816/1072 SHA-2 computations per wots_gen_leaf."""
        assert get_params(alias).hashes_per_wots_leaf == expected


class TestSizes:
    def test_signature_size_128f_matches_paper_intro(self):
        """The paper quotes 17,088 bytes for SPHINCS+-128f."""
        assert get_params("128f").sig_bytes == 17088

    @pytest.mark.parametrize("alias, size", [("192f", 35664), ("256f", 49856)])
    def test_other_f_signature_sizes(self, alias, size):
        assert get_params(alias).sig_bytes == size

    def test_key_sizes(self):
        p = get_params("128f")
        assert p.pk_bytes == 32

    def test_small_sets_are_smaller(self):
        assert get_params("128s").sig_bytes < get_params("128f").sig_bytes


class TestTreeGeometry:
    def test_fors_leaf_totals_match_paper(self):
        """Paper §III-B.1: FORS has 2,112 / 8,448 / 17,920 leaves."""
        for alias, leaves in (("128f", 2112), ("192f", 8448),
                              ("256f", 17920)):
            params = get_params(alias)
            assert params.k * params.t == leaves

    def test_hypertree_leaf_totals_match_paper(self):
        """Paper §III-B.1: hypertree structures have 176/176/272 leaves."""
        for alias, leaves in (("128f", 176), ("192f", 176), ("256f", 272)):
            params = get_params(alias)
            assert params.d * params.tree_leaves == leaves

    def test_tree_height_divides(self):
        for p in PARAMETER_SETS.values():
            assert p.tree_height * p.d == p.h
            assert p.tree_leaves == 2 ** p.tree_height


class TestDigestGeometry:
    def test_digest_parts_128f(self):
        p = get_params("128f")
        assert p.fors_msg_bytes == 25   # ceil(33*6/8)
        assert p.tree_msg_bytes == 8    # ceil(63/8)
        assert p.leaf_msg_bytes == 1    # ceil(3/8)
        assert p.digest_bytes == 34

    def test_digest_covers_all_indices(self):
        for p in PARAMETER_SETS.values():
            assert p.fors_msg_bytes * 8 >= p.k * p.log_t
            assert p.tree_msg_bytes * 8 >= p.h - p.tree_height
            assert p.leaf_msg_bytes * 8 >= p.tree_height


class TestHashCounts:
    def test_fors_sign_hashes_formula(self):
        p = get_params("128f")
        # 33 trees x (64 leaves x 2 + 63 internal nodes)
        assert p.fors_sign_hashes() == 33 * (64 * 2 + 63)

    def test_total_is_sum_of_components(self):
        for alias in ("128f", "192f", "256f"):
            p = get_params(alias)
            assert p.total_sign_hashes() == (
                p.fors_sign_hashes() + p.tree_sign_hashes() + p.wots_sign_hashes()
            )

    def test_hash_count_ordering(self):
        """TREE (MSS) dominates every set (paper Table II); FORS grows past
        WOTS+ as the security level rises."""
        for alias in ("128f", "192f", "256f"):
            p = get_params(alias)
            assert p.tree_sign_hashes() > p.fors_sign_hashes()
            assert p.tree_sign_hashes() > p.wots_sign_hashes()
        for alias in ("192f", "256f"):
            p = get_params(alias)
            assert p.fors_sign_hashes() > p.wots_sign_hashes()


class TestValidation:
    def test_indivisible_height_rejected(self):
        with pytest.raises(ParameterError, match="divisible"):
            SphincsParams("bad", 16, 65, 22, 6, 33, 16)

    def test_non_power_of_two_w_rejected(self):
        with pytest.raises(ParameterError, match="power of two"):
            SphincsParams("bad", 16, 66, 22, 6, 33, 15)

    def test_bad_n_rejected(self):
        with pytest.raises(ParameterError, match="must be 16, 24 or 32"):
            SphincsParams("bad", 20, 66, 22, 6, 33, 16)
