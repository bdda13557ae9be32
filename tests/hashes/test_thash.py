"""Tweakable hash construction tests: domain separation, truncation,
midstate caching, MGF1 and compression counting."""

import hashlib

import pytest

from repro.hashes.address import Address, AddressType
from repro.hashes.thash import HashContext, mgf1_sha256
from repro.params import get_params


@pytest.fixture
def ctx128():
    return HashContext(get_params("128f"))


def _adrs(tree=0, keypair=0):
    adrs = Address().set_tree(tree)
    adrs.set_type(AddressType.WOTS_HASH)
    adrs.set_keypair(keypair)
    return adrs


class TestThash:
    def test_output_is_n_bytes(self, ctx128):
        out = ctx128.thash(b"P" * 16, _adrs(), b"m" * 16)
        assert len(out) == 16

    def test_construction_matches_spec(self, ctx128):
        """thash = SHA-256(pk_seed || pad-to-64 || ADRS_c || M), first n bytes."""
        pk_seed = b"P" * 16
        adrs = _adrs(tree=9)
        msg = b"m" * 16
        expected = hashlib.sha256(
            pk_seed + b"\x00" * 48 + adrs.compressed() + msg
        ).digest()[:16]
        assert ctx128.thash(pk_seed, adrs, msg) == expected

    def test_address_separates_domains(self, ctx128):
        a = ctx128.thash(b"P" * 16, _adrs(tree=1), b"m" * 16)
        b = ctx128.thash(b"P" * 16, _adrs(tree=2), b"m" * 16)
        assert a != b

    def test_seed_separates_domains(self, ctx128):
        a = ctx128.thash(b"P" * 16, _adrs(), b"m" * 16)
        b = ctx128.thash(b"Q" * 16, _adrs(), b"m" * 16)
        assert a != b

    def test_multi_chunk_equals_concatenation(self, ctx128):
        chunks = [b"a" * 16, b"b" * 16]
        assert ctx128.thash(b"P" * 16, _adrs(), *chunks) == ctx128.thash(
            b"P" * 16, _adrs(), b"".join(chunks)
        )

    def test_midstate_cache_transparent(self, ctx128):
        """Repeated calls under the same seed reuse the midstate but yield
        identical digests."""
        first = ctx128.thash(b"P" * 16, _adrs(), b"m" * 16)
        second = ctx128.thash(b"P" * 16, _adrs(), b"m" * 16)
        assert first == second
        assert len(ctx128._midstates) == 1

    def test_midstate_cache_is_bounded(self, ctx128):
        """Oldest-out eviction: thousands of distinct seeds leave the cache
        at its fixed capacity, and an evicted seed hashes as it did."""
        from repro.hashes import thash

        seeds = [i.to_bytes(16, "big") for i in range(5 * thash._MAX_MIDSTATES)]
        first = ctx128.thash(seeds[0], _adrs(), b"m" * 16)
        for seed in seeds[1:]:
            ctx128.midstate(seed)
            assert len(ctx128._midstates) <= thash._MAX_MIDSTATES
        assert len(ctx128._midstates) == thash._MAX_MIDSTATES
        assert seeds[0] not in ctx128._midstates
        assert seeds[-1] in ctx128._midstates
        assert ctx128.thash(seeds[0], _adrs(), b"m" * 16) == first
        assert first == HashContext(ctx128.params).thash(
            seeds[0], _adrs(), b"m" * 16)

    def test_midstate_cache_survives_concurrent_eviction(self, ctx128,
                                                         monkeypatch):
        """More threads than cores churn a 4-entry cache: every returned
        midstate is the right one and the cache never outgrows its cap."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.hashes import thash

        monkeypatch.setattr(thash, "_MAX_MIDSTATES", 4)
        seeds = [bytes([i]) * 16 for i in range(32)]
        expected = {seed: hashlib.sha256(seed + bytes(48)).digest()
                    for seed in seeds}

        def churn(offset: int) -> int:
            wrong = 0
            for step in range(2000):
                seed = seeds[(offset + 7 * step) % len(seeds)]
                wrong += ctx128.midstate(seed).digest() != expected[seed]
                wrong += len(ctx128._midstates) > 4
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(churn, offset) for offset in range(8)]
                assert [f.result(timeout=60) for f in futures] == [0] * 8
        finally:
            sys.setswitchinterval(interval)


class TestPrf:
    def test_prf_is_t1_over_sk_seed(self, ctx128):
        """In the SHA-256 simple instantiation PRF == T_1(sk_seed); the
        domain separation comes from the ADRS *type* word, so signing code
        must use WOTS_PRF/FORS_PRF addresses."""
        adrs = _adrs()
        assert ctx128.prf(b"P" * 16, b"S" * 16, adrs) == ctx128.thash(
            b"P" * 16, adrs, b"S" * 16
        )
        prf_adrs = adrs.copy()
        prf_adrs.set_type(AddressType.WOTS_PRF)
        assert ctx128.prf(b"P" * 16, b"S" * 16, prf_adrs) != ctx128.thash(
            b"P" * 16, adrs, b"S" * 16
        )

    def test_prf_depends_on_all_inputs(self, ctx128):
        base = ctx128.prf(b"P" * 16, b"S" * 16, _adrs())
        assert base != ctx128.prf(b"Q" * 16, b"S" * 16, _adrs())
        assert base != ctx128.prf(b"P" * 16, b"T" * 16, _adrs())
        assert base != ctx128.prf(b"P" * 16, b"S" * 16, _adrs(tree=1))


class TestMessageHashing:
    def test_h_msg_length(self, ctx128):
        params = get_params("128f")
        digest = ctx128.h_msg(b"R" * 16, b"P" * 16, b"T" * 16, b"hello")
        assert len(digest) == params.digest_bytes

    def test_h_msg_sensitive_to_message(self, ctx128):
        a = ctx128.h_msg(b"R" * 16, b"P" * 16, b"T" * 16, b"hello")
        b = ctx128.h_msg(b"R" * 16, b"P" * 16, b"T" * 16, b"hellp")
        assert a != b

    def test_prf_msg_is_hmac(self, ctx128):
        import hmac

        expected = hmac.new(
            b"K" * 16, b"O" * 16 + b"msg", hashlib.sha256
        ).digest()[:16]
        assert ctx128.prf_msg(b"K" * 16, b"O" * 16, b"msg") == expected


class TestMgf1:
    def test_prefix_property(self):
        long = mgf1_sha256(b"seed", 100)
        short = mgf1_sha256(b"seed", 40)
        assert long[:40] == short

    def test_exact_lengths(self):
        for length in (0, 1, 32, 33, 64, 100):
            assert len(mgf1_sha256(b"s", length)) == length

    def test_counter_blocks_differ(self):
        out = mgf1_sha256(b"seed", 64)
        assert out[:32] != out[32:]


class TestHashCounting:
    def test_counting_disabled_by_default(self, ctx128):
        ctx128.thash(b"P" * 16, _adrs(), b"m" * 16)
        assert ctx128.hash_calls == 0

    def test_counts_compressions_past_midstate(self):
        ctx = HashContext(get_params("128f"), count_hashes=True)
        ctx.thash(b"P" * 16, _adrs(), b"m" * 16)
        assert ctx.hash_calls == 1  # 22B ADRS + 16B msg + padding -> 1 block
        ctx.hash_calls = 0
        ctx.thash(b"P" * 16, _adrs(), b"m" * 80)
        assert ctx.hash_calls == 2  # spills into a second block
