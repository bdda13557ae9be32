"""The hypertree layer cache: model, lifecycle, and byte-identity.

Three properties carry the whole feature:

* the **model** (``repro.runtime.layercache``) sizes pinned regions
  sanely — budgets map to layer counts monotonically and the cap on
  filling a whole region is honored;
* the **cache** itself is one store per parameter set — every key's
  subtrees, links and memoised signatures share one byte budget, least
  recently used out, nothing below the pinned layers is kept, and
  invalidating one key forgets that key only;
* a **warm cache changes no bytes** — cached-vs-cold signatures are
  identical on every pinned KAT parameter set, what signing fills is the
  reference region's (``walked_region`` in ``tests/conftest.py``), and
  key rotation / tenant deletion drop the stale state before it can
  sign again.

(The replay memo's end-to-end behaviour is in ``test_memo.py``.)
"""

import asyncio

import pytest

from repro.params import get_params
from repro.runtime import WorkerPool, get_backend
from repro.runtime.layercache import (
    DEFAULT_BUDGET_MB,
    HypertreeLayerCache,
    MAX_FILL_HASHES,
    choose_pinned_layers,
    fill_hashes,
    link_entry_bytes,
    pinned_bytes,
    pinned_link_count,
    pinned_tree_count,
    savings_fraction,
    tradeoff_table,
    tree_entry_bytes,
)
from repro.runtime.plan import subtree_hashes
from repro.testing.kat import KAT_SETS


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as shared:
        yield shared


def _seed(params_name: str) -> bytes:
    return bytes(3 * get_params(params_name).n)


def _fake_nodes(params) -> bytes:
    """A flat subtree's worth of meaningless bytes."""
    return bytes((2 * params.tree_leaves - 1) * params.n)


def _fake_signature(params, tag: int) -> bytes:
    return tag.to_bytes(4, "big") * (params.sig_bytes // 4)


def _fake_chains(params) -> bytes:
    """A link signature's worth: one chain value per WOTS chain."""
    return bytes(params.wots_len * params.n)


#: Two keys' seeds, ``(sk_seed, pk_seed)``.
SEED, OTHER = (bytes(16), bytes(16)), (bytes(16), b"\x01" * 16)


def _memo_entry_bytes(params) -> int:
    """What one remembered signature weighs in the cache."""
    cache = HypertreeLayerCache(params, pinned_layers=0)
    cache.remember(SEED, b"digest", _fake_signature(params, 0))
    return cache.stats["bytes"]


class TestModel:
    def test_pinned_tree_count_is_geometric(self):
        params = get_params("128f")
        leaves = params.tree_leaves
        assert pinned_tree_count(params, 0) == 0
        assert pinned_tree_count(params, 1) == 1
        assert pinned_tree_count(params, 3) == 1 + leaves + leaves ** 2
        # Links: every leaf of a pinned tree signs one child root ...
        assert pinned_link_count(params, 3) \
            == leaves * pinned_tree_count(params, 3)
        # ... except at layer 0, which signs the FORS public key.
        assert pinned_link_count(params, params.d) \
            == leaves * pinned_tree_count(params, params.d - 1)

    def test_choose_pinned_layers_monotone_in_budget(self):
        params = get_params("128f")
        tiny = choose_pinned_layers(params, 4 * tree_entry_bytes(params))
        default = choose_pinned_layers(
            params, int(DEFAULT_BUDGET_MB * 1024 * 1024))
        assert 0 <= tiny <= default
        assert default >= 1  # the default budget must cache *something*
        # The chosen region actually fits in half the budget.
        assert (pinned_bytes(params, default)
                <= int(DEFAULT_BUDGET_MB * 1024 * 1024) // 2)

    def test_choose_pinned_layers_honors_prewarm_cap(self):
        params = get_params("128f")
        budget = int(DEFAULT_BUDGET_MB * 1024 * 1024)
        chosen = choose_pinned_layers(params, budget)
        assert fill_hashes(params, chosen) <= MAX_FILL_HASHES
        # One layer more would fit the budget, but not the fill cap.
        assert pinned_bytes(params, chosen + 1) <= budget // 2
        assert fill_hashes(params, chosen + 1) > MAX_FILL_HASHES

    def test_tradeoff_table_covers_every_set(self):
        rows = tradeoff_table()
        names = {row["params"] for row in rows}
        assert {get_params(name).name for name in KAT_SETS} <= names
        budget = int(DEFAULT_BUDGET_MB * 1024 * 1024)
        for row in rows:
            assert row["pinned_layers"] >= 1, row
            assert 0.0 < row["saved_fraction"] < 1.0, row
            assert row["fill_hashes"] <= MAX_FILL_HASHES, row
            # One key's whole region fits half the set's budget.
            params = get_params(row["params"])
            assert row["warm_keys"] == budget // pinned_bytes(
                params, row["pinned_layers"]) >= 2, row

    def test_prewarm_costs_the_subtree_builds_and_keeps_each_sets_layers(
            self):
        """A fill reads its links out of its own chain tables, so the
        whole region's price is the subtree builds alone, each the
        digests a ``SUBTREE`` task makes (``test_plan.py`` records
        them) — and dropping the link walks from it moves no parameter
        set's pinned layer count."""
        rows = {row["params"]: (row["pinned_layers"], row["fill_hashes"])
                for row in tradeoff_table()}
        assert rows == {
            "SPHINCS+-128f": (3, 328_135), "SPHINCS+-128s": (1, 287_743),
            "SPHINCS+-192f": (3, 477_639), "SPHINCS+-192s": (1, 418_815),
            "SPHINCS+-256f": (2, 292_111), "SPHINCS+-256s": (1, 274_943)}
        for name, (layers, hashes) in rows.items():
            params = get_params(name)
            assert hashes == (pinned_tree_count(params, layers)
                              * subtree_hashes(params))

    def test_savings_fraction_grows_with_layers(self):
        params = get_params("128f")
        assert savings_fraction(params, 0) == 0.0
        assert (savings_fraction(params, 1)
                < savings_fraction(params, 2)
                < savings_fraction(params, 3))


class TestCacheLifecycle:
    def test_miss_then_hit_counters(self):
        params = get_params("128f")
        top = params.d - 1
        cache = HypertreeLayerCache(params, pinned_layers=1)
        assert cache.lookup_tree(SEED, top, 0) is None
        cache.store_tree(SEED, top, 0, _fake_nodes(params))
        assert cache.lookup_tree(SEED, top, 0) is not None
        assert cache.lookup_tree(OTHER, top, 0) is None  # another key's
        assert cache.stats["misses"] == 2
        assert cache.stats["hits"] == 1
        # A memo hit is one more hit; a memo miss is not a miss (the
        # subtree lookups that follow it are).
        assert cache.recall(SEED, b"digest") is None
        cache.remember(SEED, b"digest", b"signature")
        assert cache.recall(SEED, b"digest") == b"signature"
        assert cache.recall(OTHER, b"digest") is None
        assert cache.stats["misses"] == 2
        assert cache.stats["hits"] == 2
        assert cache.stats["memo_hits"] == 1

    def test_nothing_below_the_pinned_layers_is_kept(self):
        params = get_params("128f")
        cache = HypertreeLayerCache(params, pinned_layers=2)
        floor = cache.pinned_floor
        assert floor == params.d - 2
        cache.store_tree(SEED, floor - 1, 0, _fake_nodes(params))
        cache.store_link(SEED, floor - 1, 0, 0, _fake_chains(params))
        assert cache.lookup_tree(SEED, floor - 1, 0) is None
        assert cache.lookup_link(SEED, floor - 1, 0, 0) is None
        assert cache.stats["bytes"] == cache.stats["keys"] == 0

    def test_lru_evicts_oldest_under_byte_pressure(self):
        params = get_params("128f")
        budget = 2 * _memo_entry_bytes(params)
        cache = HypertreeLayerCache(params, budget_bytes=budget,
                                    pinned_layers=0)
        for tag in range(4):
            cache.remember((SEED, OTHER)[tag % 2], bytes([tag]),
                           _fake_signature(params, tag))
        assert cache.stats["memo_entries"] == 2
        assert cache.stats["bytes"] <= budget
        assert cache.recall(SEED, bytes([0])) is None  # oldest, gone
        assert cache.recall(OTHER, bytes([3])) == _fake_signature(params, 3)

    def test_lookup_refreshes_recency(self):
        params = get_params("128f")
        top = params.d - 1
        cache = HypertreeLayerCache(
            params, pinned_layers=1,
            budget_bytes=tree_entry_bytes(params)
            + 2 * _memo_entry_bytes(params))
        cache.store_tree(SEED, top, 0, _fake_nodes(params))
        cache.remember(SEED, b"0", _fake_signature(params, 0))
        cache.remember(OTHER, b"1", _fake_signature(params, 1))
        cache.recall(SEED, b"0")  # 0 becomes most-recent
        cache.lookup_tree(SEED, top, 0)  # ... then the tree
        cache.remember(OTHER, b"2", _fake_signature(params, 2))  # evicts 1
        assert cache.recall(OTHER, b"1") is None
        assert cache.recall(SEED, b"0") is not None
        assert cache.lookup_tree(SEED, top, 0) is not None

    def test_layer0_links_never_cached(self):
        params = get_params("128f")
        cache = HypertreeLayerCache(params, pinned_layers=params.d)
        cache.store_link(SEED, 0, 0, 0, b"chain")
        assert cache.lookup_link(SEED, 0, 0, 0) is None
        cache.store_link(SEED, 1, 0, 0, b"chain")
        assert cache.lookup_link(SEED, 1, 0, 0) == b"chain"

    def test_entries_weigh_what_the_model_says(self):
        """A fully populated pinned region weighs ``pinned_bytes``, every
        link a pinned tree can hold included; signatures past the budget
        then evict the oldest entries, pinned or not."""
        params = get_params("128f")
        leaves, top = params.tree_leaves, params.d - 1
        budget = pinned_bytes(params, 2) + 3 * _memo_entry_bytes(params)
        cache = HypertreeLayerCache(params, budget_bytes=budget,
                                    pinned_layers=2)
        for layer, trees in ((top, 1), (top - 1, leaves)):
            for tree in range(trees):
                cache.store_tree(SEED, layer, tree, _fake_nodes(params))
                for leaf in range(leaves):
                    cache.store_link(SEED, layer, tree, leaf,
                                     _fake_chains(params))
        assert cache.stats["bytes"] == pinned_bytes(params, 2)
        assert (cache.stats["bytes"]
                - (1 + leaves) * tree_entry_bytes(params)
                == (1 + leaves) * leaves * link_entry_bytes(params))
        for tag in range(3):
            cache.remember(SEED, bytes([tag]), _fake_signature(params, tag))
        assert cache.stats["bytes"] == budget
        cache.remember(SEED, b"past", _fake_signature(params, 3))
        assert cache.stats["bytes"] <= budget
        assert cache.lookup_tree(SEED, top, 0) is None  # the oldest went
        assert cache.stats["memo_entries"] == 4


class TestBackendIntegration:
    def test_a_first_sign_fills_only_its_path(self):
        """keygen pins the top subtree; a first sign fills the rest of
        its one path through the pinned layers, nothing beside it."""
        params = get_params("128f")
        backend = get_backend("vectorized", "128f", deterministic=True)
        keys = backend.keygen(seed=_seed("128f"))
        backend.sign_batch([b"first"], keys)
        stats = backend.cache_stats()
        expected_layers = choose_pinned_layers(
            params, int(DEFAULT_BUDGET_MB * 1024 * 1024))
        assert stats["pinned_layers"] == expected_layers == 3
        assert stats["pinned_trees"] == expected_layers

    @pytest.mark.parametrize("params_name", KAT_SETS)
    def test_signing_fills_the_walked_region_in_process_and_pooled(
            self, params_name, pool, walked_region):
        """Fills on demand, in-process and on two workers, hold exactly
        the walked region's bytes: every subtree and every link between
        pinned trees the cache holds is that region's entry.  (A link at
        the floor signs a root below the region; the signatures' bytes
        check it, ``test_cached_vs_cold_byte_identity``.)"""
        params = get_params(params_name)
        keys = get_backend("scalar", params_name,
                           deterministic=True).keygen(seed=_seed(params_name))
        messages = [f"walked {params_name} {i}".encode() for i in range(3)]
        for options in ({}, {"pool": pool}):
            backend = get_backend("vectorized", params_name,
                                  deterministic=True, **options)
            backend.sign_batch(messages[:1], keys)
            backend.sign_batch(messages[1:], keys)
            cache = backend.cache
            trees, links = walked_region(params, keys, cache.pinned_floor)
            cached = {entry[1:]: value
                      for entry, value in cache._entries.items()
                      if entry[0] == (keys.sk_seed, keys.pk_seed)}
            assert [key for key in cached if len(key) == 2] and all(
                trees[key] == nodes for key, nodes in cached.items()
                if len(key) == 2)
            above = {key: chains for key, chains in cached.items()
                     if len(key) == 3 and key[0] > cache.pinned_floor}
            assert all(links[key] == chains
                       for key, chains in above.items())
            if cache.pinned_layers > 1:
                assert above

    def test_many_keys_past_a_small_budget_stay_inside_it(self):
        """Fresh signatures under nine keys push a 0.1 MiB budget (about
        five signatures' worth) past it again and again: the bytes never
        pass it, idle keys' entries go, and the key that signs every
        round keeps its top-layer subtree."""
        params = get_params("128f")
        backend = get_backend("vectorized", "128f", deterministic=True,
                              cache_budget_mb=0.1)
        busy, *others = [backend.keygen(seed=bytes([index]) * 48)
                         for index in range(9)]
        top = (busy.sk_seed, busy.pk_seed), params.d - 1, 0
        for turn, keys in enumerate(others):
            for signer in (keys, busy):
                backend.sign_batch([b"fresh %d" % turn], signer)
                stats = backend.cache_stats()
                assert stats["bytes"] <= stats["budget_bytes"]
            assert backend.cache.lookup_tree(*top) is not None
        assert stats["pinned_layers"] == 2 and stats["keys"] < 9

    def test_warm_signatures_match_scalar(self, warm_key):
        scalar = get_backend("scalar", "128f", deterministic=True)
        vectorized = get_backend("vectorized", "128f", deterministic=True)
        keys = scalar.keygen(seed=_seed("128f"))
        warm_key(vectorized, keys)
        messages = [b"warm-a", b"warm-b"]
        assert (vectorized.sign_batch(messages, keys).signatures
                == scalar.sign_batch(messages, keys).signatures)

    @pytest.mark.parametrize("params_name", KAT_SETS)
    def test_cached_vs_cold_byte_identity(self, params_name, warm_key):
        """A signature over warm pinned layers (subtrees and link
        signatures out of the cache, no chain table there) must equal
        the one a cold backend builds from scratch."""
        cold = get_backend("vectorized", params_name, deterministic=True)
        keys = cold.keygen(seed=_seed(params_name))
        message = f"layer-cache {params_name}".encode()
        expected = cold.sign_batch([message], keys).signatures
        warm = get_backend("vectorized", params_name, deterministic=True)
        warm_key(warm, keys)
        warm_result = warm.sign_batch([message], keys)
        assert warm_result.signatures == expected
        assert warm.verify_batch([message], warm_result.signatures,
                                 keys.public) == [True]
        # The warm pass genuinely came out of the cache.
        assert warm_result.cache_stats["hits"] > 0
        assert warm_result.cache_stats["memo_hits"] == 0


class TestServiceInvalidation:
    def _service(self, tmp_path, budget=1.0):
        from repro.service import Keystore, SigningService, derive_seed

        keystore = Keystore()
        keystore.add_tenant("acme", "128f")
        keystore.generate_key("acme", "default",
                              seed=derive_seed("acme/default", 16))
        service = SigningService(keystore, backend="vectorized",
                                 target_batch_size=1, max_wait_s=0.01,
                                 deterministic=True,
                                 cache_budget_mb=budget)
        return keystore, service

    def test_rotation_invalidates_and_rewarmss(self, tmp_path):
        async def run():
            keystore, service = self._service(tmp_path)
            try:
                before = await service.sign(b"pre-rotation", "acme")
                old_pk = keystore.resolve("acme")[0].public
                new_keys = keystore.rotate_key("acme", "default")
                after = await service.sign(b"post-rotation", "acme")
                scheme_verify = service.engine.backend_for("SPHINCS+-128f")
                assert scheme_verify.verify_batch(
                    [b"post-rotation"], [after.signature],
                    new_keys.public) == [True]
                # The old key's signature no longer verifies under the new
                # public key — and the new signature was produced by a
                # freshly warmed cache, not stale subtrees of the old key.
                assert scheme_verify.verify_batch(
                    [b"pre-rotation"], [before.signature],
                    new_keys.public) == [False]
                assert old_pk != new_keys.public
            finally:
                await service.drain()
                service.close()

        asyncio.run(run())


class TestPoolCache:
    def test_warm_on_spawn_reports_cache_snapshot(self, warm_key):
        """The pooled tier's one layer cache is the coordinator's: warm
        it, sign through one worker, kill the worker — the respawned one
        needs no re-warming, because workers never held anything."""
        scalar = get_backend("scalar", "128f", deterministic=True)
        keys = scalar.keygen(seed=_seed("128f"))
        messages = [b"pool-cache-0", b"pool-cache-1"]
        expected = scalar.sign_batch(messages, keys).signatures
        with WorkerPool(workers=1) as pool:
            backend = get_backend("vectorized", "128f", deterministic=True,
                                  pool=pool)
            warm_key(backend, keys)
            cache = backend.cache_stats()
            assert cache["pinned_trees"] > 0
            assert cache["pinned_layers"] >= 1
            assert "cache" not in pool.stats()["per_worker"]["0"]
            assert backend.sign_batch(messages, keys).signatures == expected
            pool.inject_crash(0, when="now")
            # Fresh messages: a replay would be a memo hit, no worker.
            fresh = [b"pool-cache-2", b"pool-cache-3"]
            assert backend.sign_batch(fresh, keys).signatures \
                == scalar.sign_batch(fresh, keys).signatures
            assert backend.cache_stats()["pinned_trees"] \
                == cache["pinned_trees"]
