"""The replay memo: a signature seen before is a lookup, byte for byte.

In deterministic mode ``R = PRF_msg(sk_prf, pk_seed, M)``, so under one
``(sk_seed, pk_seed)`` a signature is a pure function of ``sk_prf`` and
the message; ``VectorizedBackend`` keeps finished signatures under the
key's seeds and SHA-256(``sk_prf`` || message), in its parameter set's
one layer cache, and answers a replay without a plan and
without ``prepare``: no PRF_msg, no H_msg, no FORS, no subtree, no
stitch, no pool trip — one hash of the message and a lookup.
Randomized, the randomizer never repeats and the memo is neither read
nor filled.  (First, second and tenth sight against the reference on
every KAT parameter set, inline and pooled:
``test_plan.py::test_inline_and_pooled_plans_match_the_reference``; a
replay through the pool handing it no task:
``test_pool.py::TestPoolSigning::test_warm_preloads_key_caches``.)
"""

import asyncio
import sys
import threading
from collections import OrderedDict

import pytest

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from test_fast_verify import RecordingContext

from repro.params import get_params
from repro.runtime import get_backend
from repro.runtime.layercache import HypertreeLayerCache
from repro.service import Keystore, derive_seed
from repro.service.engine import SigningEngine
from repro.sphincs.signer import Sphincs


def _spy_on_prepare(backend):
    """Count the messages *backend* prepares (PRF_msg + H_msg each)."""
    prepared = []
    genuine = backend._scheme.prepare

    def prepare(message, keys):
        prepared.append(message)
        return genuine(message, keys)

    backend._scheme.prepare = prepare
    return prepared


def test_replay_hashes_the_message_and_nothing_else():
    params = get_params("128f")
    backend = get_backend("vectorized", "128f", deterministic=True)
    ctx = backend.ctx = backend._scheme.ctx = RecordingContext(params)
    keys = Sphincs(params).keygen(seed=bytes(3 * params.n))
    message = bytes(4096)

    first = backend.sign_batch([message], keys)
    assert len(ctx.inputs) > 100_000
    inputs, calls = len(ctx.inputs), ctx.hash_calls
    replay = backend.sign_batch([message], keys)
    # No tweakable hash ran (thash, prf and the midstate kernels all
    # record or tally), and neither did PRF_msg nor H_msg: the memo key
    # is one SHA-256 of sk_prf and the message, off the context.
    assert len(ctx.inputs) == inputs and ctx.hash_calls == calls
    assert replay.signatures == first.signatures
    assert replay.stage_seconds["fors"] == 0.0


def test_recall_answers_without_preparing_the_message():
    backend = get_backend("vectorized", "128f", deterministic=True)
    keys = backend.keygen(seed=bytes(48))
    message = b"attestation " * 300
    prepared = _spy_on_prepare(backend)
    assert backend.recall(message, keys) is None
    [signature] = backend.sign_batch([message], keys).signatures
    assert prepared == [message]  # the first sight, planned
    assert backend.recall(message, keys) == signature
    assert backend.sign_batch([message], keys).signatures == [signature]
    assert prepared == [message]  # neither replay prepared it again
    assert backend.cache_stats()["memo_hits"] == 2


def test_key_pairs_differing_only_in_sk_prf_never_share_a_signature():
    """Same ``sk_seed`` and ``pk_seed`` (so one key in the layer cache),
    another ``sk_prf``: another randomizer, another signature."""
    n = get_params("128f").n
    backend = get_backend("vectorized", "128f", deterministic=True)
    reference = Sphincs("128f", deterministic=True)
    sk_seed, pk_seed = bytes(n), bytes(range(n))
    one, other = (backend.keygen(seed=sk_seed + bytes([prf]) * n + pk_seed)
                  for prf in (1, 2))
    assert (one.sk_seed, one.pk_seed, one.pk_root) \
        == (other.sk_seed, other.pk_seed, other.pk_root)
    assert backend.cache_stats()["keys"] == 1
    message = b"same message, two keys"
    [mine] = backend.sign_batch([message], one).signatures
    assert backend.recall(message, other) is None
    [theirs] = backend.sign_batch([message], other).signatures
    assert mine == reference.sign(message, one)
    assert theirs == reference.sign(message, other) != mine
    assert backend.cache_stats()["memo_hits"] == 0
    assert backend.recall(message, one) == mine
    assert backend.recall(message, other) == theirs


def test_a_message_repeated_in_one_batch_is_planned_once():
    backend = get_backend("vectorized", "128f", deterministic=True)
    keys = backend.keygen(seed=bytes(48))
    reference = Sphincs("128f", deterministic=True)
    prepared = _spy_on_prepare(backend)
    result = backend.sign_batch([b"twice", b"once", b"twice"], keys)
    assert prepared == [b"twice", b"once"]
    first, once, second = result.signatures
    assert first == second == reference.sign(b"twice", keys)
    assert once == reference.sign(b"once", keys)
    assert backend.cache_stats()["memo_entries"] == 2


def test_randomized_mode_never_reads_or_fills_the_memo():
    backend = get_backend("vectorized", "128f")
    keys = backend.keygen(seed=bytes(48))
    pinned = backend.cache_stats()["bytes"]  # keygen built the top tree
    first, second = (backend.sign_batch([b"same"], keys) for _ in range(2))
    assert first.signatures != second.signatures
    assert backend.verify_batch([b"same"] * 2, first.signatures
                                + second.signatures, keys.public) == [True] * 2
    stats = backend.cache_stats()
    assert stats["memo_entries"] == stats["memo_hits"] == 0
    # Whatever the cache grew by is pinned subtrees and links, and stays.
    assert stats["bytes"] > pinned
    backend.sign_batch([b"same"], keys)
    assert backend.cache_stats()["memo_entries"] == 0


@pytest.mark.parametrize("count", [9, 64])
def test_replays_under_many_keys_are_memo_hits(count):
    """One message per key under *count* keys of one set, signed once and
    replayed twice round-robin: every replay is a memo hit and prepares
    nothing, however many keys there are.  Rotating one key re-signs its
    message under the new key while every other key still hits."""
    tenants = [f"tenant-{index:02d}" for index in range(count)]
    keystore = Keystore()
    for tenant in tenants:
        keystore.add_tenant(tenant, "128f")
        keystore.generate_key(tenant, "default",
                              seed=derive_seed(f"{tenant}/default", 16))
    engine = SigningEngine(keystore, deterministic=True)

    def sign(tenant):
        result, _ = engine.sign_batch(tenant, "default", [messages[tenant]])
        return result.signatures[0]

    try:
        backend = engine.backend_for("SPHINCS+-128f")
        messages = {tenant: f"attestation of {tenant}".encode()
                    for tenant in tenants}
        signed = {tenant: sign(tenant) for tenant in tenants}
        prepared = _spy_on_prepare(backend)
        for _ in range(2):
            for tenant in tenants:
                assert sign(tenant) == signed[tenant]
        assert prepared == []
        assert backend.cache_stats()["memo_hits"] == 2 * count
        rotated, *others = tenants
        new_keys = keystore.rotate_key(rotated, "default")
        assert sign(rotated) == Sphincs("128f", deterministic=True).sign(
            messages[rotated], new_keys) != signed[rotated]
        assert prepared == [messages[rotated]]
        for tenant in others:
            assert sign(tenant) == signed[tenant]
        assert prepared == [messages[rotated]]
        assert backend.cache_stats()["memo_hits"] == 3 * count - 1
        # The retired key's entries stay until the budget evicts them.
        assert backend.cache_stats()["keys"] == count + 1
    finally:
        engine.close()


def test_rotation_serves_the_new_keys_signature():
    from repro.service import Keystore, SigningService, derive_seed

    keystore = Keystore()
    keystore.add_tenant("acme", "128f")
    keystore.generate_key("acme", "default",
                          seed=derive_seed("acme/default", 16))
    service = SigningService(keystore, backend="vectorized",
                             target_batch_size=1, max_wait_s=0.01,
                             deterministic=True)
    reference = Sphincs("128f", deterministic=True)

    async def run():
        try:
            old_keys = keystore.resolve("acme")[0]
            before = await service.sign(b"same request", "acme")
            replayed = await service.sign(b"same request", "acme")
            new_keys = keystore.rotate_key("acme", "default")
            after = await service.sign(b"same request", "acme")
            return old_keys, new_keys, before, replayed, after
        finally:
            await service.drain()
            service.close()

    old_keys, new_keys, before, replayed, after = asyncio.run(run())
    assert before.signature == replayed.signature \
        == reference.sign(b"same request", old_keys)
    assert after.signature == reference.sign(b"same request", new_keys)
    assert after.signature != before.signature


def test_cache_table_and_stats_verb_report_the_memo():
    from repro.service import Keystore, SigningService
    from repro.service.telemetry import render_snapshot

    keystore = Keystore()
    keystore.add_tenant("acme", "128f")
    keystore.generate_key("acme", "default", seed=bytes(48))
    service = SigningService(keystore, backend="vectorized",
                             target_batch_size=1, max_wait_s=0.01,
                             deterministic=True)

    async def run():
        try:
            for _ in range(3):
                await service.sign(b"stats", "acme")
            return service.stats()
        finally:
            await service.drain()
            service.close()

    stats = asyncio.run(run())
    [scope] = stats["cache"]["scopes"].values()
    assert scope["memo_entries"] == 1 and scope["memo_hits"] == 2
    assert scope["hits"] >= 2
    assert not {"evictions", "link_hits", "link_misses"} & set(scope)
    report = render_snapshot(stats)
    table = report[report.index("Hypertree layer caches"):]
    header = table.splitlines()[1]
    assert "memo hits" in header and "memo entries" in header
    assert "evictions" not in table and "link" not in table


_PARAMS = get_params("128f")


def _weight(value: bytes) -> int:
    """What *value* weighs as one cache entry."""
    cache = HypertreeLayerCache(_PARAMS, pinned_layers=0)
    cache.remember(b"seed", b"digest", value)
    return cache.stats["bytes"]


def test_memo_survives_a_recalling_thread_beside_a_remembering_one():
    """A service's event loop recalls while its executor thread
    remembers past the budget: unlocked, ``get`` then ``move_to_end``
    meets the other thread's eviction (``KeyError``) and
    ``memo_hits += 1`` loses updates."""
    capacity = 4
    cache = HypertreeLayerCache(_PARAMS, pinned_layers=0,
                                budget_bytes=capacity * _weight(b"signature"))
    errors, done = [], threading.Event()

    def remember():
        try:
            for key in range(100_000):
                cache.remember(b"seed", key % 8, b"signature")
        except Exception as exc:  # noqa: BLE001 — the finding itself
            errors.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writer = threading.Thread(target=remember)
    try:
        writer.start()
        observed = key = 0
        while not done.is_set():
            observed += cache.recall(b"seed", key % 8) is not None
            key += 1
        writer.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and errors == []
    assert key > 0 and cache.stats["memo_hits"] == observed
    assert cache.stats["memo_entries"] == capacity
    assert cache.stats["bytes"] <= cache.budget_bytes


# ----------------------------------------------------------------------
# Model-based: the cache against an LRU-by-bytes reference
# ----------------------------------------------------------------------
_PINNED = 2
_SEEDS = [(bytes([index]) * 16, bytes(16)) for index in range(3)]
#: About six small entries: stores evict all the time.
_BUDGET = 6 * _weight(bytes(24))


class CacheMachine(RuleBasedStateMachine):
    """Several keys' subtrees, links and signatures under one byte
    budget: the cache is an ordered dict whose least recent entries go
    first, by bytes, and nothing below the pinned floor ever enters."""

    def __init__(self):
        super().__init__()
        self.cache = HypertreeLayerCache(_PARAMS, pinned_layers=_PINNED,
                                         budget_bytes=_BUDGET)
        self.model: OrderedDict[tuple, bytes] = OrderedDict()

    def _bytes(self) -> int:
        return sum(_weight(value) for value in self.model.values())

    def _store(self, entry, value) -> None:
        self.model.pop(entry, None)
        self.model[entry] = value
        while self._bytes() > _BUDGET:
            self.model.popitem(last=False)

    def _lookup(self, entry, found) -> None:
        assert found == self.model.get(entry)
        if found is not None:
            self.model.move_to_end(entry)

    @staticmethod
    def _at(back, tree):
        """A layer ``back`` below the top and a tree that exists there."""
        return _PARAMS.d - 1 - back, tree % _PARAMS.tree_leaves ** back

    @rule(seed=st.sampled_from(_SEEDS), digest=st.integers(0, 5),
          value=st.binary(min_size=1, max_size=48))
    def remember(self, seed, digest, value):
        self.cache.remember(seed, digest, value)
        self._store((seed, digest), value)

    @rule(seed=st.sampled_from(_SEEDS), digest=st.integers(0, 5))
    def recall(self, seed, digest):
        hits = self.cache.stats["hits"]
        self._lookup((seed, digest), self.cache.recall(seed, digest))
        assert self.cache.stats["hits"] == hits + ((seed, digest)
                                                   in self.model)

    @rule(seed=st.sampled_from(_SEEDS), back=st.integers(0, 3),
          tree=st.integers(0, 511), value=st.binary(min_size=1, max_size=48))
    def store_tree(self, seed, back, tree, value):
        layer, tree = self._at(back, tree)
        self.cache.store_tree(seed, layer, tree, value)
        if back < _PINNED:
            self._store((seed, layer, tree), value)

    @rule(seed=st.sampled_from(_SEEDS), back=st.integers(0, 3),
          tree=st.integers(0, 511))
    def lookup_tree(self, seed, back, tree):
        layer, tree = self._at(back, tree)
        misses = self.cache.stats["misses"]
        self._lookup((seed, layer, tree),
                     self.cache.lookup_tree(seed, layer, tree))
        assert self.cache.stats["misses"] == misses + (
            (seed, layer, tree) not in self.model)

    @rule(seed=st.sampled_from(_SEEDS), back=st.integers(0, 3),
          tree=st.integers(0, 511), leaf=st.integers(0, 7),
          value=st.binary(min_size=1, max_size=48))
    def store_link(self, seed, back, tree, leaf, value):
        layer, tree = self._at(back, tree)
        self.cache.store_link(seed, layer, tree, leaf, value)
        if back < _PINNED:
            self._store((seed, layer, tree, leaf), value)

    @rule(seed=st.sampled_from(_SEEDS), back=st.integers(0, 3),
          tree=st.integers(0, 511), leaf=st.integers(0, 7))
    def lookup_link(self, seed, back, tree, leaf):
        layer, tree = self._at(back, tree)
        self._lookup((seed, layer, tree, leaf),
                     self.cache.lookup_link(seed, layer, tree, leaf))

    @invariant()
    def bytes_stay_inside_the_budget(self):
        assert self.cache.stats["bytes"] <= self.cache.budget_bytes

    @invariant()
    def cache_is_the_model(self):
        assert list(self.cache._entries.items()) == list(self.model.items())
        stats = self.cache.stats
        assert stats["bytes"] == self._bytes()
        assert stats["keys"] == len({entry[0] for entry in self.model})
        assert stats["memo_entries"] == sum(
            len(entry) == 2 for entry in self.model)
        assert stats["pinned_trees"] == sum(
            len(entry) == 3 for entry in self.model)

    @invariant()
    def nothing_below_the_pinned_floor_is_kept(self):
        assert all(entry[1] >= self.cache.pinned_floor
                   for entry in self.cache._entries if len(entry) > 2)


CacheMachine.TestCase.settings = settings(max_examples=60, deadline=None,
                                          stateful_step_count=40)
TestCacheMachine = CacheMachine.TestCase
