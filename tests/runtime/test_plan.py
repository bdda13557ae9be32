"""The signing plan: same bytes as the reference, less work, any executor.

Inline and pooled runs of one plan must equal ``Sphincs.sign`` byte for
byte on every KAT parameter set, fresh and replayed (a replay is a memo
hit: no plan at all — see ``test_memo.py``); the plan must feed
SHA-256 exactly the reference's inputs minus the WOTS re-walk its chain
tables replace (and the k FORS secrets the reference derives twice); its
tasks and cache hits must cover each hypertree layer exactly once
whatever the cache holds; and a worker dying mid-plan must not change a
byte.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fast_verify import RecordingContext

from repro.params import get_params
from repro.runtime import WorkerPool, get_backend
from repro.runtime.fastops import FastOps
from repro.runtime.layercache import HypertreeLayerCache
from repro.runtime.plan import FORS, SUBTREE, SigningPlan, run_task
from repro.sphincs.signer import SignTask, Sphincs
from repro.testing.kat import KAT_SETS


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as shared:
        yield shared


@pytest.mark.parametrize("params_name", KAT_SETS)
def test_inline_and_pooled_plans_match_the_reference(params_name, pool):
    params = get_params(params_name)
    reference = Sphincs(params, deterministic=True)
    keys = reference.keygen(seed=bytes(range(3 * params.n)))
    message = f"one plan, {params_name}".encode()
    expected, unseen = (reference.sign(message, keys),
                        reference.sign(b"", keys))

    inline = get_backend("vectorized", params_name, deterministic=True)
    pooled = get_backend("pooled", params_name, deterministic=True,
                         pool=pool)
    for backend in (inline, pooled):
        fresh = backend.sign_batch([message], keys)
        assert fresh.signatures == [expected]
        assert fresh.cache_stats["misses"] == params.d
        # Replayed: the memo answers, there is no plan and no lookup —
        # on second sight as on the tenth.
        for sight in range(2, 11):
            replayed = backend.sign_batch([message], keys)
            assert replayed.signatures == [expected]
            assert replayed.cache_stats["misses"] == params.d
            assert replayed.cache_stats["hits"] == sight - 1
        # A batch that mixes sights plans only what is new.
        mixed = backend.sign_batch([message, b"", message], keys)
        assert mixed.signatures == [expected, unseen, expected]
    assert set(fresh.workers) == {0, 1} and not replayed.workers


def test_plan_hashes_the_reference_inputs_minus_the_wots_rewalk():
    params = get_params("128f")
    message = b"same work, less of it"

    ref_ctx = RecordingContext(params)
    reference = Sphincs(params, deterministic=True)
    reference.ctx = reference.fors.ctx = ref_ctx
    reference.hypertree.ctx = reference.hypertree.wots.ctx = ref_ctx
    keys = Sphincs(params).keygen(seed=bytes(3 * params.n))
    expected = reference.sign(message, keys)

    plan_ctx = RecordingContext(params)
    ops = FastOps(plan_ctx, keys.sk_seed, keys.pk_seed,
                  HypertreeLayerCache(params))
    sign_task = reference.prepare(message, keys)
    plan = SigningPlan(ops, [sign_task])
    results = [run_task(ops, task) for task in plan.tasks]
    [(fors_sig, ht_sig)] = plan.stitch(results, keys.pk_root)
    assert reference.assemble(sign_task, fors_sig, ht_sig) == expected

    # What the plan skipped: per layer, the walk from each chain's secret
    # to its digit — re-derived here by the walk the plan falls back to.
    walk_ctx = RecordingContext(params)
    walker = FastOps(walk_ctx, keys.sk_seed, keys.pk_seed)
    node = results[0][1]
    for (layer, tree, leaf, _), (nodes, _) in zip(plan.paths[0], results[1:]):
        walker.wots_sign(node, layer, tree, leaf)
        node = nodes[-params.n:]
    assert node == keys.pk_root

    counted = collections.Counter
    skipped = counted(ref_ctx.inputs) - counted(plan_ctx.inputs)
    assert not counted(plan_ctx.inputs) - counted(ref_ctx.inputs)
    # Besides the re-walk, only what the fast FORS loop never did: the
    # reference derives each revealed FORS secret a second time (ADRS
    # type 6, FORS_PRF).
    fors_repeats = skipped - counted(walk_ctx.inputs)
    assert skipped - fors_repeats == counted(walk_ctx.inputs)
    assert sum(fors_repeats.values()) == params.k
    assert {data[9] for data in fors_repeats} == {6}
    # ~300 of ~5,150 hashes per layer.
    share = len(walk_ctx.inputs) / len(ref_ctx.inputs)
    assert 0.04 < share < 0.08, share


@settings(max_examples=60, deadline=None)
@given(idx_tree=st.integers(0, 2 ** 63 - 1), idx_leaf=st.integers(0, 7),
       second_tree=st.integers(0, 2 ** 63 - 1),
       cached=st.sets(st.integers(0, 21)))
def test_tasks_and_cache_hits_cover_each_layer_once(idx_tree, idx_leaf,
                                                    second_tree, cached):
    """Whatever the cache holds, each of the 22 layers of a message's path
    is either a cache hit or covered by exactly one subtree task carrying
    that layer's signing leaf — also for a second message in the batch."""
    params = get_params("128f")
    cache = HypertreeLayerCache(params, pinned_layers=params.d)
    ops = FastOps(RecordingContext(params), bytes(16), bytes(16), cache)
    tree = idx_tree
    for layer in range(params.d):
        if layer in cached:
            cache.store_tree(layer, tree, b"cached")
        tree >>= params.tree_height
    messages = [SignTask(b"", b"", b"fors-a", idx_tree, idx_leaf),
                SignTask(b"", b"", b"fors-b", second_tree, 7 - idx_leaf)]
    plan = SigningPlan(ops, messages)

    assert plan.tasks[:2] == [(FORS, b"fors-a", idx_tree, idx_leaf),
                              (FORS, b"fors-b", second_tree, 7 - idx_leaf)]
    subtrees = plan.tasks[2:]
    assert all(task[0] == SUBTREE for task in subtrees)
    built = {(layer, tree): leaves for _, layer, tree, leaves in subtrees}
    assert len(built) == len(subtrees)  # no subtree is built twice
    for message, path in zip(messages, plan.paths):
        assert [hop[0] for hop in path] == list(range(params.d))
        tree, leaf = message.idx_tree, message.idx_leaf
        for layer, hop_tree, hop_leaf, levels in path:
            assert (hop_tree, hop_leaf) == (tree, leaf)
            if levels is None:
                assert leaf in built[layer, tree]
            else:
                assert (layer, tree) not in built
                assert levels == b"cached"
            leaf, tree = tree & 7, tree >> 3
        assert tree == 0
    # Nothing is built that no path asked for.
    assert sum(len(leaves) for leaves in built.values()) <= sum(
        1 for path in plan.paths for hop in path if hop[3] is None)


def test_worker_killed_mid_plan_yields_the_identical_signature():
    params = get_params("128f")
    reference = Sphincs(params, deterministic=True)
    keys = reference.keygen(seed=bytes(3 * params.n))
    message = b"survives a worker"
    with WorkerPool(workers=2) as crashing:
        backend = get_backend("pooled", "128f", deterministic=True,
                              pool=crashing)
        crashing.inject_crash(1, when="next-job")
        result = backend.sign_batch([message], keys)
        assert result.cache_stats["requeues"] >= 1
        assert crashing.stats()["respawns"] == 1
    assert result.signatures == [reference.sign(message, keys)]
