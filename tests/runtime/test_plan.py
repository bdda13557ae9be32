"""The signing plan: same bytes as the reference, less work, any executor.

Inline and pooled runs of one plan must equal ``Sphincs.sign`` byte for
byte (by digest, against the pinned vectors) on every KAT parameter set,
fresh and replayed (a replay is a memo
hit: no plan at all — see ``test_memo.py``) and wherever a message's run
of layers is cut; the plan must feed SHA-256 exactly the reference's
inputs minus the WOTS re-walk its chain tables replace (and the k FORS
secrets the reference derives twice); its runs, fills and cache hits
must cover each hypertree layer exactly once whatever the cache holds;
and a worker dying mid-plan must not change a byte.
"""

import collections
import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fast_verify import RecordingContext

from repro.hashes.thash import HashContext
from repro.params import get_params
from repro.runtime import WorkerPool, get_backend
from repro.runtime.fastops import FastOps, path_hops
from repro.runtime.layercache import HypertreeLayerCache
from repro.runtime.plan import (RUN, SUBTREE, SigningPlan, cut, fors_hashes,
                                run_task, subtree_hashes)
from repro.sphincs.signer import SignTask, Sphincs
from repro.testing.kat import KAT_SETS, load_kat


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as shared:
        yield shared


def _digests(signatures):
    return [hashlib.sha256(signature).hexdigest()
            for signature in signatures]


@functools.lru_cache(maxsize=None)
def _reference(params_name):
    """``(scheme, keys, {message: sha256 of its reference signature})``
    under the pinned KAT seed: ``Sphincs(deterministic=True).sign``'s
    bytes (``repro conformance --check-kats`` holds the vectors to it)
    without its seconds per ``s``-set signature."""
    vector = load_kat(params_name)
    reference = Sphincs(get_params(params_name), deterministic=True)
    keys = reference.keygen(seed=bytes.fromhex(vector["seed_hex"]))
    return reference, keys, {
        bytes.fromhex(pinned["message_hex"]): pinned["signature_sha256"]
        for pinned in vector["messages"]}


@pytest.mark.parametrize("params_name", KAT_SETS)
def test_inline_and_pooled_plans_match_the_reference(params_name, pool):
    params = get_params(params_name)
    _, keys, pinned = _reference(params_name)
    message, expected, unseen = b"abc", pinned[b"abc"], pinned[b""]

    inline = get_backend("vectorized", params_name, deterministic=True)
    pooled = get_backend("vectorized", params_name, deterministic=True,
                         pool=pool)
    for backend in (inline, pooled):
        fresh = backend.sign_batch([message], keys)
        assert _digests(fresh.signatures) == [expected]
        assert fresh.cache_stats["misses"] == params.d
        # Replayed: the memo answers, there is no plan and no lookup —
        # on second sight as on the tenth.
        for sight in range(2, 11):
            replayed = backend.sign_batch([message], keys)
            assert _digests(replayed.signatures) == [expected]
            assert replayed.cache_stats["misses"] == params.d
            assert replayed.cache_stats["hits"] == sight - 1
        # A batch that mixes sights plans only what is new, and a new
        # message that is in it twice once.
        mixed = backend.sign_batch([message, b"", message, b""], keys)
        assert _digests(mixed.signatures) == [expected, unseen,
                                              expected, unseen]
        assert (mixed.cache_stats["misses"]
                - replayed.cache_stats["misses"]) <= params.d
    assert set(fresh.workers) == {0, 1} and not replayed.workers


@pytest.mark.parametrize("params_name", KAT_SETS)
def test_every_cut_of_a_run_stitches_to_the_reference(params_name, pool):
    """From one piece to a task per tree (FORS by itself, a piece per
    layer — the plan before runs), in-process and through the pool, on a
    key whose pinned layers are not there yet and then on a warm one.
    In-process a subtree, a pure function of its arguments, is built once
    for all the cuts: what differs between them is who signs which root
    from which table, and that runs every time."""
    params = get_params(params_name)
    reference, keys, pinned = _reference(params_name)
    message, expected = b"abc", pinned[b"abc"]
    sign_task = reference.prepare(message, keys)

    class BuildsOnce(FastOps):
        build_subtree = functools.lru_cache(maxsize=None)(
            FastOps.build_subtree)

    def inline(ops, tasks):
        return [run_task(ops, task) for task in tasks]

    def pooled(ops, tasks):
        return pool.run(params_name, keys, tasks).results

    for run_tasks in (inline, pooled):
        ops = BuildsOnce(HashContext(params), keys.sk_seed, keys.pk_seed,
                         HypertreeLayerCache(params))
        floor = ops.cache.pinned_floor
        for pieces in range(1, floor + 2):
            plan = SigningPlan(ops, [sign_task], cut(floor, pieces, 4))
            cold = params.d - floor if pieces == 1 else 0
            assert len(plan.tasks) == pieces + cold
            [(fors_sig, ht_sig)] = plan.stitch(run_tasks(ops, plan.tasks),
                                               keys.pk_root)
            assert _digests([reference.assemble(
                sign_task, fors_sig, ht_sig)]) == [expected], pieces


@given(floor=st.integers(0, 22), workers=st.integers(1, 8),
       messages=st.integers(1, 32))
def test_a_cut_partitions_the_layers_below_the_floor(floor, workers,
                                                     messages):
    """Contiguous, bottom up, nothing twice and nothing left out; only
    the first piece may be FORS by itself; never finer than a task per
    tree, and whole from four messages per worker and in-process."""
    cuts = cut(floor, workers, messages)
    assert 1 <= len(cuts) <= floor + 1
    assert [layer for piece in cuts for layer in piece] == list(range(floor))
    assert all(len(piece) for piece in cuts[1:])
    assert len(cuts) == min(floor + 1, -(-4 * workers // messages))
    assert cut(floor, 0, messages) == [range(floor)]


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
    # to its digit — re-derived here by the walk the plan falls back to
    # (each layer's root from a third, unrecorded, set of ops).
    walk_ctx = RecordingContext(params)
    walker = FastOps(walk_ctx, keys.sk_seed, keys.pk_seed)
    builder = FastOps(HashContext(params), keys.sk_seed, keys.pk_seed)
    node = builder.fors_sign(sign_task.fors_msg, sign_task.idx_tree,
                             sign_task.idx_leaf)[1]
    tree, leaf = sign_task.idx_tree, sign_task.idx_leaf
    for layer in range(params.d):
        walker.wots_sign(node, layer, tree, leaf)
        node = builder.build_subtree(layer, tree)[0][-params.n:]
        leaf, tree = tree & 7, tree >> 3
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


#: A cold plan's digests, summed over its tasks: a run with FORS and the
#: pinned subtree fills, ``d`` subtree builds in all.
COLD_PLAN_HASHES = {"128f": 105_194, "128s": 2_186_220,
                    "192s": 3_767_273, "256s": 3_280_867}


def _counted(params, task):
    """A task's digests from the plan's two counts: its FORS, if a run
    carries one, and a subtree build per layer (one for a fill)."""
    if task[0] == SUBTREE:
        return subtree_hashes(params)
    fors = 0 if task[1] is None else fors_hashes(params)
    return fors + task[-1] * subtree_hashes(params)


@pytest.mark.parametrize("params_name", KAT_SETS)
def test_each_task_shape_makes_the_digests_it_counts(params_name):
    """One layer of each task shape, run under a recording context: a
    run with FORS, a run above a cut, and a subtree fill with and without
    a signing leaf — the layer count a run multiplies is checked whole by
    the cold plan's sum."""
    params = get_params(params_name)
    reference, keys, _ = _reference(params_name)
    sign_task = reference.prepare(b"abc", keys)
    ctx = RecordingContext(params)
    ops = FastOps(ctx, keys.sk_seed, keys.pk_seed)
    top = params.d - 1
    for task in [(RUN, sign_task.fors_msg, 0, sign_task.idx_tree,
                  sign_task.idx_leaf, 1),
                 (RUN, None, top, 0, sign_task.idx_leaf, 1),
                 (SUBTREE, top, 0, (sign_task.idx_leaf,)),
                 (SUBTREE, top, 0, ())]:
        ctx.inputs.clear()
        run_task(ops, task)
        assert len(ctx.inputs) == _counted(params, task), task[:2]

    plan = SigningPlan(FastOps(HashContext(params), keys.sk_seed,
                               keys.pk_seed, HypertreeLayerCache(params)),
                       [sign_task])
    assert sum(_counted(params, task) for task in plan.tasks) \
        == COLD_PLAN_HASHES[params_name]


@given(idx_tree=st.integers(0, 2 ** 63 - 1), idx_leaf=st.integers(0, 7),
       first=st.integers(0, 22))
def test_the_walk_hops_as_the_hypertree_does(idx_tree, idx_leaf, first):
    """From layer 0 and from any layer on its way, ``path_hops`` is this
    file's own walk: each layer's root is signed by leaf ``tree & 7`` of
    tree ``tree >> 3`` one layer up, and the top tree is tree 0."""
    params = get_params("128f")
    hops, tree, leaf = [], idx_tree, idx_leaf
    for layer in range(params.d):
        hops.append((layer, tree, leaf))
        leaf, tree = tree & 7, tree >> 3
    assert tree == 0
    assert path_hops(params, idx_tree, idx_leaf) == hops
    if first < params.d:
        _, tree, leaf = hops[first]
    assert path_hops(params, tree, leaf, first) == hops[first:]


@settings(max_examples=60, deadline=None)
@given(idx_tree=st.integers(0, 2 ** 63 - 1), idx_leaf=st.integers(0, 7),
       second_tree=st.integers(0, 2 ** 63 - 1),
       pinned=st.integers(0, 22), cached=st.sets(st.integers(0, 21)),
       workers=st.integers(0, 8))
def test_tasks_and_cache_hits_cover_each_layer_once(idx_tree, idx_leaf,
                                                    second_tree, pinned,
                                                    cached, workers):
    """Whatever the cache pins and holds and however the run is cut, each
    of the 22 layers of a message's path is a cache hit, inside exactly
    one piece of that message's run, or covered by exactly one shared
    subtree fill carrying that layer's signing leaf — also for a second
    message in the batch; and FORS rides exactly one piece."""
    params = get_params("128f")
    cache = HypertreeLayerCache(params, pinned_layers=pinned)
    floor = cache.pinned_floor
    ops = FastOps(RecordingContext(params), bytes(16), bytes(16), cache)
    tree = idx_tree
    for layer in range(params.d):
        if layer in cached:  # kept only at or above the floor
            cache.store_tree(ops.seed, layer, tree, b"cached")
        tree >>= params.tree_height
    messages = [SignTask(b"", b"", b"fors-a", idx_tree, idx_leaf),
                SignTask(b"", b"", b"fors-b", second_tree, 7 - idx_leaf)]
    plan = SigningPlan(ops, messages, cut(floor, workers, 2))

    pieces = len(plan.cuts)
    runs, fills = plan.tasks[:2 * pieces], plan.tasks[2 * pieces:]
    assert all(task[0] == RUN for task in runs)
    assert all(task[0] == SUBTREE for task in fills)
    built = {(layer, tree): leaves for _, layer, tree, leaves in fills}
    assert len(built) == len(fills)  # no subtree is filled twice
    assert all(layer >= floor for layer, _ in built)
    for index, (message, path) in enumerate(zip(messages, plan.paths)):
        run = runs[index * pieces:(index + 1) * pieces]
        assert [task[1] for task in run] == [message.fors_msg] + [None] * (
            pieces - 1)
        covered = {}  # layer -> (tree, leaf) the run signs with there
        for _, _, first, tree, leaf, layers in run:
            for layer in range(first, first + layers):
                assert layer not in covered
                covered[layer] = (tree, leaf)
                leaf, tree = tree & 7, tree >> 3
        assert sorted(covered) == list(range(floor))
        assert [hop[0] for hop in path] == list(range(floor, params.d))
        hits = {layer: (tree, leaf, nodes)
                for layer, tree, leaf, nodes in path}
        tree, leaf = message.idx_tree, message.idx_leaf
        for layer in range(params.d):
            if layer < floor:
                assert covered[layer] == (tree, leaf)
            else:
                assert hits[layer][:2] == (tree, leaf)
                if hits[layer][2] is None:
                    assert leaf in built[layer, tree]
                else:
                    assert (layer, tree) not in built
                    assert hits[layer][2] == b"cached"
            leaf, tree = tree & 7, tree >> 3
        assert tree == 0
    # Nothing is filled that no path asked for.
    assert sum(len(leaves) for leaves in built.values()) <= sum(
        1 for path in plan.paths for hop in path if hop[3] is None)


def test_worker_killed_mid_plan_yields_the_identical_signature():
    params = get_params("128f")
    reference = Sphincs(params, deterministic=True)
    keys = reference.keygen(seed=bytes(3 * params.n))
    message = b"survives a worker"
    with WorkerPool(workers=2) as crashing:
        backend = get_backend("vectorized", "128f", deterministic=True,
                              pool=crashing)
        crashing.inject_crash(1, when="next-job")
        result = backend.sign_batch([message], keys)
        assert result.cache_stats["requeues"] >= 1
        assert crashing.stats()["respawns"] == 1
    assert result.signatures == [reference.sign(message, keys)]
