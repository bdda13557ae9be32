"""The worker pool: plan tasks on pinned workers, byte-identity, crash recovery.

The load-bearing properties: (1) the pooled path produces signatures
byte-identical to the scalar reference — one message or many, crash or no
crash; (2) a plan's tasks spread over every worker, pull-style, and each
worker sits on its own CPU; (3) a worker that dies mid-plan is
transparent to the caller — the tasks it held go back in line, the dead
slot respawns, and only retry exhaustion surfaces as the typed
:class:`~repro.errors.WorkerCrashedError`.
"""

import os
import time

import pytest

from repro.cluster.ring import HashRing
from repro.errors import BackendError, WorkerCrashedError
from repro.runtime import WorkerPool, get_backend
from repro.runtime import pool as pool_module
from repro.runtime.plan import RUN, SUBTREE, cut
from repro.runtime.pool import auto_workers

MESSAGES = [b"alpha", b"bravo", b"charlie", b"delta", b"echo"]
SEED = bytes(48)


@pytest.fixture(scope="module")
def keys():
    return get_backend("scalar", "128f", deterministic=True).keygen(seed=SEED)


@pytest.fixture(scope="module")
def reference(keys):
    scalar = get_backend("scalar", "128f", deterministic=True)
    return scalar.sign_batch(MESSAGES, keys).signatures


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as shared:
        yield shared


def _pooled(pool, **options):
    """A fresh pooled backend (cold layer cache) over *pool*."""
    return get_backend("vectorized", "128f", deterministic=True, pool=pool,
                       **options)


def _wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestHashRing:
    """The ring left ``runtime.pool`` for ``repro.cluster.ring`` when the
    pool stopped routing by key; its tests stayed where they were."""

    def test_routing_is_deterministic_and_in_range(self):
        ring = HashRing(4)
        slots = [ring.preference(f"tenant-{i}/default")[0]
                 for i in range(64)]
        assert slots == [ring.preference(f"tenant-{i}/default")[0]
                         for i in range(64)]
        assert all(0 <= slot < 4 for slot in slots)
        # 64 tenants over 4 slots: consistent hashing must actually spread.
        assert len(set(slots)) > 1

    def test_zero_slots_rejected(self):
        with pytest.raises(BackendError, match="slot"):
            HashRing(0)


class TestPoolSigning:
    def test_byte_identical_to_reference(self, pool, keys, reference):
        result = _pooled(pool).sign_batch(MESSAGES, keys)
        assert result.signatures == reference
        assert result.cache_stats["requeues"] == 0

    def test_split_batch_byte_identical(self, pool, keys, reference):
        """A batch is split task by task: both workers take part."""
        result = _pooled(pool).sign_batch(MESSAGES * 2, keys)
        assert result.signatures == reference + reference
        assert set(result.workers) == {0, 1}

    def test_one_signature_uses_every_worker(self, pool, keys, reference):
        """The point of the cut: a lone message's run is handed out in
        pieces (here beside the three pinned subtrees a cold key still
        has to fill), in turn, so both workers run some."""
        result = _pooled(pool).sign_batch(MESSAGES[:1], keys)
        assert result.signatures == reference[:1]
        shares = result.workers
        assert set(shares) == {0, 1}
        assert sum(share["tasks"] for share in shares.values()) == len(
            cut(19, 2, 1)) + 3 == result.cache_stats["tasks"]
        assert min(share["tasks"] for share in shares.values()) >= 3

    def test_two_task_plan_spreads_over_both_workers(self, pool, keys):
        run = pool.run("128f", keys, [(SUBTREE, 21, 0, (0,)),
                                      (SUBTREE, 20, 0, (1,))])
        assert set(run.workers) == {0, 1}
        nodes, tables = run.results[0]
        assert len(nodes) == 15 * 16 and nodes[-16:] == keys.pk_root
        assert set(tables) == {0} and len(tables[0]) == 35 * 16 * 16

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_workers_are_pinned_one_per_cpu(self, pool):
        allowed = sorted(os.sched_getaffinity(0))
        assert pool.ping(timeout=10.0) == {0: True, 1: True}
        for slot, proc in enumerate(pool._procs):
            expected = allowed[slot % len(allowed)]
            assert os.sched_getaffinity(proc.pid) == {expected}
            assert pool.stats()["per_worker"][str(slot)]["cpu"] == expected

    def test_empty_batch(self, pool, keys):
        assert pool.run("128f", keys, []).results == []
        assert _pooled(pool).sign_batch([], keys).signatures == []

    def test_ping_and_stats_shape(self, pool):
        assert pool.ping(timeout=10.0) == {0: True, 1: True}
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["alive"] == 2
        assert stats["pending"] == 0
        assert set(stats["per_worker"]) == {"0", "1"}
        for worker in stats["per_worker"].values():
            assert worker["alive"] is True
            assert worker["utilization"] >= 0.0
            assert worker["in_flight"] == 0

    def test_warm_preloads_key_caches(self, pool, keys, warm_key):
        """A warm key's region lives in the coordinator's cache — the
        only one there is — and a replayed message is answered from its
        memo: there is no plan, so nothing reaches a worker."""
        backend = _pooled(pool)
        warm_key(backend, keys)
        assert backend.cache_stats()["pinned_trees"] > 0
        first = backend.sign_batch([b"replayed"], keys).signatures
        done = [w["tasks"] for w in pool.stats()["per_worker"].values()]
        again = backend.sign_batch([b"replayed"], keys)
        assert again.signatures == first
        assert not again.workers
        assert set(again.stage_seconds) == {
            "prepare", "fors", "hypertree", "serialize"}
        assert again.stage_seconds["fors"] == 0.0
        assert done == [w["tasks"]
                        for w in pool.stats()["per_worker"].values()]

    def test_result_timeout_abandons_the_job(self, pool, keys):
        tasks = [(RUN, bytes(25), 0, 1, 1, 0)] * 6
        with pytest.raises(BackendError, match="timed out"):
            pool.run("128f", keys, tasks, timeout=0.001)
        # The workers still finish what they held, but the results are
        # dropped, the unstarted tasks withdrawn, the accounting settles.
        assert pool.stats()["pending"] == 0
        assert _wait_until(lambda: all(
            worker["in_flight"] == 0
            for worker in pool.stats()["per_worker"].values()))
        assert not any(pool._outstanding)
        # The pool keeps serving afterwards.
        assert len(pool.run("128f", keys, tasks[:1]).results) == 1

    def test_worker_side_error_is_typed_not_a_crash(self, pool, keys):
        with pytest.raises(BackendError, match="failed batch.*TypeError"):
            pool.run("128f", keys, [(SUBTREE, "not-a-layer", 0, ())])
        # The worker survived the error and keeps serving.
        assert pool.alive_workers() == 2
        assert _pooled(pool).sign_batch([b"y"], keys).signatures

    def test_wrong_key_is_caught_by_the_stitch(self, pool, keys):
        from repro.sphincs.signer import KeyPair

        bad = KeyPair(b"\x01" * 16, keys.sk_prf, keys.pk_seed, keys.pk_root)
        with pytest.raises(BackendError, match="root does not match"):
            _pooled(pool).sign_batch([b"x"], bad)


class TestIpcPerSignature:
    """The north star's "IPC bytes per signature, gated exactly": what a
    pooled 128f signature costs in round trips and result bytes.  The
    parent's plan was 20 tasks and ~179 KB per warm-key signature, 19
    chain tables of 8,960 B among them."""

    TABLE = 35 * 16 * 16  # one leaf's chain table

    @pytest.fixture(scope="class")
    def warm(self, pool, keys, warm_key):
        backend = _pooled(pool)
        warm_key(backend, keys)
        return backend

    def test_a_batch_is_one_task_and_no_table_per_signature(self, warm,
                                                            keys):
        messages = [f"ipc batch {i}".encode() for i in range(16)]
        stats = warm.sign_batch(messages, keys).cache_stats
        assert stats["tasks"] == 16
        assert 14_000 * 16 < stats["ipc_bytes"] <= 20_000 * 16

    def test_a_lone_message_carries_a_table_per_cut(self, warm, keys):
        pieces = len(cut(19, 2, 1))
        assert 1 < pieces < 20
        lone = warm.sign_batch([b"ipc lone"], keys).cache_stats
        whole = warm.sign_batch(
            [f"ipc whole {i}".encode() for i in range(8)], keys).cache_stats
        assert (lone["tasks"], whole["tasks"]) == (pieces, 8)
        # The same signature either way; each piece above a cut sends
        # its first layer's table in place of that layer's 35 chain
        # values, plus one more envelope.
        extra = lone["ipc_bytes"] - whole["ipc_bytes"] // 8
        tables, envelopes = divmod(extra, self.TABLE - 35 * 16)
        assert tables == pieces - 1 and envelopes < 100 * pieces

    def test_in_process_counts_tasks_and_no_bytes(self, keys, warm_key):
        inline = get_backend("vectorized", "128f", deterministic=True)
        warm_key(inline, keys)
        stats = inline.sign_batch([b"ipc inline"], keys).cache_stats
        assert (stats["tasks"], stats["ipc_bytes"]) == (1, 0)


@pytest.mark.skipif(auto_workers() < 4,
                    reason="needs four allowed CPUs, one per worker")
def test_four_workers_beat_one_on_fresh_messages(keys, warm_key):
    """The worker tier's whole argument, checked where the cores exist.
    ``bench/`` measures the two-worker form (``runtime.pool.scaling_2w``);
    the four-worker rung is ROADMAP item 1(i)."""
    batches = [[f"scaling {batch}/{i}".encode() for i in range(4)]
               for batch in range(4)]
    seconds = {}
    for workers in (1, 4):
        with WorkerPool(workers=workers) as pool:
            backend = _pooled(pool)  # its own memo: every message is fresh
            warm_key(backend, keys)
            pool.ping(timeout=10.0)
            started = time.perf_counter()
            for messages in batches:
                backend.sign_batch(messages, keys)
            seconds[workers] = time.perf_counter() - started
    assert seconds[1] / seconds[4] >= 1.3, seconds


class TestValidation:
    def test_bad_sizes_rejected(self):
        with pytest.raises(BackendError, match="workers"):
            WorkerPool(workers=0)

    def test_out_of_range_slot_rejected(self, pool):
        with pytest.raises(BackendError, match="out of range"):
            pool.inject_crash(7)

    def test_bad_crash_spec_rejected(self, pool):
        with pytest.raises(BackendError, match="inject_crash"):
            pool.inject_crash(0, when="eventually")

    def test_closed_pool_rejects_submissions(self, keys):
        closing = WorkerPool(workers=1)
        closing.close()
        with pytest.raises(BackendError, match="closed"):
            closing.run("128f", keys, [(RUN, bytes(25), 0, 0, 0, 0)])


class TestCrashRecovery:
    """Kill workers mid-plan; the acceptance story of the pool."""

    def test_mid_batch_crash_requeues_to_sibling(self, keys, reference,
                                                 monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_RETRIES", 2)
        with WorkerPool(workers=2) as pool:
            pool.inject_crash(0, when="next-job")
            result = _pooled(pool).sign_batch(MESSAGES, keys)
            # Byte-identical result despite the crash, and the requeue
            # (the two tasks the victim held) is visible to the caller.
            assert result.signatures == reference
            assert 1 <= result.cache_stats["requeues"] <= 2
            # The pool heals back to N workers...
            assert _wait_until(lambda: pool.alive_workers() == 2)
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["per_worker"]["0"]["requeues"] >= 1
            # ...and the respawned slot serves again.
            again = _pooled(pool).sign_batch(MESSAGES[:1], keys)
            assert set(again.workers) == {0, 1}

    def test_retry_exhaustion_raises_typed_error(self, keys, monkeypatch):
        monkeypatch.setattr(pool_module, "MAX_RETRIES", 0)
        with WorkerPool(workers=2) as pool:
            pool.inject_crash(0, when="next-job")
            pool.inject_crash(1, when="next-job")
            with pytest.raises(WorkerCrashedError, match="exhausted"):
                _pooled(pool).sign_batch(MESSAGES[:2], keys)

    def test_failed_respawns_do_not_burn_the_retry_budget(self, keys,
                                                          monkeypatch):
        """MAX_RETRIES bounds how often a task is stranded by a dying
        worker, not recovery ticks: with every respawn transiently
        failing and no live sibling, the tasks wait in line instead of
        exhausting their budget at one tick per 50 ms."""
        monkeypatch.setattr(pool_module, "MAX_RETRIES", 1)
        with WorkerPool(workers=1) as pool:
            real_spawn = pool._spawn
            failures = {"left": 4}

            def flaky_spawn(slot):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise OSError("fork: EAGAIN (simulated)")
                real_spawn(slot)

            pool._spawn = flaky_spawn
            pool.inject_crash(0, when="next-job")
            result = _pooled(pool).sign_batch([b"parked"], keys)
            # Four failed respawn ticks passed before delivery; the two
            # tasks the victim held were each stranded exactly once.
            assert result.cache_stats["requeues"] == 2
            assert failures["left"] == 0
            assert pool.stats()["respawns"] == 1
            scalar = get_backend("scalar", "128f", deterministic=True)
            assert result.signatures == [scalar.sign(b"parked", keys)]

    def test_crash_now_respawns_idle_worker(self, keys, reference):
        with WorkerPool(workers=2) as pool:
            pool.inject_crash(0, when="now")
            assert _wait_until(lambda: pool.stats()["respawns"] == 1)
            assert _wait_until(lambda: pool.alive_workers() == 2)
            # Both slots still sign correctly after the respawn.
            result = _pooled(pool).sign_batch(MESSAGES[:2], keys)
            assert result.signatures == reference[:2]
            assert set(result.workers) == {0, 1}


    def test_no_respawn_once_the_pool_is_closing(self):
        """The collector can be mid-iteration when close() tells the
        workers to exit; it must not take those exits for crashes and
        staff the slots again with workers nobody will ever stop."""
        pool = WorkerPool(workers=1)
        pool.close()
        pool._recover(0)
        assert pool.stats_by_worker[0].respawns == 0
        assert not pool._procs[0].is_alive()


class TestPooledBackend:
    """``vectorized`` given a pool: there is no backend named ``pooled``
    (``tests/service/test_signing_engine.py``)."""

    def test_backend_byte_identical_and_reports_workers(self, pool, keys,
                                                        reference):
        result = _pooled(pool).sign_batch(MESSAGES, keys)
        assert result.signatures == reference
        assert result.backend == "pooled"
        assert result.cache_stats["workers"] >= 1
        assert result.cache_stats["requeues"] == 0

    def test_scheduler_routes_to_pooled(self, pool, keys, reference):
        from repro.runtime import BatchScheduler

        scheduler = BatchScheduler(target_batch_size=len(MESSAGES),
                                   backend="vectorized", deterministic=True,
                                   backend_options={"vectorized":
                                                    {"pool": pool}})
        tickets = scheduler.run(MESSAGES, params="128f")
        produced = [scheduler.claim(ticket) for ticket in tickets]
        assert scheduler.batches[0].backend == "pooled"
        scheme_keys = scheduler.keys_for("128f")
        scalar = get_backend("scalar", "128f", deterministic=True)
        assert produced == scalar.sign_batch(MESSAGES,
                                             scheme_keys).signatures
