"""The BatchScheduler service layer: queueing, routing, accounting."""

import pytest

from repro.errors import BackendError, UnknownTicketError
from repro.runtime import BatchScheduler


@pytest.fixture()
def scheduler():
    return BatchScheduler(target_batch_size=2, deterministic=True)


class TestQueueing:
    def test_submit_below_target_stays_queued(self, scheduler):
        ticket = scheduler.submit(b"only one")
        assert scheduler.pending == 1
        assert scheduler.signature(ticket) is None
        assert scheduler.batches == []

    def test_target_size_triggers_dispatch(self, scheduler):
        t0 = scheduler.submit(b"first")
        t1 = scheduler.submit(b"second")
        assert scheduler.pending == 0
        assert len(scheduler.batches) == 1
        assert scheduler.batches[0].count == 2
        assert scheduler.signature(t0) != scheduler.signature(t1)

    def test_flush_dispatches_partials(self, scheduler):
        ticket = scheduler.submit(b"partial")
        stats = scheduler.flush()
        assert len(stats) == 1 and stats[0].count == 1
        assert scheduler.signature(ticket) is not None
        assert scheduler.flush() == []  # nothing left

    def test_claim_releases_storage(self, scheduler):
        t0 = scheduler.submit(b"first")
        t1 = scheduler.submit(b"second")
        assert scheduler.claim(t0) is not None
        with pytest.raises(UnknownTicketError, match="already claimed"):
            scheduler.signature(t0)  # released
        assert scheduler.signature(t1) is not None  # peek keeps it
        with pytest.raises(UnknownTicketError, match="already claimed"):
            scheduler.claim(t0)  # double-claim is typed, not ambiguous

    def test_failed_dispatch_preserves_queue(self):
        scheduler = BatchScheduler(target_batch_size=1, deterministic=True)
        with pytest.raises(BackendError, match="unknown backend"):
            scheduler.submit(b"x", backend="no-such-backend")
        # The message is still queued, not silently dropped.
        assert scheduler.pending == 1
        with pytest.raises(BackendError, match="unknown backend"):
            scheduler.flush()
        assert scheduler.pending == 1

    def test_run_round_trip_verifies(self):
        scheduler = BatchScheduler(target_batch_size=4, deterministic=True,
                                   verify=True)
        messages = [f"m{i}".encode() for i in range(3)]
        tickets = scheduler.run(messages, params="128f", backend="vectorized")
        assert scheduler.batches[-1].verified is True
        backend = scheduler.backend_for("128f", "vectorized")
        keys = scheduler.keys_for("128f")
        sigs = [scheduler.signature(t) for t in tickets]
        assert backend.verify_batch(messages, sigs, keys.public) == [True] * 3


class TestRouting:
    def test_shared_key_across_backends(self):
        """One key per parameter set: traffic can move between backends."""
        scheduler = BatchScheduler(target_batch_size=1, deterministic=True)
        t_scalar = scheduler.submit(b"same", backend="scalar")
        t_vector = scheduler.submit(b"same", backend="vectorized")
        assert (scheduler.signature(t_scalar)
                == scheduler.signature(t_vector))


class TestReporting:
    def test_throughput_aggregates(self, scheduler):
        scheduler.run([b"a", b"b", b"c"], backend="vectorized")
        totals = scheduler.throughput()
        entry = totals[("SPHINCS+-128f", "vectorized")]
        assert entry["count"] == 3
        assert entry["sigs_per_s"] > 0

    def test_report_table(self, scheduler):
        scheduler.run([b"a", b"b"], backend="vectorized")
        report = scheduler.report(title="unit test report")
        assert "unit test report" in report
        assert "vectorized" in report
        assert "SPHINCS+-128f" in report

    def test_bad_target_batch_size(self):
        with pytest.raises(BackendError, match="target_batch_size"):
            BatchScheduler(target_batch_size=0)
