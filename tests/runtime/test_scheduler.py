"""The BatchScheduler: batching, routing, accounting."""

import pytest

from repro.errors import BackendError, UnknownTicketError
from repro.runtime import BatchScheduler, get_backend


@pytest.fixture()
def scheduler():
    return BatchScheduler(target_batch_size=2, deterministic=True)


class TestBatching:
    def test_target_size_cuts_batches(self):
        scheduler = BatchScheduler(target_batch_size=2, deterministic=True)
        messages = [f"m{i}".encode() for i in range(5)]
        tickets = scheduler.run(messages, backend="vectorized")
        assert [stats.count for stats in scheduler.batches] == [2, 2, 1]
        assert tickets == [0, 1, 2, 3, 4]
        scalar = get_backend("scalar", "128f", deterministic=True)
        expected = scalar.sign_batch(messages,
                                     scheduler.keys_for("128f")).signatures
        assert [scheduler.claim(t) for t in tickets] == expected

    def test_claim_releases_storage(self, scheduler):
        t0, t1 = scheduler.run([b"first", b"second"])
        first = scheduler.claim(t0)
        assert first != scheduler.claim(t1)
        with pytest.raises(UnknownTicketError, match="already claimed"):
            scheduler.claim(t0)  # double-claim is typed, not ambiguous

    def test_failed_batch_issues_no_ticket(self):
        scheduler = BatchScheduler(target_batch_size=1, deterministic=True)
        with pytest.raises(BackendError, match="unknown backend"):
            scheduler.run([b"x"], backend="no-such-backend")
        assert scheduler.batches == []
        with pytest.raises(UnknownTicketError, match="never issued"):
            scheduler.claim(0)
        assert scheduler.run([b"x"], backend="vectorized") == [0]

    def test_run_round_trip_verifies(self):
        scheduler = BatchScheduler(target_batch_size=4, deterministic=True,
                                   verify=True)
        messages = [f"m{i}".encode() for i in range(3)]
        tickets = scheduler.run(messages, params="128f", backend="vectorized")
        assert scheduler.batches[-1].verified is True
        backend = scheduler.backend_for("128f", "vectorized")
        keys = scheduler.keys_for("128f")
        sigs = [scheduler.claim(t) for t in tickets]
        assert backend.verify_batch(messages, sigs, keys.public) == [True] * 3


class TestRouting:
    def test_shared_key_across_backends(self):
        """One key per parameter set: traffic can move between backends."""
        scheduler = BatchScheduler(target_batch_size=1, deterministic=True)
        [t_scalar] = scheduler.run([b"same"], backend="scalar")
        [t_vector] = scheduler.run([b"same"], backend="vectorized")
        assert scheduler.claim(t_scalar) == scheduler.claim(t_vector)


class TestReporting:
    def test_report_table(self, scheduler):
        scheduler.run([b"a", b"b", b"c"], backend="vectorized")
        report = scheduler.report(title="unit test report")
        assert "unit test report" in report
        assert "vectorized" in report
        [row] = [line for line in report.splitlines()
                 if "SPHINCS+-128f" in line]
        signed, sigs_per_s = row.split()[2], row.split()[4]
        assert signed == "3"
        assert float(sigs_per_s) > 0

    def test_bad_target_batch_size(self):
        with pytest.raises(BackendError, match="target_batch_size"):
            BatchScheduler(target_batch_size=0)
