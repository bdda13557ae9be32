"""Ticket lifecycle: None means exactly one thing — not dispatched yet.

Satellite for the conformance PR: `signature()`/`claim()` raise the typed
`UnknownTicketError` for never-issued and already-claimed tickets, so
callers can no longer mistake a claimed result (gone forever) for a
queued one (coming soon).
"""

import pytest

from repro.errors import BackendError, UnknownTicketError
from repro.runtime import BatchScheduler


def make_scheduler(**kwargs):
    kwargs.setdefault("target_batch_size", 1)
    kwargs.setdefault("deterministic", True)
    return BatchScheduler(**kwargs)


class TestNeverIssued:
    @pytest.mark.parametrize("bogus", [0, 99, -1, True, "0", None, 1.0])
    def test_fresh_scheduler_knows_no_tickets(self, bogus):
        scheduler = make_scheduler()
        with pytest.raises(UnknownTicketError, match="never issued"):
            scheduler.signature(bogus)
        with pytest.raises(UnknownTicketError, match="never issued"):
            scheduler.claim(bogus)

    def test_future_ticket_rejected(self):
        scheduler = make_scheduler(target_batch_size=4)
        ticket = scheduler.submit(b"m")
        with pytest.raises(UnknownTicketError, match="never issued"):
            scheduler.signature(ticket + 1)

    def test_typed_error_is_catchable_as_backend_error(self):
        scheduler = make_scheduler()
        with pytest.raises(BackendError):
            scheduler.claim(41)
        with pytest.raises(KeyError):  # dict-like callers keep working
            scheduler.claim(41)


class TestQueuedIsNone:
    def test_pending_ticket_peeks_and_claims_as_none(self):
        scheduler = make_scheduler(target_batch_size=4)
        ticket = scheduler.submit(b"queued")
        assert scheduler.signature(ticket) is None
        assert scheduler.claim(ticket) is None  # still only queued
        scheduler.flush()
        assert scheduler.claim(ticket) is not None


class TestTicketTypeOnHitPath:
    def test_bool_and_float_rejected_even_when_store_has_entries(self):
        """hash(True) == hash(1): without the pre-lookup type gate,
        claim(True) would silently redeem ticket 1's signature."""
        scheduler = make_scheduler()
        scheduler.submit(b"t0")
        t1 = scheduler.submit(b"t1")
        for bogus in (True, 1.0):
            with pytest.raises(UnknownTicketError, match="never issued"):
                scheduler.signature(bogus)
            with pytest.raises(UnknownTicketError, match="never issued"):
                scheduler.claim(bogus)
        assert scheduler.claim(t1) is not None  # real holder unaffected


class TestClaimed:
    def test_double_claim_raises(self):
        scheduler = make_scheduler()
        ticket = scheduler.submit(b"once")
        assert scheduler.claim(ticket) is not None
        with pytest.raises(UnknownTicketError, match="already claimed"):
            scheduler.claim(ticket)
        with pytest.raises(UnknownTicketError, match="already claimed"):
            scheduler.signature(ticket)
