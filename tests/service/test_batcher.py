"""One queue, one flight: one batch signs at a time, earliest deadline
first, and whatever arrives in one loop turn rides one batch."""

import asyncio
import contextvars

import pytest

from repro.errors import ServiceError
from repro.service import DeadlineBatcher


class GatedSigner:
    """A fake dispatch that records each batch as it starts and holds it
    until the test releases it — a signer that stays busy on demand.
    ``most_active`` is the most dispatches that were ever running at
    once."""

    def __init__(self):
        self.started = []          # (queue_key, [messages]) in start order
        self._gates = []
        self.active = self.most_active = 0

    async def dispatch(self, queue_key, batch):
        gate = asyncio.Event()
        self._gates.append(gate)
        self.started.append((queue_key, [r.message for r in batch]))
        self.active += 1
        self.most_active = max(self.most_active, self.active)
        try:
            await gate.wait()
        finally:
            self.active -= 1
        for request in batch:
            request.future.set_result((request.message, len(batch)))

    def release(self, index=-1):
        self._gates[index].set()


async def turns(count=4):
    """Let the loop run *count* turns: enough for a finished batch to
    hand over to the next one, never enough to wait on a timer."""
    for _ in range(count):
        await asyncio.sleep(0)


async def release_in_turn(signer, done, limit=100):
    """Release each batch as it starts until ``done()``, checking that
    no two are ever in flight; returns how many were released."""
    for released in range(limit):
        await turns()
        assert signer.active <= 1
        if done():
            return released
        signer.release(released)
    raise AssertionError(f"not done after {limit} batches")


async def busy_batcher(**kwargs):
    """A batcher whose signer is busy with one request on its own key."""
    signer = GatedSigner()
    batcher = DeadlineBatcher(signer.dispatch, **kwargs)
    first = batcher.submit("busy", "k", b"in-flight")
    await turns()
    assert signer.started == [(("busy", "k"), [b"in-flight"])]
    return batcher, signer, first


class TestDeadlineDispatch:
    def test_lone_request_ships_within_budget(self):
        """With nothing in flight a request ships on the next loop turn,
        whatever ``max_wait_s`` says: an idle signer is never waited on."""
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, target_batch_size=64,
                                      max_wait_s=3600.0)
            loop = asyncio.get_running_loop()
            submitted = loop.time()
            future = batcher.submit("t", "k", b"solo")
            # Queued until the drain's first step, one turn later.
            assert (batcher.pending, batcher.in_flight) == (1, 0)
            await asyncio.sleep(0)
            assert signer.started == [(("t", "k"), [b"solo"])]
            assert (batcher.pending, batcher.in_flight) == (0, 1)
            assert loop.time() - submitted < 0.05
            signer.release()
            assert await asyncio.wait_for(future, timeout=2) == (b"solo", 1)
            # ... and the next lone request likewise, once that one is done.
            await turns()
            again = batcher.submit("t", "k", b"solo-2")
            await asyncio.sleep(0)
            assert (batcher.pending, batcher.in_flight) == (0, 1)
            signer.release()
            assert await again == (b"solo-2", 1)

        asyncio.run(scenario())

    def test_same_turn_submits_ship_as_one_batch(self):
        """A burst that arrives in one loop turn on an idle batcher — a
        ``sign-many`` frame, a ``gather`` — is one batch, not a lone head
        and a tail."""
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, target_batch_size=16,
                                      max_wait_s=3600.0)

            async def sign(index):
                return await batcher.submit("t", "k", f"m{index}".encode())

            burst = asyncio.gather(*(sign(i) for i in range(8)))
            await turns()
            assert signer.started == [
                (("t", "k"), [f"m{i}".encode() for i in range(8)])]
            signer.release()
            assert {size for _, size in await burst} == {8}

        asyncio.run(scenario())

    def test_arrivals_during_a_dispatch_ship_together_when_it_completes(self):
        async def scenario():
            batcher, signer, first = await busy_batcher(
                target_batch_size=64, max_wait_s=3600.0)
            futures = [batcher.submit("t", "k", f"m{i}".encode())
                       for i in range(5)]
            await asyncio.sleep(0.02)
            # Nothing ships while the signer is busy ...
            assert len(signer.started) == 1
            assert (batcher.pending, batcher.in_flight) == (5, 1)
            signer.release()
            await first
            await turns()
            # ... and the moment it frees they go, as one batch.
            assert signer.started[1] == (
                ("t", "k"), [b"m0", b"m1", b"m2", b"m3", b"m4"])
            assert (batcher.pending, batcher.in_flight) == (0, 5)
            signer.release()
            results = await asyncio.gather(*futures)
            assert {size for _, size in results} == {5}
            assert (batcher.pending, batcher.in_flight) == (0, 0)

        asyncio.run(scenario())

    def test_oldest_queue_ships_first_when_the_signer_frees(self):
        """Equal budgets: the earliest deadline is the oldest request."""
        async def scenario():
            batcher, signer, first = await busy_batcher(
                target_batch_size=64, max_wait_s=3600.0)
            old = batcher.submit("old", "k", b"o1")
            await asyncio.sleep(0.01)
            young = batcher.submit("young", "k", b"y1")
            batcher.submit("old", "k", b"o2")  # joins the older queue
            signer.release()
            await first
            await turns()
            # One queue per batch: a batch shares a key pair.
            assert signer.started[1:] == [(("old", "k"), [b"o1", b"o2"])]
            assert (batcher.pending, batcher.in_flight) == (1, 2)
            signer.release()
            await old
            await turns()
            assert signer.started[2] == (("young", "k"), [b"y1"])
            signer.release()
            assert await young == (b"y1", 1)

        asyncio.run(scenario())

    def test_tight_budget_ships_before_an_older_default_budget_queue(self):
        """A younger request with a tight ``budget_s`` has the earlier
        deadline, so its queue goes first when the signer frees."""
        async def scenario():
            batcher, signer, first = await busy_batcher(
                target_batch_size=64, max_wait_s=3600.0)
            patient = batcher.submit("old", "k", b"patient")
            await asyncio.sleep(0.01)
            urgent = batcher.submit("young", "k", b"urgent", budget_s=0.05)
            await asyncio.sleep(0.1)
            # A passed deadline ships nothing beside the batch in flight.
            assert len(signer.started) == 1
            signer.release()
            await first
            await turns()
            assert signer.started[1] == (("young", "k"), [b"urgent"])
            signer.release()
            await urgent
            await turns()
            assert signer.started[2] == (("old", "k"), [b"patient"])
            signer.release()
            await patient

        asyncio.run(scenario())

    def test_long_queue_ships_in_target_sized_batches(self):
        """A queue longer than ``target_batch_size`` ships in batches of
        that size, in arrival order, one after another."""
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, target_batch_size=3,
                                      max_wait_s=3600.0)
            futures = [batcher.submit("t", "k", f"m{i}".encode())
                       for i in range(7)]
            expected = [[b"m0", b"m1", b"m2"], [b"m3", b"m4", b"m5"],
                        [b"m6"]]
            for index, messages in enumerate(expected):
                await turns()
                assert [batch for _, batch in signer.started] == (
                    expected[:index + 1])
                assert batcher.in_flight == len(messages)
                signer.release()
            results = await asyncio.wait_for(asyncio.gather(*futures),
                                             timeout=2)
            assert [size for _, size in results] == [3, 3, 3, 3, 3, 3, 1]
            assert signer.most_active == 1

        asyncio.run(scenario())

    def test_signer_never_sees_two_dispatches_across_keys(self):
        """Whatever the keys, fills and deadlines, one batch is in flight
        at a time: the drain task is the only place a batch starts."""
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, target_batch_size=2,
                                      max_wait_s=3600.0)
            futures = [batcher.submit(tenant, key, f"{tenant}{i}".encode(),
                                      budget_s=budget)
                       for i in range(5)
                       for tenant, key, budget in (("a", "k1", None),
                                                   ("a", "k2", 0.001),
                                                   ("b", "k1", 0.0))]
            await release_in_turn(
                signer, lambda: all(future.done() for future in futures))
            assert signer.most_active == 1
            assert all(len(batch) <= 2 for _, batch in signer.started)
            assert sum(len(batch) for _, batch in signer.started) == 15

        asyncio.run(scenario())

    def test_queues_are_per_tenant_key(self):
        async def scenario():
            batcher, signer, _ = await busy_batcher(target_batch_size=2,
                                                    max_wait_s=3600.0)
            futures = [
                batcher.submit("a", "k1", b"a1"),
                batcher.submit("b", "k1", b"b1"),
                batcher.submit("a", "k1", b"a2"),
                batcher.submit("b", "k1", b"b2"),
            ]
            for index in range(3):
                signer.release(index)
                await turns()
            assert signer.started[1:] == [
                (("a", "k1"), [b"a1", b"a2"]),
                (("b", "k1"), [b"b1", b"b2"]),
            ]
            await asyncio.wait_for(asyncio.gather(*futures), timeout=2)

        asyncio.run(scenario())


class TestInFlightAccounting:
    def test_fired_batch_counted_before_dispatch_runs(self):
        """No gap for admission control: a batch moves from pending to
        in_flight in the step that starts its dispatch — a request is
        never invisible to pending + in_flight."""
        async def scenario():
            seen = []

            async def dispatch(queue_key, batch):
                seen.append((batcher.pending, batcher.in_flight))
                for request in batch:
                    request.future.set_result(None)

            batcher = DeadlineBatcher(dispatch, target_batch_size=2,
                                      max_wait_s=3600.0)
            futures = [batcher.submit("t", "k", bytes([i]))
                       for i in range(3)]
            assert (batcher.pending, batcher.in_flight) == (3, 0)
            await asyncio.wait_for(asyncio.gather(*futures), timeout=2)
            assert seen == [(1, 2), (0, 1)]
            assert (batcher.pending, batcher.in_flight) == (0, 0)

        asyncio.run(scenario())

    def test_outstanding_depth_is_exact_through_a_handover(self):
        """``pending + in_flight`` equals submitted minus resolved at
        every step, including the completion that hands over to the next
        batch."""
        async def scenario():
            batcher, signer, first = await busy_batcher(
                target_batch_size=64, max_wait_s=3600.0)
            waiting = [batcher.submit("t", "k", bytes([i])) for i in range(4)]
            assert batcher.pending + batcher.in_flight == 5
            signer.release()
            await first
            assert (batcher.pending, batcher.in_flight) == (4, 0)
            # Mid-handover: the next batch has not started, so this one
            # still joins it.
            waiting.append(batcher.submit("t", "k", b"joins"))
            assert batcher.pending + batcher.in_flight == 5
            await turns()
            assert (batcher.pending, batcher.in_flight) == (0, 5)
            late = batcher.submit("t", "k", b"late")  # behind the batch
            assert (batcher.pending, batcher.in_flight) == (1, 5)
            signer.release()
            await asyncio.gather(*waiting)
            assert batcher.pending + batcher.in_flight == 1
            await turns()
            assert (batcher.pending, batcher.in_flight) == (0, 1)
            signer.release()
            assert await late == (b"late", 1)
            assert batcher.pending + batcher.in_flight == 0

        asyncio.run(scenario())

    def test_in_flight_cleared_on_dispatch_failure(self):
        async def scenario():
            async def dispatch(queue_key, batch):
                raise RuntimeError("boom")

            batcher = DeadlineBatcher(dispatch, target_batch_size=1,
                                      max_wait_s=30.0)
            future = batcher.submit("t", "k", b"a")
            with pytest.raises(RuntimeError):
                await asyncio.wait_for(future, timeout=2)
            assert batcher.in_flight == 0

        asyncio.run(scenario())


class TestLifecycle:
    def test_flush_dispatches_partials(self):
        """``flush`` returns once every queued request has been
        dispatched — here a partial queue behind a batch in flight."""
        async def scenario():
            batcher, signer, first = await busy_batcher(
                target_batch_size=64, max_wait_s=3600.0)
            future = batcher.submit("t", "k", b"partial")
            flushing = asyncio.create_task(batcher.flush())
            await asyncio.sleep(0.01)
            assert not flushing.done()
            signer.release(0)
            await turns()
            assert signer.started[1] == (("t", "k"), [b"partial"])
            assert not flushing.done()
            signer.release(1)
            await asyncio.wait_for(flushing, timeout=2)
            assert await future == (b"partial", 1)
            assert await first == (b"in-flight", 1)

        asyncio.run(scenario())

    def test_flush_waits_for_every_queued_request(self):
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, target_batch_size=2,
                                      max_wait_s=3600.0)
            futures = [batcher.submit(tenant, "k", f"{tenant}{i}".encode())
                       for tenant in ("a", "b") for i in range(3)]
            flushing = asyncio.create_task(batcher.flush())
            released = await release_in_turn(signer, flushing.done)
            assert all(future.done() for future in futures)
            assert batcher.pending + batcher.in_flight == 0
            assert released == 4  # [a0 a1] [a2] [b0 b1] [b2]
            await batcher.flush()  # idle: returns at once

        asyncio.run(scenario())

    def test_flush_is_bounded_by_the_requests_at_the_call(self):
        """Arrivals after the call do not hold ``flush`` up: a producer
        that never stops cannot keep a shutdown drain running."""
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, target_batch_size=2,
                                      max_wait_s=3600.0)
            before = [batcher.submit("t", "k", f"b{i}".encode())
                      for i in range(3)]
            await turns()
            flushing = asyncio.create_task(batcher.flush())
            released = 0
            while not flushing.done():
                batcher.submit("t", "k", f"a{released}".encode())
                signer.release(released)
                released += 1
                await turns()
                assert released < 20, "flush waited on later arrivals"
            assert all(future.done() for future in before)
            assert released == 2  # [b0 b1] [b2]
            assert batcher.pending + batcher.in_flight > 0
            batcher.close()
            signer.release()

        asyncio.run(scenario())

    def test_unresolved_request_fails_after_its_batch(self):
        async def scenario():
            async def dispatch(queue_key, batch):
                batch[0].future.set_result("signed")

            batcher = DeadlineBatcher(dispatch, max_wait_s=30.0)
            first = batcher.submit("t", "k", b"a")
            second = batcher.submit("t", "k", b"b")
            await asyncio.wait_for(batcher.flush(), timeout=2)
            assert await first == "signed"
            with pytest.raises(ServiceError, match="unresolved"):
                await second

        asyncio.run(scenario())

    def test_drain_runs_outside_the_submitters_context(self):
        """The drain signs every caller's batches, so it must not carry
        the context of the submit that started it."""
        caller = contextvars.ContextVar("caller", default=None)

        async def scenario():
            seen = []

            async def dispatch(queue_key, batch):
                seen.append(caller.get())
                for request in batch:
                    request.future.set_result(None)

            batcher = DeadlineBatcher(dispatch, max_wait_s=30.0)
            caller.set("first")
            await batcher.submit("t", "k", b"a")
            assert seen == [None]

        asyncio.run(scenario())

    def test_a_drain_cancelled_before_it_ran_is_replaced(self):
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, max_wait_s=30.0)
            orphan = batcher.submit("t", "k", b"a")
            batcher._drain.cancel()
            await turns()
            later = batcher.submit("t", "k", b"b")
            await turns()
            assert signer.started == [(("t", "k"), [b"a", b"b"])]
            signer.release()
            assert await orphan == (b"a", 2)
            assert await later == (b"b", 2)

        asyncio.run(scenario())

    def test_dispatch_failure_fails_futures(self):
        async def scenario():
            async def dispatch(queue_key, batch):
                await asyncio.sleep(0.01)
                raise RuntimeError("backend exploded")

            batcher = DeadlineBatcher(dispatch, target_batch_size=2,
                                      max_wait_s=30.0)
            # One turn, three requests: a batch of two, then one.
            futures = [batcher.submit("t", "k", b"a"),
                       batcher.submit("t", "k", b"b"),
                       batcher.submit("t", "k", b"c")]
            for future in futures:
                with pytest.raises(RuntimeError, match="backend exploded"):
                    await asyncio.wait_for(future, timeout=2)
            assert batcher.pending + batcher.in_flight == 0

        asyncio.run(scenario())

    def test_close_fails_queued_requests(self):
        async def scenario():
            batcher, signer, first = await busy_batcher(
                target_batch_size=64, max_wait_s=3600.0)
            future = batcher.submit("t", "k", b"doomed")
            batcher.close()
            assert batcher.closed
            with pytest.raises(ServiceError, match="closed"):
                await future
            with pytest.raises(ServiceError, match="closed"):
                batcher.submit("t", "k", b"after close")
            # The batch in flight finishes; nothing ships after it.
            signer.release()
            assert await first == (b"in-flight", 1)
            await batcher.flush()
            assert len(signer.started) == 1

        asyncio.run(scenario())

    def test_constructor_validation(self):
        async def noop(queue_key, batch):
            pass

        with pytest.raises(ServiceError, match="target_batch_size"):
            DeadlineBatcher(noop, target_batch_size=0)
        with pytest.raises(ServiceError, match="max_wait_s"):
            DeadlineBatcher(noop, max_wait_s=0)
