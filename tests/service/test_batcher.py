"""Work-conserving dispatch: ship when the signer is free, or at a cap."""

import asyncio

import pytest

from repro.errors import ServiceError
from repro.service import DeadlineBatcher


class GatedSigner:
    """A fake dispatch that records each batch as it starts and holds it
    until the test releases it — a signer that stays busy on demand."""

    def __init__(self):
        self.started = []          # (queue_key, [messages]) in start order
        self._gates = []

    async def dispatch(self, queue_key, batch):
        gate = asyncio.Event()
        self._gates.append(gate)
        self.started.append((queue_key, [r.message for r in batch]))
        await gate.wait()
        for request in batch:
            request.future.set_result((request.message, len(batch)))

    def release(self, index=-1):
        self._gates[index].set()


def busy_batcher(**kwargs):
    """A batcher with one request already in flight on a gated signer."""
    signer = GatedSigner()
    batcher = DeadlineBatcher(signer.dispatch, **kwargs)
    first = batcher.submit("busy", "k", b"in-flight")
    return batcher, signer, first


class TestDeadlineDispatch:
    def test_lone_request_ships_within_budget(self):
        """With nothing in flight a request ships the moment it arrives,
        whatever ``max_wait_s`` says: an idle signer is never waited on."""
        async def scenario():
            signer = GatedSigner()
            batcher = DeadlineBatcher(signer.dispatch, target_batch_size=64,
                                      max_wait_s=3600.0)
            loop = asyncio.get_running_loop()
            submitted = loop.time()
            future = batcher.submit("t", "k", b"solo")
            # Fired synchronously inside submit: no timer, no tick.
            assert (batcher.pending, batcher.in_flight) == (0, 1)
            await asyncio.sleep(0)
            assert signer.started == [(("t", "k"), [b"solo"])]
            assert loop.time() - submitted < 0.05
            signer.release()
            assert await asyncio.wait_for(future, timeout=2) == (b"solo", 1)
            # ... and the next lone request likewise, once that one is done.
            again = batcher.submit("t", "k", b"solo-2")
            assert (batcher.pending, batcher.in_flight) == (0, 1)
            await asyncio.sleep(0)
            signer.release()
            assert await again == (b"solo-2", 1)

        asyncio.run(scenario())

    def test_arrivals_during_a_dispatch_ship_together_when_it_completes(self):
        async def scenario():
            batcher, signer, first = busy_batcher(target_batch_size=64,
                                                  max_wait_s=3600.0)
            await asyncio.sleep(0)
            futures = [batcher.submit("t", "k", f"m{i}".encode())
                       for i in range(5)]
            await asyncio.sleep(0.02)
            # Nothing ships while the signer is busy ...
            assert len(signer.started) == 1
            assert (batcher.pending, batcher.in_flight) == (5, 1)
            signer.release()
            await first
            await asyncio.sleep(0)
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
        async def scenario():
            batcher, signer, first = busy_batcher(target_batch_size=64,
                                                  max_wait_s=3600.0)
            old = batcher.submit("old", "k", b"o1")
            await asyncio.sleep(0.01)
            young = batcher.submit("young", "k", b"y1")
            batcher.submit("old", "k", b"o2")  # joins the older queue
            signer.release()
            await first
            await asyncio.sleep(0)
            # One queue per completion: a batch shares a key pair.
            assert signer.started[1:] == [(("old", "k"), [b"o1", b"o2"])]
            assert (batcher.pending, batcher.in_flight) == (1, 2)
            signer.release()
            await old
            await asyncio.sleep(0)
            assert signer.started[2] == (("young", "k"), [b"y1"])
            signer.release()
            assert await young == (b"y1", 1)

        asyncio.run(scenario())

    def test_full_batch_dispatches_immediately(self):
        """``target_batch_size`` caps a queue even while the signer is
        busy: the full queue ships beside the batch in flight."""
        async def scenario():
            batcher, signer, _ = busy_batcher(target_batch_size=3,
                                              max_wait_s=3600.0)
            futures = [batcher.submit("t", "k", f"m{i}".encode())
                       for i in range(3)]
            assert (batcher.pending, batcher.in_flight) == (0, 4)
            await asyncio.sleep(0)
            assert signer.started[1] == (("t", "k"), [b"m0", b"m1", b"m2"])
            signer.release()
            assert await asyncio.wait_for(asyncio.gather(*futures),
                                          timeout=2) == [
                (b"m0", 3), (b"m1", 3), (b"m2", 3)]
            signer.release(0)

        asyncio.run(scenario())

    def test_shorter_deadline_rearms_timer(self):
        """While the signer is busy a request's own budget still bounds
        its queue wait, and a late, tighter one pulls the dispatch in."""
        async def scenario():
            batcher, signer, _ = busy_batcher(target_batch_size=64,
                                              max_wait_s=3600.0)
            slow = batcher.submit("t", "k", b"patient", budget_s=3600.0)
            fast = batcher.submit("t", "k", b"urgent", budget_s=0.05)
            await asyncio.sleep(0.2)
            # Both rode the urgent request's timer, as one batch, though
            # the first batch is still in flight.
            assert signer.started[1] == (("t", "k"), [b"patient", b"urgent"])
            signer.release()
            await asyncio.wait_for(asyncio.gather(slow, fast), timeout=2)
            signer.release(0)

        asyncio.run(scenario())

    def test_default_budget_caps_the_wait_behind_a_slow_batch(self):
        async def scenario():
            batcher, signer, _ = busy_batcher(target_batch_size=64,
                                              max_wait_s=0.05)
            future = batcher.submit("t", "k", b"bounded")
            await asyncio.sleep(0.2)
            assert signer.started[1] == (("t", "k"), [b"bounded"])
            signer.release()
            await future
            signer.release(0)

        asyncio.run(scenario())

    def test_queues_are_per_tenant_key(self):
        async def scenario():
            batcher, signer, _ = busy_batcher(target_batch_size=2,
                                              max_wait_s=3600.0)
            futures = [
                batcher.submit("a", "k1", b"a1"),
                batcher.submit("b", "k1", b"b1"),
                batcher.submit("a", "k1", b"a2"),  # fills (a, k1)
                batcher.submit("b", "k1", b"b2"),  # fills (b, k1)
            ]
            await asyncio.sleep(0)
            assert signer.started[1:] == [
                (("a", "k1"), [b"a1", b"a2"]),
                (("b", "k1"), [b"b1", b"b2"]),
            ]
            for index in range(3):
                signer.release(index)
            await asyncio.wait_for(asyncio.gather(*futures), timeout=2)

        asyncio.run(scenario())


class TestInFlightAccounting:
    def test_fired_batch_counted_before_dispatch_runs(self):
        """No gap for admission control: the instant a queue fires, its
        requests move from pending to in_flight synchronously — a
        request is never invisible to pending + in_flight."""
        async def scenario():
            batcher, signer, first = busy_batcher(target_batch_size=2,
                                                  max_wait_s=3600.0)
            assert (batcher.pending, batcher.in_flight) == (0, 1)
            batcher.submit("t", "k", b"a")
            assert (batcher.pending, batcher.in_flight) == (1, 1)
            future = batcher.submit("t", "k", b"b")  # fires the batch
            # Synchronously, before the dispatch task has even started:
            assert (batcher.pending, batcher.in_flight) == (0, 3)
            assert len(signer.started) == 0
            await asyncio.sleep(0)
            signer.release(0)
            signer.release(1)
            await asyncio.wait_for(asyncio.gather(first, future), timeout=2)
            assert (batcher.pending, batcher.in_flight) == (0, 0)

        asyncio.run(scenario())

    def test_outstanding_depth_is_exact_through_a_handover(self):
        """``pending + in_flight`` equals submitted minus resolved at
        every step, including the completion that fires the next batch."""
        async def scenario():
            batcher, signer, first = busy_batcher(target_batch_size=64,
                                                  max_wait_s=3600.0)
            waiting = [batcher.submit("t", "k", bytes([i])) for i in range(4)]
            assert batcher.pending + batcher.in_flight == 5
            await asyncio.sleep(0)
            signer.release()
            await first
            assert batcher.pending + batcher.in_flight == 4
            late = batcher.submit("t", "k", b"late")  # behind the handover
            assert (batcher.pending, batcher.in_flight) == (1, 4)
            await asyncio.sleep(0)
            signer.release()
            await asyncio.gather(*waiting)
            assert (batcher.pending, batcher.in_flight) == (0, 1)
            await asyncio.sleep(0)
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
        async def scenario():
            batcher, signer, first = busy_batcher(target_batch_size=64,
                                                  max_wait_s=3600.0)
            future = batcher.submit("t", "k", b"partial")
            assert batcher.pending == 1
            flushing = asyncio.create_task(batcher.flush())
            await asyncio.sleep(0.01)
            assert batcher.pending == 0
            assert signer.started[1] == (("t", "k"), [b"partial"])
            signer.release(0)
            signer.release(1)
            await asyncio.wait_for(flushing, timeout=2)
            assert await future == (b"partial", 1)
            assert await first == (b"in-flight", 1)

        asyncio.run(scenario())

    def test_dispatch_failure_fails_futures(self):
        async def scenario():
            async def dispatch(queue_key, batch):
                await asyncio.sleep(0.01)
                raise RuntimeError("backend exploded")

            batcher = DeadlineBatcher(dispatch, target_batch_size=2,
                                      max_wait_s=30.0)
            # The first ships alone; the other two fill a queue behind it.
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
            batcher, _, _ = busy_batcher(target_batch_size=64,
                                         max_wait_s=3600.0)
            future = batcher.submit("t", "k", b"doomed")
            batcher.close()
            with pytest.raises(ServiceError, match="closed"):
                await future
            with pytest.raises(ServiceError, match="closed"):
                batcher.submit("t", "k", b"after close")

        asyncio.run(scenario())

    def test_constructor_validation(self):
        async def noop(queue_key, batch):
            pass

        with pytest.raises(ServiceError, match="target_batch_size"):
            DeadlineBatcher(noop, target_batch_size=0)
        with pytest.raises(ServiceError, match="max_wait_s"):
            DeadlineBatcher(noop, max_wait_s=0)
