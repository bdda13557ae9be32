"""Arrival traces and the async load driver."""

import asyncio
import time

import pytest

from repro.errors import OverloadedError, ServiceError
from repro.service import (LoadGenerator, bursty_trace, make_trace,
                           poisson_trace, ramp_trace)


class TestTraces:
    def test_poisson_shape_and_determinism(self):
        trace = poisson_trace(200, rate=50.0, seed=7)
        assert len(trace) == 200
        assert trace == sorted(trace)
        assert trace == poisson_trace(200, rate=50.0, seed=7)
        assert trace != poisson_trace(200, rate=50.0, seed=8)
        mean_gap = trace[-1] / len(trace)
        assert 0.5 / 50.0 < mean_gap < 2.0 / 50.0  # loose: it's random

    def test_bursty_is_on_off(self):
        trace = bursty_trace(32, rate=40.0, burst=8, seed=1)
        assert len(trace) == 32
        # Requests inside a burst land at the same instant...
        assert trace[0] == trace[7]
        # ...and bursts are separated by an idle gap near burst/rate.
        gap = trace[8] - trace[7]
        assert 0.8 * 8 / 40.0 <= gap <= 1.2 * 8 / 40.0

    def test_ramp_accelerates(self):
        trace = ramp_trace(400, rate=50.0, seed=3)
        first_half = trace[199] - trace[0]
        second_half = trace[399] - trace[200]
        assert second_half < first_half  # arrivals speed up

    def test_make_trace_dispatch(self):
        assert make_trace("poisson", 5, 10.0) == poisson_trace(5, 10.0)
        with pytest.raises(ServiceError, match="unknown trace"):
            make_trace("square-wave", 5, 10.0)
        with pytest.raises(ServiceError, match="length"):
            make_trace("poisson", 0, 10.0)
        with pytest.raises(ServiceError, match="rate"):
            make_trace("poisson", 5, 0.0)


class TestLoadGenerator:
    def test_counts_ok_shed_and_failed(self):
        async def scenario():
            calls = []

            async def signer(message):
                calls.append(message)
                if message.endswith(b"#1"):
                    raise OverloadedError("shed")
                if message.endswith(b"#2"):
                    raise RuntimeError("boom")
                return {"batch_size": 2}

            generator = LoadGenerator(signer)
            report = await generator.run([0.0, 0.0, 0.0, 0.01],
                                         trace="unit")
            assert len(calls) == 4
            assert (report.offered, report.signed, report.shed,
                    report.failed) == (4, 2, 1, 1)
            assert len(report.latencies_ms) == 2
            assert report.elapsed_s > 0
            table = report.table()
            assert "unit" in table and "p99 ms" in table

        asyncio.run(scenario())

    def test_respects_arrival_offsets(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            issued = []

            async def signer(message):
                issued.append(loop.time())
                return {}

            start = loop.time()
            await LoadGenerator(signer).run([0.0, 0.08])
            assert len(issued) == 2
            # The second request waited for its offset.
            assert max(issued) - start >= 0.07

        asyncio.run(scenario())

    def test_latency_is_timed_from_when_the_request_was_due(self):
        """A stall shows in every request behind it: the second request
        was due 50 ms in, went out only when the loop came back at 300 ms,
        and so waited ~250 ms, not 0."""
        async def scenario():
            calls = []

            async def signer(message):
                calls.append(message)
                if len(calls) == 1:
                    time.sleep(0.3)  # blocks the loop, like a stall
                return {}

            report = await LoadGenerator(signer).run([0.0, 0.05])
            first, second = report.latencies_ms
            assert first >= 290.0
            assert 200.0 <= second <= first

        asyncio.run(scenario())



class TestVerifyFraction:
    """The verification-dominant traffic knob: a seeded fraction of the
    trace becomes verify calls, reproducibly."""

    @staticmethod
    def make(fraction, seed=0):
        signed, verified = [], []

        async def signer(message):
            signed.append(message)
            return {}

        async def verifier(message):
            verified.append(message)
            return {}

        generator = LoadGenerator(signer, verifier=verifier,
                                  verify_fraction=fraction, seed=seed)
        return generator, signed, verified

    def test_fraction_splits_the_trace(self):
        async def scenario():
            generator, signed, verified = self.make(0.5, seed=3)
            report = await generator.run([0.0] * 40, trace="mix")
            assert report.signed == len(signed)
            assert report.verified == len(verified)
            assert report.signed + report.verified == 40
            assert report.verified > 0 and report.signed > 0
            assert "verified" in report.table()

        asyncio.run(scenario())

    def test_mix_is_deterministic_under_seed(self):
        async def scenario():
            first, _, first_verified = self.make(0.3, seed=9)
            await first.run([0.0] * 30)
            second, _, second_verified = self.make(0.3, seed=9)
            await second.run([0.0] * 30)
            assert sorted(first_verified) == sorted(second_verified)

        asyncio.run(scenario())

    def test_extremes(self):
        async def scenario():
            all_verify, signed, verified = self.make(1.0)
            report = await all_verify.run([0.0] * 5)
            assert (report.signed, report.verified) == (0, 5)
            assert not signed and len(verified) == 5

            none_verify, signed2, _ = self.make(0.0)
            report = await none_verify.run([0.0] * 5)
            assert (report.signed, report.verified) == (5, 0)
            assert len(signed2) == 5

        asyncio.run(scenario())

    def test_achieved_rate_counts_both_kinds(self):
        from repro.service.loadgen import LoadReport

        report = LoadReport(trace="t", offered=10, signed=4, verified=6,
                            elapsed_s=2.0)
        assert report.achieved_rate == 5.0

    def test_fraction_validation(self):
        async def noop(message):
            return {}

        with pytest.raises(ServiceError, match="verify_fraction"):
            LoadGenerator(noop, verifier=noop, verify_fraction=1.5)
        with pytest.raises(ServiceError, match="needs a verifier"):
            LoadGenerator(noop, verify_fraction=0.5)
