"""Tracing primitives: contexts, spans, the ring, export, breakdowns."""

import json
import threading

import pytest

from repro.obs import trace as trace_module
from repro.obs.trace import (RING_SIZE, Span, TraceContext, Tracer,
                             current_trace, load_spans, new_span_id,
                             new_trace_id, start_trace, trace_breakdowns,
                             use_trace)


class TestTraceContext:
    def test_ids_are_fresh_and_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b and len(a) == 32 and int(a, 16) >= 0
        assert len(new_span_id()) == 16

    def test_use_trace_installs_and_restores(self):
        assert current_trace() is None
        ctx = start_trace()
        with use_trace(ctx):
            assert current_trace() is ctx
            inner = TraceContext(ctx.trace_id, new_span_id())
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is ctx
        assert current_trace() is None

    def test_use_trace_none_masks_ambient(self):
        with use_trace(start_trace()):
            with use_trace(None):
                assert current_trace() is None


class TestSpan:
    def test_round_trips_through_dict(self):
        span = Span(trace_id="t" * 32, span_id="s" * 16, name="sign",
                    start=100.0, end=100.25, parent_id="p" * 16,
                    attrs={"backend": "vectorized", "hashes": 42})
        again = Span.from_dict(json.loads(json.dumps(span.as_dict())))
        assert again == span
        assert again.duration_ms == pytest.approx(250.0)

    def test_optional_fields_omitted_on_wire(self):
        record = Span("t", "s", "queue", 1.0, 2.0).as_dict()
        assert "parent" not in record and "attrs" not in record
        assert Span.from_dict(record).parent_id is None


class TestTracer:
    def test_record_span_defaults_and_ring(self):
        tracer = Tracer()
        ctx = start_trace()
        span = tracer.record_span("sign", trace=ctx, start=1.0, end=2.0,
                                  backend="scalar")
        assert span.trace_id == ctx.trace_id
        assert span.span_id != ctx.span_id  # fresh unless pinned
        pinned = tracer.record_span("request", trace=ctx, start=1.0,
                                    end=2.0, span_id=ctx.span_id)
        assert pinned.span_id == ctx.span_id
        assert [s.name for s in tracer.spans()] == ["sign", "request"]
        assert tracer.recorded == 2

    def test_ring_is_bounded_but_counter_is_not(self, monkeypatch):
        assert Tracer()._ring.maxlen == RING_SIZE
        monkeypatch.setattr(trace_module, "RING_SIZE", 4)
        tracer = Tracer()
        ctx = start_trace()
        for i in range(10):
            tracer.record_span(f"s{i}", trace=ctx, start=float(i),
                               end=float(i))
        assert len(tracer.spans()) == 4
        assert tracer.recorded == 10
        assert tracer.spans()[-1].name == "s9"

    def test_concurrent_recording_loses_nothing(self, monkeypatch):
        monkeypatch.setattr(trace_module, "RING_SIZE", 10_000)
        tracer = Tracer()
        ctx = start_trace()

        def hammer():
            for i in range(500):
                tracer.record_span("s", trace=ctx, start=0.0, end=0.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tracer.recorded == 2000
        assert len(tracer.spans()) == 2000


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = Tracer(out_path=path)
        ctx = start_trace()
        tracer.record_span("request", trace=ctx, start=1.0, end=2.0,
                           span_id=ctx.span_id, tenant="acme")
        tracer.record_span("queue", trace=ctx, start=1.0, end=1.5,
                           parent_id=ctx.span_id)
        tracer.close()
        spans = load_spans(path)
        assert [s.name for s in spans] == ["request", "queue"]
        assert spans[0].attrs == {"tenant": "acme"}

    def test_load_tolerates_partial_tail_line(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        span = Span("t" * 32, "s" * 16, "sign", 1.0, 2.0)
        path.write_text(json.dumps(span.as_dict()) + "\n"
                        + '{"trace": "trunc')
        assert len(load_spans(str(path))) == 1

    def test_load_raises_on_empty_or_junk(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="no spans"):
            load_spans(str(path))
        with pytest.raises(OSError):
            load_spans(str(tmp_path / "missing.jsonl"))


class TestBreakdowns:
    def _trace(self, tracer, trace_id, total_s, queue_s):
        ctx = TraceContext(trace_id, new_span_id())
        tracer.record_span("request", trace=ctx, start=0.0, end=total_s,
                           span_id=ctx.span_id, tenant="acme",
                           backend="vectorized", batch_size=2)
        tracer.record_span("queue", trace=ctx, start=0.0, end=queue_s,
                           parent_id=ctx.span_id)
        tracer.record_span("dispatch", trace=ctx, start=queue_s,
                           end=total_s, parent_id=ctx.span_id)
        return ctx

    def test_slowest_first_with_stage_sums(self):
        tracer = Tracer()
        self._trace(tracer, "a" * 32, total_s=0.2, queue_s=0.05)
        self._trace(tracer, "b" * 32, total_s=0.5, queue_s=0.10)
        slow, fast = trace_breakdowns(tracer.spans())
        assert slow["trace"] == "b" * 32
        assert slow["total_ms"] == pytest.approx(500.0)
        assert slow["stages"]["queue"] == pytest.approx(100.0)
        assert slow["attrs"]["tenant"] == "acme"
        assert fast["stages"]["dispatch"] == pytest.approx(150.0)

    def test_rootless_trace_falls_back_to_span_extent(self):
        tracer = Tracer()
        ctx = start_trace()
        tracer.record_span("queue", trace=ctx, start=1.0, end=1.2,
                           parent_id="gone")
        [entry] = trace_breakdowns(tracer.spans())
        assert entry["total_ms"] == pytest.approx(200.0)
