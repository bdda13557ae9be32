"""Structured JSON logging: line shape, levels, trace correlation."""

import io
import json

import pytest

from repro.obs.log import JsonLogger, configure_logging, get_logger
from repro.obs.trace import start_trace, use_trace


@pytest.fixture()
def sink():
    stream = io.StringIO()
    configure_logging(stream)
    yield stream
    configure_logging(None)


def lines(stream):
    return [json.loads(line) for line in
            stream.getvalue().splitlines() if line]


class TestJsonLogger:
    def test_unconfigured_logging_is_a_noop(self):
        configure_logging(None)
        JsonLogger("pool").error("worker-crash", slot=1)  # must not raise

    def test_line_shape_and_field_passthrough(self, sink):
        get_logger("pool").warn("worker-respawn", slot=2, exitcode=-9)
        [record] = lines(sink)
        assert record["level"] == "warn"
        assert record["component"] == "pool"
        assert record["event"] == "worker-respawn"
        assert record["slot"] == 2 and record["exitcode"] == -9
        assert isinstance(record["ts"], float)
        assert "trace" not in record

    def test_trace_id_attached_when_context_current(self, sink):
        ctx = start_trace()
        with use_trace(ctx):
            get_logger("service").info("request-shed", tenant="acme")
        get_logger("service").info("request-shed", tenant="acme")
        correlated, bare = lines(sink)
        assert correlated["trace"] == ctx.trace_id
        assert "trace" not in bare

    def test_non_json_fields_are_stringified(self, sink):
        get_logger("service").info("key-event", key=b"\x00\x01")
        [record] = lines(sink)  # bytes hit the default=str fallback
        assert isinstance(record["key"], str)

    def test_get_logger_is_cached_per_component(self):
        assert get_logger("pool") is get_logger("pool")
        assert get_logger("pool") is not get_logger("service")

    def test_file_destination_appends_jsonl(self, tmp_path):
        path = tmp_path / "service.log"
        configure_logging(str(path))
        try:
            get_logger("service").info("server-started", port=7744)
        finally:
            configure_logging(None)
        [record] = [json.loads(line) for line
                    in path.read_text().splitlines()]
        assert record["event"] == "server-started"
