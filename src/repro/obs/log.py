"""JSON-lines structured logging with trace correlation.

The codebase historically had *zero* logging — faults surfaced only as
exceptions or telemetry counters.  This module adds the minimum an
operator needs: one JSON object per line, written to a file or stream,
with the current trace id attached automatically so a log line can be
joined against its request's spans.

Logging is **off until configured** (``configure_logging``); an
unconfigured :class:`JsonLogger` call is a single ``if`` and returns,
so the adoption points in the service, pool, and keystore paths cost
nothing in the default setup.  There is deliberately no handler tree,
no formatter registry, no per-module level dance — a signing service
needs "events, as data, somewhere greppable", not a logging framework.

Line shape::

    {"ts": 1754650000.123456, "level": "warn", "component": "pool",
     "event": "worker-respawn", "trace": "9f…", "slot": 2, "exitcode": 13}

``ts`` is wall-clock epoch seconds (the clock spans share), ``trace``
appears only when a trace context is current, and every extra keyword
passed to the log call rides along as a top-level field.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import IO

from .trace import current_trace

__all__ = ["JsonLogger", "configure_logging", "get_logger"]

_lock = threading.Lock()
_stream: IO[str] | None = None
_owns_stream = False
_loggers: dict[str, "JsonLogger"] = {}


def configure_logging(dest: str | IO[str] | None) -> None:
    """Route JSON log lines to *dest*; ``None`` disables logging.

    *dest* may be a path (opened append, line-buffered), ``"-"`` for
    stderr, or an open text stream.  Reconfiguring closes a previously
    opened file.
    """
    global _stream, _owns_stream
    with _lock:
        if _owns_stream and _stream is not None:
            _stream.close()
        if dest is None:
            _stream, _owns_stream = None, False
        elif dest == "-":
            _stream, _owns_stream = sys.stderr, False
        elif isinstance(dest, str):
            _stream = open(dest, "a", buffering=1, encoding="utf-8")
            _owns_stream = True
        else:
            _stream, _owns_stream = dest, False


class JsonLogger:
    """Component-scoped emitter; see module docstring for the shape."""

    def __init__(self, component: str):
        self.component = component

    def log(self, level: str, event: str, **fields) -> None:
        stream = _stream
        if stream is None:
            return
        record = {"ts": round(time.time(), 6), "level": level,
                  "component": self.component, "event": event}
        trace = current_trace()
        if trace is not None:
            record["trace"] = trace.trace_id
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str)
        with _lock:
            try:
                stream.write(line + "\n")
            except (OSError, ValueError):
                pass  # a full disk or closed stream must not kill signing

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warn(self, event: str, **fields) -> None:
        self.log("warn", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)


def get_logger(component: str) -> JsonLogger:
    """The shared :class:`JsonLogger` for *component* (cached)."""
    logger = _loggers.get(component)
    if logger is None:
        logger = _loggers[component] = JsonLogger(component)
    return logger
