"""Spans recorded by the benchmark around its calls into the program.

Nothing here reaches inside ``repro``: a span is opened in the
benchmark's own code around a call into a public function, kept in
memory, and written out when the run ends.  For a remote tier the
server's own account of a request (``SignResult.wait_ms`` / ``total_ms``
/ ``batch_size``) becomes two child spans, ``service.batcher.wait`` and
``service.sign``; what is left of the parent is the client, the wire and
the router.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import itertools
import json
import time

from .floor import LATENCY_PAD_S, FloorSampler, quantile

#: (open span id, request id) the next span hangs under.  A context
#: variable, so concurrent asyncio tasks and ``asyncio.to_thread`` calls
#: each see their own.
_current: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "bench_span", default=(0, 0))


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: (id, parent, name, request, start, end, value)
        self.spans: list[tuple] = []
        #: (start, end, wait_s, total_s, batch_size) per server-accounted call
        self.accounts: list[tuple] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, *, request: int | None = None,
             start: float | None = None):
        """Record *name* around the block; nested spans become children.
        *start* backdates the span (an open-loop request starts when it
        was due, not when it was sent)."""
        if not self.enabled:
            yield None
            return
        parent, inherited = _current.get()
        request = inherited if request is None else request
        span_id = next(self._ids)
        token = _current.set((span_id, request))
        begin = time.perf_counter() if start is None else start
        try:
            yield span_id
        finally:
            _current.reset(token)
            self.spans.append((span_id, parent, name, request, begin,
                               time.perf_counter(), None))

    def _server_account(self, parent: int, request: int, start: float,
                        end: float, result) -> None:
        wait, total = result.wait_ms / 1e3, result.total_ms / 1e3
        self.accounts.append((start, end, wait, total, result.batch_size))
        # The server does not say when it received the request; centre
        # its account in the client's interval.
        begin = start + max(end - start - total, 0.0) / 2
        self.spans.append((next(self._ids), parent, "service.batcher.wait",
                           request, begin, begin + wait, None))
        self.spans.append((next(self._ids), parent, "service.sign",
                           request, begin + wait, begin + total,
                           result.batch_size))

    def wrap(self, target, layer: str):
        """*target* itself when tracing is off; otherwise a stand-in
        whose public methods each record a ``<layer>.<method>`` span."""
        return _Traced(target, layer, self) if self.enabled else target

    def write(self, path, floor: FloorSampler) -> None:
        children: dict[int, float] = {}
        for _, parent, _, _, start, end, _ in self.spans:
            children[parent] = children.get(parent, 0.0) + (end - start)
        with open(path, "w") as handle:
            for span_id, parent, name, request, start, end, value in \
                    sorted(self.spans, key=lambda span: span[4]):
                record = {
                    "id": span_id, "parent": parent, "name": name,
                    "request": request, "start": start, "end": end,
                    "self_s": max(end - start - children.get(span_id, 0.0),
                                  0.0),
                    "kh": floor.kh(start, end, LATENCY_PAD_S)
                    if end > start else 0.0,
                }
                if value is not None:
                    record["batch_size"] = value
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self, floor: FloorSampler) -> dict[str, tuple]:
        """What the server said about this workload's requests."""
        waits, signs, overheads = [], [], []
        for start, end, wait, total, _ in self.accounts:
            per_s = 1e3 / floor.mean_us(start, end, LATENCY_PAD_S)  # kh/s
            waits.append(wait * per_s)
            signs.append((total - wait) * per_s)
            overheads.append(max(end - start - total, 0.0) * per_s)
        sizes = [account[4] for account in self.accounts]
        calls = len(sizes) or float("nan")  # NaN when every call failed
        return {
            "service.batcher.wait_p50_kh": (quantile(waits, 0.5), "kh"),
            "service.batcher.wait_p90_kh": (quantile(waits, 0.9), "kh"),
            "service.batcher.batch_mean": (sum(sizes) / calls, "count"),
            "service.batcher.batch1_share": (
                sum(1 for size in sizes if size == 1) / calls, "share"),
            "service.sign_p50_kh": (quantile(signs, 0.5), "kh"),
            "api.overhead_p50_kh": (quantile(overheads, 0.5), "kh"),
        }


def _has_server_account(result) -> bool:
    return hasattr(result, "wait_ms") and hasattr(result, "batch_size")


class _Traced:
    def __init__(self, target, layer: str, recorder: Recorder):
        self._target = target
        self._layer = layer
        self._recorder = recorder

    def __getattr__(self, name: str):
        attribute = getattr(self._target, name)
        if name.startswith("_") or not callable(attribute):
            return attribute
        recorder, span_name = self._recorder, f"{self._layer}.{name}"

        def account(span_id, start, result):
            # One account per call: the results of one sign_many rode
            # the same batches, so the first stands for the call.
            first = result[0] if isinstance(result, list) and result \
                else result
            if _has_server_account(first):
                recorder._server_account(span_id, _current.get()[1], start,
                                       time.perf_counter(), first)
            return result

        if asyncio.iscoroutinefunction(attribute):
            @functools.wraps(attribute)
            async def traced(*args, **kwargs):
                start = time.perf_counter()
                with recorder.span(span_name, start=start) as span_id:
                    return account(span_id, start,
                                   await attribute(*args, **kwargs))
        else:
            @functools.wraps(attribute)
            def traced(*args, **kwargs):
                start = time.perf_counter()
                with recorder.span(span_name, start=start) as span_id:
                    return account(span_id, start,
                                   attribute(*args, **kwargs))
        return traced
