"""In-memory span recorder with nesting-aware self time.

A :class:`Tracer` wraps callables.  Each call of a wrapped callable
records one span: ``(id, parent, layer, start, end, self_s, counts)``.
``parent`` is the id of the innermost traced call still open on the
same thread (0 at top level), and ``self_s`` is the span's duration
minus the durations of its direct children, so the self times of all
spans on a thread add up to the time covered by its top-level spans.
``counts`` is whatever the optional ``after`` hook returned: counters
measured where the work happens (a run's retired instructions, whether
a cache probe hit).

Spans stay in memory and are written out once, when the traced process
ends (``traced_cli.py``).  Aggregation (:func:`layer_totals`,
:func:`top_level_time`) is plain arithmetic over the recorded tuples,
so the benchmark can slice one recording by time window (a daemon's
boot, one pass of requests).
"""

from __future__ import annotations

import itertools
import json
import threading
import time


class Tracer:
    """Records one span per call of every callable it wrapped."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, before=None, after=None):
        """Return *fn* wrapped to record a span under *layer*.

        ``before(args, kwargs)`` runs just before the call and its value
        is handed to ``after(args, kwargs, result, state)``, which runs
        after a normal return and returns the span's counts dict (or
        ``None``).  Both run inside the span's interval.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            counts = None
            start = tracer.clock()
            try:
                state = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    counts = after(args, kwargs, result, state)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (frame[0], parent, layer, start, end,
                     duration - frame[1], counts)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced


def load(path) -> tuple[dict, list[tuple]]:
    """Read a traced process's output file (a spans line, then a meta
    line) back as ``(meta, spans)``."""
    with open(path) as handle:
        spans_line, meta_line = handle.read().splitlines()[:2]
    spans = [tuple(span) for span in json.loads(spans_line)]
    return json.loads(meta_line), spans


def in_window(span: tuple, window) -> bool:
    return window is None or window[0] <= span[3] < window[1]


def layer_totals(spans, window=None) -> dict[str, dict]:
    """Per layer: summed self time, call count and summed counts of the
    spans that started inside *window* (``(start, end)``, or all)."""
    totals: dict[str, dict] = {}
    for span in spans:
        if not in_window(span, window):
            continue
        _sid, _parent, layer, _start, _end, self_s, counts = span
        entry = totals.setdefault(
            layer, {"self_s": 0.0, "calls": 0, "counts": {}}
        )
        entry["self_s"] += self_s
        entry["calls"] += 1
        if counts:
            summed = entry["counts"]
            for key, value in counts.items():
                summed[key] = summed.get(key, 0) + value
    return totals


def top_level_time(spans, window=None) -> float:
    """Summed duration of the spans with no traced caller — the time a
    process spent inside any traced layer at all."""
    return sum(
        span[4] - span[3]
        for span in spans
        if span[1] == 0 and in_window(span, window)
    )
