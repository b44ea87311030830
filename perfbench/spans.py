"""In-memory spans and counters for the benchmark's traced runs.

A span records a name, its layer, start and end (``time.perf_counter``,
which is the system-wide monotonic clock on Linux), the span that caused
it, and the root span it belongs to (one request or one sweep).
The current span is kept in a :mod:`contextvars` variable, so spans
nest correctly across threads and across asyncio tasks.  Nothing is
written until :meth:`Recorder.dump` runs at the end of the benchmark.

Spans are only ever opened by the benchmark's own code, around calls
into the simulator's layers: :meth:`Recorder.wrapped` swaps a public
method (or a module function, where the caller looks it up) for a
version that runs inside a span, and puts the original back after.
The simulator's source is not modified.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def _open(self, name: str, layer: str | None, start: float, attrs: dict) -> dict:
        parent = _current.get()
        with self._lock:
            span = {
                "id": len(self.spans),
                "name": name,
                "layer": layer or name.split(".", 1)[0],
                "parent": None if parent is None else parent["id"],
                "root": len(self.spans) if parent is None else parent["root"],
                "start": start,
                "end": None,
                **attrs,
            }
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str | None = None, **attrs):
        span = self._open(name, layer, time.perf_counter(), attrs)
        token = _current.set(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            _current.reset(token)

    @contextmanager
    def wrapped(self, owner, attr: str, name: str, layer: str | None = None, before=None, after=None):
        """Run every call of ``owner.attr`` inside a span called ``name``.

        ``before(span, args, kwargs)`` runs in the span before the call;
        what it returns is handed to ``after(span, state, result, args)``,
        which runs in the span after the call returned.  Coroutine
        functions get a coroutine wrapper.  The original is restored on
        exit, also when it was inherited rather than defined on ``owner``.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)

        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                with self.span(name, layer) as span:
                    state = before(span, args, kwargs) if before else None
                    result = await original(*args, **kwargs)
                    if after:
                        after(span, state, result, args)
                    return result

        else:

            def wrapper(*args, **kwargs):
                with self.span(name, layer) as span:
                    state = before(span, args, kwargs) if before else None
                    result = original(*args, **kwargs)
                    if after:
                        after(span, state, result, args)
                    return result

        setattr(owner, attr, functools.wraps(original)(wrapper))
        try:
            yield
        finally:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def add_child(self, name: str, start: float, seconds: float, layer: str | None = None) -> None:
        """A child of the current span whose time was measured by the program
        (for example codegen seconds from ``compile_stats``)."""
        span = self._open(name, layer, start, {"measured_by": "program"})
        span["end"] = start + seconds

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def total(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"] is not None)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time covered by child spans."""
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["end"] is not None:
                out[span["layer"]] += span["end"] - span["start"] - children[span["id"]]
        return dict(out)

    def merge(self, data: dict, links: dict | None = None) -> None:
        """Fold in spans and counters another process dumped.

        ``links`` maps a request id to the id of a span of this recorder:
        a dumped root span whose ``request`` attribute is in ``links``
        becomes that span's child, and its descendants join that span's
        tree (so a client request and the server work it caused form one
        tree, and the server time is not counted twice in self times).
        """
        links = links or {}
        offset = len(self.spans)
        roots: dict[int, int] = {}
        for span in data["spans"]:
            span = dict(span, id=span["id"] + offset, root=span["root"] + offset)
            if span["parent"] is not None:
                span["parent"] += offset
            elif span.get("request") in links:
                span["parent"] = links[span["request"]]
                roots[span["id"]] = self.spans[span["parent"]]["root"]
            self.spans.append(span)
        for span in self.spans[offset:]:
            span["root"] = roots.get(span["root"], span["root"])
        for name, value in data["counters"].items():
            self.counters[name] += value

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)
