"""Span tracing from outside the program.

The traced run wraps public functions of each layer with timing shims
installed by :class:`Patcher` (and removed afterwards), so no module
under ``src/`` changes.  Every wrapped call is one span: name, start,
end and parent.  Self time (a span minus the spans nested in it) and
call counts aggregate online per span name; the first
:data:`KEEP_SPANS` raw spans stay in memory and are written out when
the run ends, which bounds the tracer's memory on long runs.
"""

from __future__ import annotations

import gc
import json
import os
import time
from collections import Counter

KEEP_SPANS = 20_000


class Tracer:
    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.agg: dict[str, list] = {}
        self.counts: Counter = Counter()
        #: Open spans, innermost last: [child seconds, span id].
        self.stack: list[list] = []
        #: Kept raw spans: (id, name, start, end, parent id or -1).
        self.spans: list[tuple] = []
        #: Kernels instrumented in this process (kept across resets).
        self.kernels: list = []
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates between phases (no span may be open)."""
        self.agg.clear()
        self.counts.clear()
        self.stack.clear()
        self.spans.clear()
        #: Seconds covered by root spans (no traced parent).
        self.top = 0.0
        self._next_id = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    # -- spans --------------------------------------------------------------

    def timed(self, name: str, fn):
        """``fn`` wrapped so each call records one span called ``name``."""
        perf = time.perf_counter
        stack = self.stack
        self.agg.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                entry = tracer.agg.get(name)
                if entry is None:  # reset() ran since wrapping
                    entry = tracer.agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top += duration
                if len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append((span_id, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def timed_iter(self, name: str, fn):
        """Wrap a generator function: each ``next`` is one span."""
        timed_next = self.timed(name, next)

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            sentinel = object()
            while True:
                item = timed_next(iterator, sentinel)
                if item is sentinel:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn, result_key=None):
        """``fn`` wrapped to count calls (and, with ``result_key``, to
        count truthy results under that key) without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if result_key is not None and result:
                counts[result_key] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- queries ------------------------------------------------------------

    def file_permission_verdicts(self) -> int:
        """``file_permission`` verdicts so far on every instrumented
        kernel, replayed ones included (the hook counter counts both)."""
        return sum(k.security.hook_calls["file_permission"] for k in self.kernels)

    def self_s(self, *names: str) -> float:
        return sum(self.agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def export(self) -> dict:
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "top": self.top,
            "counts": dict(self.counts),
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }

    def merge(self, other: dict) -> None:
        """Add an :meth:`export` from another process (a cluster worker)."""
        for name, (calls, total, own) in other["agg"].items():
            entry = self.agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        self.counts.update(other["counts"])

    def write(self, path: str) -> None:
        """Write the aggregates and the kept raw spans as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = self.export()
        payload["spans"] = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    # -- garbage collector ----------------------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def unwatch_gc(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)


class Patcher:
    """Install attribute replacements and undo them in reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        previous = owner.__dict__.get(name, self._MISSING) if hasattr(
            owner, "__dict__"
        ) else self._MISSING
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)

    def wrap_method(self, cls, name: str, make) -> None:
        """Replace ``cls.name`` (function, staticmethod or classmethod)
        with ``make(function)``, keeping its descriptor kind."""
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            self.set(cls, name, staticmethod(make(raw.__func__)))
        elif isinstance(raw, classmethod):
            self.set(cls, name, classmethod(make(raw.__func__)))
        else:
            self.set(cls, name, make(raw))

    def wrap_instance(self, obj, name: str, make) -> None:
        """Shadow a bound method with an instance attribute."""
        self.set(obj, name, make(getattr(obj, name)))

    def restore(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is self._MISSING:
                try:
                    delattr(owner, name)
                except AttributeError:
                    pass
            else:
                setattr(owner, name, previous)
