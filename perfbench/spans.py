"""In-memory span tracing around the calls into each widescan layer.

A span is (id, name, start, end, parent): the parent is the span that was
open when this one began, so nested calls form a tree. Spans of one
workload run share the tracer's run id. Wrappers are installed where the
callers look functions up (the names a module imported) and restored
afterwards, so the library itself is never edited.
"""

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded, so a span's children run one after another
    inside it and their durations add up without overlap.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[span.sid] for span in spans]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


OBSERVE = "trace.observe"

# An observer sees (layer name, args, kwargs, result, seconds) after a call.
Observer = Callable[[str, tuple, dict, object, float], None]


class Tracer:
    """Records spans for one workload run and owns the wrappers it installs."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args: tuple = (), kwargs: dict | None = None,
             observer: Observer | None = None):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[sid] = Span(sid, name, start, end, parent)
        if observer is not None:
            # The observer's own cost is a span of its own, so it is never
            # charged to a layer or to the caller's unattributed time.
            self.call(OBSERVE, observer, (name, args, kwargs or {}, result, end - start))
        return result

    def wrap(self, fn, name: str, observer: Observer | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observer)

        return traced

    def install(self, module, describe: Callable[[object], tuple[str, Observer | None] | None]):
        """Wrap every public function `module` imported from another module.

        describe maps a function to (span name, observer), or to None to leave
        the function alone.
        """
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == module.__name__:
                continue
            described = describe(value)
            if described is None:
                continue
            self._patched.append((module, attr, value))
            setattr(module, attr, self.wrap(value, *described))

    def restore(self):
        """Put back every original function, most recent first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def finished(self) -> list[Span]:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return list(self.spans)
