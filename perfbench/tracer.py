"""In-memory span tracing applied to sfglab from outside its source.

A Tracer records spans (name, start, end, parent, thread) and plain counters.
The open span is held in a context variable, so every thread has its own
parent chain; executors built by ``propagating_executor`` copy the submitting
thread's context into each task, so spans opened in worker threads hang under
the span that submitted them.

A Patcher replaces a function or method with a traced wrapper at every place
that binds it: ``from .oracle import score`` in another module makes a second
binding that a patch of the defining module alone would miss. ``restore``
puts every original back and checks each by identity.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import threading
import time
from collections import Counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        span = Span(name, self.clock(), self._current.get(), threading.get_ident())
        token = self._current.set(span)
        self.spans.append(span)
        return span, token

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = self.clock()
        self._current.reset(token)

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children from different threads may overlap in time; their union is what
    counts as covered, so two concurrent children never push self time below 0.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(id(sp.parent), []).append(sp)
    out = {}
    for sp in spans:
        kids = children.get(id(sp), ())
        covered = union_length(((k.start, k.end) for k in kids), sp.start, sp.end)
        out[id(sp)] = sp.duration - covered
    return out


def propagating_executor(base):
    """Subclass of an executor class whose tasks run in a copy of the
    submitter's context, so the submitter's open span is their parent."""

    class PropagatingExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

    PropagatingExecutor.__name__ = f"Propagating{base.__name__}"
    return PropagatingExecutor


def traced(tracer: Tracer, fn, name, after=None):
    """Wrap fn in a span. name is a string or name(args, kwargs) -> str;
    after(span, args, kwargs, result) may attach attributes once the call
    returns."""
    name_of = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, token = tracer.open(name_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


def counted(tracer: Tracer, fn, name):
    """Wrap fn with a call counter and no span (for very frequent calls)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


class Patcher:
    """Replaces objects at every binding inside a package, then restores them."""

    def __init__(self, package: str):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def patch_function(self, original, replacement) -> int:
        """Rebind every module-level name bound to original; returns the count."""
        n = 0
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    n += 1
        if n == 0:
            raise LookupError(f"{original!r} is bound nowhere in {self.package}")
        return n

    def patch_attr(self, owner, attr: str, replacement) -> None:
        """Replace one attribute held directly in owner's namespace (a method
        in a class, or an imported class in a module)."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> list[str]:
        """Undo every patch in reverse order; returns bindings that did not
        come back to the identical original object (empty on success)."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        wrong = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._saved if vars(owner)[attr] is not original]
        self._saved.clear()
        return wrong
