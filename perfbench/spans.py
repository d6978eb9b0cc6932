"""In-memory span recording for the traced (``--trace 1``) runs.

Spans come from wrappers this benchmark installs at run time around the
public functions each layer exposes; the program under test is never
edited.  A span is ``(id, parent, name, start, end, rid)``: ``parent``
is the span open on the same thread when it started, ``rid`` a request
id where the boundary exposes one.  Times are ``time.perf_counter()``,
which on Linux is CLOCK_MONOTONIC and so shared by the client and
server processes.

The layer of a span is the part of its name before the first dot.  A
span's self time is its duration minus the part of its interval that its
child spans cover (:func:`layer_self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("bench", "wire", "workload", "core", "infer", "serve", "train",
          "joins", "optimizer")


class Tracer:
    """Span recorder.  Wrappers are cheap pass-throughs while disabled,
    so a run can alternate untraced and traced slices over the same
    installed wrappers to measure the tracing overhead."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, rid=None,
               parent: int | None = None) -> int:
        """Append a finished span (``parent`` defaults to the span open
        on this thread); returns its id."""
        span_id = next(self._ids)
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else 0
        self.spans.append((span_id, parent, name, start, end, rid))
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        """A span around the ``with`` body (nothing while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, rid))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, fn, name: str, count=None):
        """``fn`` with a span around every call; keeps its signature
        (``functools.wraps`` sets ``__wrapped__``, which
        ``inspect.signature`` follows).  ``count(*args, **kwargs)``, when
        given, is added to ``counts[name]`` per traced call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None and self.enabled:
                self.counts[name] += count(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        spanned wrapper until :meth:`unpatch_all`."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name, count))
        self._patched.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for _i, _p, n, start, end, _r in self.spans
                if n == name]


def overhead_ratio(tracer: Tracer, work, pairs: int = 2) -> float:
    """Traced over untraced wall time of ``work()``, run in alternating
    off/on slices so that drift on the host hits both sides alike.  The
    spans and counts the traced slices record are dropped."""
    walls = {False: 0.0, True: 0.0}
    for enabled in (False, True) * pairs:
        tracer.enabled = enabled
        start = time.perf_counter()
        work()
        walls[enabled] += time.perf_counter() - start
    tracer.enabled = False
    tracer.spans.clear()
    tracer.counts.clear()
    return walls[True] / walls[False]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds of self time per span name.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so over a tree whose root covers the
    whole measured phase the self times add up to the root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _i, parent, _n, start, end, _r in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for span_id, _p, name, start, end, _r in spans:
        clipped = [(max(lo, start), min(hi, end))
                   for lo, hi in children.get(span_id, ())
                   if min(hi, end) > max(lo, start)]
        out[name] += (end - start) - _union_length(clipped)
    return dict(out)


def by_layer(selfs: dict[str, float]) -> dict[str, float]:
    """Self times per name summed per layer (every layer present)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, value in selfs.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + value
    return out
