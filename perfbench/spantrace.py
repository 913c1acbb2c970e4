"""Outside-in span tracer: wrap a program's public functions in memory.

The tracer never edits the traced program.  :meth:`Tracer.wrap_function`
replaces a module-level function with a timing wrapper and rebinds
*every* module attribute that holds the same function object, so a
function re-exported by a package ``__init__`` or pulled in with
``from x import f`` is traced no matter which name a caller uses.
:meth:`Tracer.wrap_method` wraps a method on its class.

Each call records a span (name, start, end, parent) with integer
nanosecond timestamps from :func:`time.perf_counter_ns`.  Spans nest per
thread; a span's *self* time is its duration minus the durations of
its direct child spans, so the self times of a subtree sum exactly to
the root's duration.  A call made while the innermost open span of the
same thread already has the same name (re-entry, or two entry points
that share a name and call each other) folds into that span instead of
opening a new one.

Spans are kept in memory; :meth:`Tracer.dump` writes them out once the
run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    """One timed call.  ``child_ns`` is the summed duration of its
    direct children, filled in as they close."""

    __slots__ = ("name", "start", "end", "parent", "child_ns", "thread")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.start = self.end = 0
        self.parent = parent
        self.child_ns = 0
        self.thread = thread

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """In-memory span recorder with per-name call counters.

    ``hook(counters, args, kwargs, result)`` callbacks passed to the
    ``wrap_*`` methods add derived counts (tokens produced, cache hits,
    ...) to :attr:`counters` when a traced call returns.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, fn, name: str, hook=None):
        """A wrapper around ``fn`` that records one span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == name:
                result = fn(*args, **kwargs)
            else:
                span = Span(name, parent, threading.get_ident())
                stack.append(span)
                span.start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter_ns()
                    stack.pop()
                    if parent is not None:
                        parent.child_ns += span.end - span.start
                    with tracer._lock:
                        tracer.spans.append(span)
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def reset(self) -> None:
        """Forget recorded spans and counters (e.g. after set-up).

        Lock-free, so a signal handler may call it: rebinding is atomic,
        and a span that closes concurrently lands in either list."""
        self.spans = []
        self.counters = defaultdict(float)

    # -- installation -----------------------------------------------------

    def wrap_function(self, module, attr: str, name: str,
                      hook=None) -> int:
        """Trace ``module.attr`` everywhere it is bound.

        Every loaded module whose name shares ``module``'s top-level
        package and that holds the same function object gets the
        wrapper.  Returns how many bindings were replaced.
        """
        original = getattr(module, attr)
        wrapper = self.traced(original, name, hook)
        package = module.__name__.split(".")[0]
        rebound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    rebound += 1
        return rebound

    def wrap_method(self, cls, attr: str, name: str, hook=None) -> None:
        """Trace ``cls.attr`` (a plain method defined on ``cls``)."""
        setattr(cls, attr, self.traced(cls.__dict__[attr], name, hook))

    # -- summaries --------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, int]]:
        """``{span name: {calls, total_ns, self_ns}}`` over all spans."""
        table: dict[str, dict[str, int]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "total_ns": 0,
                                               "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += span.duration_ns
            row["self_ns"] += span.self_ns
        return table

    def attributed_ns(self, thread: int) -> int:
        """Time ``thread`` spent inside any root span."""
        return sum(span.duration_ns for span in self.spans
                   if span.parent is None and span.thread == thread)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent
        line index (-1 for a root) and thread id."""
        index = {id(span): pos for pos, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = -1 if span.parent is None \
                    else index.get(id(span.parent), -1)
                handle.write(json.dumps([span.name, span.start, span.end,
                                         parent, span.thread]) + "\n")
