"""Span tracing from outside a program: wrap functions where callers bound them.

A :class:`Tracer` replaces a function in every namespace that holds it with a
wrapper that records a span (name, start, end, parent) around the call, and puts every original back on :meth:`Tracer.restore`. Spans are
kept in memory per operation and folded into a :class:`Profile` when the
operation's root span closes: a span's self time is its duration minus the
durations of its direct children, which tile part of its interval because
all calls run on one thread.

A span name is ``<layer>.<function>``. A hook given to :meth:`Tracer.wrap`
runs after the wrapped call returns, in a span of layer ``check`` opened
under the caller's span. Its time therefore
counts in no layer and is subtracted from the caller's self time.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

CHECK_LAYER = "check"

_NAME, _START, _END, _PARENT = range(4)


class Profile:
    """Span counts and self times keyed by (span name, root label), plus counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = {}

    def merge(self, other: "Profile") -> None:
        self.calls.update(other.calls)
        for key, value in other.self_s.items():
            self.self_s[key] += value
        self.counts.update(other.counts)
        for key, value in other.maxima.items():
            self.note_max(key, value)

    def note_max(self, key: str, value: float) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def layer_self_s(self, layer: str, root: str | None = None) -> float:
        return sum(
            v for (name, r), v in self.self_s.items()
            if name.split(".", 1)[0] == layer and (root is None or r == root)
        )

    def layer_calls(self, layer: str) -> int:
        return sum(v for (name, _), v in self.calls.items() if name.split(".", 1)[0] == layer)

    def name_calls(self, name: str, root: str | None = None) -> int:
        return sum(v for (n, r), v in self.calls.items() if n == name and (root is None or r == root))

    def name_self_s(self, name: str) -> float:
        return sum(v for (n, _), v in self.self_s.items() if n == name)


class Tracer:
    """Records nested spans around wrapped functions; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.profile = Profile()
        self.root: str | None = None
        self.last_spans: list[list] = []  # spans of the last finished operation
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent]
        self.spans.append(rec)
        rec[_START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; folds its spans when it ends."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self.root = label
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._fold()
            self.root = None

    def _fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        prof, root = self.profile, self.root
        for rec, covered in zip(spans, child):
            key = (rec[_NAME], root)
            prof.calls[key] += 1
            prof.self_s[key] += rec[_END] - rec[_START] - covered
        self.last_spans, self.spans = spans, []

    def check_seconds(self) -> float:
        return self.profile.layer_self_s(CHECK_LAYER)

    def wrap(self, bindings, name: str, hook=None) -> None:
        """Wrap the function held at every (owner, attribute) pair in `bindings`.

        Owners are modules or classes, and every pair must hold the same
        object; all of them get one wrapper. `hook(tracer, args, kwargs,
        result)` runs after a call that returned, in a check span.
        """
        owner0, attr0 = bindings[0]
        fn = vars(owner0)[attr0]
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                with tracer.span(f"{CHECK_LAYER}.{name}"):
                    hook(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        for owner, attr in bindings:
            if vars(owner)[attr] is not fn:
                raise ValueError(f"{owner!r}.{attr} does not hold the function being wrapped")
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped name, last wrapped first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
