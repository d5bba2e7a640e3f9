"""Span tracer that the benchmark wraps around the program's public calls.

Nothing here is imported by the program.  :class:`Tracer` patches a
public function or method *where its caller looks it up* (a module
global, or the attribute on the class in the MRO that defines it), so
the program runs unchanged and each call opens one span.  Spans keep a
per-thread stack with parent links; a span opened on a fresh thread may
name its parent explicitly, which is how rank threads hang under the
``mpi.world`` span that launched them.  All spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

A span's *self time* is its duration minus the part of that interval its
children cover (the union, so two rank threads running in parallel under
one world span are not subtracted twice).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

#: Spans that give structure but belong to no layer.
STRUCTURAL = ("op", "rank")

#: Collective spans: a receive inside one is part of the collective's
#: wait, not a separate ``mpi.recv_wait`` span.
COLLECTIVES = ("mpi.bcast", "mpi.allgather", "mpi.gather")


class Span:
    """One timed call: name, interval, parent and thread."""

    __slots__ = ("name", "start", "end", "parent", "thread", "rank")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.rank = None  # set on ``rank`` spans
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patch/unpatch bookkeeping."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.done: list[list[Span]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # closed out of order (generator abandoned mid-iteration)
            stack.remove(span)
        self.spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over the spans and counts recorded so far and reset."""
        spans, counts = self.spans, dict(self.counts)
        self.done.append(spans)
        self.spans = []
        self.counts = defaultdict(int)
        return spans, counts

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, label, after=None, skip=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``label(args, kwargs)`` names the span (a string is used as is);
        ``after(span, args, kwargs, result)`` may rename it or count work;
        ``skip(tracer)`` returning true calls straight through.  A class
        attribute is patched on the class that defines it, keeping
        ``staticmethod``/``classmethod`` wrappers intact.
        """
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in k.__dict__)
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        name_of = label if callable(label) else (lambda a, k, _n=label: _n)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(tracer):
                return fn(*args, **kwargs)
            span = tracer.open(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        raw = getattr(owner, attr)

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            self.count(name)
            return raw(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Span every step of a generator method (the work runs in steps)."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            it = raw(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def wrap_world(self, module, attr: str = "run_spmd") -> None:
        """Span ``run_spmd``; each rank's body becomes a child ``rank`` span."""
        raw = getattr(module, attr)
        tracer = self

        @functools.wraps(raw)
        def wrapper(fn, *args, **kwargs):
            world = tracer.open("mpi.world")

            def rank_body(comm, *a, **k):
                span = tracer.open("rank", parent=world)
                span.rank = comm.rank
                try:
                    return fn(comm, *a, **k)
                finally:
                    tracer.close(span)

            try:
                return raw(rank_body, *args, **kwargs)
            finally:
                tracer.close(world)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, raw))

    def unpatch(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every recorded span as compact JSON rows."""
        rows = []
        for group, spans in enumerate(self.done + [self.spans]):
            index = {id(s): i for i, s in enumerate(spans)}
            for s in spans:
                parent = index.get(id(s.parent)) if s.parent is not None else None
                rows.append([group, s.name, s.start, s.end, parent, s.thread])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"columns": ["op", "name", "start", "end", "parent", "thread"],
                 "spans": rows},
                fh,
            )


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {
        id(s): s.duration - _union_length(children.get(id(s), ()))
        for s in spans
    }


def layer_breakdown(spans: list[Span]) -> dict:
    """Per-layer self seconds, coverage and rank skew of one traced op.

    Coverage counts thread time: the op's own thread for the op's wall
    minus the stretches its rank threads ran, plus every rank's span.
    Only layer spans count towards it; ``op`` and ``rank`` spans are
    structure.  A rank's busy time is its span minus its top-level
    communication spans (collectives and receive waits).
    """
    selfs = self_times(spans)
    layers: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name not in STRUCTURAL:
            layers[s.name] += selfs[id(s)]
    ops = [s for s in spans if s.name == "op"]
    ranks = [s for s in spans if s.name == "rank"]
    wall = sum(s.duration for s in ops)
    thread_time = (
        wall
        - _union_length((r.start, r.end) for r in ranks)
        + sum(r.duration for r in ranks)
    )
    busy: dict[int, float] = defaultdict(float)
    for r in ranks:
        busy[r.rank] += r.duration
    comm = COLLECTIVES + ("mpi.recv_wait",)
    for s in spans:
        if s.name not in comm:
            continue
        up = s.parent
        while up is not None and up.name != "rank" and up.name not in comm:
            up = up.parent
        if up is not None and up.name == "rank":
            busy[up.rank] -= s.duration
    skew = 0.0
    if busy:
        mean = sum(busy.values()) / len(busy)
        skew = max(busy.values()) / mean if mean > 0 else 0.0
    return {
        "layers": dict(layers),
        "wall": wall,
        "coverage": sum(layers.values()) / thread_time if thread_time else 0.0,
        "rank_skew": skew,
    }
