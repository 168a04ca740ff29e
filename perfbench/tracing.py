"""Spans and hot-call counters around the public functions of fencetiles.

The tracer wraps functions from outside: each public function is replaced
under every name a fencetiles module imports it as (``identities.fib`` and
``sequences.fib`` are the same object), so calls between modules are seen.
Nothing under src/ is edited.

* A span records name, start, end, parent span, run id and the rise of the
  ru_maxrss high-water mark across it.  Spans stay in memory until the run
  ends.
* A hot call (decompose, last_positions, the has_* predicates,
  SequenceTable.value, cassini_partition, ...) is too frequent for a span:
  it adds its call count and time to a counter keyed by its parent span.
  Reading ru_maxrss costs about a microsecond, so a hot call reads it only
  when the call took at least RSS_PROBE_S, and is charged with the rise
  since the tracer last read it.  Fast calls cannot allocate much.
* Self time is duration minus the time children cover.  Execution is
  single-threaded, so the direct children of a frame never overlap.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from dataclasses import asdict, dataclass
from typing import Optional

LAYERS = ("core", "sequences", "identities", "bijection", "render", "cli")

RSS_PROBE_S = 1e-4


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float
    end: float
    maxrss_raise_mb: float
    hot_child_s: float  # time of hot calls made directly inside this span


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its child spans'
    intervals (clipped to the span) minus its direct hot-call time."""
    children: dict[Optional[int], list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.end - s.start - covered - s.hot_child_s
    return out


class Tracer:
    """Collects spans and hot counters for one run; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.totals: dict[str, int] = {}  # named counts bumped by on_result hooks
        # name -> parent span id -> [calls, total_s, child_s, items, maxrss_raise_kb]
        self.counters: dict[str, dict[Optional[int], list]] = {}
        # frames: [span id, hot child time, span child time]
        self._stack: list[list] = [[None, 0.0, 0.0]]
        self._next_id = 0
        self._rss_seen = _maxrss_kb()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _read_rss(self) -> int:
        """Rise of the high-water mark, in KB, since the previous reading."""
        rss = _maxrss_kb()
        rise, self._rss_seen = rss - self._rss_seen, rss
        return rise

    def _hot_recorder(self, name):
        """Return record(parent, total, child, items) adding to name's counters."""
        table = self.counters.setdefault(name, {})
        stack = self._stack

        def record(parent, total, child, items=0):
            stack[-1][1] += total
            c = table.get(parent)
            if c is None:
                c = table[parent] = [0, 0.0, 0.0, 0, 0]
            c[0] += 1
            c[1] += total
            c[2] += child
            c[3] += items
            if total >= RSS_PROBE_S:
                c[4] += self._read_rss()

        return record

    def span(self, name, fn, on_result=None):
        """Wrap fn so that each call records a span.  name may be a callable
        of the call's arguments; on_result(label, result) may count results."""
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = stack[-1]
            self._next_id += 1
            frame = [self._next_id, 0.0, 0.0]
            stack.append(frame)
            self._read_rss()
            rss0, t0 = self._rss_seen, clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[2] += t1 - t0
                self._read_rss()
                self.spans.append(
                    Span(frame[0], label, parent[0], self.run_id, t0, t1,
                         (self._rss_seen - rss0) / 1024, frame[1])
                )
            if on_result is not None:
                on_result(label, result)
            return result

        return wrapper

    def hot(self, name, fn):
        """Wrap fn so that each call adds to the counter (parent span, name)."""
        stack, clock, record = self._stack, time.perf_counter, self._hot_recorder(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [stack[-1][0], 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(frame[0], dt, frame[1] + frame[2])

        return wrapper

    def leaf(self, name, fn):
        """Like hot, for a function that calls nothing wrapped: it pushes no
        frame, which halves the cost of the very frequent calls."""
        stack, clock, record = self._stack, time.perf_counter, self._hot_recorder(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(stack[-1][0], clock() - t0, 0.0)

        return wrapper

    def hot_iter(self, name, fn, wrap_filter=None):
        """Wrap a generator function: time spent inside each next() adds to
        the counter, and every yielded item is counted."""
        stack, clock, record = self._stack, time.perf_counter, self._hot_recorder(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_filter is not None:
                args, kwargs = wrap_filter(args, kwargs)
            inner = fn(*args, **kwargs)

            def generate():
                while True:
                    frame = [stack[-1][0], 0.0, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    done = False
                    try:
                        item = next(inner)
                    except StopIteration:
                        done = True
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        record(frame[0], dt, frame[1] + frame[2], not done)
                    if done:
                        return
                    yield item

            return generate()

        return wrapper

    def counting_predicate(self, name, predicate):
        """Wrap a filter predicate: calls are tilings generated, items kept."""
        stack, clock, record = self._stack, time.perf_counter, self._hot_recorder(name)

        def wrapper(t):
            frame = [stack[-1][0], 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                kept = predicate(t)
            finally:
                dt = clock() - t0
                stack.pop()
            record(frame[0], dt, frame[1] + frame[2], bool(kept))
            return kept

        return wrapper

    # -- installing ----------------------------------------------------------

    def patch(self, modules, original, wrapper) -> None:
        """Replace original by wrapper under every name any module binds it to."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def patch_attr(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span and counter as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": asdict(s)}) + "\n")
            for name, table in self.counters.items():
                for parent, (calls, total, child, items, rss) in table.items():
                    fh.write(json.dumps({"counter": {
                        "run": self.run_id, "parent": parent, "name": name,
                        "calls": calls, "total_s": total, "child_s": child,
                        "items": items, "maxrss_raise_mb": rss / 1024,
                    }}) + "\n")
