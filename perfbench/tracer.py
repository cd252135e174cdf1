"""Span tracer that times calls into bmcouple from outside the library.

The tracer replaces a function or method with a timing wrapper at every place
the name is looked up: each module attribute, in every loaded ``bmcouple``
module, that refers to the same function object, or the attribute on the
class that defines a method.  Each call records one span (name, start, end,
parent span, thread id and a few counts) in memory; ``uninstall`` puts the
originals back.

A span opened on a thread whose own stack is empty (a worker of the
simulation's thread pool) takes as parent the innermost open span of the
thread that created the tracer.  The benchmark is closed-loop with one caller,
so that span is the call that submitted the work.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from typing import Callable, NamedTuple

NO_PARENT = -1


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    tid: int
    start: float
    end: float
    rows: int = 0  # batch rows handed to the call
    normals: int = 0  # standard normals drawn (noise) or handed to a coupling
    other: int = 0  # call-specific count: csv rows or regime switches


# A counter maps (args, kwargs, result) to (rows, normals, other); result is
# None when the call raised.
Counter = Callable[[tuple, dict, object], tuple]


def no_counts(args, kwargs, result):
    return 0, 0, 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._home_stack[-1]
            except IndexError:
                parent = NO_PARENT
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, fn, name: str | Callable[[tuple], str], counter: Counter = no_counts):
        """Timing wrapper around ``fn``; ``name`` may be computed from the call's args."""
        name_of = name if callable(name) else (lambda args: name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                rows, normals, other = counter(args, kwargs, result)
                spans.append(
                    Span(sid, parent, name_of(args), threading.get_ident(), start, end, rows, normals, other)
                )

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of benchmark code."""
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end))

    # -- installing wrappers -------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, name: str, counter: Counter = no_counts, modules=None) -> int:
        """Replace ``fn`` under every module attribute that refers to it.

        Returns how many lookup sites were patched.
        """
        traced = self.wrap(fn, name, counter)
        sites = 0
        for module in bmcouple_modules() if modules is None else modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)
                    sites += 1
        return sites

    def patch_method(self, cls, attr: str, name, counter: Counter = no_counts) -> None:
        """Replace a method on the class that defines it."""
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def bmcouple_modules() -> list:
    return [m for key, m in sorted(sys.modules.items()) if key == "bmcouple" or key.startswith("bmcouple.")]


# -- self time ---------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children's intervals.

    Children on the parent's own thread nest inside it; children on pool
    threads may overlap each other, and the union counts that time once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent != NO_PARENT:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children.get(s.sid, []), s.start, s.end) for s in spans}
