"""In-memory spans for the benchmark's traced run.

A span records a name, its start and end on one clock, the span that was
open when it started (its parent) and a few counts taken at the same
boundary. Spans nest strictly because the program is single-threaded, so
a span's self time is its duration minus the durations of its direct
children.

Wrappers are installed by rebinding names on module and class objects at
run time and removed by restoring the originals; nothing in the program's
source changes. A target that no longer exists is reported, not raised,
so the traced run survives refactors that rename or delete helpers.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for a root span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in call order; `spans[i].parent < i` always holds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else -1
        sp = Span(name, self.clock(), parent=parent, attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(args, kwargs, result) -> attrs, taken
        after the span closes so its cost lands in the caller's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if count is not None:
                sp.attrs.update(count(args, kwargs, out))
            return out

        return traced

    def wrap_factory(self, name: str, factory):
        """factory(...) returns a callable; that callable runs in a span."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            out[sp.parent] -= sp.duration
    return out


def root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def check_nesting(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: children outside their parent's
    interval, or a root whose subtree self times do not add up to its
    duration. An empty list means the tree is consistent."""
    problems = []
    for i, sp in enumerate(spans):
        if sp.end < sp.start:
            problems.append(f"span {i} {sp.name} ends before it starts")
        if sp.parent >= 0:
            par = spans[sp.parent]
            if sp.parent >= i or sp.start < par.start or sp.end > par.end:
                problems.append(f"span {i} {sp.name} escapes parent {par.name}")
    selfs = self_times(spans)
    subtree = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        subtree[i] += selfs[i]
        if spans[i].parent >= 0:
            subtree[spans[i].parent] += subtree[i]
    for i, sp in enumerate(spans):
        if sp.parent < 0 and abs(subtree[i] - sp.duration) > tol * max(1.0, sp.duration):
            problems.append(
                f"root {sp.name}: self times sum to {subtree[i]!r}, duration {sp.duration!r}")
    return problems


class Patches:
    """Rebinds attributes to traced versions and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.bound: list[str] = []
        self.missing: list[str] = []

    def rebind(self, owner, attr: str, make, label: str) -> bool:
        """owner.attr = make(owner.attr); False if owner has no attr."""
        if owner is None or not hasattr(owner, attr):
            return False
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        self.bound.append(label)
        setattr(owner, attr, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
