"""In-memory span recorder and attribute patching for outside-in tracing.

A span is one call into a traced function: its name, start and end in
``perf_counter_ns`` units, and the index of the span that was open when it
started (-1 for none).  Spans are kept in a list and only read after the run.

A span's self time is its duration minus the part of it that its child
spans cover.  Children are merged as intervals before they are subtracted,
so overlapping children are not counted twice.

This module knows nothing about promptseg; ``probes.py`` says what to wrap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable


class Tracer:
    """Records nested spans plus free-form counters and notes for one run.

    ``spans`` holds ``[name, start_ns, end_ns, parent]`` lists.  ``counts``
    and ``notes`` are filled by probe hooks; notes keep references that are
    only turned into numbers after the run, outside every span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.notes: dict[str, list] = defaultdict(list)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()


def covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans) -> list[int]:
    """Self time of every span, in the order given."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_ns(children.get(i, ()), start, end)
            for i, (_, start, end, _) in enumerate(spans)]


def outermost(spans, names: frozenset[str]) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor named in ``names``."""
    inside = [False] * len(spans)
    picked = []
    for i, (name, _, _, parent) in enumerate(spans):  # parents precede children
        up = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = up
        if name in names and not up:
            picked.append(i)
    return picked


Hook = Callable[[Tracer, tuple, dict, Any, BaseException | None], None]


@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr`` (a module function or a class's method) in a span
    called ``name``; ``hook`` runs after the span closes, with the call's
    arguments and its result or exception."""

    owner: Any
    attr: str
    name: str
    hook: Hook | None = None


def _wrap(fn, name: str, tracer: Tracer, hook: Hook | None):
    if hook is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        return traced

    @functools.wraps(fn)
    def traced_hooked(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(idx)
            hook(tracer, args, kwargs, None, exc)
            raise
        tracer.end(idx)
        hook(tracer, args, kwargs, result, None)
        return result
    return traced_hooked


@contextmanager
def patched(tracer: Tracer, probes: Iterable[Probe]):
    """Replace every probed attribute by a traced wrapper; restore on exit."""
    saved = []
    try:
        for p in probes:
            original = (p.owner.__dict__[p.attr] if isinstance(p.owner, type)
                        else getattr(p.owner, p.attr))
            saved.append((p.owner, p.attr, original))
            setattr(p.owner, p.attr, _wrap(original, p.name, tracer, p.hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])
