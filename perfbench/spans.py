"""Benchmark-side span recording around the program's layer boundaries.

The benchmark measures the program from outside: :class:`SpanRecorder`
replaces a layer's public function at the name its caller looks up (a
module global or a class attribute) with a wrapper that records one span
per call into a plain in-memory list.  Nothing here imports a tracer from
the program, so merging or rewriting the program's own tracers cannot move
this measuring stick.

A span is ``(span_id, parent_id, layer, name, start_ns, end_ns, thread,
phase)``.  Parents are tracked per thread, so spans recorded on service
worker threads nest under the calls made on that thread only.  A layer's
*self time* is the time its spans cover minus the part covered by their
child spans; summed over every span of a run, self times add up exactly to
the time the root spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: Optional[int]
    layer: str
    name: str
    start_ns: int
    end_ns: int
    thread: int
    phase: str
    ok: Optional[bool] = None

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "run"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        outcome: Optional[Callable[[object], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is the module or class through which the caller looks the
        function up; wrapping the defining module instead would miss calls
        made through names imported elsewhere.  ``outcome``, when given,
        classifies the return value and is stored as the span's ``ok``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        label = name or attr
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            ok = None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                if outcome is not None:
                    ok = outcome(result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append(
                    Span(span_id, parent, layer, label, start, end,
                         threading.get_ident(), recorder.phase, ok)
                )

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fired(self) -> Counter:
        """Number of recorded calls per wrapped name."""
        return Counter(s.name for s in self.spans)

    def of_phase(self, phase: str) -> list[Span]:
        return [s for s in self.spans if s.phase == phase]

    def write_chrome(self, path: str) -> None:
        """Write the spans as a Chrome ``trace_event`` file (µs timestamps)."""
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": s.start_ns / 1000.0,
                "dur": s.dur_ns / 1000.0,
                "pid": 1,
                "tid": s.thread & 0xFFFF,
                "args": {"phase": s.phase},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_times_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover (clipped to the parent)."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out: dict[int, int] = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, cursor, s.start_ns)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.dur_ns - covered
    return out


def layer_self_ms(
    spans: Iterable[Span], key: Callable[[Span], str] = lambda s: s.layer
) -> dict[str, float]:
    """Self time summed per ``key`` (the layer by default), in ms."""
    spans = list(spans)
    own = self_times_ns(spans)
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[key(s)] += own[s.span_id] / 1e6
    return dict(total)


def root_ms(spans: Iterable[Span]) -> float:
    """Time covered by spans whose parent is not among ``spans``, in ms."""
    spans = list(spans)
    ids = {s.span_id for s in spans}
    return sum(s.dur_ns for s in spans if s.parent_id not in ids) / 1e6
