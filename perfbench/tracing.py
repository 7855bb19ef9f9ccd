"""In-memory spans for the benchmark's traced runs.

A traced run wraps vmsight's public functions at the names their callers
look them up by (``vmsight.degrade.identify``, ``vmsight.cli.build_fingerprint_db``
and so on), records one span per call and restores every name when the run
ends.  Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span
    op: str  # id of the session or rebuild being served, else the phase
    phase: str  # "setup", "timed" or "verify"
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    phase = "setup"
    op = ""

    def span(self, name: str):
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def installed(self, patches):
        yield self


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                   self.op or self.phase, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, target: Callable, name: str, counts: Optional[Callable]):
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = target(*args, **kwargs)
            if counts is not None:
                rec.counts.update(counts(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, patches):
        """Wrap each (owner, attribute, span name, counts) for the block's duration.

        ``counts(args, kwargs, result)`` runs after the span closes, so the
        bookkeeping it does is not charged to the wrapped call.
        """
        saved = []
        try:
            for owner, attr, name, counts in patches:
                raw = inspect.getattr_static(owner, attr)
                wrapper = self._wrap(getattr(owner, attr), name, counts)
                saved.append((owner, attr, raw))
                # a classmethod is wrapped already bound, so keep it unbound
                setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread's call stack, so children of one span
        never overlap and their durations simply add up.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "op": s.op, "phase": s.phase, "counts": s.counts,
                }) + "\n")
