"""Spans around the calls into roomforge's layers, recorded from outside.

``Tracer.wrap`` replaces a function at the name its callers look it up by
(the package binds its helpers with from-imports, so ``roomforge.sweep``
calls ``roomforge.sweep.fft_convolve``, not ``roomforge.engine``'s).  Each
call becomes a span with its name, start, end, thread, parent span and
operation.  Spans stay in memory; ``dump`` writes them out once, at the
end of a run.  ``unwrap`` restores every original.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    op: Optional[int]
    attrs: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.current_op: Optional[int] = None  # seen by pool threads the op spawns
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[int]) -> None:
        """Mark the operation the calling thread works on."""
        self._local.op = op
        self.current_op = op

    def wrap(self, owner, attr: str, name: str, describe: Optional[Callable] = None):
        """Replace ``owner.attr`` by a span-recording wrapper; returns the wrapper.

        ``describe(args, kwargs, result)`` returns span attributes; it runs
        after the span has ended, so its cost is not in the span.
        """
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            op = getattr(self._local, "op", None)
            stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = describe(args, kwargs, result) if describe and error is None else {}
                self.spans.append(Span(span_id, name, start, end, threading.get_ident(), parent,
                                       op if op is not None else self.current_op, attrs, error))

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))
        return traced

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


def self_ms(spans: list[Span]) -> dict:
    """Span id -> its duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.ms
    return {s.id: s.ms - child.get(s.id, 0.0) for s in spans}


def layer_report(spans: list[Span], rounds: int) -> dict:
    """Per span name: calls, busy ms and self ms, each per round."""
    own = self_ms(spans)
    report: dict = {}
    for s in spans:
        row = report.setdefault(s.name, {"calls": 0.0, "busy_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1 / rounds
        row["busy_ms"] += s.ms / rounds
        row["self_ms"] += own[s.id] / rounds
    return dict(sorted(report.items()))
