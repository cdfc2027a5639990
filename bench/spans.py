"""Spans recorded from outside the program, by wrapping its public names.

``Tracer.wrap(module, name, span)`` replaces ``module.name`` with a wrapper
that records a span per call: its name, start and end (wall and process CPU
time), the span that was open when it started, and attributes taken from
the arguments and the result.  Wrapping the name a caller module imported
(``qtraj.cli.run_ensemble``, say) traces exactly the calls that module
makes.  Spans stay in memory; the caller writes them out when it is done.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, name: str, span: str, attrs=None) -> None:
        """Trace calls of ``module.name``; ``attrs(args, kwargs, result)`` adds fields."""
        fn = getattr(module, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's spans belong to the span open on the main thread
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, cpu1 = time.perf_counter(), time.process_time()
                stack.pop()
            record = {"id": span_id, "name": span, "parent": parent, "start": t0, "end": t1,
                      "cpu_start": cpu0, "cpu_end": cpu1, "thread": threading.get_ident()}
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            self.spans.append(record)
            return result

        setattr(module, name, traced)


def self_time(span: dict, spans: list[dict]) -> float:
    """Duration of ``span`` minus the part of it its direct children cover."""
    children = sorted((c["start"], c["end"]) for c in spans if c["parent"] == span["id"])
    covered, reach = 0.0, span["start"]
    for start, end in children:
        start, end = max(start, reach), min(end, span["end"])
        if end > start:
            covered += end - start
            reach = end
    return span["end"] - span["start"] - covered
