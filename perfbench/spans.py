"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: name, layer tag, start, end,
parent span and run id. Spans nest through a stack, so the parent of a span
is whatever span was open when it started. Hooks wrap functions and methods
of ``fqpack`` modules from outside: the program itself carries no tracing
code, and a hook whose target a refactor removed is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager

NAME, TAG, START, END, PARENT, DATA = range(6)


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullRecorder:
    """Stand-in for setup and untraced runs: every span is a no-op."""

    _no_span = _NoSpan()

    def span(self, name, tag=None):
        return self._no_span


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, tag, start, end, parent index, data dict]
        self.absent = {}  # hook name -> why it could not be installed
        self._stack = []
        self._undo = []
        self._children = None

    @contextmanager
    def span(self, name, tag=None):
        record = [name, tag, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    # -- hooks ---------------------------------------------------------------

    def hook(self, module: str, path: str, name: str, tag=None, after=None) -> bool:
        """Time every call of ``module.path`` ("func" or "Class.method") as a span.

        ``tag(*args, **kwargs)`` names the layer the call works on (None
        inherits the parent's); ``after(record, args, result)`` may attach
        data to the span. Returns False, and records why, if the target is
        gone.
        """
        try:
            owner = importlib.import_module(module)
        except ImportError as exc:
            self.absent[name] = f"module {module} not importable ({exc})"
            return False
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.absent[name] = f"hook {module}.{path} not found"
            return False
        raw = inspect.getattr_static(owner, attr)
        wrap_as = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if wrap_as else raw

        def traced(*args, **kwargs):
            with self.span(name, tag(*args, **kwargs) if tag else None) as record:
                result = func(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
            return result

        setattr(owner, attr, wrap_as(traced) if wrap_as else traced)
        self._undo.append((owner, attr, raw))
        return True

    def unhook(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- queries -------------------------------------------------------------

    def tag_of(self, index: int):
        """A span's own tag, else the nearest tagged ancestor's."""
        while index >= 0:
            record = self.spans[index]
            if record[TAG] is not None:
                return record[TAG]
            index = record[PARENT]
        return None

    def under(self, index: int, ancestor: str) -> bool:
        index = self.spans[index][PARENT]
        while index >= 0:
            if self.spans[index][NAME] == ancestor:
                return True
            index = self.spans[index][PARENT]
        return False

    def select(self, name, tag=None, under=None):
        """Indices of spans called ``name``, optionally by tag and ancestor."""
        return [
            i for i, record in enumerate(self.spans)
            if record[NAME] == name
            and (tag is None or self.tag_of(i) == tag)
            and (under is None or self.under(i, under))
        ]

    def duration(self, index: int) -> float:
        record = self.spans[index]
        return record[END] - record[START]

    def self_time(self, index: int) -> float:
        """Span duration minus the part of it that child spans cover."""
        if self._children is None or len(self._children) != len(self.spans):
            self._children = [[] for _ in self.spans]
            for i, record in enumerate(self.spans):
                if record[PARENT] >= 0:
                    self._children[record[PARENT]].append(i)
        start, end = self.spans[index][START], self.spans[index][END]
        children = sorted(
            (self.spans[c][START], self.spans[c][END]) for c in self._children[index]
        )
        covered, reach = 0.0, start
        for lo, hi in children:
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered

    def total(self, name, tag=None, under=None) -> float:
        return sum(self.duration(i) for i in self.select(name, tag, under))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, _, start, end, parent, data) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "tag": self.tag_of(i), "start": start, "end": end,
                    "parent": parent, **({"data": data} if data else {}),
                }) + "\n")
