"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the engine from the outside: each
wrapped call records one span (name, start, end, parent span, thread, and
whatever rows or bytes the call's arguments or result show).  Nothing in
the engine's sources is changed; a module-level function is replaced in
every ``repro`` module that imported it by name, so callers that look it up
in their own namespace (``relation.py`` imports ``deduplicate`` by name)
are traced too.  :meth:`Tracer.restore` puts every original back.

Spans are kept in memory; :meth:`Tracer.write_chrome` writes them as
Chrome trace-event JSON (open in ``chrome://tracing`` or Perfetto).  A
layer's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: ``measure(args, kwargs, result, probed) -> {count name: number}``, where
#: ``probed`` is what the optional ``probe(args, kwargs)`` returned before the call
Measure = Callable[[tuple, dict, Any, Any], dict]
Probe = Callable[[tuple, dict], Any]


def _family(span_name: str) -> str:
    """The metric family of a span: its name up to the first ``:``."""
    return span_name.split(":", 1)[0]


class Tracer:
    """Records one span per call of every function it wrapped."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, thread id, counts]`` per call
        self.spans: list[list] = []
        self.enabled = False
        self._local = threading.local()
        self._append_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable, measure: Measure | None = None,
             probe: Probe | None = None) -> Callable:
        """``function`` recording a span named ``name`` per call while enabled."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            probed = probe(args, kwargs) if probe is not None else None
            stack = tracer._stack()
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    threading.get_ident(), None]
            with tracer._append_lock:
                stack.append(len(tracer.spans))
                tracer.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result, probed)
            return result

        return traced

    def patch_method(self, owner: type, attribute: str, name: str,
                     measure: Measure | None = None, probe: Probe | None = None) -> None:
        """Wrap ``owner.attribute`` (plain, static or class method)."""
        original = owner.__dict__[attribute]
        if isinstance(original, (staticmethod, classmethod)):
            replacement: Any = type(original)(self.wrap(name, original.__func__, measure, probe))
        else:
            replacement = self.wrap(name, original, measure, probe)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def patch_function(self, function: Callable, name: str,
                       measure: Measure | None = None) -> None:
        """Wrap ``function`` in every loaded ``repro`` module that holds it."""
        traced = self.wrap(name, function, measure)
        holders = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name.split(".")[0] == "repro"
            and getattr(module, function.__name__, None) is function
        ]
        if not holders:
            raise LookupError(f"no repro module holds {function.__module__}.{function.__name__}")
        for module in holders:
            setattr(module, function.__name__, traced)
            self._patches.append((module, function.__name__, function))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self.spans = []

    def totals(self) -> dict[str, float]:
        """Per span family (name up to ``:``): self seconds and counts.

        Keys are ``<family>.self_s`` and ``<family>.<count>`` for every count
        a measure recorded.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _tid, _counts in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _tid, counts) in enumerate(self.spans):
            family = _family(name)
            totals[f"{family}.self_s"] += (end - start) - covered[index]
            for key, value in (counts or {}).items():
                totals[f"{family}.{key}"] += value
        return dict(totals)

    def seconds(self, family: str, *, within: str | None = None) -> float:
        """Total duration of ``family`` spans.

        With ``within``, only spans that have a ``within`` span among their
        ancestors count.
        """
        total = 0.0
        for name, start, end, parent, _tid, _counts in self.spans:
            if _family(name) == family and (within is None or self._has_ancestor(parent, within)):
                total += end - start
        return total

    def _has_ancestor(self, index: int, family: str) -> bool:
        while index >= 0:
            if _family(self.spans[index][0]) == family:
                return True
            index = self.spans[index][3]
        return False

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": _family(name),
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": tid,
                "args": dict(counts or {}, parent=parent),
            }
            for name, start, end, parent, tid, counts in self.spans
        ]
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
