"""In-memory span recorder for the traced benchmark runs.

Spans are recorded only from the benchmark's own files: :class:`Tracer`
replaces a layer's public function or method with a wrapper that opens
a span around the original call, and puts the original back when the
run ends.  Each span records its name, start, end, parent span and the
task it belongs to; spans of one task share the task id.  The parent
and the task travel in :mod:`contextvars`, so they follow asyncio tasks
and ``asyncio.to_thread`` hops in the service workload.

Worker processes record their own spans: :class:`TracedProcessExecutor`
ships every task through :func:`run_traced`, which installs the same
wrappers inside the worker once and returns the task's spans with its
result.  ``time.perf_counter`` reads the system-wide monotonic clock on
Linux, so worker and parent timestamps share one time base.

A layer's self time is the sum over its spans of the span's duration
minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.exec import ProcessExecutor

_parent = contextvars.ContextVar("perfbench_parent_span", default=None)
_task = contextvars.ContextVar("perfbench_task", default=0)


class Tracer:
    """Collects spans in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore = []

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` block; yields its attrs
        so the block can add counts measured where the work happens."""
        span_id = next(self._ids)
        token = _parent.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            _parent.reset(token)
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": _parent.get(),
                "task": _task.get(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "attrs": attrs,
            }
            with self._lock:
                self.spans.append(record)

    @contextmanager
    def task(self, task_id: int):
        """Tag every span opened inside the block with ``task_id``."""
        token = _task.set(task_id)
        try:
            yield
        finally:
            _task.reset(token)

    def adopt(self, spans) -> None:
        """Merge spans recorded in a worker under the current span."""
        mapping = {span["id"]: next(self._ids) for span in spans}
        parent, task = _parent.get(), _task.get()
        with self._lock:
            for span in spans:
                span = dict(span)
                span["id"] = mapping[span["id"]]
                span["parent"] = mapping.get(span["parent"], parent)
                span["task"] = task
                self.spans.append(span)

    # -------------------------------------------------------------- #
    # Wrapping layer entry points
    # -------------------------------------------------------------- #

    def wrap(self, target: str, name: str, measure=None,
             after=None) -> None:
        """Open span ``name`` around every call of ``target``.

        ``target`` is ``"module:attr"`` or ``"module:Class.attr"``;
        properties are wrapped through their getter.  ``measure``, if
        given, is called with the call's arguments and returns attrs
        (such as a batch size) to store on the span; ``after``, if
        given, is called as ``after(attrs, result, *args, **kwargs)``
        once the call returns, to add counts only the result shows.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attribute = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if isinstance(
            owner, type
        ) else getattr(owner, attribute)
        function = (
            original.fget if isinstance(original, property) else original
        )
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            attrs = measure(*args, **kwargs) if measure else {}
            with tracer.span(name, **attrs) as attrs:
                result = function(*args, **kwargs)
                if after is not None:
                    after(attrs, result, *args, **kwargs)
                return result

        replacement = (
            property(traced) if isinstance(original, property) else traced
        )
        setattr(owner, attribute, replacement)
        self._restore.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #

    def self_times(self):
        """``{span id: self seconds}`` for every recorded span."""
        children = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for child in sorted(
                children[span["id"]], key=lambda item: item["start"]
            ):
                lo = max(child["start"], cursor)
                hi = min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span["id"]] = span["end"] - span["start"] - covered
        return result

    def layer_totals(self):
        """``{name: (count, self seconds, summed attrs)}``."""
        own = self.self_times()
        totals = {}
        for span in self.spans:
            count, seconds, attrs = totals.get(span["name"], (0, 0.0, {}))
            for key, value in span["attrs"].items():
                attrs[key] = attrs.get(key, 0) + value
            totals[span["name"]] = (count + 1, seconds + own[span["id"]],
                                    attrs)
        return totals

    def children_of(self, name: str, child: str):
        """Count and summed attrs of ``child`` spans nested directly in
        ``name`` spans (the line search's own batch calls, say)."""
        parents = {
            span["id"] for span in self.spans if span["name"] == name
        }
        count, attrs = 0, defaultdict(int)
        for span in self.spans:
            if span["name"] == child and span["parent"] in parents:
                count += 1
                for key, value in span["attrs"].items():
                    attrs[key] += value
        return count, dict(attrs)

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (opens in
        Perfetto or ``chrome://tracing``)."""
        own = self.self_times()
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": span["pid"],
                "tid": span["tid"],
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "task": span["task"],
                    "self_us": own[span["id"]] * 1e6,
                    **span["attrs"],
                },
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


# ------------------------------------------------------------------ #
# Worker-side spans
# ------------------------------------------------------------------ #

#: The tracer of this worker process: the layer wrappers are installed
#: once per process, on its first traced task.
_worker_tracer = None


def run_traced(task):
    """Worker entry point: run ``fn(item)`` with the layer wrappers
    installed; returns ``(result, spans)``."""
    global _worker_tracer
    fn, item, install = task
    if _worker_tracer is None:
        _worker_tracer = Tracer()
        install(_worker_tracer)
    _worker_tracer.spans = []
    with _worker_tracer.span("exec.worker_task"):
        result = fn(item)
    return result, _worker_tracer.spans


class TracedProcessExecutor(ProcessExecutor):
    """Process executor whose tasks bring their worker spans back.

    ``install`` is a module-level function that wraps the layers to
    trace inside each worker (it must pickle by reference).  Until a
    tracer is set, tasks run exactly as on a plain
    :class:`~repro.exec.ProcessExecutor`.
    """

    def __init__(self, tracer: Tracer, install, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self.install = install

    def map(self, fn, items):
        if self.tracer is None:
            return super().map(fn, items)
        pairs = super().map(
            run_traced, [(fn, item, self.install) for item in items]
        )
        results = []
        for result, spans in pairs:
            self.tracer.adopt(spans)
            results.append(result)
        return results
