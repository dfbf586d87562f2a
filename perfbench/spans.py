"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public functions of the ``repro`` layers from the
benchmark's own files; no code under ``src/`` knows it exists. Each
wrapped call records one span (name, start, end, parent) in memory.
Spans are written once, when the process finishes, and aggregated into
per-name ``calls``, ``s`` (total inclusive time) and ``self_s``
(inclusive time minus the time of directly nested wrapped calls).

A function is wrapped *where it is looked up*: a module-level
``from repro.x import f`` binds ``f`` into the importing module, so
patching ``repro.x.f`` alone would miss those call sites. :func:`install`
therefore replaces every reference to the original object in every
loaded ``repro`` module. Methods are patched on their class.

Coroutine functions get a span too, but they never act as parents:
tasks interleave on the event-loop thread, so a per-thread stack could
not tell whose child a nested call is.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# A hook sees (args, kwargs, result) and returns counters to add under
# the span's name, e.g. {"hits": 1} or {"accesses": 200000}.
Hook = Callable[[tuple, dict, Any], Dict[str, float]]


class SpanRecorder:
    """Collects spans in memory; thread-safe for appends."""

    def __init__(self):
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.counters: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._ids = iter(range(1, sys.maxsize))
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Cleared around work that must not be attributed (the
        #: benchmark's own output checks); wrappers then just call through.
        self.enabled = True

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, name)

    def count(self, name: str, values: Dict[str, float]) -> None:
        with self._lock:
            bucket = self.counters[name]
            for key, value in values.items():
                bucket[key] += value

    def _open(self) -> Tuple[int, Optional[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end) -> None:
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append((span_id, name, start, end, parent))

    def wrap(self, func: Callable, name: str, hook: Optional[Hook] = None):
        """Return a wrapper of ``func`` that records a span per call."""
        recorder = self
        clock = time.perf_counter

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await func(*args, **kwargs)
                start = clock()
                try:
                    result = await func(*args, **kwargs)
                finally:
                    recorder.spans.append(
                        (next(recorder._ids), name, start, clock(), None)
                    )
                if hook is not None:
                    recorder.count(name, hook(args, kwargs, result))
                return result

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            span_id, parent = recorder._open()
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._close(span_id, parent, name, start, clock())
            if hook is not None:
                recorder.count(name, hook(args, kwargs, result))
            return result

        return wrapper

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-name calls / s / self_s plus any hook counters."""
        duration = {}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, _name, start, end, parent in self.spans:
            duration[span_id] = end - start
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span_id, name, _start, _end, _parent in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += duration[span_id]
            entry["self_s"] += duration[span_id] - child_time[span_id]
        for name, values in self.counters.items():
            out[name].update(values)
        return {name: dict(values) for name, values in out.items()}

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")


class _Span:
    __slots__ = ("recorder", "name", "span_id", "parent", "start")

    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.span_id, self.parent = self.recorder._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.recorder._close(
            self.span_id, self.parent, self.name, self.start,
            time.perf_counter(),
        )
        return False


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for ``module`` + ``qualname``."""
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(
    recorder: SpanRecorder,
    targets: List[Tuple[str, str, str, Optional[Hook]]],
) -> None:
    """Wrap every ``(module, qualname, span name, hook)`` target.

    Methods are replaced on their class. Module-level functions are
    replaced in every loaded ``repro`` module that references them, so
    import-time bindings see the wrapper too.
    """
    for module_name, qualname, name, hook in targets:
        owner, attr, original = _resolve(module_name, qualname)
        wrapper = recorder.wrap(original, name, hook)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
