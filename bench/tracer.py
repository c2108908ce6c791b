"""Spans around every public function of the sdirac modules.

`Tracer.install` wraps each public module-level function of the modules in
MODULES and patches the wrapper into every `sdirac` namespace that holds the
original, so calls through `from .operators import spectrum` are seen too.
Methods and scalar `QQi` arithmetic are never wrapped: they run millions of
times. A private function's time counts as its caller's self time.

Spans are kept in memory as (name, start, end, parent index) and written out
by the caller at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "checks", "operators", "tridiag", "su2", "intertwine", "hermite", "exact")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            module = importlib.import_module(f"sdirac.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != "sdirac" and not name.startswith("sdirac."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def summarize(spans) -> dict:
    """Self time per module, call count per function and the root's wall
    time. A span's self time is its duration minus that of its children, so
    the module self times add up to the root spans' total."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    root_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += (end - start) - child_time[i]
        calls[name] += 1
        if parent < 0:
            root_s += end - start
    return {"self_s": dict(self_s), "calls": dict(calls), "root_s": root_s}
