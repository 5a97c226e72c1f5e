"""Outside-in span tracer for the physborn layers.

``Tracer.install`` wraps every public function of the nine layer modules
(plain functions defined in the module whose names do not start with an
underscore) and rebinds the wrapper under every name that refers to the
function in a ``physborn`` namespace, including the names a module
imported from another.  Nothing under ``src/`` is edited; ``uninstall``
restores the originals.

Each call records a span ``[function, start, end, parent span, op]`` in
memory.  A span's self time is its duration minus the durations of its
direct child spans; calls are strictly nested on one thread, so children
never overlap.  Busy time counts only the outermost span of a function,
so a function that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import weakref
from time import perf_counter

LAYERS = ("linalg", "model", "condition", "born", "measurement", "verify",
          "scenarios", "scenario_io", "cli")

# Distinct conditions passed to this function are counted, so that calls
# per condition show work repeated on one condition.
PER_CONDITION = "condition.start_time"


class Tracer:
    def __init__(self):
        self.names = []      # function name per name id
        self.spans = []      # [name id, start, end, parent span index, op]
        self.op = -1         # index of the operation being run
        self._stack = []
        self._patched = []   # (module, attribute, original)
        self.conditions = 0  # distinct first arguments to PER_CONDITION
        self._seen = {}      # id(condition) -> weakref(condition)

    @staticmethod
    def public_functions():
        for layer in LAYERS:
            mod = importlib.import_module(f"physborn.{layer}")
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    yield f"{layer}.{attr}", fn

    def install(self) -> None:
        wrappers = {fn: self._wrap(name, fn) for name, fn in self.public_functions()}
        for modname, mod in list(sys.modules.items()):
            if modname != "physborn" and not modname.startswith("physborn."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        seen = self._seen if name == PER_CONDITION else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # An object freed and replaced by a new one at the same
            # address counts again: its weak reference is dead.
            if seen is not None and args:
                ref = seen.get(id(args[0]))
                if ref is None or ref() is not args[0]:
                    seen[id(args[0])] = weakref.ref(args[0])
                    self.conditions += 1
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def summary(self) -> dict:
        """name -> (calls, busy seconds, self seconds) for every wrapped
        function, called or not."""
        n = len(self.names)
        calls, busy, self_s = [0] * n, [0.0] * n, [0.0] * n
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            calls[nid] += 1
            self_s[nid] += t1 - t0 - child[i]
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                busy[nid] += t1 - t0
        return {name: (calls[i], busy[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans as gzip CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,function,start_s,end_s,parent,op\n")
            for i, (nid, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{t0 - origin:.9f},{t1 - origin:.9f},"
                         f"{parent},{op}\n")
