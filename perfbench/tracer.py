"""Outside-in span tracer for the compopt package.

`Tracer.install()` wraps every public function defined in the traced modules,
and every public method of the problem classes defined there, and rebinds
each wrapper in every `compopt` module namespace that holds the original.
A function imported by name into another module (`estimate_gradient` in
`solver` and `baselines`, `minibatch_rng` in `baselines`) is therefore traced
wherever it is called from. Nothing in the package itself changes.

Spans (label, start, end, parent) are kept in flat arrays in memory and
written out by `save()`. A span's self time is its duration minus the
durations of its direct traced children; the wrapper's own bookkeeping falls
into the parent's self time.
"""

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

PACKAGE = "compopt"
TRACED_MODULES = ("estimators", "prox", "problem", "problems", "solver",
                  "baselines", "harness", "verify", "cli")
# spans whose peak allocation is measured with tracemalloc while they run
MEMORY_SPANS = ("estimators.take_snapshot",)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.calls: list[int] = []
        self.peak_bytes: dict[str, int] = {}
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._restore: list[tuple] = []

    def count(self, label: str) -> int:
        """Calls of `label` so far."""
        nid = self._ids.get(label)
        return 0 if nid is None else self.calls[nid]

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.calls.append(0)
        return self._ids[label]

    def _wrap(self, label, fn):
        nid = self._label_id(label)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, calls, clock = self._stack, self.calls, time.perf_counter
        peaks = self.peak_bytes if label in MEMORY_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            calls[nid] += 1
            stack.append(sid)
            if peaks is not None:
                tracemalloc.start()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if peaks is not None:
                    peaks[label] = max(peaks.get(label, 0), tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        problem_base = importlib.import_module(f"{PACKAGE}.problem").CompositionProblem
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, wrapped)
                                self._restore.append((ns, key, obj))
                elif inspect.isclass(obj) and issubclass(obj, problem_base):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
                            self._restore.append((obj, meth, fn))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _arrays(self):
        # copies, so the arrays can keep growing after this call
        return (np.array(self._name, dtype=np.int32), np.array(self._parent, dtype=np.int32),
                np.array(self._start, dtype=np.float64), np.array(self._end, dtype=np.float64))

    def totals(self) -> dict:
        """label -> (calls, inclusive seconds, self seconds), over all spans."""
        name, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        n = len(self.labels)
        incl = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        return {label: (self.calls[i], float(incl[i]), float(self_s[i]))
                for i, label in enumerate(self.labels)}

    def save(self, path):
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, labels=np.array(self.labels), name=name,
                            parent=parent, start=start, end=end)
