"""Span tracing of qsu2 from outside the package.

``install`` replaces every public module-level function of each layer
module, in every qsu2 module that binds it, by a wrapper that records one
span, and does the same for ``OperatorMatrix.__matmul__``.  A span is a
name, a parent, a start and an end; spans stay in memory as flat arrays
and are written out once, when the run ends.  Nothing under ``src/`` is
edited: ``uninstall`` puts the original objects back.

Private helpers, methods and ``QParam`` properties are not wrapped, so
their time counts as self time of the layer whose public function called
them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("qcore", "angular", "jackson", "irrep", "spectra", "cli")
BENCH = "bench"

clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: number of spans, inclusive time and self time.

        Self time is a span's duration minus the durations of its direct
        children; calls are nested on one thread, so the children never
        overlap and their sum is the time they cover.
        """
        import numpy as np

        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"count": int(counts[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def dump(self, path: Path):
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(rec: Recorder) -> list:
    """Wrap the layers' public functions; return what ``uninstall`` needs."""
    layer_mods = [sys.modules[f"qsu2.{layer}"] for layer in LAYERS]
    wrapped = {}
    for mod in layer_mods:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                wrapped[obj] = rec.wrap(obj, f"{layer}.{attr}")
    patches = []
    for mod in [sys.modules["qsu2"], *layer_mods]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    cls = sys.modules["qsu2.irrep"].OperatorMatrix
    patches.append((cls, "__matmul__", cls.__matmul__))
    cls.__matmul__ = rec.wrap(cls.__matmul__, "irrep.matmul")
    return patches


def uninstall(patches: list):
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)
