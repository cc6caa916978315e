"""Outside-in tracer: wraps the public functions of the sovchain modules.

Every function a module lists in ``__all__``, and every public method (plus
``__call__``) of a class it lists there, is replaced by a wrapper that
records one span per call: name, start, end, parent span and run id.  The
replacement is made at every binding site, so a function imported by name
into another module (``monodromy`` into ``sovbasis``) is traced there too.
Spans stay in memory until ``save`` writes them once; ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "sovchain"
TRACED_MODULES = (
    "cli", "spectrum", "qalgebra", "sovbasis", "tq_inhom", "tq_hom",
    "trigpoly",
)


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Calls nest on one thread, so direct children never overlap and their
    summed durations are exactly the part of the parent they cover.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """Span recorder for one process.

    ``capture`` names spans whose call arguments are kept, as a list of
    (args, kwargs) per call, for metrics computed after the run.
    """

    def __init__(self, capture=()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.captured = {name: [] for name in capture}
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = self._name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        calls = self.captured.get(qualname)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls is not None:
                calls.append((args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public API of the traced modules in place."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> wrapper
        originals = []  # keeps the originals alive while ids are keys
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
                    originals.append(obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{name}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(f"{prefix}.{attr}", raw)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
