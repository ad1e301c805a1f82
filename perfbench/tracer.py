"""Outside-in tracer: spans around the package's public functions.

The tracer changes nothing under ``src/``.  It wraps every ``__all__``
function of each layer module and the public methods (and constructor) of
each exported class, then rebinds each wrapper in every ``medqsl.*``
namespace, and in module-level tables, that held the original, so calls
such as ``dynamics.negativity`` or ``sweep.haar_pure`` are seen too.
``np.linalg.eigh`` and ``np.linalg.eigvalsh`` are wrapped as the LAPACK
boundary: each call is counted against the layer of the innermost open
span.

Spans are kept in memory as flat arrays (name, start, end, parent, op id)
and written out by ``save``.  ``activate`` and ``deactivate`` put the
wrappers in place and take them out again; recording happens only while
``op`` is set, so input generation and output checks stay out of the
trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "medqsl"
LAPACK = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self, layers: tuple[str, ...]):
        self.layers = layers
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.lapack_calls = [0] * len(layers)
        self.stack: list[int] = []
        self.op = -1
        # (namespace or table, key, original, wrapper)
        self._patches: list[tuple[object, object, object, object]] = []

    # -- installation ------------------------------------------------------

    def activate(self) -> None:
        """Put every wrapper in place (built on the first call)."""
        if not self._patches:
            self._build()
        for target, key, _, wrapper in self._patches:
            self._put(target, key, wrapper)

    def deactivate(self) -> None:
        for target, key, original, _ in reversed(self._patches):
            self._put(target, key, original)

    @staticmethod
    def _put(target, key, value) -> None:
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)

    def _build(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in self.layers:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._patches.append((mod, attr, val, wrapped[id(val)]))
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in val.items():
                        if id(item) in wrapped:
                            self._patches.append((val, key, item, wrapped[id(item)]))
        for fn_name in LAPACK:
            fn = getattr(np.linalg, fn_name)
            self._patches.append((np.linalg, fn_name, fn, self._count_lapack(fn)))

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                wrapper = self._wrap(val, name, layer)
            elif isinstance(val, (classmethod, staticmethod)):
                wrapper = type(val)(self._wrap(val.__func__, name, layer))
            else:
                continue
            self._patches.append((cls, attr, val, wrapper))

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(self.layers.index(layer))
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        tracer = self
        stack = self.stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_op, add_start, add_end = self.span_op.append, self.span_start.append, self.span_end.append
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op < 0:
                return fn(*args, **kwargs)
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_op(op)
            add_start(0.0)
            add_end(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def _count_lapack(self, fn):
        stack = self.stack
        span_name, name_layer, calls = self.span_name, self.name_layer, self.lapack_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                calls[name_layer[span_name[stack[-1]]]] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Calls, self seconds and LAPACK calls per layer, and calls per span name.

        A span's self time is its duration minus the durations of its
        direct children, which nest inside it.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        layer_of = np.asarray(self.name_layer, dtype=np.int64)[a["name"]]
        n_layers = len(self.layers)
        calls = np.bincount(layer_of, minlength=n_layers)
        self_s = np.bincount(layer_of, weights=self_time, minlength=n_layers)
        by_name = np.bincount(a["name"], minlength=len(self.names))
        dur_by_name = np.bincount(a["name"], weights=dur, minlength=len(self.names))
        return {
            "layers": {
                layer: {"calls": int(calls[k]), "self_s": float(self_s[k]),
                        "lapack_calls": int(self.lapack_calls[k])}
                for k, layer in enumerate(self.layers)
            },
            "calls": {n: int(by_name[k]) for k, n in enumerate(self.names) if by_name[k]},
            "seconds": {n: float(dur_by_name[k]) for k, n in enumerate(self.names) if by_name[k]},
            "self_s": float(self_time.sum()),
            "spans": int(len(dur)),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
