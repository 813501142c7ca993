"""Per-layer tracing: wrappers installed around the library's public functions.

Each wrapper counts calls and measures self time: its own duration minus
the time spent in wrapped functions it called.  A wrapper replaces the
function on its module and every ``from .x import y`` copy of it in the
other modules, so calls between modules are seen too.  Two hot accessors
(``VertexField.__getitem__`` and ``EdgeFunction.value``) only count calls;
their time stays in their callers' self time.  Bytes written and read by the
I/O layers are counted alongside.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

#: Layers, in the order the metrics are listed.
LAYERS = ("minkowski", "grids", "nets", "conserved", "polyvec", "transforms",
          "euclidean", "revolution", "netfile", "objexport", "cli", "catalog")

#: Timed methods (besides every public module-level function of each layer).
METHODS = (("nets", "IsothermicNet", "validate"),
           ("conserved", "ConservedQuantity", "__init__"),
           ("transforms", "DarbouxTransform", "cross_ratio_residual"))

#: Methods whose calls are counted but not timed.
COUNTED = (("grids", "VertexField", "__getitem__"),
           ("grids", "EdgeFunction", "value"))

#: Functions reported by name, as (layer, qualified name).
REPORTED = (
    ("minkowski", "cross_ratio"), ("minkowski", "cross_ratio_matrix"),
    ("minkowski", "minkowski_inner"), ("minkowski", "solve_dense"),
    ("minkowski", "orthonormal_complement"),
    ("grids", "propagation_order"),
    ("nets", "verify_isothermic"), ("nets", "face_regularity"),
    ("nets", "IsothermicNet.validate"), ("nets", "edge_connection"), ("nets", "calapso"),
    ("conserved", "pcq_verify"), ("conserved", "lcq_solve_grid"),
    ("conserved", "propagate_congruence"), ("conserved", "classify_type"),
    ("conserved", "ConservedQuantity.__init__"),
    ("transforms", "darboux_propagate"), ("transforms", "backlund_init"),
    ("transforms", "pcq_darboux"), ("transforms", "pcq_backlund"),
    ("transforms", "bianchi"), ("transforms", "DarbouxTransform.cross_ratio_residual"),
    ("transforms", "calapso_pcq"),
    ("euclidean", "christoffel"), ("euclidean", "classify_cmc"),
    ("revolution", "build_revolution_cmc"), ("revolution", "seed_edge"),
    ("revolution", "meridian_step"),
    ("netfile", "save_net"), ("netfile", "load_net"),
    ("objexport", "export_obj"),
    ("cli", "main"),
)

BYTES = ("netfile.bytes_written", "netfile.bytes_read", "objexport.bytes_written")


def metric_units(ops) -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, name in REPORTED:
        units[f"{layer}.{name}.calls"] = "count"
        units[f"{layer}.{name}.self_s"] = "s"
    for layer, cls, meth in COUNTED:
        units[f"{layer}.{cls}.{meth}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for key in BYTES:
        units[key] = "bytes"
    for op in ops:
        units[f"trace.overhead.{op}"] = "ratio"
    return units


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Call counts, self times and byte counts of one traced phase."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.bytes = dict.fromkeys(BYTES, 0)
        self.enabled = False
        self._stack = []

    def snapshot(self) -> dict:
        """Current totals as a flat {metric: value} map (without overhead)."""
        out = {}
        for key, n in self.calls.items():
            out[key + ".calls"] = n
        for key, s in self.self_s.items():
            out[key + ".self_s"] = s
            layer = key.split(".", 1)[0]
            out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + s
        out.update(self.bytes)
        return out

    def _timed(self, key, fn):
        self.calls[key] = 0
        self.self_s[key] = 0.0
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _counted(self, key, fn):
        self.calls[key] = 0
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _with_bytes(self, counter, paths_of, before, fn):
        """Add the sizes of the files ``paths_of(args, kwargs)`` names to
        ``counter``, read before the call or written by it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before:
                self.bytes[counter] += sum(map(_size, paths_of(args, kwargs)))
            result = fn(*args, **kwargs)
            if not before:
                self.bytes[counter] += sum(map(_size, paths_of(args, kwargs)))
            return result

        return wrapper

    def install(self, lib) -> None:
        """Wrap the public functions of every layer of ``lib`` (a
        :class:`workloads.Library`) and rebind every imported copy."""
        replaced = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                replaced[obj] = self._timed(f"{layer}.{name}", obj)
        def first(args, kwargs):
            return [kwargs.get("path", args[0])]

        def obj_and_report(args, kwargs):
            path = str(kwargs.get("path", args[3]))
            return [path, path + ".report.txt"]

        io_hooks = {
            ("netfile", "save_net"): ("netfile.bytes_written", first, False),
            ("netfile", "load_net"): ("netfile.bytes_read", first, True),
            ("objexport", "export_obj"): ("objexport.bytes_written", obj_and_report, False),
        }
        for (layer, name), (counter, paths_of, before) in io_hooks.items():
            fn = getattr(getattr(lib, layer), name)
            replaced[fn] = self._with_bytes(counter, paths_of, before, replaced[fn])
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(lib, layer), cls_name)
            setattr(cls, meth, self._timed(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
        for layer, cls_name, meth in COUNTED:
            cls = getattr(getattr(lib, layer), cls_name)
            setattr(cls, meth, self._counted(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
        for name, module in list(sys.modules.items()):
            if name != "isothermic" and not name.startswith("isothermic."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, attr, replaced[obj])
