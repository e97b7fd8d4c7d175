"""Span recorder for the traced run.

``SpanRecorder.install()`` wraps the public functions and methods of every
layer module, and rebinds the wrappers wherever a module holds the original
object (names imported with ``from ... import`` and module-level dispatch
tables such as ``cli.TASK_FUNCS``).  Each call records one span: its name,
start, end, parent span and run id, where the run id is the benchmark
operation that caused it.  Counts are taken in the same wrappers.  Spans are
kept in compact in-memory arrays and written out when the run ends;
``uninstall()`` restores every original binding.

The layer of a span is the module that defines the wrapped function.  The
``splu`` and ``lsmr`` calls of ``twistedhodge`` (through its ``spla`` alias),
and the ``solve`` calls on the factors that ``splu`` returns, count to the
``twistedhodge`` layer.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("meshcover", "repvar", "liealg", "symspace", "harmonicflow",
          "twistedhodge", "deform", "energyvar", "cli")
PACKAGE = "equivarlab"


class _Factor:
    """Stands in for a SuperLU factor so that its solves are recorded."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class SpanRecorder:
    def __init__(self):
        self.names = []            # span name table
        self.name_layer = []       # layer of each name
        self._name_ids = {}
        self.op_names = []         # run ids: the benchmark operations
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts = {}
        self._patches = []

    # -- recording ---------------------------------------------------------
    def name_id(self, name, layer):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return self._name_ids[name]

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, func, name, layer, hook=None):
        nid = self.name_id(name, layer)
        clock = time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                result = hook(self, args, result)
            return result
        return wrapper

    def begin_op(self, name):
        """Open the root span of one benchmark operation."""
        self.op = len(self.op_names)
        self.op_names.append(name)
        nid = self.name_id("bench.op", "bench")
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(-1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def end_op(self, sid):
        self.span_end[sid] = time.perf_counter()
        self.stack.pop()
        self.op = -1

    def ancestors_include(self, nid):
        return any(self.span_name[s] == nid for s in self.stack[1:])

    # -- patching ------------------------------------------------------------
    def _set(self, obj, attr, value):
        # vars() keeps classmethod and staticmethod objects unbound
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def install(self):
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrapped[val] = self.wrap(val, f"{layer}.{attr}", layer,
                                             HOOKS.get(f"{layer}.{attr}"))
                elif inspect.isclass(val):
                    self._wrap_class(layer, val)
        # rebind the wrappers wherever a package module holds the original
        for name, mod in list(sys.modules.items()):
            if not (name == PACKAGE or name.startswith(PACKAGE + ".")
                    or name == "workloads"):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._set(mod, attr, wrapped[val])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            self._patches.append((val, key, item))
                            val[key] = wrapped[item]
        th = modules["twistedhodge"]
        spla = th.spla
        proxy = types.SimpleNamespace(**{k: getattr(spla, k) for k in dir(spla)
                                         if not k.startswith("__")})
        proxy.splu = self.wrap(spla.splu, "twistedhodge.splu", "twistedhodge",
                               _hook_splu)
        proxy.lsmr = self.wrap(spla.lsmr, "twistedhodge.lsmr", "twistedhodge",
                               _hook_lsmr)
        self._set(th, "spla", proxy)

    def _wrap_class(self, layer, cls):
        if issubclass(cls, (tuple, BaseException)):
            return
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_")
            if attr == "__init__":
                public = not dataclasses.is_dataclass(cls)
            elif attr == "__post_init__":
                public = f"{layer}.{cls.__name__}.{attr}" in COUNTED_POST_INIT
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._set(cls, attr, self.wrap(val, name, layer, HOOKS.get(name)))
            elif isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self.wrap(val.__func__, name, layer)))

    def uninstall(self):
        while self._patches:
            obj, attr, val = self._patches.pop()
            if isinstance(obj, dict):
                obj[attr] = val
            else:
                setattr(obj, attr, val)

    # -- results ---------------------------------------------------------------
    def arrays(self):
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32),
                "op": np.frombuffer(self.span_op, dtype=np.int32),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64)}

    def save(self, path):
        """Write every span plus the name and run-id tables to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tables = json.dumps({"names": self.names, "layers": self.name_layer,
                             "ops": self.op_names})
        np.savez(path, tables=np.array(tables), **self.arrays())

    def summary(self):
        """Inclusive time, self time and call count per span name, and self
        time per layer."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        self_t = dur - child
        nn = len(self.names)
        incl = np.bincount(a["name"], weights=dur, minlength=nn)
        selfs = np.bincount(a["name"], weights=self_t, minlength=nn)
        calls = np.bincount(a["name"], minlength=nn)
        by_name = {n: (float(incl[i]), float(selfs[i]), int(calls[i]))
                   for i, n in enumerate(self.names)}
        layer_self = {}
        for i, layer in enumerate(self.name_layer):
            layer_self[layer] = layer_self.get(layer, 0.0) + float(selfs[i])
        return by_name, layer_self


# ----------------------------------------------------------------------
# count hooks, keyed by span name; each returns the (possibly wrapped) result

def _hook_flow(rec, args, result):
    iters = result[1].iterations
    rec.add("harmonicflow.iters", iters)
    if rec.op >= 0:
        rec.add(f"harmonicflow.iters.{rec.op_names[rec.op]}", iters)
    fd = rec._name_ids.get("energyvar.fd_energy_derivatives")
    if fd is not None and rec.ancestors_include(fd):
        rec.add("energyvar.fd_flows")
        rec.add("energyvar.fd_iters", iters)
    return result


def _hook_complex(rec, args, result):
    dofs = args[0].A0.shape[0]
    rec.counts["twistedhodge.dofs"] = max(rec.counts.get("twistedhodge.dofs", 0), dofs)
    return result


def _hook_mesh(rec, args, result):
    rec.add("meshcover.cells", result.nv + result.ne + result.nf)
    return result


def _hook_file(rec, args, result):
    rec.add("cli.report_bytes", Path(result).stat().st_size)
    return result


def _hook_splu(rec, args, result):
    return _Factor(result, rec.wrap(result.solve, "twistedhodge.lu_solve",
                                    "twistedhodge"))


def _hook_lsmr(rec, args, result):
    rec.add("twistedhodge.lsmr_iters", int(result[2]))
    return result


HOOKS = {
    "harmonicflow.flow": _hook_flow,
    "twistedhodge.TwistedComplex.__init__": _hook_complex,
    "meshcover.build_circle": _hook_mesh,
    "meshcover.build_torus": _hook_mesh,
    "meshcover.build_genus2": _hook_mesh,
    "cli.write_report": _hook_file,
    "cli.write_csv": _hook_file,
}

#: dataclass constructors that are counted (``repvar.jet_builds``)
COUNTED_POST_INIT = {"repvar.Jet2Cocycle.__post_init__"}
