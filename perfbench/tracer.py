"""Outside-in tracer for the aritygap layers.

Spans are recorded only at layer boundaries, by wrapping the public
functions of each module; private kernels count toward their caller's self
time.  A call nested directly inside a span of its own layer is folded into
that span (it is counted, but opens no span).  Spans are kept in flat arrays
in memory, each with a request id and the index of its parent span, and
written out with ``Tracer.write`` once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli", "core.parse", "core.render", "core.validate", "core",
    "minors", "analysis", "gap", "oddsupp", "classify", "oracle",
)
MODULES = ("cli", "core", "minors", "analysis", "gap", "oddsupp", "classify", "oracle")
CORE_SPLIT = {
    "parse": "core.parse", "parse_stream": "core.parse",
    "render": "core.render", "render_line": "core.render",
}
# Per-entry codec helpers: a call costs less than a span would.
SKIP = frozenset({"tuple_to_index", "index_to_tuple", "all_tuples", "strides"})


def _size_of_first(args, result) -> int:
    return getattr(args[0], "size", 0) if args else 0


def _size_of_result(args, result) -> int:
    return result.size


def _parsed_values(args, result) -> int:
    if isinstance(result, list):
        return sum(f.size for f in result)
    return result.size


def _checked(args, result) -> int:
    return result.checked


# Work counted per span-opening call, per layer (or per layer.function).
WORK = {
    "minors": _size_of_result,  # table entries of the minors built
    "analysis": _size_of_first,  # table entries scanned
    "oddsupp": _size_of_first,
    "core.parse": _parsed_values,  # values parsed
    "oracle.verify": _checked,  # functions a sweep checked
}


def aritygap_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "aritygap" or name.startswith("aritygap.")]


def bindings_snapshot() -> dict:
    """id() of every attribute of every loaded aritygap module, plus the
    validation hook, to check that uninstall left nothing rebound."""
    snap = {(m.__name__, name): id(obj) for m in aritygap_modules() for name, obj in vars(m).items()}
    core = importlib.import_module("aritygap.core")
    snap[("aritygap.core", "FiniteFunction.__post_init__")] = id(core.FiniteFunction.__dict__["__post_init__"])
    return snap


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.function"
        self.layer_of: list[int] = []  # function id -> index into LAYERS
        self.calls: list[int] = []
        self.work: list[int] = []
        self.request = -1
        self._req = array("i")
        self._parent = array("i")
        self._fid = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[tuple[int, int]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._build()

    # -- wrapping -----------------------------------------------------------

    def _build(self):
        for modname in MODULES:
            # import_module, not getattr on the package: aritygap.classify and
            # aritygap.oddsupp are the re-exported functions.
            mod = importlib.import_module(f"aritygap.{modname}")
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                layer = CORE_SPLIT.get(name, modname)
                self._wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        core = importlib.import_module("aritygap.core")
        hook = core.FiniteFunction.__dict__["__post_init__"]
        self._validate = (core.FiniteFunction, hook, self._wrap(hook, "core.validate", "__post_init__"))

    def _wrap(self, fn, layer: str, name: str):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        lid = LAYERS.index(layer)
        self.layer_of.append(lid)
        self.calls.append(0)
        self.work.append(0)
        work = WORK.get(f"{layer}.{name}", WORK.get(layer))
        calls, works, stack = self.calls, self.work, self._stack
        req, parent, fids, t0s, t1s = self._req, self._parent, self._fid, self._t0, self._t1

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if stack and stack[-1][0] == lid:
                return fn(*args, **kwargs)
            idx = len(t0s)
            req.append(self.request)
            parent.append(stack[-1][1] if stack else -1)
            fids.append(fid)
            t1s.append(0.0)
            stack.append((lid, idx))
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
            if work is not None:
                works[fid] += work(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Rebind every public function, by identity, in every aritygap module
        (cli, for one, imports classify under another name)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod in aritygap_modules():
            for name, obj in list(vars(mod).items()):
                pair = self._wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, name, pair[1])
                    self._undo.append((mod, name, obj))
        cls, hook, wrapper = self._validate
        cls.__post_init__ = wrapper
        self._undo.append((cls, "__post_init__", hook))

    def uninstall(self):
        while self._undo:
            target, name, obj = self._undo.pop()
            setattr(target, name, obj)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per layer and per function: calls, busy time, self time, work.

        busy_s counts spans with no enclosing span of the same layer; self_s
        is a span's duration minus the spans directly inside it.
        """
        count = len(self._t0)
        parent, fids, t0s, t1s = self._parent, self._fid, self._t0, self._t1
        layer_of = self.layer_of
        dur = [t1s[i] - t0s[i] for i in range(count)]
        child = [0.0] * count
        mask = [0] * count
        layer_self = [0.0] * len(LAYERS)
        layer_busy = [0.0] * len(LAYERS)
        fn_self = [0.0] * len(self.names)
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                mask[i] = mask[p] | (1 << layer_of[fids[p]])
        for i in range(count):
            fid = fids[i]
            lid = layer_of[fid]
            own = dur[i] - child[i]
            layer_self[lid] += own
            fn_self[fid] += own
            if not mask[i] >> lid & 1:
                layer_busy[lid] += dur[i]
        layers = {name: {"calls": 0, "busy_s": layer_busy[lid], "self_s": layer_self[lid], "work": 0}
                  for lid, name in enumerate(LAYERS)}
        functions = {}
        for fid, name in enumerate(self.names):
            entry = layers[LAYERS[layer_of[fid]]]
            entry["calls"] += self.calls[fid]
            entry["work"] += self.work[fid]
            functions[name] = {"calls": self.calls[fid], "self_s": fn_self[fid], "work": self.work[fid]}
        return {"layers": layers, "functions": functions, "spans": count}

    def spans_with_parent(self, parent_fn: str, child_fn: str) -> int:
        """Number of child_fn spans opened directly inside a parent_fn span."""
        if parent_fn not in self.names or child_fn not in self.names:
            return 0
        parent_id = self.names.index(parent_fn)
        child_id = self.names.index(child_fn)
        fids, parent = self._fid, self._parent
        return sum(1 for i in range(len(fids))
                   if fids[i] == child_id and parent[i] >= 0 and fids[parent[i]] == parent_id)

    def write(self, stem: Path):
        """Write stem.json (names, layout) and stem.spans (the raw arrays)."""
        header = {
            "layers": list(LAYERS),
            "functions": self.names,
            "function_layer": self.layer_of,
            "spans": len(self._t0),
            "arrays": [["request", self._req.typecode], ["parent", self._parent.typecode],
                       ["function", self._fid.typecode], ["start_s", self._t0.typecode],
                       ["end_s", self._t1.typecode]],
        }
        stem.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self._req, self._parent, self._fid, self._t0, self._t1):
                arr.tofile(fh)
