"""Span and count recorder for the traced benchmark run.

The recorder wraps the public functions of each ``gausslift`` module from
outside the package: every module namespace that binds a function (the
modules import each other with ``from .x import y``) gets the same wrapper,
so a call is recorded whichever name it went through.  Nothing under ``src/``
knows about tracing.

One span per call: name, start, end, parent span and op id.  Spans stay in
memory and are written out by ``write_spans`` at the end of the run.  Time
spent in numpy or scipy is charged to the calling function.

Two self times are kept, both in the layer (module) sense:

* a function's self time is its span minus the time covered by spans of
  *other* modules below it, so same-module helpers it calls stay inside;
* a module's self time counts each stretch of time in the module once: the
  self time of every span entered from a different module (or from the
  benchmark itself).
"""

import functools
import importlib
import inspect
import time

#: the package modules, which are the layers of the per-layer metrics
LAYERS = (
    "matfunc",
    "phase_space",
    "metaplectic",
    "inhomogeneous",
    "generator",
    "fock",
    "fermion",
    "cli",
)


class FunctionStats:
    __slots__ = ("calls", "fails", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.fails = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans around gausslift's public functions while installed."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, op id, failed)
        self.functions = {}  # "module.function" -> FunctionStats
        self.module_self_s = {layer: 0.0 for layer in LAYERS}
        self.op_id = 0
        self._stack = []  # [span id, module, foreign seconds] of open spans
        self._next_id = 1
        self._patched = []  # (namespace, attribute, original)

    def install(self, callers=()):
        """Wrap every public function of every layer in every namespace that
        binds it: the package, its modules and the ``callers`` modules."""
        modules = {layer: importlib.import_module(f"gausslift.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("gausslift")]
        namespaces += list(callers)
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, name, layer, fn):
        stats = self.functions.setdefault(name, FunctionStats())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, layer, 0.0]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += own
                if failed:
                    stats.fails += 1
                if parent is None or parent[1] != layer:
                    self.module_self_s[layer] += own
                if parent is not None:
                    parent[2] += duration if parent[1] != layer else frame[2]
                spans.append((sid, name, start, end, parent[0] if parent else 0,
                              self.op_id, failed))

        return traced


def write_spans(tracer, path):
    """Write the recorded spans as CSV lines, one per call."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,name,start_s,end_s,parent,op,failed\n")
        for sid, name, start, end, parent, op, failed in tracer.spans:
            fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op},{int(failed)}\n")
