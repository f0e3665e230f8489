"""In-memory span tracer around the public functions of the diskvort modules.

Each wrapped call records a span ``[id, parent, name, scope, start, end]``,
times in wall-clock seconds; ``parent`` is the span that was open when the
call began, ``scope`` is the label the benchmark set for the work in
progress ("setup", "op3", ...).
Installing a wrapper also rebinds every ``from .x import f`` copy of the
function in the other diskvort modules and in the package namespace, so
calls between modules are seen.  ``quadrature`` and ``cli`` are left out:
they run only in verification kinds and output writing.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("bessel", "disk_spectral", "green_energy", "steady_family",
          "variational", "euler_sim")
_ALL_MODULES = ("diskvort",) + tuple(f"diskvort.{m}" for m in LAYERS + ("cli",))


class Tracer:
    def __init__(self):
        self.spans = []
        self.scope = "setup"
        self._stack = []
        self._bindings = []      # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else -1, name, self.scope,
                   time.perf_counter(), 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[5] = time.perf_counter()

        return traced

    def prepare(self):
        """Build a wrapper for each public function and every binding of it."""
        modules = [importlib.import_module(m) for m in _ALL_MODULES]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"diskvort.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._bindings.append((mod, name, obj, wrappers[id(obj)]))
        basis_cls = importlib.import_module("diskvort.disk_spectral").DiskBasis
        init = basis_cls.__init__
        self._bindings.append((basis_cls, "__init__", init,
                               self._wrap("disk_spectral.DiskBasis", init)))

    def enable(self):
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def disable(self):
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def summary(self, scopes):
        """Per span name: calls, inclusive seconds and self seconds, over the
        spans whose scope is in ``scopes``.  A span nested in another of the
        same name adds to the calls and self time but not to inclusive time."""
        spans = self.spans
        child = defaultdict(float)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, parent, name, scope, start, end in spans:
            if scope not in scopes:
                continue
            row = out[name]
            row[0] += 1
            row[2] += end - start - child[sid]
            while parent >= 0 and spans[parent][2] != name:
                parent = spans[parent][1]
            if parent < 0:
                row[1] += end - start
        return out


def count_calls(module, name, counter):
    """Rebind ``module.name`` to a wrapper that only increments
    ``counter[name]``: a step count that untraced runs need too."""
    fn = getattr(module, name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counter[name] += 1
        return fn(*args, **kwargs)

    setattr(module, name, counted)
