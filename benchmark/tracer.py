"""Spans around the public functions of each ``cellres`` module.

The tracer replaces every public function of the layer modules, in every
``cellres`` namespace that binds it (``residue`` imports ``is_refinement``
by name, ``cli`` imports ``multiplicity`` from ``cycle``), by a wrapper that
records a span: function, start, end and the enclosing span.  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

Spans stay in memory, in flat arrays, until the run ends.  Two kinds of
public function get less than a span, because a span would cost more than
the call it times (a wrapper adds about a microsecond):

* ``LEAVES``, O(n) vector primitives called up to millions of times per
  pass, are not wrapped at all; their time counts to the caller's span;
* ``COUNTED``, called once per lattice point of a box scan, only count
  their calls; their time also counts to the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "monomial", "hull", "linalg", "cellcomplex", "resolution",
          "residue", "cycle")

LEAVES = frozenset({
    "monomial.divides", "monomial.lcm", "monomial.lcm_many",
    "linalg.vec", "linalg.vec_sub", "linalg.vec_add", "linalg.vec_scale",
    "linalg.dot", "linalg.is_zero_vec", "resolution.zero_entry",
})

COUNTED = frozenset({"monomial.contains", "residue.annihilator_contains"})


class Tracer:
    def __init__(self, package="cellres"):
        self.package = package
        self.names = []          # function index -> "layer.function"
        self.wrappers = {}       # id(original) -> (original, wrapper)
        self.bound = []          # (namespace, attribute, original)
        # The wrappers close over these containers, which are only ever
        # cleared in place, so a call looks up no attribute.
        self.calls = []          # function index -> calls
        self.fn = array("l")     # span -> function index
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")  # span -> enclosing span, or -1
        self.outer = array("b")   # 1 if no enclosing span of the same function
        self._stack = [-1]
        self._active = []        # function index -> open spans
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and f"{layer}.{attr}" not in LEAVES):
                    self._wrap(f"{layer}.{attr}", obj)

    def reset(self):
        """Forget recorded spans and counts."""
        for recorded in (self.fn, self.start, self.end, self.parent, self.outer):
            del recorded[:]
        self._stack[:] = [-1]
        self.calls[:] = [0] * len(self.names)
        self._active[:] = [0] * len(self.names)

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self._active.append(0)
        calls = self.calls

        if name in COUNTED:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[index] += 1
                return fn(*args, **kwargs)
        else:
            fns, starts, ends, parents, outer = (
                self.fn, self.start, self.end, self.parent, self.outer)
            stack, active = self._stack, self._active

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = len(fns)
                calls[index] += 1
                fns.append(index)
                parents.append(stack[-1])
                outer.append(active[index] == 0)
                ends.append(0)
                stack.append(span)
                active[index] += 1
                starts.append(perf_counter_ns())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[span] = perf_counter_ns()
                    active[index] -= 1
                    stack.pop()

        self.wrappers[id(fn)] = (fn, wrapper)

    def install(self):
        spaces = [m for name, m in list(sys.modules.items())
                  if name == self.package or name.startswith(self.package + ".")]
        for module in spaces:
            for attr, obj in list(vars(module).items()):
                pair = self.wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self.bound.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self.bound):
            setattr(module, attr, obj)
        self.bound.clear()

    def totals(self):
        """Per function: calls, inclusive seconds of the outermost spans; per
        layer: self seconds, a span's duration less its direct children's."""
        nfn = len(self.names)
        inclusive = [0] * nfn
        child = [0] * len(self.fn)
        dur = [e - s for s, e in zip(self.start, self.end)]
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += dur[span]
        layer_self = {layer: 0 for layer in LAYERS}
        for span, index in enumerate(self.fn):
            if self.outer[span]:
                inclusive[index] += dur[span]
            layer_self[self.names[index].split(".")[0]] += dur[span] - child[span]
        functions = {
            name: {"calls": self.calls[i], "s": inclusive[i] / 1e9}
            for i, name in enumerate(self.names)
        }
        return functions, {layer: ns / 1e9 for layer, ns in layer_self.items()}

    def spans(self):
        """A copy of the recorded spans as (function, start, end, parent)."""
        return tuple(array(a.typecode, a) for a in (self.fn, self.start, self.end, self.parent))

    def write_spans(self, path, recorded):
        """Write spans as JSON lines [pass, function, start_ns, end_ns, parent],
        after one header line naming the functions."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"functions": self.names}) + "\n")
            for number, (fn, start, end, parent) in enumerate(recorded):
                for span in range(len(fn)):
                    handle.write(json.dumps([number, fn[span], start[span], end[span],
                                             parent[span]]) + "\n")
