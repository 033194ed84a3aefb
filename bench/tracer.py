"""Spans around the library's public functions, recorded from outside it.

``Tracer.installed()`` replaces each traced function under every name it is
bound to in the loaded ``odcodes`` modules (``odcodes.gamma``,
``odcodes.codes.build_clutter``, ``odcodes.clutters.is_admissible`` ...), so
calls made inside the library are seen too, and puts the originals back on
exit.  Spans are kept in memory as ``[id, parent, name, start, end, info]``;
``info`` holds counts read off the return value.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter


def _cover_info(result, args):
    optima = result.all_optima
    return {
        "nodes": result.nodes_explored,
        "value": result.value,
        "optima": len(optima) if optima is not None else 0,
        "truncated": int(result.truncated),
    }


def _points(result, args):
    # computed, not counted: an exhaustive walk visits all 2^n 0/1 points
    return {"points": 2 ** args[1].n}


def _validity_points(result, args):
    return _points(result, args) if result.exhaustive else {"points": 0}


# (module, function) -> reads counts off (return value, positional args)
TRACED = {
    ("graphs", "is_admissible"): None,
    ("families", "generate"): None,
    ("families", "predicted_gamma"): None,
    ("clutters", "build_hypergraph"): lambda r, a: {"edges": len(r.edges)},
    ("clutters", "reduce_hypergraph"): lambda r, a: {"edges": len(r.edges)},
    ("clutters", "build_clutter"): None,
    ("cover", "greedy_cover"): lambda r, a: {"size": len(r)},
    ("cover", "min_cover"): _cover_info,
    ("codes", "gamma"): None,
    ("codes", "gamma_all_optima"): None,
    ("codes", "verify"): None,
    ("sat_reduction", "enumerate_slsat"): None,  # one span per next()
    ("sat_reduction", "build_gadget"): None,
    ("sat_reduction", "brute_force_sat"): lambda r, a: {"satisfiable": int(r is not None)},
    ("sat_reduction", "assignment_to_code"): None,
    ("sat_reduction", "code_to_assignment"): None,
    ("polyhedra", "od_polyhedron_system"): lambda r, a: {"inequalities": len(r.inequalities)},
    ("polyhedra", "check_validity"): _validity_points,
    ("polyhedra", "check_tightness"): None,
    ("polyhedra", "integer_hull_equiv"): _points,
}
GENERATORS = {"sat_reduction.enumerate_slsat"}
PACKAGE = "odcodes"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.recording = False

    # -- span bookkeeping --------------------------------------------------------

    def open(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None, name, perf_counter(), None, None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as one item."""
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    @contextmanager
    def paused(self):
        """Calls made here (the output checks) leave no spans."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- patching ----------------------------------------------------------------

    def _wrap(self, fn, name: str, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            s = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if info is not None:
                s[5] = info(result, args)
            return result

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            return _TracedIterator(tracer, name, fn(*args, **kwargs))

        return traced_generator if name in GENERATORS else traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions and record spans while
        the block runs."""
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        wrappers = {}
        for (mod, func), info in TRACED.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], func)
            wrappers[id(original)] = (original, self._wrap(original, f"{mod}.{func}", info))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -- reading the spans -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for s in self.spans:
            if s[1] in own:
                own[s[1]] -= s[4] - s[3]
        return own


class _TracedIterator:
    """Times each next() of a traced generator as one span."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __iter__(self):
        return self

    def __next__(self):
        if not self.tracer.recording:
            return next(self.inner)
        s = self.tracer.open(self.name)
        try:
            value = next(self.inner)
        except StopIteration:
            s[5] = {"instances": 0}
            raise
        finally:
            self.tracer.close(s)
        s[5] = {"instances": 1}
        return value
