"""Outside-in span tracing of the wavext layers.

The program is not edited: :meth:`Tracer.install` replaces selected
functions, methods and constructors with timing wrappers, in every
``wavext`` module namespace that bound them, and :meth:`Tracer.uninstall`
puts the originals back.  A target that no longer exists is skipped and
reports zero calls, so the trace keeps working when a later change renames
or deletes a layer.  ``splu`` (in scipy and wherever wavext bound it) is
wrapped too, to add up the fill of every sparse LU.

Spans are kept in memory as ``(name, parent, start, end)`` tuples; the
self time of a span is its duration minus the durations of its direct
children (calls are single-threaded, so children nest inside parents).
"""

import functools
import importlib
import inspect
import sys
import time

#: Traced spans as ``<module>.<qualname>`` under ``wavext``.  A bare class
#: name times its constructor; ``Class.method`` times the method.
SPANS = (
    "mesh.build_structured_mesh",
    "fem.build_space",
    "fem.assemble",
    "fem.load_vector",
    "fem.ritz_project",
    "fem.spatial_norm",
    "fem.BrokenField.l2_norm",
    "timebasis.endpoint_exact_project",
    "timebasis.lagrange_time_interp",
    "linalg.solve_spd",
    "linalg.Factorization",
    "linalg.Factorization.solve",
    "problem.make_preset",
    "solver.build_lifting",
    "solver.discrete_initial_data",
    "solver.SlabWorkspace",
    "solver.SlabWorkspace.system",
    "solver.SlabWorkspace.load_moments",
    "solver.solve_slab",
    "solver.solve",
    "postprocess.postprocessed_solution",
    "postprocess.error_C0",
    "postprocess.compute_error_report",
    "postprocess.energy_trace",
    "estimator.compute_estimator",
    "cli.run_cell",
    "cli.run_experiment",
)

#: Span that wraps reading the fill of each sparse LU, so that the cost of
#: materializing L and U is not charged to the layer that factorized.
FILL_SPAN = "trace.fill_read"


def _fill(lu):
    """nnz of L + U of a SuperLU object (0 for anything else)."""
    try:
        return int(lu.L.nnz + lu.U.nnz)
    except AttributeError:
        return 0


class Tracer:
    """Span recorder plus the set of installed wrappers."""

    def __init__(self):
        self.spans = []
        self.fill_nnz = 0
        self._stack = []
        self._undo = []
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)

        return functools.wraps(fn)(wrapper)

    def _fill_probe(self, splu):
        read_fill = self._wrap(FILL_SPAN, _fill)

        @functools.wraps(splu)
        def probed(*args, **kwargs):
            lu = splu(*args, **kwargs)
            self.fill_nnz += read_fill(lu)
            return lu

        return probed

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every resolvable target; return the names that did not resolve."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wavext" or n.startswith("wavext."))]
        for spec in SPANS:
            module_name, _, qualname = spec.partition(".")
            try:
                module = importlib.import_module(f"wavext.{module_name}")
            except ImportError:
                self.missing.append(spec)
                continue
            head, _, method = qualname.partition(".")
            owner = getattr(module, head, None)
            if owner is None:
                self.missing.append(spec)
            elif method or isinstance(owner, type):
                original = vars(owner).get(method or "__init__")
                if inspect.isfunction(original):
                    self._set(owner, method or "__init__", self._wrap(spec, original))
                else:
                    self.missing.append(spec)
            elif callable(owner):
                self._rebind(modules, owner, self._wrap(spec, owner))
            else:
                self.missing.append(spec)
        self._install_fill(modules)
        return list(self.missing)

    def _install_fill(self, modules):
        try:
            sla = importlib.import_module("scipy.sparse.linalg")
        except ImportError:
            return
        splu = sla.splu
        probed = self._fill_probe(splu)
        self._set(sla, "splu", probed)
        self._rebind(modules, splu, probed)

    def _rebind(self, modules, original, replacement):
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.fill_nnz = 0

    def summary(self):
        """Per span name: total self time in seconds and number of calls."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, parent, start, end), inner in zip(self.spans, child):
            self_s, calls = out.get(name, (0.0, 0))
            out[name] = (self_s + (end - start) - inner, calls + 1)
        return out
