"""Span tracer for the corrinv benchmark.

The tracer wraps public functions of the corrinv modules at run time, from
outside the package, so ``src/`` carries no tracing code.  A function is
replaced in every corrinv module namespace that bound it: ``cli`` imports
``solve_forward`` and friends by name, so patching only the defining module
would miss those calls.  Three call sites that are not corrinv functions get
spans through a per-module stand-in instead:

- ``forward.spsolve``: ``scipy.sparse.linalg.spsolve`` as reached through
  ``corrinv.forward.spla``;
- ``experiments.lift_spsolve``: the ``spsolve`` name imported into
  ``corrinv.experiments``;
- ``continuation.svd``: ``numpy.linalg.svd`` as reached through
  ``corrinv.continuation.np``.

Spans are kept in memory with a parent link and written out at the end of
the run.  A span's self time is its duration minus the durations of its
direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Public functions wrapped by name; the span name is "<module>.<function>".
TRACED_FUNCTIONS = {
    "geometry": ("build_rectangle_mesh", "trace_sample", "export_mesh_csv",
                 "inner_portion"),
    "forward": ("assemble_stiffness", "assemble_boundary_load",
                "solve_forward", "neumann_trace", "boundary_profile",
                "extract_cauchy_data"),
    "continuation": ("design_matrix", "fit", "choose_mu",
                     "evaluate_on_gamma1"),
    "reconstruction": ("find_monotone_segment", "extract_f",
                       "overlap_and_error"),
    "experiments": ("continue_data", "reconstruct_from_data",
                    "run_noise_sweep", "run_oscillation_sweep",
                    "disk_integral", "three_spheres_check"),
    "csvio": ("write_csv", "read_csv"),
    "config": ("parse_config",),
}

# eval and grad of these classes share the span name continuation.basis_eval.
BASIS_CLASSES = ("HarmonicPolynomialBasis", "FundamentalSolutionBasis",
                 "CornerSingularBasis")

ROOT_SPAN = "cli.main"


class _ModuleStandIn:
    """Takes the place of a module inside one corrinv namespace: the given
    attributes are overridden, every other lookup goes to the module."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans and counters for one benchmark run.

    ``install`` patches the corrinv modules and ``uninstall`` restores them,
    so traced and untraced invocations can alternate in one process.
    """

    def __init__(self):
        # (id, parent id or -1, invocation, name, t0, t1)
        self.spans = []
        # invocation -> counter name -> value
        self.counters = defaultdict(lambda: defaultdict(int))
        # invocation -> set of (domain, n) keys seen by build_rectangle_mesh
        self.meshes = defaultdict(set)
        self.invocation = -1
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)``
        runs once the span has closed, to update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.invocation, name, t0, t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def run(self, invocation, fn, *args):
        """Call ``fn(*args)`` under the root span of one invocation."""
        self.invocation = invocation
        return self.wrap(ROOT_SPAN, fn)(*args)

    def count(self, name, value):
        self.counters[self.invocation][name] += value

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for layer in TRACED_FUNCTIONS:
            importlib.import_module(f"corrinv.{layer}")
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None
                      and (n == "corrinv" or n.startswith("corrinv."))]
        after = {
            "forward.solve_forward": self._after_solve,
            "geometry.build_rectangle_mesh": self._after_mesh,
        }
        for layer, names in TRACED_FUNCTIONS.items():
            home = sys.modules[f"corrinv.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                span = f"{layer}.{fname}"
                if span == "csvio.write_csv":
                    wrapper = self.wrap(span, self._counting_rows(orig))
                else:
                    wrapper = self.wrap(span, orig, after.get(span))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._set(ns, attr, wrapper)

        cont = sys.modules["corrinv.continuation"]
        for cls_name in BASIS_CLASSES:
            cls = getattr(cont, cls_name)
            for meth in ("eval", "grad"):
                self._set(cls, meth, self.wrap("continuation.basis_eval",
                                               vars(cls)[meth]))
        np_ = cont.np
        self._set(cont, "np", _ModuleStandIn(np_, linalg=_ModuleStandIn(
            np_.linalg, svd=self.wrap("continuation.svd", np_.linalg.svd))))

        fwd = sys.modules["corrinv.forward"]
        self._set(fwd, "spla", _ModuleStandIn(fwd.spla, spsolve=self.wrap(
            "forward.spsolve", fwd.spla.spsolve)))

        exp = sys.modules["corrinv.experiments"]
        self._set(exp, "spsolve",
                  self.wrap("experiments.lift_spsolve", exp.spsolve))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _after_solve(self, args, kwargs, result):
        self.count("forward.newton_iterations", result[1].iterations)

    def _after_mesh(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.meshes[self.invocation].add(
            (spec.vertices.tobytes(), tuple(t.value for t in spec.side_tags),
             int(n)))

    def _counting_rows(self, write_csv):
        @functools.wraps(write_csv)
        def counted(path, header, rows):
            rows = list(rows)
            self.count("csvio.write_csv.rows", len(rows))
            return write_csv(path, header, rows)

        return counted

    # -- results -----------------------------------------------------------

    def per_invocation(self):
        """invocation -> span name -> (calls, self seconds)."""
        child_time = defaultdict(float)
        for sid, parent, inv, name, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for sid, parent, inv, name, t0, t1 in self.spans:
            entry = out[inv][name]
            entry[0] += 1
            entry[1] += (t1 - t0) - child_time[sid]
        return out

    def write(self, path):
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0][4] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, inv, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "invocation": inv,
                    "name": name, "start_s": t0 - origin,
                    "end_s": t1 - origin}) + "\n")
