"""Per-layer spans and work counters, wrapped around the program from outside.

`Tracer` replaces each public function named in LAYERS by a timing wrapper in
every loaded `orbifold_hkr` module that holds it (functions imported by name,
such as `hkr.conjugacy_classes`, are rebound too) and puts the originals back
when it exits.  A function the program no longer has is skipped, so its
metrics are absent rather than an error.

For each wrapped `<module>.<function>` it records inclusive seconds (`.s`),
inclusive seconds minus the time spent in other wrapped functions it called
(`.self_s`) and the number of calls (`.calls`), plus the counters in COUNTERS,
read from the arguments and results of the wrapped calls.
"""

import sys
from math import comb
from time import perf_counter

PACKAGE = "orbifold_hkr"

LAYERS = {
    "exact": ("mat_mul", "mat_inv", "mat_det", "rref", "elementary_symmetric",
              "det_series_factor", "smith_normal_form"),
    "groups": ("generate", "element_order", "conjugacy_classes"),
    "sectors": ("build_sector",),
    "hkr": ("full_report", "sector_hh_series", "sector_hhcoh_series",
            "oracle_verdict", "brute_force_invariants"),
    "wps": ("inertia_components", "hh_vector"),
    "circle": ("fiber_dimension", "central_complex", "generic_fiber_homology",
               "gamma_homology", "cover_homology"),
    "cli": ("parse_jobspec", "render_json"),
}

SPAN_SUFFIXES = ("s", "self_s", "calls")

# counter -> the wrapped function it is read from
COUNTERS = {
    "groups.order": "groups.generate",
    "groups.classes": "groups.conjugacy_classes",
    "groups.centralizer_sum": "groups.conjugacy_classes",
    "exact.det_series_factor.distinct": "exact.det_series_factor",
    "exact.rref.cells": "exact.rref",
    "hkr.oracle_basis.max": "hkr.brute_force_invariants",
    "hkr.oracle_basis.sum": "hkr.brute_force_invariants",
}

# facts of one job, read whenever the call recurs and added up at end_job:
# the CLI enumerates the classes of one group several times per job
_PER_JOB = ("groups.order", "groups.classes", "groups.centralizer_sum")


def metric_names():
    """Every per-layer metric a traced run can report, in report order."""
    names = ["%s.%s.%s" % (module, fn, suffix)
             for module, fns in LAYERS.items() for fn in fns
             for suffix in SPAN_SUFFIXES]
    return names + list(COUNTERS) + ["trace.overhead_s"]


def oracle_basis_dim(sector, p, d, mode):
    """Basis size of brute_force_invariants(sector, p, d, mode): monomials of
    the Sym degree in f variables times the p-subsets of f."""
    f = sector.fixed_dim
    deg = d - p if mode == "forms" else d
    if p < 0 or p > f or deg < 0:
        return 0
    monomials = comb(deg + f - 1, f - 1) if f else int(deg == 0)
    return monomials * comb(f, p)


class Tracer:
    """Context manager: wraps the layers on entry, restores them on exit."""

    def __init__(self):
        self.spans = {}          # "<module>.<fn>" -> [inclusive, self, calls]
        self.counters = {}
        self.broken = set()      # counters whose probe no longer fits
        self._stack = []         # child seconds of each open wrapped call
        self._job = {}
        self._distinct = set()
        self._bindings = []      # (module, attribute, original)

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for module, fns in LAYERS.items():
            home = sys.modules.get("%s.%s" % (PACKAGE, module))
            for fn in fns:
                original = getattr(home, fn, None)
                if not callable(original):
                    continue
                name = "%s.%s" % (module, fn)
                self.spans[name] = [0.0, 0.0, 0]
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._bindings.append((m, attr, original))
        for counter, source in COUNTERS.items():
            if source in self.spans:
                self.counters[counter] = 0
        return self

    def __exit__(self, *exc):
        while self._bindings:
            m, attr, original = self._bindings.pop()
            setattr(m, attr, original)
        return False

    def _wrap(self, name, fn):
        record = self.spans[name]
        stack = self._stack
        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                record[0] += elapsed
                record[1] += elapsed - child
                record[2] += 1
                if stack:
                    stack[-1] += elapsed
            if probe is not None:
                try:
                    probe(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError,
                        KeyError):
                    self.broken.update(c for c, s in COUNTERS.items()
                                       if s == name)
            return result

        return wrapper

    def _probe_groups_generate(self, args, kwargs, G):
        self._job["groups.order"] = G.order

    def _probe_groups_conjugacy_classes(self, args, kwargs, classes):
        self._job["groups.classes"] = len(classes)
        self._job["groups.centralizer_sum"] = sum(len(c.centralizer)
                                                  for c in classes)

    def _probe_exact_det_series_factor(self, args, kwargs, series):
        self._distinct.add(series)

    def _probe_exact_rref(self, args, kwargs, result):
        A = args[0] if args else kwargs["A"]
        self.counters["exact.rref.cells"] += len(A) * (len(A[0]) if A else 0)

    def _probe_hkr_brute_force_invariants(self, args, kwargs, result):
        dim = oracle_basis_dim(*args, **kwargs)
        self.counters["hkr.oracle_basis.sum"] += dim
        self.counters["hkr.oracle_basis.max"] = max(
            self.counters["hkr.oracle_basis.max"], dim)

    def end_job(self):
        """Fold the facts of the job that just ran into the counters."""
        for key in _PER_JOB:
            if key in self.counters:
                self.counters[key] += self._job.get(key, 0)
        if "exact.det_series_factor.distinct" in self.counters:
            self.counters["exact.det_series_factor.distinct"] += len(self._distinct)
        self._job = {}
        self._distinct = set()

    def metrics(self):
        """{metric name: value} for every function and counter still present."""
        out = {}
        for name, (inclusive, own, calls) in self.spans.items():
            out[name + ".s"] = inclusive
            out[name + ".self_s"] = own
            out[name + ".calls"] = calls
        for counter, value in self.counters.items():
            if counter not in self.broken:
                out[counter] = value
        return out
