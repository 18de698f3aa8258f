"""Span tracing of ginlab's layers, installed from outside the library.

A :class:`Tracer` wraps each function in :data:`TARGETS` and records one
span per call: name, start, end, parent span and job id.  Spans stay in
memory and are written out by :meth:`Tracer.write_spans` when the run ends.

Installation replaces the original object under every name that refers to
it in any loaded ``ginlab.*`` module (``partial_elim`` imports
``apply_change`` from ``gin``, for example) and patches methods on their
class, then checks that no reference to an original is left behind.
Per-scalar and per-monomial helpers (``fields.*``, ``rings.mono_*``,
``orders.sort_key``, ``Polynomial.__mul__``) are deliberately not wrapped:
they run millions of times per job, so their cost shows in their callers'
self time instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time

FP = ("fp",)
EXACT = ("exact",)
BOTH = ("fp", "exact")

#: (module, attribute, workloads) of every wrapped function.  The span name
#: is the module's short name plus the attribute (``linalg.Echelon.add``);
#: the workloads are those on which the layer is predicted to move
#: ``wall_s``, and a traced run there fails if the function is never called.
TARGETS = (
    ("ginlab.cli", "run", BOTH),
    ("ginlab.gin", "gin", FP),
    ("ginlab.gin", "apply_change", FP),
    ("ginlab.poly", "Polynomial.substitute", FP),
    ("ginlab.groebner", "buchberger", BOTH),
    ("ginlab.groebner", "Ideal.groebner_basis", BOTH),
    ("ginlab.groebner", "reduce_groebner_basis", FP),
    ("ginlab.groebner", "normal_form", FP),
    ("ginlab.partial_elim", "partial_elim_ideals", FP),
    ("ginlab.partial_elim", "count_distinct_points", FP),
    ("ginlab.points", "vanishing_ideal", BOTH),
    ("ginlab.points", "evaluation_matrix", BOTH),
    ("ginlab.linalg", "Echelon.add", BOTH),
    ("ginlab.linalg", "kernel_basis", BOTH),
    ("ginlab.linalg", "rref", BOTH),
    ("ginlab.linalg", "det", BOTH),
    ("ginlab.sylvester", "maximal_minors", FP),
    ("ginlab.sylvester", "unit_reduce", FP),
    ("ginlab.monomial_ideals", "hilbert_data", EXACT),
    ("ginlab.monomial_ideals", "is_borel_fixed", EXACT),
    ("ginlab.segments", "segment_ideal_of", EXACT),
    ("ginlab.segments", "enumerate_borel_by_hf", EXACT),
    ("ginlab.segments", "verify_weight_witness", EXACT),
    ("ginlab.segments", "segment_witness", EXACT),
    ("ginlab.fourier_motzkin", "feasible_point", EXACT),
)


def span_name(module, attr):
    return module.split(".", 1)[1] + "." + attr


def _digits(weights):
    return max(len(str(abs(int(w)))) for w in weights)


#: Per-span counters taken from a call's arguments and result:
#: span name -> (counter name, function(args, result) -> number).
#: ``max_weight_digits`` keeps the maximum; every other counter is summed.
_COUNTERS = {
    "gin.gin": ("trials", lambda args, r: r.trials_used),
    "groebner.buchberger": ("basis_size", lambda args, r: len(r)),
    "points.vanishing_ideal": ("generators", lambda args, r: len(r.generators)),
    "linalg.Echelon.add": ("independent", lambda args, r: 1 if r else 0),
    "segments.segment_witness": (
        "max_weight_digits", lambda args, r: 0 if r is None else _digits(r.weights)),
    "fourier_motzkin.feasible_point": ("constraints_in", lambda args, r: len(args[0])),
}


class LayerStats:
    """Calls, outermost total time, self time and counters of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, origin):
        self.origin = origin  # perf_counter value that span times count from
        self.job = None
        self.spans = []  # (id, name, start, end, parent id, job)
        self.stats = {}  # span name -> LayerStats, for the current pass
        self.gb_calls_hit = 0  # groebner_basis calls that ran no buchberger
        self._stack = []  # open spans: [id, name, start, child seconds, ran buchberger]
        self._depth = {}  # span name -> open spans of that name
        self._originals = []  # (owner, attribute, original) of each replaced name
        self._wrappers = {}

    # -- installation ----------------------------------------------------

    def _resolve(self, module, attr):
        owner = sys.modules[module]
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        return owner, path[-1]

    def install(self):
        """Wrap every target under every name that refers to it."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ginlab" or n.startswith("ginlab.")]
        for module, attr, _ in TARGETS:
            owner, leaf = self._resolve(module, attr)
            original = owner.__dict__[leaf]
            name = span_name(module, attr)
            wrapper = self._wrappers.get(name)
            if wrapper is None:
                wrapper = self._wrappers[name] = self._wrap(name, original)
            owners = [owner] + [m for m in modules if m is not owner]
            for candidate in owners:
                for key, value in list(vars(candidate).items()):
                    if value is original:
                        setattr(candidate, key, wrapper)
                        self._originals.append((candidate, key, original))
        self._check_no_original_left(modules)

    def _check_no_original_left(self, modules):
        originals = {id(o) for _, _, o in self._originals}
        for module in modules:
            scopes = [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__ == module.__name__]
            for scope in scopes:
                for key, value in vars(scope).items():
                    if id(value) in originals:
                        raise RuntimeError(
                            f"{scope.__name__}.{key} still refers to an unwrapped target")

    def uninstall(self):
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                self._count(name, counter[0], counter[1](args, result))
            return result

        return wrapper

    def _open(self, name):
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter(), 0.0, False])
        self._depth[name] = self._depth.get(name, 0) + 1

    def _close(self):
        end = time.perf_counter()
        sid, name, start, child_s, ran_buchberger = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
            if name == "groebner.buchberger":
                parent[4] = True
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        stats.calls += 1
        stats.self_s += duration - child_s
        if self._depth[name] == 0:  # recursion counts once in total time
            stats.total_s += duration
        if name == "groebner.Ideal.groebner_basis" and not ran_buchberger:
            self.gb_calls_hit += 1
        self.spans.append((sid, name, start - self.origin, end - self.origin,
                           parent[0] if parent is not None else None, self.job))

    def _count(self, name, counter, value):
        counters = self.stats[name].counters
        if counter.startswith("max_"):
            counters[counter] = max(counters.get(counter, 0), value)
        else:
            counters[counter] = counters.get(counter, 0) + value

    def take_stats(self):
        """Return and reset the per-name statistics of the current pass."""
        stats, hits = self.stats, self.gb_calls_hit
        self.stats, self.gb_calls_hit = {}, 0
        return stats, hits

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")
