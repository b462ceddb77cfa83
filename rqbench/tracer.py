"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces the public functions of each robustquota module
(and scipy's `linprog`, the HiGHS sub-layer) with wrappers that record a span
and the layer's counters, everywhere the package binds them; leaving the
context restores the originals.  Spans are kept in memory as parallel lists:
name, start, end, parent span and item id.  A layer's self time is its span's
duration minus the time its child spans cover.

`Tracer.memory_installed()` wraps only the calls whose peak allocation is
reported, under `tracemalloc`, so that allocation tracing never inflates the
timed spans.
"""

import contextlib
import json
import sys
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict

import numpy as np

#: layer -> public names traced in it; (class, attribute) pairs are methods.
#: Names that a later version of the package no longer has are skipped.
TRACED = {
    "payoffs": [("PayoffSpec", "u1"), ("PayoffSpec", "u0"),
                ("PayoffSpec", "indirect"), "indirect_utility"],
    "mechanisms": ["adjusted_profiles", "mechanism_adjusted"],
    "checks": ["one_shot_level", "one_shot_levels", "pseudo_inverse_belief",
               "check_assumptions", "risk_ratio_condition"],
    "processes": ["binomial_tree", "random_tree", "no_learning",
                  "full_revelation", "single_split",
                  ("DiscreteLearningProcess", "__init__")],
    "stopping": ["solve_stopping", "principal_value", "agent_value", "simulate"],
    "badnews": ["obedience_check", "obedience_slacks", "effective_end",
                ("BadNewsProcess", "to_process")],
    "adversary": ["solve_badnews_lp", "indifference_G", "dual_certificate",
                  "tree_oracle_worst_case", "principal_prefers_earlier",
                  "stop_rule_at_zero", "badnews_value", "payoff_gap"],
    "simplex": ["solve_lp"],
    "robust": ["compute_robust", "compute_joint_robust", "verify_guarantee",
               "surplus_curve"],
    "adaptive": ["solve_adaptive_quota", "refine_process", "evaluate_adaptive"],
}
#: span names of methods, where the attribute name alone says little
SPAN_NAMES = {("processes", "__init__"): "processes.validate"}
HIGHS = "adversary.highs"
ITEM = "bench.item"
#: calls whose tracemalloc peak is reported as <span>.peak_mb
MEMORY_SPANS = ("adversary.solve_badnews_lp", "adaptive.refine_process")
MB = 1e6


def _matrix_bytes(a):
    """Bytes of an LP constraint matrix as passed to a solver (computed from
    its arrays, dense or sparse)."""
    if a is None:
        return 0
    if hasattr(a, "indptr"):
        return int(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)
    return int(np.asarray(a, dtype=float).nbytes)


def _kernel_bytes(proc):
    return sum(_matrix_bytes(k) for k in proc.kernels)


def _arg(args, kwargs, pos, name):
    """A call's argument by keyword or position; None when not passed."""
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_highs(t, args, kwargs, res):
    t.counts["adversary.highs.nit"] += int(getattr(res, "nit", 0) or 0)
    t.lp_matrix(args, kwargs)


def _count_simplex(t, args, kwargs, res):
    t.counts["simplex.pivots"] += int(res.n_iter)
    t.lp_matrix(args, kwargs)


def _count_oracle(t, args, kwargs, res):
    t.counts["adversary.oracle_lps"] += int(res.n_lps)


def _count_indifference(t, args, kwargs, res):
    t.counts["adversary.indifference_fallbacks"] += int(bool(res.used_lp_fallback))


def _count_simulate(t, args, kwargs, res):
    t.counts["stopping.simulate.paths"] += int(_arg(args, kwargs, 2, "n_paths"))


def _count_refine(t, args, kwargs, res):
    t.counts["adaptive.refined_nodes"] += sum(len(b) for b in res.beliefs)


def _count_process(t, args, kwargs, res):
    # args[0] is the process being constructed
    t.peak("processes.kernel_mb", _kernel_bytes(args[0]) / MB)


COUNTERS = {
    HIGHS: _count_highs,
    "simplex.solve_lp": _count_simplex,
    "adversary.tree_oracle_worst_case": _count_oracle,
    "adversary.indifference_G": _count_indifference,
    "stopping.simulate": _count_simulate,
    "adaptive.refine_process": _count_refine,
    "processes.validate": _count_process,
}


def layer_of(span_name):
    return HIGHS if span_name == HIGHS else span_name.split(".")[0]


def _targets():
    """(span name, owner, attribute, original) for every traced callable."""
    import scipy.optimize
    out = []
    for layer, names in TRACED.items():
        mod = sys.modules.get(f"robustquota.{layer}")
        if mod is None:
            continue
        for entry in names:
            if isinstance(entry, tuple):
                cls = getattr(mod, entry[0], None)
                if cls is None or entry[1] not in vars(cls):
                    continue
                span = SPAN_NAMES.get((layer, entry[1]), f"{layer}.{entry[1]}")
                out.append((span, cls, entry[1], vars(cls)[entry[1]]))
            elif callable(getattr(mod, entry, None)):
                out.append((f"{layer}.{entry}", None, entry, getattr(mod, entry)))
    out.append((HIGHS, None, "linprog", scipy.optimize.linprog))
    return out


@contextlib.contextmanager
def _installed(wrap):
    """Bind `wrap(span, original)` in place of every traced callable -- methods
    on their class, functions wherever a robustquota module (or
    scipy.optimize, for linprog) holds them -- and restore on exit."""
    import scipy.optimize
    undo = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "robustquota"
                                     or name.startswith("robustquota."))]
    try:
        for span, owner, attr, orig in _targets():
            wrapper = wrap(span, orig)
            if wrapper is None:
                continue
            if owner is not None:
                holders = [(owner, attr)]
            else:
                extra = [scipy.optimize] if span == HIGHS else []
                holders = [(mod, key) for mod in modules + extra
                           for key, val in list(vars(mod).items()) if val is orig]
            for holder, key in holders:
                undo.append((holder, key, getattr(holder, key)))
                setattr(holder, key, wrapper)
        yield
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)


class Tracer:
    """Spans, counters and warning counts of the traced passes of one run."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.items = [], []
        self.stack = []
        self.item = None
        self.counts = Counter()
        self.maxima = {}
        self.warnings = Counter()

    # -- recording ------------------------------------------------------
    def open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.items.append(self.item)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def lp_matrix(self, args, kwargs):
        """Largest constraint matrix handed to an LP solver, with the
        signature (c, A_ub, b_ub, A_eq, b_eq) shared by both solvers."""
        nbytes = (_matrix_bytes(_arg(args, kwargs, 1, "A_ub"))
                  + _matrix_bytes(_arg(args, kwargs, 3, "A_eq")))
        self.peak("adversary.lp_matrix_mb", nbytes / MB)

    def warning(self, category):
        """Attribute a warning to the layer of the innermost open span."""
        layer = layer_of(self.names[self.stack[-1]]) if self.stack else "bench"
        self.warnings[(layer, category.__name__)] += 1

    # -- installation ---------------------------------------------------
    def _wrap_span(self, span, fn):
        count = COUNTERS.get(span)

        def wrapper(*args, **kwargs):
            sid = self.open(span)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(self, args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_memory(self, span, fn):
        if span not in MEMORY_SPANS:
            return None

        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                current, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peak(f"{span}.peak_mb", peak / MB)

        wrapper.__wrapped__ = fn
        return wrapper

    def installed(self):
        return _installed(self._wrap_span)

    def memory_installed(self):
        return _installed(self._wrap_memory)

    # -- reduction ------------------------------------------------------
    def span_table(self, first=0):
        """Per span name: calls, inclusive seconds and self seconds, over the
        spans recorded from index `first` on."""
        n = len(self.names)
        dur = np.array(self.ends[first:n]) - np.array(self.starts[first:n])
        child = np.zeros(n - first)
        for i in range(first, n):
            p = self.parents[i]
            if p >= first:
                child[p - first] += dur[i - first]
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(first, n):
            row = table[self.names[i]]
            row[0] += 1
            row[1] += dur[i - first]
            row[2] += dur[i - first] - child[i - first]
        return dict(table)

    def dump(self, path, meta):
        with open(path, "w") as f:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent", "item"],
                       "spans": list(zip(self.names, self.starts, self.ends,
                                         self.parents, self.items))}, f)


def count_warnings(counter, tracer):
    """Count every warning in `counter` (and under the tracer's current
    layer) instead of printing it, for the rest of the process."""
    warnings.simplefilter("always")

    def show(message, category, filename, lineno, file=None, line=None):
        counter[category.__name__] += 1
        if tracer.stack:
            tracer.warning(category)

    warnings.showwarning = show
