"""Spans around calls into the package, recorded from outside it.

A traced process rebinds the names a calling module looks up (for example
`superpert.kolmogorov.eigh`) to wrappers that record a span: its name,
start, end and parent span.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans in a
window plus the window's unattributed time add up to the window's wall time.

Dense Hermitian eigendecompositions are also counted at their outermost
entry, whichever of the package's or numpy's/scipy's solvers is entered.
"""

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name): the binding a caller looks up at run time.
SPAN_BINDINGS = (
    ("superpert.kolmogorov", "init", "kolmogorov.init"),
    ("superpert.kolmogorov", "step", "kolmogorov.step"),
    ("superpert.kolmogorov", "eigh", "linalg.eigh.from_kolmogorov"),
    ("superpert.kolmogorov", "average", "averaging.average"),
    ("superpert.kolmogorov", "conjugate_series", "series.conjugate_series"),
    ("superpert.kolmogorov", "u_coefficients", "series.u_coefficients"),
    ("superpert.kolmogorov", "match_labels", "kolmogorov.match_labels"),
    ("superpert.series", "commutator_ad", "linalg.commutator_ad"),
    ("superpert.cli", "compute_report", "cli.compute_report"),
    ("superpert.cli", "render_report", "cli.render_report"),
    ("superpert.cli", "eigh", "linalg.eigh.from_cli"),
    ("superpert.cli", "run", "kolmogorov.run"),
    ("superpert.cli", "match_labels", "kolmogorov.match_labels"),
    ("superpert.cli", "rs_corrections", "rayleigh_schrodinger.rs_corrections"),
)

# Entry points of a dense Hermitian eigendecomposition.
DENSE_EIGH = (
    ("superpert", "eigh"),
    ("superpert.linalg", "eigh"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("scipy.linalg", "eigh"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._dense_depth = 0
        self.dense_eigh = 0
        self._restore = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def count_dense(self, fn):
        def counted(*args, **kwargs):
            if self._dense_depth == 0:
                self.dense_eigh += 1
            self._dense_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._dense_depth -= 1

        return counted

    def bind(self, target, key, name):
        """Record calls of `target.key` as spans `name` until uninstall()."""
        self._rebind(target, key, lambda fn: self.wrap(name, fn))

    def _rebind(self, target, key, make):
        if isinstance(target, dict):
            original = target[key]
            target[key] = make(original)
        else:
            original = getattr(target, key)
            setattr(target, key, make(original))
        self._restore.append((target, key, original))

    def install(self):
        """Wrap every known binding of the already-imported package."""
        importlib.import_module("superpert.cli")
        importlib.import_module("scipy.linalg")
        dense = {id(getattr(mod, attr)) for mod, attr in _present(DENSE_EIGH)}

        def span(name):
            def make(fn):
                inner = self.count_dense(fn) if id(fn) in dense else fn
                return self.wrap(name, inner)
            return make

        for mod, attr, name in _present(SPAN_BINDINGS):
            self._rebind(mod, attr, span(name))
        for mod, attr in _present(DENSE_EIGH):
            self._rebind(mod, attr, self.count_dense)
        builtins = sys.modules["superpert.models"].BUILTIN_MODELS
        for tag in list(builtins):
            self._rebind(builtins, tag, span("models.build"))

    def uninstall(self):
        while self._restore:
            target, key, original = self._restore.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def mark(self):
        """Position to summarize from: spans and dense count so far."""
        return len(self.spans), self.dense_eigh

    def summary(self, mark=(0, 0)):
        """Self time and calls per span name, the parent->child name edges,
        and the dense eigh count, over spans recorded since `mark`."""
        first, dense0 = mark
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        edges = set()
        for rec in spans:
            parent = rec[3] - first
            if parent >= 0:
                child_time[parent] += rec[2] - rec[1]
                edges.add((spans[parent][0], rec[0]))
            else:
                edges.add(("", rec[0]))
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for rec, inner in zip(spans, child_time):
            self_s[rec[0]] += (rec[2] - rec[1]) - inner
            calls[rec[0]] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "edges": sorted(list(e) for e in edges),
            "dense_eigh": self.dense_eigh - dense0,
        }


def wrapper_cost(n=20_000, repeats=5):
    """Seconds a span wrapper and a dense eigh counter each add to one
    call: n calls of a no-op with and without them, best of `repeats`."""
    probe = Tracer()

    def noop():
        return None

    def per_call(fn):
        best = float("inf")
        for _ in range(repeats):
            probe.spans.clear()
            start = time.perf_counter()
            for _ in range(n):
                fn()
            best = min(best, time.perf_counter() - start)
        return best / n

    bare = per_call(noop)
    return {
        "span": max(per_call(probe.wrap("probe", noop)) - bare, 0.0),
        "dense": max(per_call(probe.count_dense(noop)) - bare, 0.0),
    }


def _present(bindings):
    """(module object, attribute, ...) for the bindings this version has."""
    for module, attr, *rest in bindings:
        mod = sys.modules.get(module)
        if mod is not None and hasattr(mod, attr):
            yield (mod, attr, *rest)
