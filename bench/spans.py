"""Per-module spans for the benchmark's traced runs.

Spans are taken from outside the program: every public function of every
gwbounds module is replaced, in each module namespace that binds it, by a
wrapper that times the call. ``genetics.binom`` and ``genetics.np.linalg.solve``
are proxied so the Wright-Fisher transition matrix and the dense solve get
spans of their own. Untraced runs never call ``install``.

A span's inclusive time is counted only at the outermost call of a name; its
self time is the inclusive time less the time of the spans it encloses.
"""

from __future__ import annotations

import importlib
import inspect
import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

from workloads import WF_N

MODULES = ("specfun", "pgf_core", "fl_bounds", "sinf_estimates", "classify_f3",
           "classify_gp", "genetics", "cli")

# A traced CLI child appends its span totals to its stdout after this line.
TRACE_MARK = "\n@@gwbench-trace@@"

# (outer span, inner span): counts of the inner calls made inside the outer.
NESTED = (("pgf_core.extinction_probability", "pgf_core.pgf_eval"),
          ("fl_bounds.t_eps_exact", "pgf_core.pgf_eval"),
          ("classify_gp.gp_thresholds", "pgf_core.extinction_probability"))


def split_trace(stdout):
    """(the CLI's own output, the span totals appended after it or None)."""
    head, mark, tail = stdout.partition(TRACE_MARK)
    return head, (json.loads(tail) if mark else None)


class Tracer:
    """Spans and counts of the wrapped functions, kept in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.nested = defaultdict(int)
        self.peak_alloc = 0
        self._stack = []  # [name, time of enclosed spans]
        self._depth = defaultdict(int)
        self._undo = []

    def span(self, name, fn, split=None):
        inner_of = {inner for _, inner in NESTED}
        watch = name in inner_of
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            key = name if split is None else f"{name}.{split(*args, **kwargs)}"
            if watch:
                for outer, inner in NESTED:
                    if inner == name and depth[outer]:
                        self.nested[(outer, inner)] += 1
            frame = [key, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[name] -= 1
                stack.pop()
                self.calls[key] += 1
                self.self_[key] += dt - frame[1]
                if not depth[name]:
                    self.incl[key] += dt
                if stack:
                    stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, obj, attr, value):
        """Set obj.attr to value until uninstall()."""
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, g):
        """Wrap the public functions of gwbounds and proxy the genetics
        dependencies."""
        mods = [importlib.import_module(f"gwbounds.{m}") for m in MODULES]
        wrappers = {}
        for mod in [g] + mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("gwbounds."):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(name, obj)
                self.patch(mod, attr, wrappers[obj])
        genetics = importlib.import_module("gwbounds.genetics")
        self.patch(genetics, "binom", _Proxy(genetics.binom, pmf=self.span(
            "genetics.wf_transition", genetics.binom.pmf)))
        self.patch(genetics, "np", _Proxy(genetics.np, linalg=_Proxy(
            genetics.np.linalg, solve=self.span("genetics.wf_solve",
                                                genetics.np.linalg.solve))))

    def _wrap(self, name, fn):
        if name == "genetics.wf_fixation_exact":
            return self.span(name, self._alloc_peak(fn), split=lambda wf: f"N{wf.pop_size}")
        return self.span(name, fn)

    def _alloc_peak(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def totals(self):
        """Plain-data totals, to add up across processes."""
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_),
                "nested": {f"{o}>{i}": v for (o, i), v in self.nested.items()},
                "peak_alloc": self.peak_alloc}


class _Proxy:
    """Forwards every attribute to the wrapped object except the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def merge(into, part):
    for field in ("calls", "incl", "self", "nested"):
        for k, v in part[field].items():
            into[field][k] = into[field].get(k, 0) + v
    into["peak_alloc"] = max(into["peak_alloc"], part["peak_alloc"])
    for k, v in part.get("cli", {}).items():
        into.setdefault("cli", {})
        into["cli"][k] = into["cli"].get(k, 0.0) + v


def empty():
    return {"calls": {}, "incl": {}, "self": {}, "nested": {}, "peak_alloc": 0}


# Per-layer metrics: (span, kinds), kind one of calls, ms (with the matching
# self_ms) or a nested count per call (see NESTED).
SPAN_METRICS = (
    ("pgf_core.pgf_eval", ("calls", "ms")),
    ("pgf_core.survival_curve", ("ms",)),
    ("pgf_core.iterate_extinction", ("ms",)),
    ("pgf_core.extinction_probability", ("calls", "ms", "evals_per_call")),
    ("specfun.lambert_w0", ("calls", "ms")),
    ("specfun.exp_e1", ("calls", "ms")),
    ("fl_bounds.t_eps_exact", ("calls", "ms", "evals_per_call")),
    ("fl_bounds.bound_direction", ("ms",)),
    ("fl_bounds.sign_scan", ("ms",)),
    ("fl_bounds.switch_generation", ("ms",)),
    ("sinf_estimates.sinf_bounds_all", ("calls", "ms")),
    ("classify_gp.gp_thresholds", ("calls", "ms", "extinction_solves_per_call")),
    ("classify_f3.classify_f3", ("calls", "ms")),
    ("genetics.vg_tau", ("ms",)),
    ("genetics.vg_inf", ("ms",)),
)
IMPORT_METRICS = ("import.gwbounds_ms", "import.scipy_ms", "import.numpy_ms")
CLI_METRICS = ("cli.parse_ms", "cli.compute_ms", "cli.render_ms")


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    out = [(m, "ms") for m in IMPORT_METRICS] + [(m, "ms") for m in CLI_METRICS]
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            if kind == "ms":
                out += [(f"{span}.ms", "ms"), (f"{span}.self_ms", "ms")]
            else:
                out.append((f"{span}.{kind}", "count"))
    out += [(f"genetics.wf_fixation_exact.N{n}.ms", "ms") for n in WF_N]
    out += [("genetics.wf_fixation_exact.self_ms", "ms"),
            ("genetics.wf_transition_ms", "ms"), ("genetics.wf_solve_ms", "ms"),
            ("genetics.wf_fixation_exact.peak_alloc_mb", "MB"),
            ("trace.overhead_pct", "%")]
    return out


def per_layer_values(t, imports, overhead_pct):
    """Metric values from merged totals t; times are totals over the traced
    operations, in ms."""
    calls, incl, self_, nested = t["calls"], t["incl"], t["self"], t["nested"]
    v = dict(imports)
    for m in CLI_METRICS:
        v[m] = t.get("cli", {}).get(m, 0.0)
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            if kind == "calls":
                v[f"{span}.calls"] = calls.get(span, 0)
            elif kind == "ms":
                v[f"{span}.ms"] = 1e3 * incl.get(span, 0.0)
                v[f"{span}.self_ms"] = 1e3 * self_.get(span, 0.0)
            else:
                inner = ("pgf_core.extinction_probability" if kind.startswith("extinction")
                         else "pgf_core.pgf_eval")
                n = calls.get(span, 0)
                v[f"{span}.{kind}"] = nested.get(f"{span}>{inner}", 0) / n if n else 0.0
    wf = "genetics.wf_fixation_exact"
    for n in WF_N:
        v[f"{wf}.N{n}.ms"] = 1e3 * incl.get(f"{wf}.N{n}", 0.0)
    v[f"{wf}.self_ms"] = 1e3 * sum(x for k, x in self_.items() if k.startswith(wf + "."))
    v["genetics.wf_transition_ms"] = 1e3 * incl.get("genetics.wf_transition", 0.0)
    v["genetics.wf_solve_ms"] = 1e3 * incl.get("genetics.wf_solve", 0.0)
    v[f"{wf}.peak_alloc_mb"] = t["peak_alloc"] / 2 ** 20
    v["trace.overhead_pct"] = overhead_pct
    return v
