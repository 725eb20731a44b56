"""Per-layer tracing of nevlab from outside the package.

``install`` replaces public functions of nevlab with wrappers that record a
span per call, and wraps the evaluators returned by ``compile_expr`` and
``compile_log_abs``.  Nothing under ``src/`` changes.  A span's self time is
its duration minus the part covered by its child spans on the same thread;
spans keep one stack per thread, so work that runs on the ``--threads`` pool
is booked to its own layer.  Cache hit ratios are read from ``cache_info()``
of nevlab's own ``functools.cache`` tables.

Only worker processes of a traced run call ``install``; untraced runs keep
every nevlab function as it is.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# The reported per-layer metrics.  ``_s`` metrics are self times, except the
# phase times (theorems.resolve_s, theorems.rows_s, cli.load_spec_s), which
# are whole spans: their children are booked to their own layers, and rows
# run on pool threads.  cli.output_s is the self time of cli.main: argument
# parsing plus formatting and writing the report.
PER_LAYER = {
    "locator.find_zeros_s": "s", "locator.find_zeros_calls": "count",
    "locator.path_points": "count", "locator.polish_evals": "count",
    "locator.points_located": "count", "locator.invalid_divisors": "count",
    "locator.negotiate_attempts": "count",
    "expr.eval_s": "s", "expr.compile_calls": "count",
    "expr.compile_hit_ratio": "ratio", "expr.differentiate_calls": "count",
    "expr.differentiate_hit_ratio": "ratio", "expr.parse_s": "s",
    "nevanlinna.proximity_s": "s", "nevanlinna.proximity_calls": "count",
    "nevanlinna.quad_points": "count", "nevanlinna.quad_errors": "count",
    "nevanlinna.counting_s": "s",
    "exppoly.decide_s": "s", "exppoly.decide_calls": "count",
    "exppoly.canonical_quotient_s": "s",
    "exppoly.canonical_quotient_hit_ratio": "ratio",
    "exppoly.derivative_chain_s": "s",
    "diffpoly.apply_s": "s", "diffpoly.stats_s": "s",
    "theorems.resolve_s": "s", "theorems.rows_s": "s",
    "theorems.row_errors": "count", "theorems.perturbed_rows": "count",
    "cli.load_spec_s": "s", "cli.output_s": "s",
    "trace.overhead_s": "s",
}

# cached function -> the raw counters its hit ratio is built from
_CACHES = {"expr.compile": ("nevlab.expr", "compile_expr"),
           "expr.differentiate": ("nevlab.expr", "differentiate"),
           "exppoly.canonical_quotient": ("nevlab.exppoly",
                                          "canonical_quotient")}


class _ThreadState:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.active: defaultdict = defaultdict(int)
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(int)
        self.eval_depth = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._evaluators: dict = {}
        self._caches: dict = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def span(self, name: str, fn, after=None, on_error=None):
        """Wrap fn so that each call is a span called name.  after(state,
        args, result) and on_error(state, exc) add counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            frame = [0.0]
            st.stack.append(frame)
            st.active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(st, exc)
                raise
            finally:
                dt = perf_counter() - t0
                st.stack.pop()
                st.active[name] -= 1
                if st.stack:
                    st.stack[-1][0] += dt
                st.self_s[name] += dt - frame[0]
                if not st.active[name]:
                    st.total_s[name] += dt
                st.counts[name] += 1
            if after is not None:
                after(st, args, out)
            return out
        return wrapper

    def evaluator(self, fn):
        """Wrap a compiled evaluator.  Points are counted at the outermost
        evaluator only, so nested log-magnitude parts are not counted twice."""
        wrapped = self._evaluators.get(id(fn))
        if wrapped is not None:
            return wrapped

        def ev(z):
            st = self._state()
            frame = [0.0]
            st.stack.append(frame)
            st.eval_depth += 1
            t0 = perf_counter()
            try:
                return fn(z)
            finally:
                dt = perf_counter() - t0
                st.stack.pop()
                st.eval_depth -= 1
                if st.stack:
                    st.stack[-1][0] += dt
                st.self_s["expr.eval"] += dt - frame[0]
                if not st.eval_depth:
                    vector = np.ndim(z) > 0
                    if st.active["locator.find_zeros"]:
                        if vector:
                            st.counts["locator.path_points"] += np.size(z)
                        else:
                            st.counts["locator.polish_evals"] += 1
                    if st.active["nevanlinna.proximity"]:
                        st.counts["nevanlinna.quad_points"] += np.size(z)

        # ev holds fn, so the id stays unique while the entry exists.
        self._evaluators[id(fn)] = ev
        return ev

    def report(self) -> dict:
        """Raw per-process totals: times, counts, and cache hits/calls."""
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        counts: defaultdict = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for st in states:
            for table, part in ((self_s, st.self_s), (total_s, st.total_s),
                                (counts, st.counts)):
                for k, v in part.items():
                    table[k] += v
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits,
                            "calls": info.hits + info.misses}
        return {"self_s": dict(self_s), "total_s": dict(total_s),
                "counts": dict(counts), "caches": caches}


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics from raw totals summed over a pass's processes."""
    s, t, n = raw["self_s"], raw["total_s"], raw["counts"]
    caches = raw["caches"]

    def ratio(name):
        c = caches.get(name, {"hits": 0, "calls": 0})
        return c["hits"] / c["calls"] if c["calls"] else 0.0

    def calls(name):
        return caches.get(name, {"calls": 0})["calls"]

    return {
        "locator.find_zeros_s": s.get("locator.find_zeros", 0.0),
        "locator.find_zeros_calls": n.get("locator.find_zeros", 0),
        "locator.path_points": n.get("locator.path_points", 0),
        "locator.polish_evals": n.get("locator.polish_evals", 0),
        "locator.points_located": n.get("locator.points_located", 0),
        "locator.invalid_divisors": n.get("locator.invalid_divisors", 0),
        "locator.negotiate_attempts": n.get("locator.negotiate_attempts", 0),
        "expr.eval_s": s.get("expr.eval", 0.0),
        "expr.compile_calls": calls("expr.compile"),
        "expr.compile_hit_ratio": ratio("expr.compile"),
        "expr.differentiate_calls": calls("expr.differentiate"),
        "expr.differentiate_hit_ratio": ratio("expr.differentiate"),
        "expr.parse_s": s.get("expr.parse", 0.0),
        "nevanlinna.proximity_s": s.get("nevanlinna.proximity", 0.0),
        "nevanlinna.proximity_calls": n.get("nevanlinna.proximity", 0),
        "nevanlinna.quad_points": n.get("nevanlinna.quad_points", 0),
        "nevanlinna.quad_errors": n.get("nevanlinna.quad_errors", 0),
        "nevanlinna.counting_s": s.get("nevanlinna.counting", 0.0),
        "exppoly.decide_s": s.get("exppoly.decide", 0.0),
        "exppoly.decide_calls": n.get("exppoly.decide", 0),
        "exppoly.canonical_quotient_s":
            s.get("exppoly.canonical_quotient", 0.0),
        "exppoly.canonical_quotient_hit_ratio":
            ratio("exppoly.canonical_quotient"),
        "exppoly.derivative_chain_s": s.get("exppoly.derivative_chain", 0.0),
        "diffpoly.apply_s": s.get("diffpoly.apply", 0.0),
        "diffpoly.stats_s": s.get("diffpoly.stats", 0.0),
        "theorems.resolve_s": t.get("theorems.resolve", 0.0),
        "theorems.rows_s": t.get("theorems.rows", 0.0),
        "theorems.row_errors": n.get("theorems.row_errors", 0),
        "theorems.perturbed_rows": n.get("theorems.perturbed_rows", 0),
        "cli.load_spec_s": t.get("cli.load_spec", 0.0),
        "cli.output_s": s.get("cli.main", 0.0),
    }


def merge_raw(parts: list[dict]) -> dict:
    """Sum raw per-process totals."""
    out = {"self_s": defaultdict(float), "total_s": defaultdict(float),
           "counts": defaultdict(int), "caches": {}}
    for raw in parts:
        for key in ("self_s", "total_s", "counts"):
            for k, v in raw[key].items():
                out[key][k] += v
        for name, c in raw["caches"].items():
            acc = out["caches"].setdefault(name, {"hits": 0, "calls": 0})
            acc["hits"] += c["hits"]
            acc["calls"] += c["calls"]
    return out


# ---------------------------------------------------------------------------
# installation

def _rebind(original, replacement) -> None:
    """Point every nevlab module attribute bound to original at replacement,
    so calls through ``from .x import f`` bindings are traced too."""
    for name, mod in list(sys.modules.items()):
        if name != "nevlab" and not name.startswith("nevlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap nevlab's public functions for one traced worker process."""
    import nevlab.cli as cli
    import nevlab.diffpoly as diffpoly
    import nevlab.exppoly as exppoly
    import nevlab.expr as expr
    import nevlab.locator as locator
    import nevlab.nevanlinna as nevanlinna
    import nevlab.theorems as theorems

    for name, (mod, attr) in _CACHES.items():
        tracer._caches[name] = getattr(sys.modules[mod], attr)

    def compiler(name, fn):
        inner = tracer.span(name, fn)

        def compile_and_wrap(e):
            return tracer.evaluator(inner(e))
        return functools.wraps(fn)(compile_and_wrap)

    def found(st, args, divisor):
        st.counts["locator.points_located"] += len(divisor.points)
        if not divisor.valid:
            st.counts["locator.invalid_divisors"] += 1

    negotiate = locator.negotiate

    def counted_negotiate(r, attempt):
        def counted(rt):
            tracer._state().counts["locator.negotiate_attempts"] += 1
            return attempt(rt)
        return negotiate(r, counted)

    def quad_error(st, exc):
        if isinstance(exc, nevanlinna.QuadratureError):
            st.counts["nevanlinna.quad_errors"] += 1

    def rows(st, args, report):
        st.counts["theorems.row_errors"] += sum(
            w.error is not None for w in report.rows)
        st.counts["theorems.perturbed_rows"] += sum(
            w.perturbed_r for w in report.rows)

    functions = [
        (expr.compile_expr, compiler("expr.compile", expr.compile_expr)),
        (nevanlinna.compile_log_abs,
         compiler("nevanlinna.compile_log_abs", nevanlinna.compile_log_abs)),
        (expr.parse_expr, tracer.span("expr.parse", expr.parse_expr)),
        (expr.differentiate,
         tracer.span("expr.differentiate", expr.differentiate)),
        (exppoly.is_identically_zero,
         tracer.span("exppoly.decide", exppoly.is_identically_zero)),
        (exppoly.is_constant,
         tracer.span("exppoly.decide", exppoly.is_constant)),
        (exppoly.canonical_quotient,
         tracer.span("exppoly.canonical_quotient",
                     exppoly.canonical_quotient)),
        (exppoly.derivative_chain,
         tracer.span("exppoly.derivative_chain", exppoly.derivative_chain)),
        (locator.find_zeros,
         tracer.span("locator.find_zeros", locator.find_zeros, after=found)),
        (locator.negotiate, counted_negotiate),
        (nevanlinna.proximity,
         tracer.span("nevanlinna.proximity", nevanlinna.proximity,
                     on_error=quad_error)),
        (nevanlinna.counting,
         tracer.span("nevanlinna.counting", nevanlinna.counting)),
        (nevanlinna.nevanlinna_rows,
         tracer.span("nevanlinna.rows", nevanlinna.nevanlinna_rows)),
        (theorems.run_check,
         tracer.span("theorems.run_check", theorems.run_check, after=rows)),
        (cli.load_spec, tracer.span("cli.load_spec", cli.load_spec)),
        (cli.main, tracer.span("cli.main", cli.main)),
    ]
    for original, replacement in functions:
        _rebind(original, replacement)
    # The row phase of a check; nevanlinna_rows' own map_radii is left alone
    # because its rows are already inside the nevanlinna.rows span.
    theorems.map_radii = tracer.span("theorems.rows", theorems.map_radii)
    for cls, attr, name in ((diffpoly.DiffPolynomial, "apply",
                             "diffpoly.apply"),
                            (diffpoly.DiffPolynomial, "stats",
                             "diffpoly.stats"),
                            (theorems.EvalContext, "resolve",
                             "theorems.resolve")):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr)))
