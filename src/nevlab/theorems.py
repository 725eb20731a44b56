"""Per-radius verification of value-distribution inequalities and identities.

Each named check compares a left and right hand side built from proximity and
counting functionals over a shared radius grid.  Inequalities are judged on
the normalized residual (lhs - rhs) / max(T(r, f), 1): for a true bound the
residual trends non-positive once the main terms dominate, so the verdict is
the median residual over the top quartile of radii against a small epsilon.
Identity checks instead require |lhs - rhs| below an absolute tolerance on
every row.

Rows come from nevanlinna.EvalContext.rows, as `nev` rows do: all divisors
a check needs are located once at one negotiated radius just beyond the
largest grid point, and each row runs at a radius cleared against all their
moduli, so the log terms of different counting functions cancel exactly in
identities instead of fighting over mismatched rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .diffpoly import (HYPOTHESIS_CHECKS, DiffMonomial, DiffPolynomial,
                       as_expr, as_int, contains_exponential,
                       validate_hypotheses)
from .exppoly import (Constancy, ZeroVerdict, derivative_chain, is_constant,
                      is_identically_zero)
from .expr import Const, Expr, ONE, differentiate, div, mul, sub
from .nevanlinna import CountingMode, EvalContext, counting, default_radii

__all__ = [
    "CheckRow", "CheckReport", "EvalContext", "TooFewRowsError",
    "run_check", "verdict", "CHECKS", "DEFAULT_EPSILON",
    "DEFAULT_EQ_TOLERANCE", "default_radii",
]

DEFAULT_EPSILON = 0.05
DEFAULT_EQ_TOLERANCE = 5e-3
MIN_ROWS = 8

_FULL = CountingMode.full()
_RED = CountingMode.reduced()


class TooFewRowsError(ValueError):
    """A verdict needs at least MIN_ROWS rows to mean anything."""


@dataclass(frozen=True)
class CheckRow:
    r: float
    lhs: float
    rhs: float
    residual: float
    error: str | None = None
    perturbed_r: bool = False


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    verdict: str          # pass | fail | vacuous | hypothesis_violation
    violations: tuple[str, ...]
    rows: tuple[CheckRow, ...]
    worst_residual: float | None
    stats: dict | None

    def summary(self) -> dict:
        """The report as the JSON check entry prints it, in its key order."""
        return {
            "check_id": self.check_id,
            "verdict": self.verdict,
            "worst_residual": self.worst_residual,
            "violations": list(self.violations),
            "stats": self.stats,
            "rows": [
                {"r": w.r, "lhs": w.lhs, "rhs": w.rhs,
                 "residual": w.residual, "perturbed_r": w.perturbed_r,
                 "error": w.error}
                for w in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# check parameters

# The largest integer parameter: each is a derivative order or an exponent,
# far past any a check runs in useful time and far below overflow (README).
_INT_MOST = 100


@dataclass(frozen=True)
class _Int:
    """An integer parameter that must be at least `least`, a hypothesis of
    the check, and at most _INT_MOST, a limit of the program.  A float with
    an integral value counts; NaN and the infinities do not."""
    name: str
    default: int
    least: int

    def read(self, params: dict) -> tuple[int, list[str]]:
        v = as_int(params.get(self.name, self.default),
                   f"parameter '{self.name}'")
        if v > _INT_MOST:
            raise ValueError(
                f"parameter '{self.name}' must be at most {_INT_MOST}")
        if v < self.least:
            return v, [f"needs {self.name} >= {self.least} (got {v})"]
        return v, []


@dataclass(frozen=True)
class _Rational:
    """A rational function of z that must not vanish identically."""
    name: str
    default: object = 1

    def read(self, params: dict) -> tuple[Expr, list[str]]:
        v = as_expr(params.get(self.name, self.default),
                    f"parameter '{self.name}'")
        if contains_exponential(v):
            return v, [f"{self.name} must be a rational function"]
        if is_identically_zero(v) is ZeroVerdict.ZERO:
            return v, [f"{self.name} must not vanish identically"]
        return v, []


# ---------------------------------------------------------------------------
# check plans

# row(rt, D, ctx, T) gives a row's two sides, (lhs, rhs), at the cleared
# radius rt.  D maps each request, and "f" for f itself, to its (zeros,
# poles) as located, beyond rt; T is T(rt, f), by which _run_rows normalises.
@dataclass
class _Plan:
    requests: dict
    row: Callable          # (rt, D, ctx, T) -> (lhs, rhs)
    stats: dict
    vacuity: Expr | None = None
    equality: bool = False


# --- thresholds T(r, f) <= c N(r, 1; P(f)) --------------------------------

def _top(q0: int, k: int, qk: int) -> tuple[int, ...]:
    """Exponents of f^q0 (f^(k))^qk."""
    return (q0,) + (0,) * (k - 1) + (qk,)


def _threshold(mode: CountingMode, constant_of, exponents=None):
    """T(r, f) <= c N(r, 1; P(f)), c = constant_of(stats, P).  A check on a
    fixed monomial passes `exponents(params)` and reports its parameters;
    one on the spec's polynomial reports the polynomial's statistics."""
    def build(ctx, poly, params):
        if exponents is not None:
            poly = DiffPolynomial.from_exponents((1, exponents(params)))
        s = poly.stats()
        c = constant_of(s, poly)
        stats = dict(params if exponents else s.to_dict(), constant=c)
        applied = poly.apply(ctx.f)

        def row(rt, D, ctx, T):
            return T, c * counting(D["target"][0], rt, mode)
        return _Plan({"target": sub(applied, ONE)}, row, stats,
                     vacuity=applied)
    return build


def _const_thm_1(s, poly):
    return 1.0 / (s.min_base_power - 1)


def _const_thm_2(s, poly):
    return 1.0 / (s.max_degree - s.weight_excess - 2)


def _const_thm_3(s, poly):
    k = s.order
    return (k + 1) / (s.max_degree + k * s.min_base_power
                      - s.weight_excess - 2 * (k + 1))


def _const_thm_g(s, poly):
    q0 = poly.monomials[0].exponent(0)
    return 1.0 / (s.max_degree - s.weight_excess - 4 + q0)


# --- a value a of alpha f^n (f^(k))^p -------------------------------------

def _plan_thm_c(ctx, poly, params):
    n, p, k = params["n"], params["p"], params["k"]
    mono = DiffMonomial(params["alpha"], _top(n, k, p))
    psi = DiffPolynomial((mono,)).apply(ctx.f)
    requests = {"psi_a": sub(psi, params["a"])}
    cap = CountingMode.capped(k)

    def row(rt, D, ctx, T):
        zf, pf = D["f"]
        rhs = (counting(pf, rt, _RED) + counting(zf, rt, _RED)
               + p * counting(zf, rt, cap)
               + counting(D["psi_a"][0], rt, _RED))
        return (p + n) * T, rhs
    return _Plan(requests, row, {"n": n, "p": p, "k": k}, vacuity=psi)


# --- lemma checks ----------------------------------------------------------

def _plan_lem_31(ctx, poly, params):
    g = ctx.f
    g1 = derivative_chain(g, 1)[1]
    requests = {"gp": g1, "lq": div(g1, g), "ql": div(g, g1)}

    def row(rt, D, ctx, T):
        lhs = (counting(D["lq"][1], rt, _FULL)
               - counting(D["ql"][1], rt, _FULL))
        rhs = (counting(D["f"][1], rt, _RED)
               + counting(D["f"][0], rt, _FULL)
               - counting(D["gp"][0], rt, _FULL))
        return lhs, rhs
    return _Plan(requests, row, {}, equality=True)


def _plan_lem_32(ctx, poly, params):
    k = params["k"]
    fk = derivative_chain(ctx.f, k)[k]
    requests = {"fk": fk}

    def row(rt, D, ctx, T):
        lhs = (k - 1) * counting(D["f"][1], rt, _RED)
        rhs = counting(D["fk"][0], rt, _FULL)
        return lhs, rhs
    return _Plan(requests, row, {"k": k})


def _scaled(b: Expr, applied: Expr) -> Expr:
    """b P(f); P(f) itself when b is the constant 1."""
    if isinstance(b, Const) and b.value == 1:
        return applied
    return mul(b, applied)


def _plan_lem_33(ctx, poly, params):
    b = params["b"]
    s = poly.stats()
    growth = s.max_degree + s.weight_excess
    applied = poly.apply(ctx.f)
    bp = _scaled(b, applied)
    requests = {"bp": bp}
    b_const = isinstance(b, Const)
    if not b_const:
        requests["b"] = b

    def row(rt, D, ctx, T):
        lhs = ctx.prox(bp, rt) + counting(D["bp"][1], rt, _FULL)
        Tb = max(0.0, math.log(abs(b.value))) if b_const \
            else ctx.prox(b, rt) + counting(D["b"][1], rt, _FULL)
        return lhs, growth * T + Tb
    return _Plan(requests, row, dict(s.to_dict(), growth_constant=growth),
                 vacuity=applied)


def _plan_lem_35(ctx, poly, params):
    s = poly.stats()
    d = s.max_degree
    applied = poly.apply(ctx.f)
    bp = _scaled(params["b"], applied)
    dbp = differentiate(bp)
    requests = {"bpm1": sub(bp, ONE), "dbp": dbp}

    def row(rt, D, ctx, T):
        zf, pf = D["f"]
        rhs = (d * counting(zf, rt, _FULL) + counting(pf, rt, _RED)
               + counting(D["bpm1"][0], rt, _FULL)
               - counting(D["dbp"][0], rt, _FULL))
        return d * T, rhs
    return _Plan(requests, row, dict(s.to_dict()), vacuity=applied)


def _plan_lem_36(ctx, poly, params):
    s = poly.stats()
    d, nu, qstar, k = (s.max_degree, s.weight_excess, s.min_base_power,
                       s.order)
    applied = poly.apply(ctx.f)
    dp = differentiate(applied)
    requests = {"pm1": sub(applied, ONE), "dp": dp}
    ge_mode = CountingMode.trunc_ge_reduced(k + 1)
    le_mode = CountingMode.trunc_le(k)

    def row(rt, D, ctx, T):
        pf = D["f"][1]
        # subtract and + merge within a tolerance scaled by the radius
        zf, pm1, dp = (d.restrict(rt)
                       for d in (D["f"][0], D["pm1"][0], D["dp"][0]))
        extra = dp.subtract(zf + pm1)
        rhs = (counting(pf, rt, _RED) + counting(zf, rt, _RED)
               + nu * counting(zf, rt, ge_mode)
               + (d - qstar) * counting(zf, rt, le_mode)
               + counting(pm1, rt, _RED)
               - counting(extra, rt, _FULL))
        return d * T, rhs
    return _Plan(requests, row, dict(s.to_dict()), vacuity=applied)


# ---------------------------------------------------------------------------
# registry and runner

@dataclass(frozen=True)
class _CheckSpec:
    """plan(ctx, polynomial, {name: value}) builds the check once its
    hypotheses (on the spec's polynomial for the checks of
    HYPOTHESIS_CHECKS) and its params, read in order, gave no violation."""
    plan: Callable
    params: tuple


def _six(s, poly):
    return 6.0


# The one declaration of every check: its plan and its parameters with their
# defaults and bounds.  A check runs on the spec's polynomial when it is in
# HYPOTHESIS_CHECKS.
CHECKS = {
    "thm_a": _CheckSpec(_threshold(_FULL, _six, lambda p: _top(2, 1, 1)), ()),
    "thm_b": _CheckSpec(_threshold(_FULL, _six,
                                   lambda p: _top(2, p["k"], 1)),
                        (_Int("k", 2, 1),)),
    "thm_c": _CheckSpec(_plan_thm_c,
                        (_Int("n", 1, 0), _Int("p", 1, 1), _Int("k", 1, 1),
                         _Rational("alpha"), _Rational("a"))),
    "thm_d": _CheckSpec(_threshold(
        _RED, lambda s, poly: 1 / (s.min_base_power - 2),
        lambda p: _top(p["l"], p["k"], p["n"])),
        (_Int("l", 3, 3), _Int("n", 1, 1), _Int("k", 1, 1))),
    "thm_e": _CheckSpec(_threshold(
        _FULL, lambda s, poly: 1.0 / (poly.monomials[0].exponent(0) - 1)), ()),
    "thm_f": _CheckSpec(_threshold(_RED, _const_thm_2), ()),
    "thm_g": _CheckSpec(_threshold(_RED, _const_thm_g), ()),
    "thm_1": _CheckSpec(_threshold(_FULL, _const_thm_1), ()),
    "thm_2": _CheckSpec(_threshold(_RED, _const_thm_2), ()),
    "thm_3": _CheckSpec(_threshold(_RED, _const_thm_3), ()),
    "lem_31": _CheckSpec(_plan_lem_31, ()),
    "lem_32": _CheckSpec(_plan_lem_32, (_Int("k", 2, 1),)),
    "lem_33": _CheckSpec(_plan_lem_33, (_Rational("b"),)),
    "lem_35": _CheckSpec(_plan_lem_35, (_Rational("b"),)),
    "lem_36": _CheckSpec(_plan_lem_36, ()),
}


def verdict(rows: list[CheckRow], epsilon: float = DEFAULT_EPSILON,
            equality: bool = False,
            tolerance: float = DEFAULT_EQ_TOLERANCE) -> str:
    """pass/fail decision from computed rows.

    Inequalities pass when the median residual over the top quartile of radii
    is at most epsilon; identities require |lhs - rhs| <= tolerance on every
    row.  Rows that errored count as failures where they matter."""
    if len(rows) < MIN_ROWS:
        raise TooFewRowsError(
            f"verdict needs at least {MIN_ROWS} rows, got {len(rows)}")
    if equality:
        for w in rows:
            if w.error is not None or not (abs(w.lhs - w.rhs) <= tolerance):
                return "fail"
        return "pass"
    ordered = sorted(rows, key=lambda w: w.r)
    q = max(1, len(ordered) // 4)
    top = ordered[-q:]
    if any(w.error is not None for w in top):
        return "fail"
    # the median, as statistics.median takes it, without that module's
    # import of fractions and decimal
    res = sorted(w.residual for w in top)
    i = len(res) // 2
    med = res[i] if len(res) % 2 else (res[i - 1] + res[i]) / 2
    if math.isnan(med):
        return "fail"
    return "pass" if med <= epsilon else "fail"


def map_radii(work, radii: list[float]) -> list:
    """The row phase of a check; bench/tracer.py times it by this name."""
    return [work(r) for r in radii]


def _run_rows(ctx: EvalContext, plan: _Plan) -> list[CheckRow]:
    def row(rt, perturbed, D, m):
        T = m + counting(D["f"][1], rt, _FULL)
        lhs, rhs = plan.row(rt, D, ctx, T)
        return CheckRow(rt, lhs, rhs, (lhs - rhs) / max(T, 1.0),
                        perturbed_r=perturbed)

    def failed(r, text):
        return CheckRow(r, math.nan, math.nan, math.nan, text)

    return ctx.rows({"f": ctx.f, **plan.requests}, row, failed,
                    lambda work: map_radii(work, ctx.radii))


def resolve_check(check_id: str, params: dict | None = None) -> _CheckSpec:
    """The declaration of check_id.  An unknown id, or a parameter name in
    params that the check does not declare, raises ValueError."""
    try:
        spec = CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id '{check_id}'") from None
    extra = sorted(map(str, set(params or {}) - {p.name for p in spec.params}))
    if extra:
        raise ValueError(f"check '{check_id}' has no parameter(s) "
                         f"{', '.join(extra)}")
    return spec


def run_check(check_id: str, f: Expr, polynomial: DiffPolynomial | None = None,
              params: dict | None = None, radii: list[float] | None = None,
              epsilon: float = DEFAULT_EPSILON,
              eq_tolerance: float = DEFAULT_EQ_TOLERANCE,
              context: EvalContext | None = None) -> CheckReport:
    """Run one named check and return its report.

    Unknown ids and parameter names, malformed parameters, and a context
    built for another f or passed with radii raise ValueError; failed
    hypotheses and vacuous instances come back as verdicts, with no rows."""
    spec = resolve_check(check_id, params)
    if context is not None and context.f != f:
        raise ValueError("the context was built for another function")
    if context is not None and radii is not None:
        raise ValueError("radii come from the context; pass one, not both")
    needs_poly = check_id in HYPOTHESIS_CHECKS
    if needs_poly and polynomial is None:
        raise ValueError(f"check '{check_id}' needs a differential polynomial")
    if not needs_poly and polynomial is not None:
        raise ValueError(f"check '{check_id}' does not take a polynomial")
    ctx = context if context is not None else EvalContext(f, radii)

    violations: list[str] = []
    kind, _ = is_constant(f)
    if kind is Constancy.CONSTANT:
        violations.append("function must be non-constant")
    elif kind is Constancy.UNKNOWN:
        violations.append("function is constant on all probe points")

    if needs_poly:
        violations += validate_hypotheses(polynomial, check_id)
    values = {}
    for param in spec.params:
        values[param.name], more = param.read(params or {})
        violations += more
    if violations:
        return CheckReport(check_id, "hypothesis_violation",
                           tuple(violations), (), None, None)
    plan = spec.plan(ctx, polynomial, values)
    if plan.vacuity is not None \
            and is_identically_zero(plan.vacuity) is ZeroVerdict.ZERO:
        return CheckReport(check_id, "vacuous", (), (), None, plan.stats)

    rows = _run_rows(ctx, plan)
    v = verdict(rows, epsilon, plan.equality, eq_tolerance)
    good = [w for w in rows if w.error is None]
    if plan.equality:
        worst = max((abs(w.lhs - w.rhs) for w in good), default=None)
    else:
        worst = max((w.residual for w in good), default=None)
    return CheckReport(check_id, v, (), tuple(rows), worst, plan.stats)
