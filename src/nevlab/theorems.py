"""Per-radius verification of value-distribution inequalities and identities.

Each named check compares a left and right hand side built from proximity and
counting functionals over a shared radius grid.  Inequalities are judged on
the normalized residual (lhs - rhs) / max(T(r, f), 1): for a true bound the
residual trends non-positive once the main terms dominate, so the verdict is
the median residual over the top quartile of radii against a small epsilon.
Identity checks instead require |lhs - rhs| below an absolute tolerance on
every row.

All divisors a check needs are computed once at a single negotiated radius
just beyond the largest grid point, then restricted downward per row.  Every
row also runs at one shared working radius cleared against the union of all
divisor moduli, so the log terms of different counting functions cancel
exactly in identities instead of fighting over mismatched rings.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

from .diffpoly import (DiffMonomial, DiffPolynomial, contains_exponential,
                       validate_hypotheses)
from .exppoly import (Constancy, ZeroVerdict, derivative_chain, is_constant,
                      is_identically_zero)
from .expr import Const, Expr, ONE, differentiate, div, mul, parse_expr, sub
from .locator import (Divisor, LocatorError, clear_radius, divisor_pair_at,
                      negotiate)
from .nevanlinna import (CountingMode, QuadratureError, counting, proximity,
                         radial_grid)

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


def default_radii() -> list[float]:
    return radial_grid(2.0, 40.0, 32)


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
        return {
            "check_id": self.check_id,
            "verdict": self.verdict,
            "violations": list(self.violations),
            "worst_residual": self.worst_residual,
            "stats": self.stats,
            "rows": [
                {"r": w.r, "lhs": w.lhs, "rhs": w.rhs,
                 "residual": w.residual, "error": w.error,
                 "perturbed_r": w.perturbed_r}
                for w in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# shared evaluation context

class EvalContext:
    """Caches divisor pairs and proximity values across rows and checks,
    and the entire factors located for them, so a factor shared by several
    requests (cos(z) for tan(z)) is located once per radius and context.

    A proximity miss integrates its expression at every row radius of the
    current check not yet cached, in one batched call; each value has the
    bits of the single-radius call."""

    def __init__(self, f: Expr, radii: list[float] | None = None,
                 quad_tol: float = 1e-10):
        self.f = f
        if radii is None:
            self.radii = default_radii()
        else:
            self.radii = sorted(float(r) for r in radii)
        self.quad_tol = quad_tol
        self.div_radius = max(self.radii) * (1 + 4e-3)
        self._pairs: dict = {}
        self._prox: dict = {}
        self._atoms: dict = {}
        self.row_radii: list[float] = []   # working radii of the check's rows

    def pair_at(self, expr: Expr, rt: float) -> tuple[Divisor, Divisor]:
        key = (expr, rt)
        if key not in self._pairs:
            self._pairs[key] = divisor_pair_at(expr, rt, 0, self._atoms)
        return self._pairs[key]

    def resolve(self, requests: dict) -> tuple[float, dict]:
        """All requested divisor pairs at one shared negotiated radius."""
        def attempt(rt):
            return {name: self.pair_at(expr, rt)
                    for name, expr in requests.items()}
        rt, _, divs = negotiate(self.div_radius, attempt)
        return rt, divs

    def prox(self, expr: Expr, r: float) -> float:
        if (expr, r) not in self._prox:
            radii = [rt for rt in dict.fromkeys([r] + self.row_radii)
                     if (expr, rt) not in self._prox]
            for rt, m in zip(radii, proximity(expr, radii, self.quad_tol)):
                self._prox[(expr, rt)] = m
        m = self._prox[(expr, r)]
        if isinstance(m, QuadratureError):
            raise m
        return m

    def char_from(self, expr: Expr, poles: Divisor, r: float) -> float:
        return self.prox(expr, r) + counting(poles, r, _FULL)


# ---------------------------------------------------------------------------
# check plans

@dataclass
class _Plan:
    requests: dict
    row: Callable          # (rt, D, ctx) -> (lhs, rhs, T)
    stats: dict
    vacuity: Expr | None = None
    equality: bool = False


def _coerce_expr(value, what: str) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return parse_expr(value)
    if isinstance(value, (int, float, complex)):
        return Const(value)
    raise ValueError(f"{what} must be an expression, string or number")


def _coerce_int(params: dict, name: str, default: int | None = None) -> int:
    v = params.get(name, default)
    if v is None:
        raise ValueError(f"parameter '{name}' is required")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
        raise ValueError(f"parameter '{name}' must be an integer")
    return int(v)


def _rational_param(params: dict, name: str, default) -> tuple[Expr, list[str]]:
    e = _coerce_expr(params.get(name, default), name)
    out = []
    if contains_exponential(e):
        out.append(f"{name} must be a rational function")
    elif is_identically_zero(e) is ZeroVerdict.ZERO:
        out.append(f"{name} must not vanish identically")
    return e, out


def _f_char_row(constant: float, mode: CountingMode, target_name: str):
    def row(rt, D, ctx):
        T = ctx.char_from(ctx.f, D["f"][1], rt)
        rhs = constant * counting(D[target_name][0], rt, mode)
        return T, rhs, T
    return row


def _threshold_plan(ctx, applied: Expr, constant: float, mode: CountingMode,
                    stats: dict) -> _Plan:
    shifted = sub(applied, ONE)
    requests = {"f": ctx.f, "target": shifted}
    stats = dict(stats, constant=constant)
    return _Plan(requests, _f_char_row(constant, mode, "target"), stats,
                 vacuity=applied)


# --- Hayman-type checks on fixed monomials ---------------------------------

def _plan_thm_a(ctx, poly, params):
    P = DiffPolynomial.from_exponents((1, (2, 1)))
    return [], _threshold_plan(ctx, P.apply(ctx.f), 6.0, _FULL, {})


def _plan_thm_b(ctx, poly, params):
    k = _coerce_int(params, "k", 2)
    violations = [] if k >= 1 else [f"needs k >= 1 (got {k})"]
    if violations:
        return violations, None
    P = DiffPolynomial.from_exponents((1, (2,) + (0,) * (k - 1) + (1,)))
    return [], _threshold_plan(ctx, P.apply(ctx.f), 6.0, _FULL, {"k": k})


def _plan_thm_c(ctx, poly, params):
    n = _coerce_int(params, "n", 1)
    p = _coerce_int(params, "p", 1)
    k = _coerce_int(params, "k", 1)
    violations = []
    if n < 0:
        violations.append(f"needs n >= 0 (got {n})")
    for name, v in (("p", p), ("k", k)):
        if v < 1:
            violations.append(f"needs {name} >= 1 (got {v})")
    alpha, more = _rational_param(params, "alpha", 1)
    violations += more
    a, more = _rational_param(params, "a", 1)
    violations += more
    if violations:
        return violations, None
    mono = DiffMonomial(alpha, (n,) + (0,) * (k - 1) + (p,))
    P = DiffPolynomial((mono,))
    psi = P.apply(ctx.f)
    requests = {"f": ctx.f, "psi_a": sub(psi, a)}
    cap = CountingMode.capped(k)

    def row(rt, D, ctx):
        T = ctx.char_from(ctx.f, D["f"][1], rt)
        zf, pf = D["f"]
        rhs = (counting(pf, rt, _RED) + counting(zf, rt, _RED)
               + p * counting(zf, rt, cap)
               + counting(D["psi_a"][0], rt, _RED))
        return (p + n) * T, rhs, T
    return [], _Plan(requests, row, {"n": n, "p": p, "k": k}, vacuity=psi)


def _plan_thm_d(ctx, poly, params):
    l = _coerce_int(params, "l", 3)
    n = _coerce_int(params, "n", 1)
    k = _coerce_int(params, "k", 1)
    violations = []
    if l < 3:
        violations.append(f"needs l >= 3 (got {l})")
    if n < 1:
        violations.append(f"needs n >= 1 (got {n})")
    if k < 1:
        violations.append(f"needs k >= 1 (got {k})")
    if violations:
        return violations, None
    P = DiffPolynomial.from_exponents((1, (l,) + (0,) * (k - 1) + (n,)))
    return [], _threshold_plan(ctx, P.apply(ctx.f), 1.0 / (l - 2), _RED,
                               {"l": l, "n": n, "k": k})


# --- general differential polynomial checks --------------------------------

def _plan_poly_threshold(check_id: str, mode: CountingMode, constant_of):
    def build(ctx, poly, params):
        violations = validate_hypotheses(poly, check_id)
        if violations:
            return violations, None
        s = poly.stats()
        constant = constant_of(s, poly)
        stats = dict(s.to_dict(), constant=constant)
        return [], _threshold_plan(ctx, poly.apply(ctx.f), constant, mode,
                                   stats)
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


# --- lemma checks ----------------------------------------------------------

def _plan_lem_31(ctx, poly, params):
    g = ctx.f
    g1 = derivative_chain(g, 1)[1]
    requests = {"g": g, "gp": g1, "lq": div(g1, g), "ql": div(g, g1)}

    def row(rt, D, ctx):
        lhs = (counting(D["lq"][1], rt, _FULL)
               - counting(D["ql"][1], rt, _FULL))
        rhs = (counting(D["g"][1], rt, _RED)
               + counting(D["g"][0], rt, _FULL)
               - counting(D["gp"][0], rt, _FULL))
        T = ctx.char_from(g, D["g"][1], rt)
        return lhs, rhs, T
    return [], _Plan(requests, row, {}, equality=True)


def _plan_lem_32(ctx, poly, params):
    k = _coerce_int(params, "k", 2)
    if k < 1:
        return [f"needs k >= 1 (got {k})"], None
    fk = derivative_chain(ctx.f, k)[k]
    requests = {"f": ctx.f, "fk": fk}

    def row(rt, D, ctx):
        lhs = (k - 1) * counting(D["f"][1], rt, _RED)
        rhs = counting(D["fk"][0], rt, _FULL)
        T = ctx.char_from(ctx.f, D["f"][1], rt)
        return lhs, rhs, T
    return [], _Plan(requests, row, {"k": k})


def _plan_lem_33(ctx, poly, params):
    violations = validate_hypotheses(poly, "lem_33")
    b, more = _rational_param(params, "b", 1)
    violations += more
    if violations:
        return violations, None
    s = poly.stats()
    growth = s.max_degree + s.weight_excess
    applied = poly.apply(ctx.f)
    bp = mul(b, applied) if not (isinstance(b, Const) and b.value == 1) \
        else applied
    requests = {"f": ctx.f, "bp": bp}
    b_const = isinstance(b, Const)
    if not b_const:
        requests["b"] = b

    def row(rt, D, ctx):
        T = ctx.char_from(ctx.f, D["f"][1], rt)
        lhs = ctx.char_from(bp, D["bp"][1], rt)
        Tb = max(0.0, math.log(abs(b.value))) if b_const \
            else ctx.char_from(b, D["b"][1], rt)
        return lhs, growth * T + Tb, T
    return [], _Plan(requests, row,
                     dict(s.to_dict(), growth_constant=growth),
                     vacuity=applied)


def _plan_lem_35(ctx, poly, params):
    violations = validate_hypotheses(poly, "lem_35")
    b, more = _rational_param(params, "b", 1)
    violations += more
    if violations:
        return violations, None
    s = poly.stats()
    d = s.max_degree
    applied = poly.apply(ctx.f)
    bp = mul(b, applied) if not (isinstance(b, Const) and b.value == 1) \
        else applied
    dbp = differentiate(bp)
    requests = {"f": ctx.f, "bpm1": sub(bp, ONE), "dbp": dbp}

    def row(rt, D, ctx):
        T = ctx.char_from(ctx.f, D["f"][1], rt)
        zf, pf = D["f"]
        rhs = (d * counting(zf, rt, _FULL) + counting(pf, rt, _RED)
               + counting(D["bpm1"][0], rt, _FULL)
               - counting(D["dbp"][0], rt, _FULL))
        return d * T, rhs, T
    return [], _Plan(requests, row, dict(s.to_dict()), vacuity=applied)


def _plan_lem_36(ctx, poly, params):
    violations = validate_hypotheses(poly, "lem_36")
    if violations:
        return violations, None
    s = poly.stats()
    d, nu, qstar, k = (s.max_degree, s.weight_excess, s.min_base_power,
                       s.order)
    applied = poly.apply(ctx.f)
    dp = differentiate(applied)
    requests = {"f": ctx.f, "pm1": sub(applied, ONE), "dp": dp}
    ge_mode = CountingMode.trunc_ge_reduced(k + 1)
    le_mode = CountingMode.trunc_le(k)

    def row(rt, D, ctx):
        T = ctx.char_from(ctx.f, D["f"][1], rt)
        zf, pf = D["f"]
        extra = D["dp"][0].subtract(zf + D["pm1"][0])
        rhs = (counting(pf, rt, _RED) + counting(zf, rt, _RED)
               + nu * counting(zf, rt, ge_mode)
               + (d - qstar) * counting(zf, rt, le_mode)
               + counting(D["pm1"][0], rt, _RED)
               - counting(extra, rt, _FULL))
        return d * T, rhs, T
    return [], _Plan(requests, row, dict(s.to_dict()), vacuity=applied)


# ---------------------------------------------------------------------------
# registry and runner

@dataclass(frozen=True)
class _CheckSpec:
    builder: Callable
    needs_poly: bool
    equality: bool = False


CHECKS = {
    "thm_a": _CheckSpec(_plan_thm_a, False),
    "thm_b": _CheckSpec(_plan_thm_b, False),
    "thm_c": _CheckSpec(_plan_thm_c, False),
    "thm_d": _CheckSpec(_plan_thm_d, False),
    "thm_e": _CheckSpec(_plan_poly_threshold(
        "thm_e", _FULL, lambda s, p: 1.0 / (p.monomials[0].exponent(0) - 1)),
        True),
    "thm_f": _CheckSpec(_plan_poly_threshold("thm_f", _RED, _const_thm_2),
                        True),
    "thm_g": _CheckSpec(_plan_poly_threshold("thm_g", _RED, _const_thm_g),
                        True),
    "thm_1": _CheckSpec(_plan_poly_threshold("thm_1", _FULL, _const_thm_1),
                        True),
    "thm_2": _CheckSpec(_plan_poly_threshold("thm_2", _RED, _const_thm_2),
                        True),
    "thm_3": _CheckSpec(_plan_poly_threshold("thm_3", _RED, _const_thm_3),
                        True),
    "lem_31": _CheckSpec(_plan_lem_31, False, equality=True),
    "lem_32": _CheckSpec(_plan_lem_32, False),
    "lem_33": _CheckSpec(_plan_lem_33, True),
    "lem_35": _CheckSpec(_plan_lem_35, True),
    "lem_36": _CheckSpec(_plan_lem_36, True),
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
    med = statistics.median(w.residual for w in top)
    if math.isnan(med):
        return "fail"
    return "pass" if med <= epsilon else "fail"


def map_radii(work, radii: list[float]) -> list:
    """The row phase of a check; bench/tracer.py times it by this name."""
    return [work(r) for r in radii]


def _run_rows(ctx: EvalContext, plan: _Plan) -> list[CheckRow]:
    try:
        rt_div, divs = ctx.resolve(plan.requests)
    except (LocatorError, QuadratureError) as exc:
        msg = f"{type(exc).__name__}: {exc}"
        return [CheckRow(r, math.nan, math.nan, math.nan, msg)
                for r in ctx.radii]
    if not all(z.valid and p.valid for z, p in divs.values()):
        msg = "divisor computation returned a partial result"
        return [CheckRow(r, math.nan, math.nan, math.nan, msg)
                for r in ctx.radii]
    moduli = sorted({abs(pt.location)
                     for pair in divs.values()
                     for dv in pair for pt in dv.points})
    cleared: dict = {}
    for r in ctx.radii:
        try:
            cleared[r] = clear_radius(r, moduli, rmax=rt_div)
        except LocatorError as exc:
            cleared[r] = exc
    ctx.row_radii = [c[0] for c in cleared.values() if isinstance(c, tuple)]

    def one(r: float) -> CheckRow:
        try:
            if isinstance(cleared[r], LocatorError):
                raise cleared[r]
            rt, perturbed = cleared[r]
            D = {name: (z.restrict(rt), p.restrict(rt))
                 for name, (z, p) in divs.items()}
            lhs, rhs, T = plan.row(rt, D, ctx)
            residual = (lhs - rhs) / max(T, 1.0)
            return CheckRow(rt, lhs, rhs, residual, perturbed_r=perturbed)
        except (LocatorError, QuadratureError) as exc:
            return CheckRow(r, math.nan, math.nan, math.nan,
                            f"{type(exc).__name__}: {exc}")

    return map_radii(one, ctx.radii)


def run_check(check_id: str, f: Expr, polynomial: DiffPolynomial | None = None,
              params: dict | None = None, radii: list[float] | None = None,
              epsilon: float = DEFAULT_EPSILON,
              eq_tolerance: float = DEFAULT_EQ_TOLERANCE,
              quad_tol: float = 1e-10,
              context: EvalContext | None = None) -> CheckReport:
    """Run one named check and return its report.

    Unknown ids and malformed parameters raise ValueError; failed hypotheses
    and vacuous instances come back as verdicts, with no rows."""
    try:
        spec = CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id '{check_id}'") from None
    if spec.needs_poly and polynomial is None:
        raise ValueError(f"check '{check_id}' needs a differential polynomial")
    if not spec.needs_poly and polynomial is not None:
        raise ValueError(f"check '{check_id}' does not take a polynomial")
    ctx = context if context is not None else EvalContext(f, radii, quad_tol)

    violations: list[str] = []
    kind, _ = is_constant(f)
    if kind is Constancy.CONSTANT:
        violations.append("function must be non-constant")
    elif kind is Constancy.UNKNOWN:
        violations.append("function is constant on all probe points")

    built = spec.builder(ctx, polynomial, dict(params or {}))
    violations += built[0]
    plan = built[1]
    if violations:
        stats = plan.stats if plan is not None else None
        return CheckReport(check_id, "hypothesis_violation",
                           tuple(violations), (), None, stats)
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
