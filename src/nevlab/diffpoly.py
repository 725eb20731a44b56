"""Differential monomials and polynomials in a function and its derivatives.

A monomial is  c(z) * prod_i (f^(i))^(q_i)  with a rational coefficient and
non-negative integer exponents; a polynomial is a finite sum of monomials.
The statistics collected here (degrees, weight, weight excess, extremal
exponents) are exactly the quantities the inequality checks are phrased in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (_CHILDREN, Const, Exp, Expr, add, intpow, mul,
                   parse_expr, to_grammar)
from .exppoly import Constancy, derivative_chain, is_constant

__all__ = [
    "DiffMonomial", "DiffPolynomial", "PolyStats", "poly_stats",
    "validate_hypotheses", "contains_exponential", "HYPOTHESIS_CHECKS",
    "as_expr", "as_int",
]


def as_expr(v, what: str) -> Expr:
    """v as an expression: a grammar string is parsed and a number is a
    constant; a boolean, another type or an integer beyond the float range
    raises ValueError naming `what`."""
    if isinstance(v, (str, Expr)):
        return parse_expr(v) if isinstance(v, str) else v
    try:
        if not isinstance(v, bool) and isinstance(v, (int, float, complex)):
            return Const(v)
    except OverflowError:
        pass
    raise ValueError(
        f"{what} must be a number, a grammar string or an expression")


def as_int(v, what: str) -> int:
    """v as an int: an int, or a float with an integral value; a boolean,
    NaN, an infinity, another float or another type raises ValueError
    naming `what`."""
    if isinstance(v, bool) or not (
            isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"{what} must be an integer")
    return int(v)


def contains_exponential(e: Expr) -> bool:
    """True if any exp node appears; rational expressions have none."""
    return isinstance(e, Exp) or any(
        contains_exponential(c) for c in _CHILDREN[type(e)](e))


@dataclass(frozen=True)
class DiffMonomial:
    """coeff * f^(q0) * (f')^(q1) * ... ; exponents are q_0..q_k."""
    coeff: Expr
    exponents: tuple[int, ...]

    def __post_init__(self):
        ex = tuple(as_int(q, "monomial exponent") for q in self.exponents)
        object.__setattr__(self, "exponents", ex)
        if not ex or all(q == 0 for q in ex):
            raise ValueError("monomial needs at least one positive exponent")
        if any(q < 0 for q in ex):
            raise ValueError("monomial exponents must be non-negative")
        if contains_exponential(self.coeff):
            raise ValueError("monomial coefficient must be rational in z")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def weight(self) -> int:
        return sum((i + 1) * q for i, q in enumerate(self.exponents))

    @property
    def weight_excess(self) -> int:
        """weight - degree, i.e. sum_i i * q_i."""
        return self.weight - self.degree

    @property
    def order(self) -> int:
        return max(i for i, q in enumerate(self.exponents) if q > 0)

    def exponent(self, i: int) -> int:
        return self.exponents[i] if i < len(self.exponents) else 0

    def apply(self, derivatives: list[Expr]) -> Expr:
        return mul(self.coeff,
                   *(intpow(derivatives[i], q)
                     for i, q in enumerate(self.exponents) if q > 0))

    def to_dict(self) -> dict:
        return {"coeff": to_grammar(self.coeff),
                "exponents": list(self.exponents)}


@dataclass(frozen=True)
class PolyStats:
    max_degree: int      # largest monomial degree
    min_degree: int      # smallest monomial degree
    max_weight: int      # largest monomial weight
    weight_excess: int   # max over monomials of (weight - degree)
    min_base_power: int  # min over monomials of q_0
    min_top_power: int   # min over monomials of q_k at the polynomial order
    order: int
    homogeneous: bool

    def to_dict(self) -> dict:
        out = {
            "nu": self.weight_excess,
            "qstar": self.min_base_power,
            "k": self.order,
            "homogeneous": self.homogeneous,
            "d_upper": self.max_degree,
            "d_lower": self.min_degree,
            "gamma": self.max_weight,
            "qkstar": self.min_top_power,
        }
        if self.homogeneous:
            out["d"] = self.max_degree
        return out


@dataclass(frozen=True)
class DiffPolynomial:
    monomials: tuple[DiffMonomial, ...]

    def __post_init__(self):
        if not self.monomials:
            raise ValueError("differential polynomial needs monomials")
        object.__setattr__(self, "monomials", tuple(self.monomials))

    @staticmethod
    def from_exponents(*monos) -> "DiffPolynomial":
        """Build from (coeff, exponents) pairs; coeff may be a number, a
        grammar string or an expression."""
        return DiffPolynomial(tuple(
            DiffMonomial(as_expr(coeff, f"monomial #{i} coeff"),
                         tuple(exponents))
            for i, (coeff, exponents) in enumerate(monos)))

    @property
    def order(self) -> int:
        return max(m.order for m in self.monomials)

    def stats(self) -> PolyStats:
        ms = self.monomials
        k = self.order
        degrees = [m.degree for m in ms]
        return PolyStats(
            max_degree=max(degrees),
            min_degree=min(degrees),
            max_weight=max(m.weight for m in ms),
            weight_excess=max(m.weight_excess for m in ms),
            min_base_power=min(m.exponent(0) for m in ms),
            min_top_power=min(m.exponent(k) for m in ms),
            order=k,
            homogeneous=min(degrees) == max(degrees),
        )

    def apply(self, f: Expr) -> Expr:
        """Substitute f; the derivative chain is computed once and shared."""
        derivatives = derivative_chain(f, self.order)
        return add(*(m.apply(derivatives) for m in self.monomials))

    def to_dict(self) -> dict:
        return {"monomials": [m.to_dict() for m in self.monomials]}


def poly_stats(p: DiffPolynomial) -> PolyStats:
    return p.stats()


# ---------------------------------------------------------------------------
# hypothesis validation for the named checks

def _constant_coeffs(p: DiffPolynomial, out: list[str]):
    for m in p.monomials:
        kind, value = is_constant(m.coeff)
        if kind is not Constancy.CONSTANT or (value is not None and value == 0):
            out.append("monomial coefficient must be a nonzero constant")
            return


def _common(s: PolyStats, *, min_k: int, min_q0: int,
            min_qk: int) -> list[str]:
    out = []
    if not s.homogeneous:
        out.append("polynomial is not homogeneous")
    if s.order < min_k:
        out.append(f"order k={s.order} but k >= {min_k} is required")
    if s.min_base_power < min_q0:
        out.append(f"some monomial has q_0={s.min_base_power} < {min_q0}")
    if min_qk > 0 and s.min_top_power < min_qk:
        out.append(f"some monomial has q_k={s.min_top_power} < {min_qk}")
    return out


def _check_thm_1(p, s):
    return _common(s, min_k=2, min_q0=2, min_qk=2)


def _check_thm_2(p, s):
    out = _common(s, min_k=1, min_q0=1, min_qk=1)
    if s.max_degree - s.weight_excess <= 2:
        out.append(f"needs d - nu > 2 (got {s.max_degree - s.weight_excess})")
    return out


def _check_thm_3(p, s):
    out = _common(s, min_k=1, min_q0=1, min_qk=1)
    lhs = s.max_degree + s.order * s.min_base_power
    rhs = 2 * (s.order + 1) + s.weight_excess
    if lhs <= rhs:
        out.append(f"needs d + k*qstar > 2(k+1) + nu (got {lhs} <= {rhs})")
    return out


def _single(p, out):
    if len(p.monomials) != 1:
        out.append("check applies to a single monomial")
        return False
    return True


def _check_thm_e(p, s):
    out = []
    if _single(p, out):
        out += _common(s, min_k=2, min_q0=2, min_qk=2)
        _constant_coeffs(p, out)
    return out


def _check_thm_f(p, s):
    out = []
    if _single(p, out):
        out += _common(s, min_k=1, min_q0=1, min_qk=1)
        _constant_coeffs(p, out)
        if s.max_degree - s.weight_excess < 3:
            out.append("needs degree minus weight excess >= 3")
    return out


def _check_thm_g(p, s):
    out = []
    if _single(p, out):
        out += _common(s, min_k=1, min_q0=1, min_qk=1)
        _constant_coeffs(p, out)
        q0 = p.monomials[0].exponent(0)
        if s.max_degree - s.weight_excess < 5 - q0:
            out.append("needs degree minus weight excess >= 5 - q_0")
    return out


def _check_lem_33(p, s):
    return []


def _check_lem_35(p, s):
    return _common(s, min_k=0, min_q0=1, min_qk=0)


def _check_lem_36(p, s):
    return _common(s, min_k=0, min_q0=1, min_qk=1)


HYPOTHESIS_CHECKS = {
    "thm_1": _check_thm_1,
    "thm_2": _check_thm_2,
    "thm_3": _check_thm_3,
    "thm_e": _check_thm_e,
    "thm_f": _check_thm_f,
    "thm_g": _check_thm_g,
    "lem_33": _check_lem_33,
    "lem_35": _check_lem_35,
    "lem_36": _check_lem_36,
}


def validate_hypotheses(p: DiffPolynomial, check_id: str) -> list[str]:
    """Structural hypotheses of the named check; empty list means admissible."""
    try:
        fn = HYPOTHESIS_CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check id '{check_id}'") from None
    return fn(p, p.stats())
