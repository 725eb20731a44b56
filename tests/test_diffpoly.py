"""Differential polynomials: construction, statistics, hypothesis checks."""

import cmath
import math

import pytest

from nevlab import theorems
from nevlab.diffpoly import (HYPOTHESIS_CHECKS, DiffPolynomial,
                             contains_exponential, poly_stats,
                             validate_hypotheses)
from nevlab.expr import evaluate, parse_expr

# Recurring fixtures: three differential polynomials with known statistics.
P_A = DiffPolynomial.from_exponents((1, (2, 1, 2, 2)), (-1, (2, 2, 1, 2)))
P_B = DiffPolynomial.from_exponents((1, (6, 1, 0, 1)), (1, (6, 0, 1, 1)))
P_C = DiffPolynomial.from_exponents((1, (5, 3)), (-1, (3, 5)))


@pytest.mark.parametrize("poly,d,nu,qstar,k", [
    (P_A, 7, 11, 2, 3),
    (P_B, 8, 5, 6, 3),
    (P_C, 8, 5, 3, 1),
])
def test_statistics_oracle(poly, d, nu, qstar, k):
    s = poly_stats(poly)
    assert s.homogeneous
    assert s.max_degree == s.min_degree == d
    assert s.weight_excess == nu
    assert s.min_base_power == qstar
    assert s.order == k
    out = s.to_dict()
    assert out["d"] == d and out["nu"] == nu
    assert out["qstar"] == qstar and out["k"] == k
    assert out["homogeneous"] is True


def test_statistics_of_inhomogeneous_sum():
    p = DiffPolynomial.from_exponents((1, (2, 1)), (1, (1, 0, 1)))
    s = poly_stats(p)
    assert not s.homogeneous
    assert s.max_degree == 3 and s.min_degree == 2
    assert "d" not in s.to_dict()


@pytest.mark.parametrize("lam", [1, -1, 2])
def test_monomial_action_on_pure_exponential(lam):
    """A monomial maps e^(lam z) to coeff * lam^(weight-degree) * e^(d lam z)."""
    poly = DiffPolynomial.from_exponents((3, (2, 1, 2, 2)))
    applied = poly.apply(parse_expr(f"exp({lam}*z)"))
    d, weight = 7, 18
    for z in (0.21 + 0.3j, -0.4, 1.1j):
        want = 3 * lam ** (weight - d) * cmath.exp(d * lam * z)
        assert evaluate(applied, z) == pytest.approx(want, rel=1e-10)


def test_apply_uses_the_derivative_chain():
    poly = DiffPolynomial.from_exponents((1, (1, 2)))   # f * (f')^2
    applied = poly.apply(parse_expr("z^3"))
    for z in (2.0, 1 - 0.5j):
        assert evaluate(applied, z) == pytest.approx(9 * z ** 7, rel=1e-12)


def test_sum_of_monomial_actions():
    applied = P_C.apply(parse_expr("exp(z)"))
    for z in (0.3, 0.2j):
        assert evaluate(applied, z) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [
    (1, (0, 0)),
    (1, (-1, 2)),
    ("exp(z)", (2,)),
    (1, (2.7, 0.5)),                # read as (2, 0) by int()
    (1, (True, 1)),                 # read as (1, 1) by int()
])
def test_invalid_monomials_rejected(bad):
    with pytest.raises(ValueError):
        DiffPolynomial.from_exponents(bad)


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf,
                                   complex(1, math.inf)])
def test_non_finite_coefficient_rejected(coeff):
    """A non-finite coefficient once built and failed only in apply."""
    with pytest.raises(ValueError, match="monomial #0 coeff must be a finite"):
        DiffPolynomial.from_exponents((coeff, (2, 0, 2)))


def test_rational_coefficients_allowed():
    poly = DiffPolynomial.from_exponents(("z^2 - 1", (1, 1)))
    assert not contains_exponential(poly.monomials[0].coeff)
    applied = poly.apply(parse_expr("z^2"))
    for z in (1.5, 2j):
        assert evaluate(applied, z) == pytest.approx((z * z - 1) * z * z * 2 * z,
                                                     rel=1e-12)


def test_hypotheses_of_reference_polynomials():
    assert validate_hypotheses(P_A, "thm_1") == []
    assert validate_hypotheses(P_B, "thm_2") == []
    assert validate_hypotheses(P_C, "thm_3") == []


def test_hypothesis_violations_are_reported():
    low_base = DiffPolynomial.from_exponents((1, (1, 0, 2)))
    assert validate_hypotheses(low_base, "thm_1")

    mixed = DiffPolynomial.from_exponents((1, (2, 0, 2)), (1, (3, 0, 2)))
    assert any("homogeneous" in v for v in validate_hypotheses(mixed, "thm_1"))

    thin = DiffPolynomial.from_exponents((1, (1, 1)))   # d - nu too small
    assert validate_hypotheses(thin, "thm_2")

    two_terms = DiffPolynomial.from_exponents((1, (2, 2)), (1, (3, 1)))
    assert validate_hypotheses(two_terms, "thm_e")

    no_top = DiffPolynomial.from_exponents((1, (2, 0, 2)), (1, (2, 2, 0)))
    assert validate_hypotheses(no_top, "lem_36")


# Each polynomial, as (coeff, exponents) pairs, with the violations of every
# HYPOTHESIS_CHECKS id in order; an id left out has none.  The inputs trip
# each condition once or more: two monomials, a coefficient that is not a
# nonzero constant, an inhomogeneous sum, k, q_0 or q_k below its bound,
# d - nu <= 2, thm_3's inequality and thm_g's bound with q_0 in it.
_SINGLE = ["check applies to a single monomial"]
_COEFF = "monomial coefficient must be a nonzero constant"
_THM_3 = "needs d + k*qstar > 2(k+1) + nu (got {} <= {})"
HYPOTHESIS_TABLE = [
    # two homogeneous monomials, f^2 (f'')^2 + f^2 (f')^2
    (((1, (2, 0, 2)), (1, (2, 2, 0))), {
        "thm_1": ["some monomial has q_k=0 < 2"],
        "thm_2": ["some monomial has q_k=0 < 1", "needs d - nu > 2 (got 0)"],
        "thm_3": ["some monomial has q_k=0 < 1", _THM_3.format(8, 10)],
        "thm_e": _SINGLE, "thm_f": _SINGLE, "thm_g": _SINGLE,
        "lem_36": ["some monomial has q_k=0 < 1"],
    }),
    # coefficient z
    ((("z", (2, 0, 2)),), {
        "thm_2": ["needs d - nu > 2 (got 0)"],
        "thm_3": [_THM_3.format(8, 10)],
        "thm_e": [_COEFF],
        "thm_f": [_COEFF, "needs degree minus weight excess >= 3"],
        "thm_g": [_COEFF, "needs degree minus weight excess >= 5 - q_0"],
    }),
    # coefficient 0
    (((0, (3, 1)),), {
        "thm_1": ["order k=1 but k >= 2 is required",
                  "some monomial has q_k=1 < 2"],
        "thm_e": ["order k=1 but k >= 2 is required",
                  "some monomial has q_k=1 < 2", _COEFF],
        "thm_f": [_COEFF], "thm_g": [_COEFF],
    }),
    # f f'
    (((1, (1, 1)),), {
        "thm_1": ["order k=1 but k >= 2 is required",
                  "some monomial has q_0=1 < 2", "some monomial has q_k=1 < 2"],
        "thm_2": ["needs d - nu > 2 (got 1)"],
        "thm_3": [_THM_3.format(3, 5)],
        "thm_e": ["order k=1 but k >= 2 is required",
                  "some monomial has q_0=1 < 2", "some monomial has q_k=1 < 2"],
        "thm_f": ["needs degree minus weight excess >= 3"],
        "thm_g": ["needs degree minus weight excess >= 5 - q_0"],
    }),
    # the inhomogeneous sum f^2 f' + f f''
    (((1, (2, 1)), (1, (1, 0, 1))), {
        "thm_1": ["polynomial is not homogeneous",
                  "some monomial has q_0=1 < 2", "some monomial has q_k=0 < 2"],
        "thm_2": ["polynomial is not homogeneous",
                  "some monomial has q_k=0 < 1", "needs d - nu > 2 (got 1)"],
        "thm_3": ["polynomial is not homogeneous",
                  "some monomial has q_k=0 < 1", _THM_3.format(5, 8)],
        "thm_e": _SINGLE, "thm_f": _SINGLE, "thm_g": _SINGLE,
        "lem_35": ["polynomial is not homogeneous"],
        "lem_36": ["polynomial is not homogeneous",
                   "some monomial has q_k=0 < 1"],
    }),
    # f^2 f'': q_k below thm_1's bound
    (((1, (2, 0, 1)),), {
        "thm_1": ["some monomial has q_k=1 < 2"],
        "thm_2": ["needs d - nu > 2 (got 1)"],
        "thm_3": [_THM_3.format(7, 8)],
        "thm_e": ["some monomial has q_k=1 < 2"],
        "thm_f": ["needs degree minus weight excess >= 3"],
        "thm_g": ["needs degree minus weight excess >= 5 - q_0"],
    }),
    # f^2, of order 0
    (((1, (2,)),), {
        "thm_1": ["order k=0 but k >= 2 is required"],
        "thm_2": ["order k=0 but k >= 1 is required",
                  "needs d - nu > 2 (got 2)"],
        "thm_3": ["order k=0 but k >= 1 is required", _THM_3.format(2, 2)],
        "thm_e": ["order k=0 but k >= 2 is required"],
        "thm_f": ["order k=0 but k >= 1 is required",
                  "needs degree minus weight excess >= 3"],
        "thm_g": ["order k=0 but k >= 1 is required",
                  "needs degree minus weight excess >= 5 - q_0"],
    }),
    # f^3 f'': d - nu = 2 fails thm_2 and thm_f; thm_3 and thm_g admit it
    (((1, (3, 0, 1)),), {
        "thm_1": ["some monomial has q_k=1 < 2"],
        "thm_2": ["needs d - nu > 2 (got 2)"],
        "thm_e": ["some monomial has q_k=1 < 2"],
        "thm_f": ["needs degree minus weight excess >= 3"],
    }),
    # 2.5 f^5 (f'')^2: every check admits it
    (((2.5, (5, 0, 2)),), {}),
]


@pytest.mark.parametrize("monos,expected", HYPOTHESIS_TABLE)
def test_hypothesis_violations_table(monos, expected):
    p = DiffPolynomial.from_exponents(*monos)
    assert set(expected) <= set(HYPOTHESIS_CHECKS)
    got = {c: validate_hypotheses(p, c) for c in HYPOTHESIS_CHECKS}
    assert got == {c: expected.get(c, []) for c in HYPOTHESIS_CHECKS}


def test_hypothesis_table_reaches_every_check():
    """Every id with hypotheses reports a violation somewhere in the table,
    lem_33 excepted: it has none."""
    tripped = {c for _, expected in HYPOTHESIS_TABLE for c in expected}
    assert tripped == set(HYPOTHESIS_CHECKS) - {"lem_33"}


def test_hypothesis_checks_are_checks():
    assert set(HYPOTHESIS_CHECKS) <= set(theorems.CHECKS)


def test_unknown_hypothesis_set():
    with pytest.raises(ValueError):
        validate_hypotheses(P_A, "nope")


def test_round_trip_dictionaries():
    d = P_B.to_dict()
    assert [m["exponents"] for m in d["monomials"]] == [[6, 1, 0, 1],
                                                        [6, 0, 1, 1]]
