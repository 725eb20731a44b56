"""Differential polynomials: construction, statistics, hypothesis checks."""

import cmath

import pytest

from nevlab.diffpoly import (DiffPolynomial, contains_exponential, poly_stats,
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


def test_unknown_hypothesis_set():
    with pytest.raises(ValueError):
        validate_hypotheses(P_A, "nope")


def test_round_trip_dictionaries():
    d = P_B.to_dict()
    assert [m["exponents"] for m in d["monomials"]] == [[6, 1, 0, 1],
                                                        [6, 0, 1, 1]]
