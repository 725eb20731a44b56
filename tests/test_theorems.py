"""Named checks: verdict logic, dispatch, caching coherence."""

import math

import pytest

import nevlab.locator as locator
import nevlab.nevanlinna as nevanlinna
import nevlab.theorems as theorems
from nevlab.diffpoly import DiffPolynomial
from nevlab.exppoly import canonical_quotient
from nevlab.expr import parse_expr
from nevlab.locator import divisor_pair_at
from nevlab.nevanlinna import DEFAULT_QUAD_TOL, nevanlinna_rows, radial_grid
from nevlab.theorems import (CheckRow, EvalContext, TooFewRowsError,
                             default_radii, run_check, verdict)

EZ = parse_expr("exp(z)")
GRID = radial_grid(2, 20, 8)


def rows_with(residuals, errors=None):
    errors = errors or [None] * len(residuals)
    return [CheckRow(float(i + 2), 1.0, 1.0 - x, x, err)
            for i, (x, err) in enumerate(zip(residuals, errors))]


def test_verdict_uses_top_quartile_median():
    assert verdict(rows_with([-3.0] * 8)) == "pass"
    assert verdict(rows_with([0.5] * 8)) == "fail"
    # early noise is forgiven, the tail decides
    assert verdict(rows_with([9.0] * 6 + [-1.0, -1.0])) == "pass"
    assert verdict(rows_with([-9.0] * 6 + [1.0, 1.0])) == "fail"


def test_verdict_row_floor():
    with pytest.raises(TooFewRowsError):
        verdict(rows_with([-1.0] * 7))


def test_verdict_error_rows():
    bad_tail = rows_with([-1.0] * 8, [None] * 7 + ["boom"])
    assert verdict(bad_tail) == "fail"
    bad_head = rows_with([-1.0] * 8, ["boom"] + [None] * 7)
    assert verdict(bad_head) == "pass"


def test_verdict_fails_nan_residuals():
    """Residuals that came out NaN without an error fail, whatever epsilon."""
    assert verdict(rows_with([math.nan] * 8)) == "fail"
    assert verdict(rows_with([math.nan] * 8), epsilon=math.inf) == "fail"


def test_verdict_equality_mode():
    exact = [CheckRow(float(i + 2), 1.0, 1.0 + 1e-4, 0.0) for i in range(8)]
    assert verdict(exact, equality=True) == "pass"
    assert verdict(exact, equality=True, tolerance=1e-6) == "fail"
    one_off = exact[:-1] + [CheckRow(9.0, 1.0, 1.2, 0.0)]
    assert verdict(one_off, equality=True) == "fail"


def test_default_radii():
    g = default_radii()
    assert len(g) == 32 and g[0] == pytest.approx(2.0)
    assert g[-1] == pytest.approx(40.0)


def test_square_times_second_derivative_squared():
    rep = run_check("thm_1", EZ,
                    DiffPolynomial.from_exponents((1, (2, 0, 2))), radii=GRID)
    assert rep.verdict == "pass"
    assert rep.worst_residual < 0
    assert len(rep.rows) == 8
    assert rep.stats["constant"] == pytest.approx(1.0)


def test_thm_g_rows_match_their_closed_form():
    """thm_g on f = e^z with P = f^3 (f')^2, so P[f] = e^{5z}: the lhs is
    T(r, f) = r/pi, and the rhs is c = 1/(d - nu - 4 + q_0) = 1/2 times the
    reduced count of the simple zeros 2 pi i k/5 of e^{5z} - 1, the one at
    0 counted as ln r and each pair +-k as 2 ln(5r/(2 pi k))."""
    rep = run_check("thm_g", EZ, DiffPolynomial.from_exponents((1, (3, 2))),
                    radii=radial_grid(2, 40, 8))
    assert rep.verdict == "pass" and rep.stats["constant"] == 0.5
    assert len(rep.rows) == 8
    for w in rep.rows:
        assert w.error is None
        ks = range(1, int(5 * w.r / (2 * math.pi)) + 1)
        rhs = 0.5 * (math.log(w.r) + 2 * sum(
            math.log(5 * w.r / (2 * math.pi * k)) for k in ks))
        assert w.lhs == pytest.approx(w.r / math.pi, rel=1e-12)
        assert w.rhs == pytest.approx(rhs, rel=1e-12)


def test_thm_g_needs_enough_degree_over_weight_excess():
    """P = f f' has d - nu = 1 < 5 - q_0 = 4."""
    rep = run_check("thm_g", EZ, DiffPolynomial.from_exponents((1, (1, 1))),
                    radii=GRID)
    assert rep.verdict == "hypothesis_violation"
    assert rep.violations == ("needs degree minus weight excess >= 5 - q_0",)
    assert rep.rows == ()


def test_monomial_check_specialises_the_general_one():
    """On a single monomial the dedicated check and the general one agree."""
    poly = DiffPolynomial.from_exponents((1, (2, 0, 2)))
    ctx = EvalContext(EZ, GRID)
    general = run_check("thm_1", EZ, poly, context=ctx)
    special = run_check("thm_e", EZ, poly, context=ctx)
    assert general.verdict == special.verdict == "pass"
    for a, b in zip(general.rows, special.rows):
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


@pytest.mark.parametrize("src", ["exp(z)", "tan(z)"])
def test_fixed_monomial_check_is_an_instance_of_the_threshold(src):
    """thm_d at l=3, n=1, k=1 is thm_f on P = f^3 f': the same requests,
    the same reduced counting and the same constant 1/(l-2) = 1/(d-nu-2),
    so the same rows to the bit."""
    f = parse_expr(src)
    fixed = run_check("thm_d", f, params={"l": 3, "n": 1, "k": 1},
                      radii=GRID)
    general = run_check("thm_f", f, DiffPolynomial.from_exponents((1, (3, 1))),
                        radii=GRID)
    assert fixed.verdict == general.verdict
    assert fixed.stats["constant"] == general.stats["constant"] == 1.0
    assert [repr(w) for w in fixed.rows] == [repr(w) for w in general.rows]


def test_reduced_counting_pair_specialises_too():
    poly = DiffPolynomial.from_exponents((1, (6, 1, 0, 1)))
    ctx = EvalContext(EZ, GRID)
    general = run_check("thm_2", EZ, poly, context=ctx)
    special = run_check("thm_f", EZ, poly, context=ctx)
    assert general.verdict == special.verdict == "pass"
    for a, b in zip(general.rows, special.rows):
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_vacuous_instance_returns_no_rows():
    poly = DiffPolynomial.from_exponents((1, (2, 1, 2, 2)), (-1, (2, 2, 1, 2)))
    rep = run_check("thm_1", EZ, poly, radii=GRID)
    assert rep.verdict == "vacuous"
    assert rep.rows == () and rep.worst_residual is None


def test_vacuous_instance_on_a_shifted_exponential():
    """P(exp(z + 1)) cancels exactly, exp(1) included: no rows are run."""
    poly = DiffPolynomial.from_exponents((1, (2, 1, 2, 2)), (-1, (2, 2, 1, 2)))
    rep = run_check("thm_1", parse_expr("exp(z + 1)"), poly, radii=GRID)
    assert rep.verdict == "vacuous"
    assert rep.rows == () and rep.worst_residual is None


def test_hypothesis_violation_returns_no_rows():
    poly = DiffPolynomial.from_exponents((1, (1, 0, 2)))
    rep = run_check("thm_1", EZ, poly, radii=GRID)
    assert rep.verdict == "hypothesis_violation"
    assert rep.violations and rep.rows == ()


@pytest.mark.parametrize("src", ["2", "sin(z)^2 + cos(z)^2"])
def test_constant_functions_are_rejected(src):
    rep = run_check("thm_a", parse_expr(src), radii=GRID)
    assert rep.verdict == "hypothesis_violation"
    assert any("constant" in v for v in rep.violations)


def test_dispatch_validation():
    with pytest.raises(ValueError):
        run_check("thm_99", EZ, radii=GRID)
    with pytest.raises(ValueError):
        run_check("thm_1", EZ, radii=GRID)          # polynomial missing
    with pytest.raises(ValueError):
        run_check("thm_a", EZ,
                  DiffPolynomial.from_exponents((1, (2, 1))), radii=GRID)
    with pytest.raises(ValueError):
        run_check("thm_b", EZ, params={"k": 2.5}, radii=GRID)
    with pytest.raises(ValueError):
        run_check("thm_b", EZ, params={"k": math.inf}, radii=GRID)
    with pytest.raises(ValueError, match="'k' must be at most 100"):
        run_check("thm_b", EZ, params={"k": 10**30}, radii=GRID)
    # a constant function is a violation before any plan divides by f'
    rep = run_check("lem_31", parse_expr("2"), radii=GRID)
    assert rep.verdict == "hypothesis_violation"
    assert rep.violations == ("function must be non-constant",)


def test_an_undeclared_parameter_is_refused():
    """A misspelt name would otherwise run the check at its default."""
    with pytest.raises(ValueError, match="'lem_32' has no parameter.* kk"):
        run_check("lem_32", EZ, params={"kk": 3}, radii=GRID)


def test_a_context_of_another_function_is_refused():
    """Constancy would be judged on f and the rows computed on ctx.f."""
    tan = parse_expr("tan(z)")
    with pytest.raises(ValueError, match="built for another function"):
        run_check("lem_32", tan, context=EvalContext(EZ, GRID))


def test_radii_beside_a_context_are_refused():
    """The context's radii are the rows'; others would be ignored."""
    with pytest.raises(ValueError, match="radii come from the context"):
        run_check("lem_32", EZ, radii=radial_grid(2, 40, 8),
                  context=EvalContext(EZ, GRID))


def test_row_floor_propagates():
    with pytest.raises(TooFewRowsError):
        run_check("thm_a", EZ, radii=radial_grid(2, 10, 4))


def test_nonpositive_order_is_a_violation():
    rep = run_check("thm_b", EZ, params={"k": 0}, radii=GRID)
    assert rep.verdict == "hypothesis_violation"


def test_declared_parameter_defaults_and_bounds():
    declared = {cid: [(p.name, p.default, getattr(p, "least", None))
                      for p in spec.params]
                for cid, spec in theorems.CHECKS.items() if spec.params}
    assert declared == {
        "thm_b": [("k", 2, 1)],
        "thm_c": [("n", 1, 0), ("p", 1, 1), ("k", 1, 1), ("alpha", 1, None),
                  ("a", 1, None)],
        "thm_d": [("l", 3, 3), ("n", 1, 1), ("k", 1, 1)],
        "lem_32": [("k", 2, 1)],
        "lem_33": [("b", 1, None)],
        "lem_35": [("b", 1, None)],
    }


@pytest.mark.parametrize("cid,param", [
    (cid, p) for cid, spec in theorems.CHECKS.items() for p in spec.params
    if isinstance(p, theorems._Int)], ids=lambda v: getattr(v, "name", v))
def test_integer_below_its_bound_is_a_violation(cid, param):
    got = param.least - 1
    rep = run_check(cid, EZ, params={param.name: got}, radii=GRID)
    assert rep.verdict == "hypothesis_violation"
    assert rep.violations == (
        f"needs {param.name} >= {param.least} (got {got})",)
    assert rep.rows == () and rep.stats is None


def test_every_parameter_violation_is_reported_in_declared_order():
    rep = run_check("thm_c", EZ, params={"n": -1, "p": 0, "k": 0,
                                         "alpha": "exp(z)", "a": 0},
                    radii=GRID)
    assert rep.verdict == "hypothesis_violation"
    assert rep.violations == (
        "needs n >= 0 (got -1)", "needs p >= 1 (got 0)",
        "needs k >= 1 (got 0)", "alpha must be a rational function",
        "a must not vanish identically")


def test_exponential_weight_parameter_rejected():
    rep = run_check("thm_c", EZ, params={"alpha": "exp(z)"}, radii=GRID)
    assert rep.verdict == "hypothesis_violation"
    assert any("rational" in v for v in rep.violations)


def test_derivative_value_check_runs_with_zero_base_power():
    rep = run_check("thm_c", EZ, params={"n": 0, "p": 1, "k": 1}, radii=GRID)
    assert rep.verdict == "pass"


def test_log_derivative_identity_is_equality():
    rep = run_check("lem_31", parse_expr("(z - 1)*exp(z)"), radii=GRID)
    assert rep.verdict == "pass"
    assert rep.worst_residual is not None
    assert rep.worst_residual <= 5e-3
    for w in rep.rows:
        assert abs(w.lhs - w.rhs) <= 5e-3


def test_threshold_bound_fails_on_slowly_converging_instance():
    """Positive residuals decaying like log r / r stay above epsilon here."""
    poly = DiffPolynomial.from_exponents((1, (1, 0, 1)))
    rep = run_check("lem_35", EZ, poly, radii=radial_grid(2, 40, 8))
    assert rep.verdict == "fail"
    assert rep.worst_residual > 0


# f = exp(z) and P = f^2 (f'')^2, so P[f] = exp(4z) and the growth constant
# is 8; b = z makes b P[f] = z exp(4z).
_P4 = DiffPolynomial.from_exponents((1, (2, 0, 2)))


def test_lem_33_with_a_polynomial_b_meets_its_closed_form():
    """lhs = m(r, z exp(4z)) = (alpha ln r + 4r sin alpha)/pi, where
    ln r + 4r cos(theta) > 0 for |theta| < alpha = arccos(-ln r/(4r)); rhs
    = 8 T(r, f) + T(r, z) = 8r/pi + ln r.  Each proximity mean is within the
    quadrature tol, and rhs takes nine of them."""
    rep = run_check("lem_33", EZ, _P4, {"b": "z"}, radii=GRID)
    assert rep.stats["growth_constant"] == 8
    for w in rep.rows:
        r = w.r
        alpha = math.acos(-math.log(r) / (4 * r))
        lhs = (alpha * math.log(r) + 4 * r * math.sin(alpha)) / math.pi
        assert w.error is None
        assert abs(w.lhs - lhs) <= DEFAULT_QUAD_TOL
        assert abs(w.rhs - (8 * r / math.pi + math.log(r))) \
            <= 9 * DEFAULT_QUAD_TOL


def test_lem_35_with_a_polynomial_b_meets_its_closed_form():
    """z exp(4z) = 1 at z = W_k(4)/4 over the branches k of Lambert's W,
    (z exp(4z))' = (1 + 4z) exp(4z) vanishes at -1/4 and f has no zeros or
    poles, so rhs = sum of ln(r/|W_k(4)/4|) - ln(4r); lhs = 4 T(r, f) =
    4r/pi, four proximity means.  rhs, read from located points alone, is
    held to the same bound."""
    lambertw = pytest.importorskip("scipy.special").lambertw
    rep = run_check("lem_35", EZ, _P4, {"b": "z"}, radii=GRID)
    # |W_k(4)| grows with |k|, past 4 * max(GRID) by k = 41
    roots = [abs(complex(lambertw(4, k))) / 4 for k in range(-40, 41)]
    assert min(abs(complex(lambertw(4, k))) / 4 for k in (-41, 41)) \
        > max(GRID)
    for w in rep.rows:
        r = w.r
        rhs = sum(math.log(r / a) for a in roots if a <= r) - math.log(4 * r)
        assert w.error is None
        assert abs(w.lhs - 4 * r / math.pi) <= 4 * DEFAULT_QUAD_TOL
        assert abs(w.rhs - rhs) <= 4 * DEFAULT_QUAD_TOL


def test_reports_summarise():
    rep = run_check("thm_a", EZ, radii=GRID)
    s = rep.summary()
    assert s["check_id"] == "thm_a" and s["verdict"] == "pass"


def test_context_locates_each_entire_atom_once(monkeypatch):
    """lem_35 and lem_36 on tan(z) with P = f*f'' share the atom cos(z)
    across their requests.  One context locates each (atom, radius, seeds)
    once, the divisors are those located without a memo, and a second
    context locates again: the memo is not process-wide."""
    calls = []
    real = locator._locate_entire

    def locate(e, r, seeds=()):
        calls.append((e, r, tuple(seeds)))
        return real(e, r, seeds)

    monkeypatch.setattr(locator, "_locate_entire", locate)
    tan = parse_expr("tan(z)")
    poly = DiffPolynomial.from_exponents((1, (1, 0, 1)))
    ctx = EvalContext(tan)
    for cid in ("lem_35", "lem_36"):
        assert run_check(cid, tan, poly, context=ctx).verdict == "pass"
    assert calls and len(set(calls)) == len(calls)
    (cos, _), = locator._vanishing_factors(canonical_quotient(tan).den)
    assert [e for e, _, _ in calls].count(cos) == 1

    memoised = len(calls)
    pairs = dict(ctx._pairs)
    assert len(pairs) == 3            # f, P(f) - 1 and P(f)'
    for (expr, rt), pair in pairs.items():
        assert divisor_pair_at(expr, rt, 0) == pair
    # without the memo, each request locates the shared atom again
    assert len(calls) - memoised > memoised

    (expr, rt), pair = next(iter(pairs.items()))
    del calls[:]
    assert EvalContext(tan).pair_at(expr, rt) == pair
    assert calls


def test_check_rows_batch_proximity_bit_for_bit(monkeypatch):
    """A tan(z) lem_32 check gets all its proximity values from one batched
    call.  Its rows equal, bit for bit, the rows made from single-radius
    calls, and a radius whose quadrature fails keeps its error text; the
    piece budget is cut so that some radii fail.  tan(z) is integrated over
    a quarter of each circle, where no radius fails at 5 pieces or more."""
    monkeypatch.setattr(nevanlinna, "_MAX_PIECES", 4)
    tan = parse_expr("tan(z)")
    calls = []
    real = nevanlinna.proximity

    def counted(expr, r, tol=1e-10):
        calls.append(r)
        return real(expr, r, tol)

    monkeypatch.setattr(nevanlinna, "proximity", counted)
    batched = run_check("lem_32", tan, params={"k": 2}, radii=GRID)
    assert len(calls) == 1 and len(calls[0]) == len(GRID)

    monkeypatch.setattr(EvalContext, "prox",
                        lambda self, expr, r: real(expr, r, self.quad_tol))
    single = run_check("lem_32", tan, params={"k": 2}, radii=GRID)
    assert [repr(w) for w in batched.rows] == [repr(w) for w in single.rows]
    errors = [w.error for w in batched.rows]
    assert None in errors
    assert "QuadratureError: quadrature interval budget exhausted" in errors


def test_nev_and_check_rows_share_one_radius():
    """nev rows and check rows go through one row loop: the same padding,
    the same negotiation and the same clearing against f's zeros and poles.
    The zero 3 lies on the last requested ring, so both nudge it alike."""
    f = parse_expr("(z - 3)/(z + 10)")
    grid = radial_grid(2, 3, 8, "linear")
    nev = nevanlinna_rows(f, grid)[-1]
    check = run_check("lem_32", f, radii=grid).rows[-1]
    assert (nev.r, nev.perturbed_r) == (check.r, check.perturbed_r)
    assert check.perturbed_r and check.r != 3.0


def test_partial_divisor_rows_name_their_requests(monkeypatch):
    """With the depth cap at 1 and the lattice reading off, neither tan(z)
    nor its derivatives are located in full; the rows say which requests
    came back partial.  The runner requests f itself as "f", so lem_31
    names it so too."""
    monkeypatch.setattr(locator, "MAX_DEPTH", 1)
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: None)
    report = run_check("lem_32", parse_expr("tan(z)"), params={"k": 2},
                       radii=GRID)
    assert {row.error for row in report.rows} == {
        "divisor computation returned a partial result for f, fk"}
    report = run_check("lem_31", parse_expr("tan(z)"), radii=GRID)
    assert {row.error for row in report.rows} == {
        "divisor computation returned a partial result for f, gp, lq, ql"}
