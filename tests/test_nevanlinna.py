"""Proximity quadrature, counting modes, characteristic."""

import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from nevlab import locator, nevanlinna
from nevlab.expr import compile_expr, parse_expr
from nevlab.locator import Divisor, DivisorPoint
from nevlab.nevanlinna import (_BATCH_RADII, CountingMode, QuadratureError,
                               characteristic, compile_log_abs, counting,
                               nevanlinna_rows, proximity, radial_grid)

E = math.e


def test_proximity_of_exponential():
    # (1/2pi) int log+ |e^(r cos t)| dt = r/pi
    assert proximity(parse_expr("exp(z)"), math.pi) == pytest.approx(
        1.0, abs=1e-8)
    assert proximity(parse_expr("exp(z)"), 10.0) == pytest.approx(
        10 / math.pi, abs=1e-8)


def test_proximity_of_monomials():
    assert proximity(parse_expr("z"), E) == pytest.approx(1.0, abs=1e-9)
    assert proximity(parse_expr("z^10"), E) == pytest.approx(10.0, abs=1e-9)
    assert proximity(parse_expr("1/z"), E) == pytest.approx(0.0, abs=1e-9)


def test_proximity_needs_the_positive_part():
    # log|z - 5| is negative near theta = 0 on the circle |z| = 4.9, so the
    # mean of the positive part sits strictly between 0 and the crude bound
    m = proximity(parse_expr("z - 5"), 4.9)
    assert 0 < m < math.log(9.9)


def test_pole_on_the_circle_is_an_explicit_failure():
    with pytest.raises(QuadratureError, match="not finite on the circle"):
        proximity(parse_expr("1/(z - 2)"), 2.0)


def test_pole_on_the_ring_fails():
    """The poles +-2i of exp(z)*(z^2 - 1)/(z^2 + 4) sit on |z| = 2.  The
    sample at theta = pi/2 misses 2i by rounding, so ln|f| is finite at
    every point, and the log singularity keeps the pieces around it from
    settling; the radius must fail, not return a value.  The message is
    left open: it names the budget today, and could name the pole."""
    with pytest.raises(QuadratureError):
        proximity(parse_expr("exp(z)*(z^2 - 1)/(z^2 + 4)"), 2.0)


def _alone(f, r, tol=1e-10):
    try:
        return proximity(f, r, tol)
    except QuadratureError as exc:
        return exc


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, QuadratureError):
        assert str(got) == str(want)
        assert got.achieved == want.achieved
    else:
        assert got == want


# tan(z)^3*(z - 1) at r = 29.837..., where a triple pole sits 2.5e-4*r from
# the ring, by mpmath at 30 digits with breakpoints graded to 1e-8 around
# theta = 0 and pi; _mp_proximity, which does not grade them, is off here.
# |f| is mirror-symmetric, so proximity integrates [0, pi], and the peaks
# over the poles near 9.5*pi and -9.5*pi sit at both ends of that arc.
TAN_CUBED_NEAR_POLE = (29.837171008851936, 3.4738658487780737)


# the functions of the nev_dense benchmark workload; the extra radius is the
# cleared ring of its tan(z)^3*(z - 1) row nearest a pole
@pytest.mark.parametrize("src, extra", [
    ("tan(z)", []),
    ("1/(tan(z) - (i))", []),
    ("sin(z)^3", []),
    ("tan(z)^3*(z - 1)", [TAN_CUBED_NEAR_POLE[0]]),
    ("exp(z)", []),
])
def test_batched_proximity_matches_each_radius_alone(src, extra):
    f = parse_expr(src)
    radii = radial_grid(2.2, 38.0, _BATCH_RADII + 9) + extra
    # more radii than one batch takes
    assert len(radii) > _BATCH_RADII
    got = proximity(f, radii)
    assert len(got) == len(radii)
    for r, g in zip(radii, got):
        _assert_same(g, _alone(f, r))
    if extra:
        assert got[-1] == pytest.approx(TAN_CUBED_NEAR_POLE[1], abs=1e-10)


def test_no_quadrature_call_takes_more_than_one_batch(monkeypatch):
    """_BATCH_RADII bounds the radii, and so the arrays, of each
    _gauss_circles call, however many radii proximity is given."""
    sizes = []
    gauss_circles = nevanlinna._gauss_circles

    def recorded(ln_f, radii, *args):
        sizes.append(len(radii))
        return gauss_circles(ln_f, radii, *args)

    monkeypatch.setattr(nevanlinna, "_gauss_circles", recorded)
    radii = radial_grid(2.0, 6.0, 2 * _BATCH_RADII + 3)
    assert len(proximity(parse_expr("exp(z)"), radii)) == len(radii)
    assert sizes == [_BATCH_RADII, _BATCH_RADII, 3]


def test_batched_proximity_keeps_failures_in_their_rows():
    f = parse_expr("1/(z - 2)")
    radii = [1.5, 2.0, 2.5] * 4
    got = proximity(f, radii)
    for r, g in zip(radii, got):
        _assert_same(g, _alone(f, r))
    assert [isinstance(g, QuadratureError) for g in got[:3]] == \
        [False, True, False]
    assert str(got[1]).startswith("log|f| not finite on the circle")
    assert got[1].achieved is None
    # no piece meets a tolerance below rounding, so the pieces are halved
    # until the budget runs out
    f = parse_expr("exp(z)")
    got = proximity(f, [3.0, 5.0], 1e-30)
    for r, g in zip([3.0, 5.0], got):
        _assert_same(g, _alone(f, r, 1e-30))
        assert str(g) == "quadrature interval budget exhausted"
        assert g.achieved > 0


def test_kink_left_open_fails_its_radius(monkeypatch):
    # one regula falsi round cannot place the kinks of log+|tan|; the radius
    # fails with the error bound of where they were left instead of
    # returning a value that misses tol
    monkeypatch.setattr(nevanlinna, "_KINK_ROUNDS", 1)
    with pytest.raises(QuadratureError, match="did not converge") as exc:
        proximity(parse_expr("tan(z)"), 4.0)
    assert exc.value.achieved > 1e-10
    # a circle with no kink needs no round
    assert proximity(parse_expr("z^10"), E) == pytest.approx(10.0, abs=1e-9)


def test_proximity_shares_evaluator_calls_across_a_batch(monkeypatch):
    """Every open bracket, then every open piece, of a batch shares one
    evaluator call per round.  286 is the count of the adaptive Simpson rule
    that the Gauss-Legendre pieces replaced."""
    calls = []
    real = nevanlinna.compile_log_abs

    def counted(e):
        ln_f = real(e)

        def ev(z):
            calls.append(z.size)
            return ln_f(z)
        return ev

    monkeypatch.setattr(nevanlinna, "compile_log_abs", counted)
    proximity(parse_expr("tan(z)"), radial_grid(2, 40, 512))
    assert len(calls) <= 286


def test_tol_below_rounding_fails_without_spending_the_budget(monkeypatch):
    """A radius fails once one piece's rounding floor alone exceeds its
    share of tol: the arc's samples, then G8 within K17, then G32 within
    K65.  Halving until the 2048-piece budget ran out took 790 calls."""
    calls = []
    real = nevanlinna.compile_log_abs

    def counted(e):
        ln_f = real(e)

        def ev(z):
            calls.append(z.size)
            return ln_f(z)
        return ev

    monkeypatch.setattr(nevanlinna, "compile_log_abs", counted)
    got = proximity(parse_expr("exp(z)"), radial_grid(2, 20, 8), 1e-30)
    assert len(calls) == 3
    for g in got:
        assert str(g) == "quadrature interval budget exhausted"
        assert g.achieved > 0


@pytest.mark.parametrize("n, xk, wk, wg", [
    (8, nevanlinna._XK17, nevanlinna._WK17, nevanlinna._WG8),
    (32, nevanlinna._XK65, nevanlinna._WK65, nevanlinna._WG32),
])
def test_gauss_kronrod_literals(n, xk, wk, wg):
    """Read exactly at 40 digits, K(2n+1) integrates x^k on [-1, 1] through
    degree 3n + 1 and the G(n) within it through 2n - 1; every weight is
    positive, and the G nodes are the roots of P_n to one ulp.  The Kronrod
    extension of a Gauss rule is unique, so this pins the literals."""
    assert len(xk) == len(wk) == n + 1 and len(wg) == n // 2
    assert xk[-1] == 0.0 and min(wk) > 0 and min(wg) > 0
    assert list(xk) == sorted(xk, reverse=True)
    with mp.workdps(40):
        def exact(nodes, weights, k):
            # the stored halves mirrored, 0 taken once
            got = sum(mp.mpf(w) * (side * mp.mpf(x)) ** k
                      for x, w in zip(nodes, weights)
                      for side in ((1, -1) if x else (1,)))
            return abs(got - (mp.mpf(2) / (k + 1) if k % 2 == 0 else 0))
        for k in range(3 * n + 2):
            assert exact(xk, wk, k) <= 1e-15
        for k in range(2 * n):
            assert exact(xk[1::2], wg, k) <= 1e-15
        for x in xk[1::2]:
            root = mp.findroot(lambda t: mp.legendre(n, t), mp.mpf(x))
            assert abs(x - float(root)) <= math.ulp(x)


# tracemalloc peaks of the batched call over radial_grid(2, 40, 512), in
# bytes, measured before the quadrature took one ln|num/den| program per
# quotient and halved its intervals without copies; the batch cap was raised
# on the memory that freed, so it must not raise the peak again
@pytest.mark.parametrize("src, former_peak", [
    ("tan(z)^3*(z - 1)", 1_728_213),
    ("sin(z)^3", 1_879_301),
])
def test_batched_proximity_peaks_no_higher_than_before(src, former_peak):
    f = parse_expr(src)
    radii = radial_grid(2, 40, 512)
    proximity(f, radii[:1])     # compile outside the traced call
    tracemalloc.start()
    try:
        proximity(f, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= former_peak


def test_one_radius_gives_a_float_and_a_sequence_a_list():
    assert type(proximity(parse_expr("exp(z)"), 3)) is float
    assert proximity(parse_expr("exp(z)"), []) == []


def _mp_proximity(fn, r, grid=256):
    """(1/2pi) * integral of log+|fn(r e^(it))| over [0, 2pi] by mpmath.quad
    at 30 digits, split where log|fn| changes sign so that every piece is
    smooth."""
    with mp.workdps(30):
        def lg(t):
            return mp.log(abs(fn(r * mp.expj(t))))
        ts = [2 * mp.pi * k / grid for k in range(grid + 1)]
        vals = [lg(t) for t in ts]
        cuts = [ts[0]]
        for a, b, va, vb in zip(ts, ts[1:], vals, vals[1:]):
            if (va > 0) != (vb > 0):
                cuts.append(mp.findroot(lg, (a, b), solver="anderson"))
        cuts.append(ts[-1])
        total = sum(mp.quad(lg, [a, b]) for a, b in zip(cuts, cuts[1:])
                    if lg((a + b) / 2) > 0)
        return float(total / (2 * mp.pi))


# the nev_dense functions, whose |f| is proven symmetric under every map,
# the mirror alone or the reflection alone, and an entire function with the
# reflection alone
@pytest.mark.parametrize("src, proven", [
    ("tan(z)", (True, True, True)),
    ("sin(z)^3", (True, True, True)),
    ("tan(z)^3*(z - 1)", (True, False, False)),
    ("exp(z)", (True, False, False)),
    ("1/(tan(z) - (i))", (False, False, True)),
    ("cos(z) + (i)*z", (False, False, True)),
])
def test_rows_on_the_arc_match_the_whole_circle(monkeypatch, src, proven):
    """Every row integrated over the arc that the symmetries leave agrees
    within 1e-10 with the row integrated over the whole circle, which the
    rows get when no symmetry is proven."""
    f = parse_expr(src)
    radii = radial_grid(2, 40, 512)
    assert nevanlinna.circle_symmetries(f) == proven
    arc = nevanlinna_rows(f, radii)
    monkeypatch.setattr(nevanlinna, "circle_symmetries",
                        lambda e: (False, False, False))
    whole = nevanlinna_rows(f, radii)
    for a, w in zip(arc, whole):
        assert (a.r, a.perturbed_r, a.error) == (w.r, w.perturbed_r, w.error)
        assert abs(a.m - w.m) <= 1e-10 and abs(a.T - w.T) <= 1e-10
    assert [a.error for a in arc] == [None] * len(radii)


def test_proximity_of_exp_z_squared():
    # log|exp(z^2)| = r^2 cos(2t), whose positive part has mean r^2/pi
    f = parse_expr("exp(z^2)")
    for r in (1.5, 4.0, 7.0):
        # measured error <= 6.3e-16 relative
        assert proximity(f, r) == pytest.approx(r * r / math.pi, rel=1e-12)


# a pole at 38.5*exp(i*pi/128): on |z| = 38 log|f| > 0 only on an arc of
# width 0.046 around theta = pi/128, between samples 2*pi/128 apart
NARROW_POLE = mp.mpc(38.488404519803865, 0.9448372981321231)


@pytest.mark.parametrize("src, fn, radii", [
    ("tan(z)", mp.tan, (2.5, 4.0, 6.0)),
    ("sin(z)^3", lambda z: mp.sin(z) ** 3, (2.0, 5.0, 10.0)),
    # a quarter arc, then a half arc
    ("cos(z)", mp.cos, (1.5, 4.0, 9.0)),
    ("exp(z)", mp.exp, (0.7, 3.0, 8.0)),
    ("1/(z - 38.488404519803865 - 0.9448372981321231*i)",
     lambda z: 1 / (z - NARROW_POLE), (38.0,)),
])
def test_proximity_matches_mpmath(src, fn, radii):
    f = parse_expr(src)
    for r in radii:
        # within the default tol 1e-10; measured off by at most 1.5e-12
        assert abs(proximity(f, r) - _mp_proximity(fn, r)) <= 1e-10


# mpmath at 30 digits, split at the kinks of log+|tan|
@pytest.mark.parametrize("src, r, want", [
    ("tan(z)", 4.0, 0.010117700240720151387),
    ("tan(z)", 10.0, 1.4444273074580933451e-6),
    ("tan(z)^3*(z - 1)", *TAN_CUBED_NEAR_POLE),
])
def test_proximity_matches_reference_values(src, r, want):
    assert abs(proximity(parse_expr(src), r) - want) <= 1e-10


@pytest.mark.parametrize("src", [
    "exp(z)*(z^2 - 1)/(z^2 + 4)",
    "tan(z)^3*(z - 1)",
    "-z^2*exp(2*z)/(z - 3)",
    "(exp(z) - 1 - z)^2*sin(z)",
    "3*z",
    "exp(2*z)*(2*z + 1)",
])
def test_log_abs_matches_log_of_the_value(src):
    """The structural ln|e| agrees with the log of e's value wherever that
    is finite."""
    e = parse_expr(src)
    rng = np.random.default_rng(11)
    zs = rng.uniform(-8, 8, 400) + 1j * rng.uniform(-8, 8, 400)
    with np.errstate(divide="ignore"):
        want = np.log(np.abs(compile_expr(e)(zs)))
    got = compile_log_abs(e)(zs)
    ok = np.isfinite(want)
    assert ok.sum() > 300
    assert np.allclose(got[ok], want[ok], rtol=1e-12, atol=1e-11)


def test_log_abs_stays_finite_past_overflow():
    e = parse_expr("exp(z)^40*(z - 1)")
    zs = np.array([30.0 + 0.0j])
    assert not np.isfinite(compile_expr(e)(zs)).any()
    assert compile_log_abs(e)(zs)[0] == pytest.approx(1200 + math.log(29),
                                                      rel=1e-14)


@pytest.mark.parametrize("src", ["3", "1+2"])
def test_constant_expressions_take_the_shape_of_z(src):
    e = parse_expr(src)
    zs = np.zeros((2, 3), dtype=complex)
    value, log_abs = compile_expr(e)(zs), compile_log_abs(e)(zs)
    assert value.shape == log_abs.shape == zs.shape
    assert np.all(value == 3)
    assert np.allclose(log_abs, math.log(3), rtol=1e-15)


def cubic_divisor(r=10.0):
    """Zeros of z^3 (z - 1): a triple zero at 0 and a simple zero at 1."""
    return Divisor(r, (DivisorPoint(0.0, 0.0, 3), DivisorPoint(1.0, 0.0, 1)))


def test_counting_closed_forms():
    d = cubic_divisor()
    for r in (7.5, E ** 2):
        assert counting(d, r) == pytest.approx(4 * math.log(r), abs=1e-12)
        assert counting(d, r, CountingMode.reduced()) == pytest.approx(
            2 * math.log(r), abs=1e-12)
        assert counting(d, r, CountingMode.capped(2)) == pytest.approx(
            3 * math.log(r), abs=1e-12)
        assert counting(d, r, CountingMode.trunc_le(1)) == pytest.approx(
            math.log(r), abs=1e-12)
        assert counting(d, r, CountingMode.trunc_ge(2)) == pytest.approx(
            3 * math.log(r), abs=1e-12)
        assert counting(d, r, CountingMode.trunc_ge_reduced(2)) == \
            pytest.approx(math.log(r), abs=1e-12)
        # level 0 admits no multiplicity, or caps every one at 0
        for mode in (CountingMode.trunc_le(0),
                     CountingMode.trunc_le_reduced(0), CountingMode.capped(0)):
            assert counting(d, r, mode) == 0.0


def test_counting_rejects_larger_radius():
    with pytest.raises(ValueError):
        counting(cubic_divisor(5.0), 6.0)


def random_divisor(rng):
    pts = []
    for _ in range(rng.randint(1, 6)):
        w = rng.uniform(0.1, 9.0) * complex(math.cos(a := rng.uniform(0, 6.28)),
                                            math.sin(a))
        pts.append(DivisorPoint(w.real, w.imag, rng.randint(1, 5)))
    return Divisor(10.0, tuple(pts))


def test_counting_mode_algebra():
    """Structural identities between the counting variants."""
    rng = random.Random(20260823)
    for _ in range(25):
        d = random_divisor(rng)
        r = 10.0
        k = rng.randint(1, 4)
        full = counting(d, r)
        red = counting(d, r, CountingMode.reduced())
        low = counting(d, r, CountingMode.trunc_le(k))
        high = counting(d, r, CountingMode.trunc_ge(k + 1))
        cap = counting(d, r, CountingMode.capped(k))
        assert low + high == pytest.approx(full, rel=1e-12, abs=1e-12)
        assert red <= full + 1e-12
        assert cap <= full + 1e-12
        assert cap <= k * red + 1e-12
        assert counting(d, r, CountingMode.trunc_le_reduced(k)) <= low + 1e-12
        assert counting(d, r, CountingMode.trunc_ge_reduced(k + 1)) <= \
            high + 1e-12


def test_counting_equals_the_plain_loop():
    """counting, which reads each divisor's weighted moduli once per mode,
    gives the bits of the loop over its points with mode.weight."""
    rng = random.Random(5150)
    for _ in range(60):
        d = random_divisor(rng)
        if rng.random() < 0.2:
            d = Divisor(d.radius, d.points + (DivisorPoint(0.0, 0.0, 2),))
        k = rng.randint(0, 4)
        modes = [CountingMode.full(), CountingMode.reduced(),
                 CountingMode.trunc_le(k), CountingMode.trunc_le_reduced(k),
                 CountingMode.trunc_ge(k), CountingMode.trunc_ge_reduced(k),
                 CountingMode.capped(k)]
        for r in (rng.uniform(0.5, 10.0), 10.0):
            for mode in modes + modes:          # the second pass is memoised
                want = 0.0
                for p in d.points:
                    a, w = abs(p.location), mode.weight(p.multiplicity)
                    if w == 0:
                        continue
                    if a <= 1e-12 * r:
                        want += w * math.log(r)
                    elif a <= r:
                        want += w * math.log(r / a)
                assert counting(d, r, mode) == want


def test_characteristic_of_entire_function_is_proximity():
    f = parse_expr("exp(z)")
    empty = Divisor(20.0, ())
    for r in (5.0, 12.0):
        assert characteristic(f, r, empty) == pytest.approx(r / math.pi,
                                                            abs=1e-8)


def test_characteristic_of_reciprocal_monomial():
    f = parse_expr("1/z")
    origin = Divisor(20.0, (DivisorPoint(0.0, 0.0, 1),))
    for r in (E, E ** 2):
        assert characteristic(f, r, origin) == pytest.approx(math.log(r),
                                                             abs=1e-9)


def test_radial_grid():
    g = radial_grid(2.0, 40.0, 32)
    assert len(g) == 32
    assert g[0] == pytest.approx(2.0) and g[-1] == pytest.approx(40.0)
    assert all(a < b for a, b in zip(g, g[1:]))
    lin = radial_grid(1.0, 5.0, 5, "linear")
    assert lin == pytest.approx([1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        radial_grid(5.0, 2.0, 8)
    with pytest.raises(ValueError):
        radial_grid(1.0, 2.0, 8, "cubic")


@pytest.mark.parametrize("start,stop", [
    (2.0, math.inf), (math.inf, math.inf), (2.0, math.nan), (math.nan, 4.0),
    (2, 10**400),
])
def test_radial_grid_needs_finite_ends(start, stop):
    """An infinite stop once gave [2.0, inf, inf, inf] and a RuntimeWarning,
    and an int stop past the largest float an OverflowError (log) or a
    numpy type error (linear)."""
    for spacing in ("log", "linear"):
        with pytest.raises(ValueError, match="both finite"):
            radial_grid(start, stop, 4, spacing)


def test_rows_for_entire_function():
    rows = nevanlinna_rows(parse_expr("exp(z)"), radial_grid(2, 20, 8))
    for w in rows:
        assert w.error is None and not w.perturbed_r
        assert w.N == 0
        assert w.T == pytest.approx(w.r / math.pi, abs=1e-8)


def test_rows_for_tangent():
    rows = nevanlinna_rows(parse_expr("tan(z)"), radial_grid(5, 20, 6))
    for w in rows:
        assert w.error is None
        assert w.T == pytest.approx(2 * w.r / math.pi, abs=1.0)
        assert w.N > 0


def test_rows_clear_within_the_located_pole_radius(monkeypatch):
    """Poles on every candidate ring of rmax but the last make negotiation
    locate the pole divisor at rmax (1 - 1e-3), below rmax; poles on the
    first seven candidate rings of r = 5 leave 5.005 and 4.995.  The row
    clears within the located radius, so it runs at 4.995 instead of
    counting beyond the divisor at 5.005.  An outward candidate can pass
    the located radius only when the divisor padding is about 2e-3 or less,
    so the padding is narrowed to 2e-3 here."""
    monkeypatch.setattr(nevanlinna, "_DIVISOR_PAD", 2e-3)
    radii = radial_grid(2, 5, 4)
    rmax = (1 + nevanlinna._DIVISOR_PAD) * max(radii)
    poles = [rmax * (1 + o) for o in locator._OFFSETS[:-1]] \
        + [5 * (1 + o) for o in locator._OFFSETS[:7]]
    f = parse_expr("1/(" + "*".join(f"(z - {a!r})" for a in poles) + ")")
    rows = nevanlinna_rows(f, radii)
    assert [w.error for w in rows] == [None] * 4
    assert rows[-1].r == pytest.approx(4.995, rel=1e-12)
    assert rows[-1].perturbed_r


def test_rows_skip_proximity_when_no_radius_clears(monkeypatch):
    """A failed pole location fails every row before any quadrature, so
    f's log-magnitude program is never compiled."""
    calls = []

    def fail(*args):
        raise locator.RingTooCloseError("forced")

    monkeypatch.setattr(nevanlinna.EvalContext, "resolve", fail)
    monkeypatch.setattr(nevanlinna, "compile_log_abs", calls.append)
    rows = nevanlinna_rows(parse_expr("tan(z)"), radial_grid(2, 20, 8))
    assert {w.error for w in rows} == {"RingTooCloseError: forced"}
    assert calls == []


def test_rows_survive_exponential_absorption():
    """1/(tan - i) has a denominator that is secretly -i*exp(i*z); the raw
    sum underflows to exact zero high on a radius-40 circle, so clean rows
    here prove the collapsed form is used throughout."""
    rows = nevanlinna_rows(parse_expr("1/(tan(z) - (i))"), radial_grid(2, 40, 8))
    for w in rows:
        assert w.error is None
        # i*cos(z)*exp(-i*z) grows like exp(2*Im z) in the upper half plane
        assert w.T == pytest.approx(2 * w.r / math.pi, abs=1.0)
