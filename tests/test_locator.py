"""Zero and pole location by the argument principle."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nevlab.locator as locator
from nevlab.expr import compile_expr, differentiate, format_complex, parse_expr
from nevlab.locator import (Divisor, DivisorPoint, NonIntegerResidualError,
                            RadiusMismatchError, RingTooCloseError,
                            clear_radius, divisor_of, divisor_pair_at,
                            find_zeros, winding_number)


def poly_expr(coeffs):
    """Grammar string for sum(coeffs[j] * z^j)."""
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(f"({c})")
        elif j == 1:
            terms.append(f"({c})*z")
        else:
            terms.append(f"({c})*z^{j}")
    return parse_expr(" + ".join(terms))


def _random_poly(rng, deg):
    """Integer coefficients whose companion roots are pairwise >= 1e-3 apart."""
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
        if coeffs[0] != 0 and coeffs[-1] != 0:
            roots = np.roots(coeffs[::-1])
            if np.min(np.abs(roots[:, None] - roots[None, :])
                      + np.eye(deg) * 1e9) > 1e-3:
                return coeffs, roots


def locations(divisor):
    return sorted(divisor.locations, key=lambda w: (w.real, w.imag))


def test_simple_cubic():
    e = parse_expr("(z - 1)*(z + 2)*(z - 3*i)")
    d = find_zeros(e, 4.0)
    got = locations(d)
    want = sorted([1.0, -2.0, 3.0j], key=lambda w: (w.real, w.imag))
    assert len(got) == 3
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-10
    assert all(p.multiplicity == 1 for p in d.points)


def test_multiple_root_multiplicity():
    e = parse_expr("(z - 1)^3*(z + 2)")
    d = find_zeros(e, 3.0)
    by_mult = {p.multiplicity: p.location for p in d.points}
    assert set(by_mult) == {1, 3}
    assert abs(by_mult[3] - 1.0) < 1e-7
    assert abs(by_mult[1] + 2.0) < 1e-10
    assert d.degree == 4


def test_exponential_lattice_roots():
    d = find_zeros(parse_expr("exp(3*z) - 1"), 3.0)
    want = [0.0, 2j * math.pi / 3, -2j * math.pi / 3]
    got = locations(d)
    assert len(got) == 3
    for g, w in zip(got, sorted(want, key=lambda v: (v.real, v.imag))):
        assert abs(g - w) < 1e-10


def test_winding_counts_zeros_minus_poles():
    assert winding_number(parse_expr("(z - 2)^5/z^2"), 3.0) == 3
    assert winding_number(parse_expr("z^4"), 1.0) == 4
    assert winding_number(parse_expr("exp(z)"), 10.0) == 0


def test_winding_of_cosine_at_large_radius():
    """26 simple zeros in |z| <= 40; fails if circle sampling aliases."""
    assert winding_number(parse_expr("cos(z)"), 40.0) == 26


def test_winding_with_fast_rotation():
    assert winding_number(parse_expr("exp(5*i*z)*(z - 1)"), 30.0) == 1


def test_quotient_divisor_of_tangent():
    zeros, poles = divisor_pair_at(parse_expr("tan(z)"), 5.0, 0)
    assert {round(w.real, 6) for w in zeros.locations} == {
        0.0, round(math.pi, 6), round(-math.pi, 6)}
    assert {round(w.real, 6) for w in poles.locations} == {
        round(math.pi / 2, 6), round(-math.pi / 2, 6),
        round(3 * math.pi / 2, 6), round(-3 * math.pi / 2, 6)}
    assert all(p.multiplicity == 1 for p in zeros.points + poles.points)


def test_on_circle_zero_raises_then_negotiates():
    e = parse_expr("z - 3")
    with pytest.raises(RingTooCloseError):
        find_zeros(e, 3.0)
    zeros, _ = divisor_of(e, 3.0, 0)
    assert zeros.degree == 1


def test_negotiation_on_exponential_ring():
    """Roots exactly on |z| = r are picked up at a nudged radius."""
    zeros, _ = divisor_of(parse_expr("exp(z) - 1"), 2 * math.pi, 0)
    assert zeros.degree == 3


def test_clear_radius():
    rt, perturbed = clear_radius(5.0, [5.0001])
    assert perturbed
    assert abs(rt - 5.0001) >= 1e-4 * rt
    rt, perturbed = clear_radius(5.0, [7.0])
    assert (rt, perturbed) == (5.0, False)


def test_restrict_and_algebra():
    d = Divisor(10.0, (DivisorPoint(1.0, 0.0, 2), DivisorPoint(8.0, 0.0, 1)))
    inner = d.restrict(5.0)
    assert inner.degree == 2 and inner.radius == 5.0
    with pytest.raises(RadiusMismatchError):
        inner.restrict(10.0)

    other = Divisor(10.0, (DivisorPoint(1.0, 0.0, 1),))
    assert d.subtract(other).degree == 2
    assert (d + other).degree == 4


# Divisors on a lattice of spacing 1/7 inside |z| <= 10: distinct points lie
# far beyond MERGE_TOL apart, and equal keys are the same point exactly.
_LATTICE = st.tuples(st.integers(-49, 49), st.integers(-49, 49)).filter(
    lambda k: math.hypot(*k) <= 70)
_DIVISOR_LAWS = settings(derandomize=True, database=None, deadline=None)


def _divisor(points: dict) -> Divisor:
    return Divisor(10.0, tuple(sorted(DivisorPoint(x / 7, y / 7, m)
                                      for (x, y), m in points.items())))


_divisors = st.dictionaries(_LATTICE, st.integers(1, 4), max_size=8).map(
    _divisor)


@_DIVISOR_LAWS
@given(_divisors, _divisors)
def test_divisor_sum_commutes_and_adds_degrees(a, b):
    assert a + b == b + a
    assert (a + b).degree == a.degree + b.degree


@_DIVISOR_LAWS
@given(_divisors)
def test_divisor_minus_itself_is_empty(a):
    assert a.subtract(a).points == ()


@_DIVISOR_LAWS
@given(st.dictionaries(_LATTICE, st.tuples(st.integers(1, 4), st.booleans()),
                       max_size=12))
def test_subtracting_a_summand_gives_back_the_other(points):
    """With all points farther apart than MERGE_TOL, (a + b) - b == a."""
    a = _divisor({k: m for k, (m, in_a) in points.items() if in_a})
    b = _divisor({k: m for k, (m, in_a) in points.items() if not in_a})
    assert (a + b).subtract(b) == a


@_DIVISOR_LAWS
@given(_divisors, st.floats(0.0, 10.0))
def test_restrict_keeps_exactly_the_points_inside(a, r):
    inner = a.restrict(r)
    assert inner.radius == r
    assert inner.points == tuple(p for p in a.points
                                 if math.hypot(p.re, p.im) <= r)


def test_conservation_against_winding():
    cases = [(parse_expr("(z^2 + 1)*exp(z)"), 3.0),
             (parse_expr("sin(z)"), 10.0),
             (parse_expr("z^3*(z - 1)"), 2.5)]
    for e, r in cases:
        d = find_zeros(e, r)
        assert d.degree == winding_number(e, r)


def test_random_polynomials_match_companion_roots():
    rng = random.Random(1404)
    for _ in range(10):
        deg = rng.randint(2, 6)
        coeffs, roots = _random_poly(rng, deg)
        r = float(np.max(np.abs(roots))) * 1.3 + 0.5
        d = find_zeros(poly_expr(coeffs), r)
        assert d.degree == deg
        remaining = list(map(complex, roots))
        for g in d.locations:
            best = min(remaining, key=lambda w: abs(g - w))
            assert abs(g - best) < 1e-8
            remaining.remove(best)


def test_pole_target_duplicates_divisor():
    a, b = divisor_of(parse_expr("tan(z)"), 2.0, "inf")
    assert a.degree == b.degree == 2
    assert {round(w.real, 6) for w in a.locations} == {
        round(math.pi / 2, 6), round(-math.pi / 2, 6)}


def test_divisors_of_tangent_shifted_by_i():
    """tangent minus i never vanishes: its numerator collapses to one
    exponential, so only the cos poles remain, even out at radius 40."""
    zeros, poles = divisor_of(parse_expr("tan(z) - (i)"), 40.0, 0)
    assert zeros.degree == 0
    assert poles.degree == 26
    assert all(abs(w.imag) < 1e-6 for w in poles.locations)


def _search(e, r):
    return locator._Search(compile_expr(e), None, locator._rate_of(e),
                           r, [])


def test_memoised_grid_windings_count_companion_roots():
    """Cells of a grid share their edges through one search's memo; every
    cell's winding is still the number of roots inside it."""
    rng = random.Random(2718)
    for _ in range(6):
        deg = rng.randint(3, 7)
        coeffs, roots = _random_poly(rng, deg)
        k = 4
        half = float(np.max(np.abs(roots))) * 1.2 + 0.5
        step = 2 * half / k
        while True:   # grid lines clear of every root
            shift = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) * step
            xs = [-half + shift.real + j * step for j in range(k + 1)]
            ys = [-half + shift.imag + j * step for j in range(k + 1)]
            if all(min(abs(w.real - x) for x in xs) > 1e-3 * step
                   and min(abs(w.imag - y) for y in ys) > 1e-3 * step
                   for w in roots):
                break
        cells = [(xs[i], xs[i + 1], ys[j], ys[j + 1])
                 for i in range(k) for j in range(k)]
        s = _search(poly_expr(coeffs), half)
        # Two batches, so the second meets the first's edges reversed.
        got = (s.rect_windings(cells[::2]) + s.rect_windings(cells[1::2]))
        assert len(s.phases) == 2 * k * (k + 1)
        for (x0, x1, y0, y1), w in zip(cells[::2] + cells[1::2], got):
            inside = sum(x0 < z.real < x1 and y0 < z.imag < y1 for z in roots)
            assert abs(w - inside) < 1e-6


@pytest.mark.parametrize("src,a,b", [
    ("tan(z)", 0.3 + 0.2j, 2.1 - 0.7j),
    ("tan(z)", -1.2 - 2.0j, 4.0 + 1.5j),
    ("exp(3*z) - 1", -0.5 - 1.0j, 0.7 + 3.0j),
    ("exp(3*z) - 1", 1.0 + 4.0j, -2.0 - 6.0j),
])
def test_reversed_edge_phase_is_negated(src, a, b):
    """The memo answers b->a with minus the phase of a->b; measured
    directly, the two agree to rounding."""
    e = parse_expr(src)
    fn, rate = compile_expr(e), locator._rate_of(e)

    def phase(p, q):
        out, = locator._path_phases(fn, [locator._segment(p, q)], rate)
        assert isinstance(out, float)
        return out

    forward = phase(a, b)
    assert abs(forward) > 0.5
    assert phase(b, a) == pytest.approx(-forward, rel=1e-12, abs=0)


def test_batch_matches_paths_measured_alone():
    """Paths measured together give bit-identical phases to each measured
    alone: a batch shares evaluator calls, never samples."""
    rng = random.Random(31)
    e = parse_expr("tan(z)*(z - 0.3*i)^2 + exp(2*i*z)")
    fn, rate = compile_expr(e), locator._rate_of(e)
    paths = []
    for _ in range(12):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        paths.append(locator._segment(a, b))
    paths.append(locator._circle(0.2, 2.5))
    alone = [locator._path_phases(fn, [p], rate)[0] for p in paths]
    assert all(isinstance(x, float) for x in alone)
    assert locator._path_phases(fn, paths, rate) == alone


def _loop_phase(fn, path, rate):
    """One path's phase by the per-path loop that the array refinement
    replaced: a float, or the message of its RingTooCloseError."""
    a, d, circle = path
    if circle:
        at, n, length = (lambda t: a + abs(d) * np.exp(2j * np.pi * t), 64,
                         2.0 * math.pi * abs(d))
    else:
        at, n, length = lambda t: a + t * d, 16, abs(d)
    if length > 0.0:
        r, = rate(np.stack([at(np.linspace(0.0, 1.0, 33))])).tolist()
        if math.isfinite(r):
            n = max(n, min(int(1.25 * length * r) + 8, 150000))
    t = np.linspace(0.0, 1.0, n + 1)
    v = np.asarray(fn(at(t)), dtype=complex)
    prev = None
    for _ in range(64):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = v[1:] / v[:-1]
            dphi = np.angle(ratio)
            mag = np.abs(ratio)
        bad = ~(np.isfinite(ratio) & (np.abs(dphi) <= locator._PHASE_STEP)
                & (mag <= locator._MAG_STEP) & (mag >= 1 / locator._MAG_STEP))
        if not np.all(np.isfinite(v) & (np.abs(v) >= locator._TINY)):
            return "function vanishes or blows up on path"
        if not bad.any():
            total = float(dphi.sum())
            if prev is not None and abs(total - prev) <= 3e-7 * max(1.0, abs(total)):
                return total
            prev = total
            bad[:] = True
        else:
            prev = None
        if v.size + bad.sum() > 600000:
            return "path refinement did not converge"
        j = np.flatnonzero(bad)
        tm = 0.5 * (t[j] + t[j + 1])
        t = np.insert(t, j + 1, tm)
        v = np.insert(v, j + 1, np.asarray(fn(at(tm)), dtype=complex))
    return "path refinement did not converge"


@pytest.mark.parametrize("src", ["tan(z)*(z - 0.3*i)^2 + exp(2*i*z)",
                                 "z^2 - 2*z + 1"])
def test_array_refinement_matches_the_per_path_loop(src):
    """Each path's phase equals the per-path loop's up to the order of its
    sum: at most 600,000 steps of size at most pi/2, so they may differ by
    600000 * pi/2 * 2.2e-16 < 2.1e-10.  Failures keep their messages."""
    rng = random.Random(4417)
    e = parse_expr(src)
    fn, rate = compile_expr(e), locator._rate_of(e)
    paths = [locator._segment(0.0, 2.0),          # through the zero at 1
             locator._segment(1.0 - 1e-9j, 1.0 + 2e-9j),
             locator._circle(1.0, 1e-7), locator._circle(0.5j, 2.0)]
    for _ in range(16):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        paths.append(locator._segment(a, b))
    got = locator._path_phases(fn, paths, rate)
    for path, phase in zip(paths, got):
        want = _loop_phase(fn, path, rate)
        if isinstance(want, str):
            assert isinstance(phase, RingTooCloseError) and str(phase) == want
        else:
            assert phase == pytest.approx(want, rel=0, abs=2.1e-10)


def _record_segments(monkeypatch):
    """Log (evaluator id, undirected endpoints, result) for every segment
    that _path_phases measures; circles are skipped."""
    log = []
    real = locator._path_phases

    def recording(fn, paths, rate=None, owners=None):
        out = real(fn, paths, rate, owners)
        for (a, d, circle), phase in zip(paths, out):
            if not circle:
                ends = frozenset((round(z.real, 12), round(z.imag, 12))
                                 for z in (a, a + d))
                log.append((id(fn), ends, phase))
        return out

    monkeypatch.setattr(locator, "_path_phases", recording)
    return log


def test_search_measures_each_edge_once(monkeypatch):
    log = _record_segments(monkeypatch)
    e = parse_expr("(z - 1)*(z + 2)*(z - 3*i)")
    assert find_zeros(e, 4.0).degree == 3
    edges = [(fn, ends) for fn, ends, _ in log]
    assert edges and len(set(edges)) == len(edges)


def _first_split_line(r):
    """The bounding square's first split coordinate off the axes at radius r,
    by the locator's own arithmetic; its repr round-trips exactly."""
    half = r * (1 + 3 * locator.RING_CLEARANCE)
    return repr(locator._pick_fraction(-half, half, [0.0])[0])


_X4, _X10 = _first_split_line(4.0), _first_split_line(10.0)


@pytest.mark.parametrize("src,r,zeros", [
    # the cubic (z - 1)*(z + 2)*(z - 3*i) moved so that its zero at 3*i lies
    # on the first split line; a sum, so it is not factored structurally
    pytest.param(f"(z - ({_X4}))^3 + (1 - 3*i)*(z - ({_X4}))^2"
                 f" + (-2 - 3*i)*(z - ({_X4})) + 6*i", 4.0,
                 [float(_X4) + w for w in (1.0, -2.0, 3j)],
                 id="cubic_zero_on_split_line-4.0"),
    pytest.param(f"sin(z - ({_X10}))", 10.0, None,
                 id="sin_zero_on_split_line-10.0"),
    # a double zero: noisy split lines
    pytest.param("z^2 - 2*z + 1", 2.0, None, id="z^2 - 2*z + 1-2.0"),
])
def test_failing_splits_measure_no_edge_twice(monkeypatch, src, r, zeros):
    """Splits fail here, and a batch stops at its first failure, so an edge
    it left unfinished may be measured again; no edge is completed twice,
    and the memo holds plain floats only.  The cubic's three simple zeros
    stay three points, though the cell that holds them fails a split."""
    log = _record_segments(monkeypatch)
    searches = []
    real_subdivide = locator._subdivide

    def subdivide(s, *args):
        searches.append(s)
        return real_subdivide(s, *args)

    monkeypatch.setattr(locator, "_subdivide", subdivide)
    e = parse_expr(src)
    d = find_zeros(e, r)
    assert d.degree == winding_number(e, r)
    if zeros is not None:
        assert [p.multiplicity for p in d.points] == [1] * len(zeros)
        want = sorted(zeros, key=lambda w: (w.real, w.imag))
        for p, w in zip(locations(d), want):
            assert abs(p - w) < 1e-8
    done = [(fn, ends) for fn, ends, phase in log if isinstance(phase, float)]
    assert len(set(done)) == len(done)
    assert any(not isinstance(phase, float) for _, _, phase in log)
    assert all(type(v) is float for s in searches for v in s.phases.values())


def test_failed_edge_leaves_no_memo_entry():
    """A failed measurement is not memoised (its exception would pin the
    sample arrays through the traceback); finished edges stay."""
    s = _search(parse_expr("z - 1"), 2.0)
    assert s.rect_windings([(0.0, 2.0, 0.5, 1.0)]) == [pytest.approx(0.0)]
    assert len(s.phases) == 4
    with pytest.raises(RingTooCloseError):
        s.rect_windings([(0.0, 2.0, 0.0, 0.5)])   # bottom edge hits z = 1
    bottom = (complex(0.0, 0.0), complex(2.0, 0.0))
    assert bottom not in s.phases and bottom[::-1] not in s.phases
    assert len(s.phases) >= 4
    assert all(type(v) is float for v in s.phases.values())


def _log_splits(monkeypatch):
    """Wrap _Search.split_windings to log (search, parent cell, failed) for
    every split.  A split fails when an edge fails, or when the quadrant
    windings are not integers adding up to the parent's."""
    log = []
    real = locator._Search.split_windings

    def windings(self, groups):
        out = real(self, groups)
        for rects, ws in zip(groups, out):
            if len(rects) != 4:
                continue
            (x0, _, y0, _), (_, x1, _, _), _, (_, _, _, y1) = rects
            parent = (x0, x1, y0, y1)
            if isinstance(ws, RingTooCloseError):
                log.append((self, parent, True))
                continue
            # the parent's edges are in the memo
            w = real(self, [[parent]])[0][0]
            bad = (any(abs(q - round(q)) > 0.25 for q in ws)
                   or round(sum(ws)) != round(w))
            log.append((self, parent, bad))
        return out

    monkeypatch.setattr(locator._Search, "split_windings", windings)
    return log


@pytest.mark.parametrize("src,r", [
    ("tan(z)", 10.0),                     # zeros at 0 and on y = 0, poles too
    ("sin(z)", 10.0),
    ("z^3 + z^2 - 2*z", 3.0),             # real roots 0, 1 and -2
])
def test_split_lines_avoid_the_axes(monkeypatch, src, r):
    """Zeros on the axes never meet a split line, so no split fails."""
    log = _log_splits(monkeypatch)
    e = parse_expr(src)
    zeros, poles = divisor_pair_at(e, r, 0)
    assert zeros.degree - poles.degree == winding_number(e, r)
    assert log and not any(bad for _, _, bad in log)
    for s in {id(s): s for s, _, _ in log}.values():
        for a, b in s.phases:
            assert not a.real == b.real == 0.0
            assert not a.imag == b.imag == 0.0


@pytest.mark.parametrize("src,r,zero,find", [
    ("exp(z) - 1 - z", 3.0, 0.0, True),
    ("exp(z) - 1 - z", 20.0, 0.0, False),
    ("exp(z^2) - 1", 6.0, 0.0, True),
    ("z^2 - 2*z + 1", 2.0, 1.0, True),
])
def test_double_zero_closes_at_its_centroid(monkeypatch, src, r, zero, find):
    """Split lines near a double zero are rounding noise.  The small cell
    around it fails one split, then closes at its certified centroid."""
    log = _log_splits(monkeypatch)
    e = parse_expr(src)
    d = find_zeros(e, r) if find else divisor_of(e, r, 0)[0]
    assert d.valid and d.degree == winding_number(e, d.radius)
    near = [p for p in d.points if abs(p.location - zero) < 1e-6]
    assert [p.multiplicity for p in near] == [2]
    assert abs(near[0].location - zero) < 1e-10
    failed = [(x0, x1, y0, y1) for _, (x0, x1, y0, y1), bad in log
              if bad and x0 <= zero <= x1 and y0 <= 0.0 <= y1]
    assert len(failed) <= 1


@pytest.mark.parametrize("src,zero,mult", [
    ("z^3 - 3*z^2 + 3*z - 1", 1.0, 3),
    ("z^4 - 4*z^3 + 6*z^2 - 4*z + 1", 1.0, 4),
    ("z^5 - (1 + 0.5*i)*z^4 + (0.3 + 0.4*i)*z^3 - (0.02 + 0.11*i)*z^2"
     " + (-0.0035 + 0.012*i)*z + (0.00038 - 0.00041*i)", 0.2 + 0.1j, 5),
])
def test_expanded_multiple_zero_closes_at_one_point(src, zero, mult):
    """Multiplied out, a multiple zero sits in a wide disk of rounding
    noise (about 1e-5 across for the triple zero), and every split line
    through it fails.  The cluster closes on a circle as large as its
    cell's top allows, well outside that noise, as one point of full
    multiplicity."""
    zeros, _ = divisor_of(parse_expr(src), 2.0, 0)
    assert zeros.valid
    p, = zeros.points
    assert p.multiplicity == mult and abs(p.location - zero) < 1e-10


def _jet(src):
    e = parse_expr(src)
    de = differentiate(e)
    return compile_expr((e, de, differentiate(de)))


def test_close_simple_zeros_are_not_merged():
    """Two simple zeros 1e-6 apart stay two points.  The moment certificate
    sees their spread on a circle around them, where a double zero at the
    same place passes."""
    pair = "z^2 - 2.000001*z + 1.000001"
    d = find_zeros(parse_expr(pair), 2.0)
    assert [p.multiplicity for p in d.points] == [1, 1]
    a, b = locations(d)
    assert abs(a - 1.0) < 1e-9 and abs(b - 1.000001) < 1e-9
    cell = (0.5, 1.5, -0.5, 0.5)
    assert locator._moment_centroid(_jet(pair), cell, 1.0, 0.7, 2) is None
    z = locator._moment_centroid(_jet("z^2 - 2*z + 1"), cell, 1.0, 0.7, 2)
    assert abs(z - 1.0) < 1e-12


@pytest.mark.parametrize("error", [RingTooCloseError, NonIntegerResidualError])
def test_uncertified_cluster_falls_back_to_splitting(monkeypatch, error):
    """A cluster cell whose certificate circle fails is split as before.
    Around a double zero every split line of a small enough cell is
    rounding noise, so the search then fails closed."""
    e = parse_expr("z^2 - 2*z + 1")
    certificates = set()
    real_circle = locator._cluster_circle

    def cluster_circle(rect, top):
        out = real_circle(rect, top)
        certificates.add(out)
        return out

    refused = []
    real = locator._circle_windings

    def windings(fn, circles, rate=None):
        out = real(fn, circles, rate)
        for k, circle in enumerate(circles):
            if circle in certificates:
                refused.append(circle[0])
                out[k] = error("certificate refused")
        return out

    monkeypatch.setattr(locator, "_cluster_circle", cluster_circle)
    monkeypatch.setattr(locator, "_circle_windings", windings)
    log = _log_splits(monkeypatch)
    with pytest.raises(RingTooCloseError, match="no clean split line"):
        find_zeros(e, 2.0)
    assert refused and len(set(refused)) == len(refused)   # once per cell
    assert sum(bad for _, _, bad in log) > 1


def _companion_cases():
    """(expression, numpy.roots, multiplicities expected in the disk):
    seeded random integer polynomials with simple roots, and
    (z - 1)^2*(z + 2)*(z - 3*i) expanded, with 3*i outside the disk."""
    rng = random.Random(6021)
    cases = []
    for _ in range(8):
        coeffs, roots = _random_poly(rng, rng.randint(3, 8))
        cases.append((poly_expr(coeffs), roots, None))
    double = parse_expr("z^4 - 3*i*z^3 - 3*z^2 + (2 + 9*i)*z - 6*i")
    cases.append((double, np.roots([1, -3j, -3, 2 + 9j, -6j]), [1, 2]))
    return cases


@pytest.mark.parametrize("e,roots,mults", _companion_cases())
def test_every_zero_found_with_its_multiplicity(e, roots, mults):
    """Newton points take multiplicity 1 from the cell accounting.  Every
    located point must account for exactly its multiplicity of companion
    roots, and no root inside the disk may be left over.  The disk leaves
    the root of largest modulus outside."""
    moduli = np.sort(np.abs(roots))
    r = 0.5 * (moduli[-2] + moduli[-1])
    if moduli[-1] - moduli[-2] < 2e-2 * r:          # keep the ring clear
        r = moduli[-1] * 1.1 + 0.1
    d = find_zeros(e, r)
    assert d.valid
    inside = [complex(w) for w in roots if abs(w) < r]
    assert d.degree == len(inside) == winding_number(e, r)
    for p in d.points:
        for _ in range(p.multiplicity):
            best = min(inside, key=lambda w: abs(p.location - w))
            # numpy.roots splits a double root by about sqrt(eps)
            assert abs(p.location - best) < (1e-8 if p.multiplicity == 1
                                             else 1e-6)
            inside.remove(best)
    assert not inside
    got = sorted(p.multiplicity for p in d.points)
    assert got == (mults or [1] * d.degree)


# ---------------------------------------------------------------------------
# the depth-first search the frontier replaced, kept as the oracle of its
# outcomes

def _dfs_descend(s, x0, x1, y0, y1, w, depth=0, top=None):
    top = top or (x0, x1, y0, y1)
    unknown = w - s.seed_mult_in(x0, x1, y0, y1)
    if unknown < 0:
        raise locator.ConservationError(
            "cell winding below its seeded multiplicity")
    if unknown == 0:
        return
    if s.outside_disk(x0, x1, y0, y1):
        return
    s.cells += 1
    if s.cells > locator.MAX_CELLS:
        raise locator.MaxDepthExceededError("subdivision cell budget exhausted")
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    seeded = any(x0 < z.real <= x1 and y0 < z.imag <= y1 for z, _ in s.seeds)
    if unknown == 1 and not seeded:
        z = locator._polish(s.jet, complex(cx, cy), s.disk_radius)
        if z is not None:
            pad_x, pad_y = 1e-9 * (x1 - x0), 1e-9 * (y1 - y0)
            if (x0 - pad_x <= z.real <= x1 + pad_x
                    and y0 - pad_y <= z.imag <= y1 + pad_y):
                s.found.append((z, None))
                return
    if depth >= locator.MAX_DEPTH:
        raise locator.MaxDepthExceededError(
            f"cluster near {complex(cx, cy):.6g} not separated at depth {depth}")
    closable = unknown >= 2 and not seeded
    seed_x = [z.real for z, _ in s.seeds if x0 < z.real <= x1] + [0.0]
    seed_y = [z.imag for z, _ in s.seeds if y0 < z.imag <= y1] + [0.0]
    for xm in locator._pick_fraction(x0, x1, seed_x):
        for ym in locator._pick_fraction(y0, y1, seed_y):
            quads = [(x0, xm, y0, ym), (xm, x1, y0, ym),
                     (x0, xm, ym, y1), (xm, x1, ym, y1)]
            try:
                ws = [locator._as_int(wq, "cell")
                      for wq in s.rect_windings(quads)]
            except (RingTooCloseError, NonIntegerResidualError):
                ws = None
            if ws is not None and sum(ws) == w:
                for q, wq in zip(quads, ws):
                    _dfs_descend(s, *q, wq, depth + 1, top if wq == w else q)
                return
            if closable:
                closable = False
                z = _dfs_centroid(s, (x0, x1, y0, y1), top, unknown)
                if z is not None:
                    s.found.append((z, unknown))
                    return
    raise RingTooCloseError("no clean split line found for cell")


def _dfs_centroid(s, rect, top, unknown):
    c, rho = locator._cluster_circle(rect, top)
    w, = locator._circle_windings(s.fn, [(c, rho)], s.rate)
    if w != unknown:
        return None
    return locator._moment_centroid(s.jet, rect, c, rho, unknown)


def _search_outcome(e, r, seeds, descend):
    """(found, cells, ok, error type and message) of one search of the
    bounding square, as _locate_entire runs it."""
    de = differentiate(e)
    s = locator._Search(compile_expr(e), compile_expr((e, de, differentiate(de))),
                        locator._rate_of(e), r, list(seeds))
    half = r * (1 + 3 * locator.RING_CLEARANCE)
    w = locator._as_int(s.rect_windings([(-half, half, -half, half)])[0],
                        "bounding square")
    try:
        descend(s, -half, half, -half, half, w)
        error = None
    except locator.LocatorError as exc:
        error = (type(exc), str(exc))
    ok = error is None or error[0] is not locator.MaxDepthExceededError
    return s.found, s.cells, ok, error


_CUBIC = "z^3 + (1 - 3*i)*z^2 + (-2 - 3*i)*z + 6*i"    # zeros 1, -2, 3*i
# zeros -2 and -2.001, a pair that needs depth 12 to split, and 2 + 2*i
_PAIR = "z^3 + (2.001 - 2*i)*z^2 + (-4 - 8.002*i)*z + (-8.004 - 8.004*i)"


@pytest.mark.parametrize("src,r,seeds", [
    (_CUBIC, 4.0, ()),
    (_CUBIC, 4.0, ((1 + 0j, 1),)),           # one zero known in advance
    (_CUBIC, 4.0, ((-2 + 0j, 2),)),          # over-seeded: ConservationError
    ("sin(z)", 10.0, ()),
    ("sin(z)", 10.0, ((-math.pi + 0j, 2),)),  # the same, after two points
    ("exp(3*z) - 1", 3.0, ()),
    ("exp(z) - 1 - z", 3.0, ()),             # a double zero at 0
    ("z^3 - 3*z^2 + 3*z - 1", 2.0, ()),      # an expanded triple zero at 1
    # Under a depth cap, the frontier finds 2 + 2*i (and, over-seeded
    # there, a ConservationError) before the earlier depth error.
    (_PAIR, 3.5, ()),
    (_PAIR, 3.5, ((2 + 2j, 2),)),
    (poly_expr(_random_poly(random.Random(88), 7)[0]), 2.5, ()),
])
@pytest.mark.parametrize("max_cells,max_depth", [
    (60000, 40), (3, 40), (9, 40), (25, 40), (60000, 2), (60000, 4)])
# one cell per round; the default; a whole level per round, breadth-first
@pytest.mark.parametrize("batch", [1, locator._BATCH_CELLS, 1000])
def test_frontier_outcome_is_the_depth_first_one(monkeypatch, src, r, seeds,
                                                 max_cells, max_depth, batch):
    """The frontier search ends as the recursive depth-first search did:
    the same points in the same order, the same cell count, and the same
    error, also when the cell budget or the depth cap cuts it short."""
    monkeypatch.setattr(locator, "MAX_CELLS", max_cells)
    monkeypatch.setattr(locator, "MAX_DEPTH", max_depth)
    e = parse_expr(src) if isinstance(src, str) else src
    want = _search_outcome(e, r, seeds, _dfs_descend)
    monkeypatch.setattr(locator, "_BATCH_CELLS", batch)
    assert _search_outcome(e, r, seeds, locator._subdivide) == want


# Factors of an entire function drawn from small Gaussian integers: shifted
# exponentials exp(c*z) - b and polynomials of degree at most 2.
_GAUSS = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
_FACTOR = st.one_of(
    st.builds(lambda c, b: f"(exp({c}*z) - {b})",
              st.sampled_from(["1", "2", "(0-1)", "i", "(1+i)"]),
              _GAUSS.filter(lambda b: b != 0).map(format_complex)),
    st.builds(lambda a, b: f"(z^2 + {a}*z + {b})",
              _GAUSS.map(format_complex), _GAUSS.map(format_complex)),
    _GAUSS.map(lambda a: f"(z - {format_complex(a)})"))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.lists(_FACTOR, min_size=1, max_size=3), st.sampled_from([1.5, 3.0]))
def test_divisor_degree_equals_winding_number(factors, r):
    e = parse_expr("*".join(factors))
    zeros, poles = divisor_of(e, r, 0)
    assert poles.degree == 0
    assert zeros.valid
    assert zeros.degree == winding_number(e, zeros.radius)


@pytest.mark.parametrize("src", ["tan(z)^3*(z - 1)", "z^5 - 3*z + 1",
                                 "sin(z)*(z^2 + 4)", "exp(z) - 2 - z"])
def test_polish_runs_the_generated_code_bit_for_bit(src):
    """Newton steps on the jet's own program give the bits that calls
    through the evaluator give."""
    e = parse_expr(src)
    de = differentiate(e)
    jet = compile_expr((e, de, differentiate(de)))
    assert jet.program is not None

    def through_the_evaluator(z):
        return jet(z)

    rng = random.Random(7)
    for _ in range(60):
        z0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got = locator._polish(jet, z0, 3.0)
        want = locator._polish(through_the_evaluator, z0, 3.0)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.real.hex(), got.imag.hex()) == \
                (want.real.hex(), want.imag.hex())
