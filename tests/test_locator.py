"""Zero and pole location by the argument principle."""

import cmath
import math
import random

import numpy as np
import pytest

import nevlab.locator as locator
from nevlab.expr import compile_expr, parse_expr
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
    return locator._Search(compile_expr(e), None, None, locator._rate_of(e),
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
        out, = locator._path_phases(
            fn, [(lambda t: p + t * (q - p), 16, abs(q - p))], rate)
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
        paths.append((lambda t, a=a, b=b: a + t * (b - a), 16, abs(b - a)))
    paths.append((lambda t: 0.2 + 2.5 * np.exp(2j * np.pi * t), 64,
                  2 * math.pi * 2.5))
    alone = [locator._path_phases(fn, [p], rate)[0] for p in paths]
    assert all(isinstance(x, float) for x in alone)
    assert locator._path_phases(fn, paths, rate) == alone


def _record_segments(monkeypatch):
    """Log (evaluator id, undirected endpoints, result) for every segment
    that _path_phases measures; circles are skipped."""
    log = []
    real = locator._path_phases

    def recording(fn, paths, rate=None):
        out = real(fn, paths, rate)
        for (path, _, _), phase in zip(paths, out):
            a, b = path(np.array([0.0, 1.0]))
            if abs(a - b) > 1e-9:
                ends = frozenset((round(z.real, 12), round(z.imag, 12))
                                 for z in (a, b))
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


@pytest.mark.parametrize("src,r", [
    # the cubic (z - 1)*(z + 2)*(z - 3*i) moved so that its zero at 3*i lies
    # on the first split line; a sum, so it is not factored structurally
    pytest.param(f"(z - ({_X4}))^3 + (1 - 3*i)*(z - ({_X4}))^2"
                 f" + (-2 - 3*i)*(z - ({_X4})) + 6*i", 4.0,
                 id="cubic_zero_on_split_line-4.0"),
    pytest.param(f"sin(z - ({_X10}))", 10.0,
                 id="sin_zero_on_split_line-10.0"),
    ("z^2 - 2*z + 1", 2.0),               # a double zero: noisy split lines
])
def test_failing_splits_measure_no_edge_twice(monkeypatch, src, r):
    """Splits fail here, and a batch stops at its first failure, so an edge
    it left unfinished may be measured again; no edge is completed twice,
    and the memo holds plain floats only."""
    log = _record_segments(monkeypatch)
    searches = []
    real_descend = locator._descend

    def descend(s, *args):
        searches.append(s)
        return real_descend(s, *args)

    monkeypatch.setattr(locator, "_descend", descend)
    e = parse_expr(src)
    assert find_zeros(e, r).degree == winding_number(e, r)
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
    """Wrap _Search.rect_windings to log (search, parent cell, failed) for
    every split.  A split fails when an edge raises, or when the quadrant
    windings are not integers adding up to the parent's."""
    log = []
    real = locator._Search.rect_windings

    def windings(self, rects):
        if len(rects) != 4:
            return real(self, rects)
        (x0, _, y0, _), (_, x1, _, _), _, (_, _, _, y1) = rects
        parent = (x0, x1, y0, y1)
        try:
            ws = real(self, rects)
        except RingTooCloseError:
            log.append((self, parent, True))
            raise
        w = real(self, [parent])[0]     # the parent's edges are in the memo
        bad = (any(abs(q - round(q)) > 0.25 for q in ws)
               or round(sum(ws)) != round(w))
        log.append((self, parent, bad))
        return ws

    monkeypatch.setattr(locator._Search, "rect_windings", windings)
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


@pytest.mark.parametrize("error", [RingTooCloseError, NonIntegerResidualError])
def test_uncertified_cluster_falls_back_to_splitting(monkeypatch, error):
    """A cluster cell whose certificate circle fails is split as before."""
    e = parse_expr("z^2 - 2*z + 1")
    want = find_zeros(e, 2.0)
    refused = []
    real = locator._circle_winding

    def winding(fn, center, radius, rate=None):
        if radius == locator.CLUSTER_SIZE * 2.0:
            refused.append(center)
            raise error("certificate refused")
        return real(fn, center, radius, rate)

    monkeypatch.setattr(locator, "_circle_winding", winding)
    log = _log_splits(monkeypatch)
    got = find_zeros(e, 2.0)
    assert refused and len(set(refused)) == len(refused)   # once per cell
    assert sum(bad for _, _, bad in log) > 1
    assert (got.degree, got.valid) == (want.degree, want.valid) == (2, True)
    p, = got.points
    assert p.multiplicity == 2 and abs(p.location - 1.0) < 1e-7


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
