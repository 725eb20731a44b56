"""Zero and pole location by the argument principle."""

import cmath
import math
import random

import numpy as np
import pytest

import nevlab.locator as locator
from nevlab.expr import compile_expr, parse_expr
from nevlab.locator import (Divisor, DivisorPoint, RadiusMismatchError,
                            RingTooCloseError, clear_radius, divisor_of,
                            divisor_pair_at, find_zeros, winding_number)


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


@pytest.mark.parametrize("src,r", [
    # the same cubic multiplied out: the split line x = 0 hits 3i
    ("z^3 + (1 - 3*i)*z^2 + (-2 - 3*i)*z + 6*i", 4.0),
    ("sin(z)", 10.0),                     # x = 0 and y = 0 hit the zero at 0
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
