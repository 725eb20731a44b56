"""The zeros of one-frequency exponential atoms, read from their exact form,
against closed-form lattices and against the search."""

import cmath
import json
import math

import pytest

import nevlab.lattice as lattice
import nevlab.locator as locator
from nevlab.cli import main
from nevlab.diffpoly import contains_exponential
from nevlab.expr import parse_expr
from nevlab.gaussian import _square_free
from nevlab.lattice import lattice_zeros
from nevlab.locator import find_zeros
from test_acceptance import _suite_specs


def _line(base, step, m, r):
    """(base + n*step, m) for every integer n with |base + n*step| <= r."""
    return [(base + n * step, m) for n in range(-60, 61)
            if abs(base + n * step) <= r]


_CLOSED = {
    "sin(z)": lambda r: _line(0j, math.pi, 1, r),
    "cos(z)": lambda r: _line(math.pi / 2, math.pi, 1, r),
    "exp(3*z) - 1": lambda r: _line(0j, 2j * math.pi / 3, 1, r),
    # (w - 1)^2 (w + 2) in w = exp(z)
    "exp(3*z) - 3*exp(z) + 2": lambda r: (
        _line(0j, 2j * math.pi, 2, r)
        + _line(math.log(2) + 1j * math.pi, 2j * math.pi, 1, r)),
    # (w - 1)(w^2 + 2w + 2) in w = exp(z/4): lambda = 1/4 comes from the
    # frequencies 1/2 and 3/4 by gcd and lcm
    "exp(z/2) + exp(0.75*z) - 2": lambda r: [
        p for base in (0j, 4 * cmath.log(-1 + 1j), 4 * cmath.log(-1 - 1j))
        for p in _line(base, 8j * math.pi, 1, r)],
}


def _no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the disk was read by moments or searched")

    monkeypatch.setattr(locator, "_disk_zeros", refuse)
    monkeypatch.setattr(locator, "_subdivide", refuse)


def _same_points(got, want, tol):
    """got and want, lists of (z, m), match one to one within tol with
    equal multiplicities."""
    want = list(want)
    assert len(got) == len(want)
    for z, m in got:
        best = min(want, key=lambda p: abs(p[0] - z))
        assert abs(best[0] - z) <= tol and best[1] == m
        want.remove(best)


@pytest.mark.parametrize("src", sorted(_CLOSED))
@pytest.mark.parametrize("r", [3.0, 10.0, 25.0, 40.16])
def test_closed_form_lattice_with_its_multiplicities(monkeypatch, src, r):
    """Every zero in the disk, each with its multiplicity, from the exact
    form alone: neither the moments nor the search runs."""
    _no_search(monkeypatch)
    e = parse_expr(src)
    want = _CLOSED[src](r)
    _same_points(lattice_zeros(e, r), want, 1e-13 * r)
    d = find_zeros(e, r)
    assert d.valid and d.degree == sum(m for _, m in want)
    _same_points([(p.location, p.multiplicity) for p in d.points], want,
                 1e-13 * r)


def test_a_degree_past_the_bound_is_declined(monkeypatch):
    """exp(65z) + exp(z) - 1 is of degree 65 in exp(z), one past
    MAX_DEGREE: it is declined before its polynomial is split, and degree
    64 is read."""
    assert lattice.MAX_DEGREE == 64
    real = lattice._square_free
    split = []
    monkeypatch.setattr(lattice, "_square_free",
                        lambda p: split.append(len(p) - 1) or real(p))
    assert lattice_zeros(parse_expr("exp(65*z) + exp(z) - 1"), 2.0) is None
    assert split == []
    assert lattice_zeros(parse_expr("exp(64*z) + exp(z) - 1"), 0.5) \
        is not None
    assert split == [64]


def test_roots_closer_than_the_root_tolerance_are_declined(monkeypatch):
    """(w - 1)(w - 1.00000001) in w = exp(z) is square-free and its roots
    are read, but they lie within _ROOT_TOL of each other, so their
    lattices could not be told apart: declined.  1 and 1.001 are read."""
    real = lattice._roots
    read = []
    monkeypatch.setattr(lattice, "_roots",
                        lambda p: read.append(real(p)) or read[-1])
    e = parse_expr("exp(2*z) - 2.00000001*exp(z) + 1.00000001")
    assert lattice_zeros(e, 2.0) is None
    (w, v), = read
    assert 0 < abs(w - v) <= lattice._ROOT_TOL * max(abs(w), abs(v))
    e = parse_expr("exp(2*z) - 2.001*exp(z) + 1.001")
    assert len(lattice_zeros(e, 2.0)) == 2


def test_yun_splits_by_multiplicity():
    """(w - 1)^2 (w + 2) = w^3 - 3w + 2 and (w - i)^3 (w + 1), expanded,
    come back as their square-free factors up to a unit."""
    def monic(p):
        lc = complex(*p[0])
        return [complex(*c) / lc for c in p]

    assert [(monic(p), m) for p, m in _square_free(
        [(1, 0), (0, 0), (-3, 0), (2, 0)])] == [([1, 2], 1), ([1, -1], 2)]
    # (w - i)^3 = w^3 - 3i w^2 - 3 w + i; times (w + 1)
    p = [(1, 0), (1, -3), (-3, -3), (-3, 1), (0, 1)]
    assert [(monic(f), m) for f, m in _square_free(p)] == [
        ([1, 1], 1), ([1, -1j], 3)]


@pytest.fixture(scope="module")
def located_atoms(tmp_path_factory):
    """Each (atom, r, seeds) whose zeros the acceptance suite and the nev
    runs of the benchmark's nev_dense functions locate."""
    base = tmp_path_factory.mktemp("atoms")
    seen = {}
    real = locator._locate_entire

    def record(e, r, seeds=()):
        seen[e, r, seeds] = None
        return real(e, r, seeds)

    nev = [("nev", {"function": f, "radii": {"start": 2, "stop": 40,
                                             "count": 8}})
           for f in ("tan(z)", "1/(tan(z) - (i))", "sin(z)^3",
                     "tan(z)^3*(z - 1)", "exp(z)")]
    runs = [("check", spec) for _, spec in _suite_specs()] + nev
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locator, "_locate_entire", record)
        for k, (command, spec) in enumerate(runs):
            path = base / f"{k}.json"
            path.write_text(json.dumps(spec))
            main([command, "--spec", str(path), "--out",
                  str(base / f"{k}.out.json"), "--reproducible"])
    return list(seen)


def test_every_benchmark_atom_matches_the_search(monkeypatch, located_atoms):
    """Every atom with an Exp node that the suite and nev_dense locate is
    read, and gives the divisor that the moments and the search give with
    the reading off: the same multiplicities, the points within 1e-9 r."""
    read = [(e, r, s) for e, r, s in located_atoms
            if lattice_zeros(e, r) is not None]
    assert len(read) >= 11
    assert all(not contains_exponential(e) for e, r, s in located_atoms
               if (e, r, s) not in read)
    on = [find_zeros(e, r, s) for e, r, s in read]
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: None)
    for (e, r, s), got in zip(read, on):
        want = find_zeros(e, r, s)
        assert got.valid and want.valid and got.degree == want.degree
        _same_points([(p.location, p.multiplicity) for p in got.points],
                     [(p.location, p.multiplicity) for p in want.points],
                     1e-9 * r)


@pytest.mark.parametrize("src,r", [
    ("exp(z) - 1 - z", 20.0),         # a polynomial coefficient
    ("exp(z^2) - 1", 6.0),            # a non-linear exponent
    ("exp(z + 1) - 1", 10.0),         # exp(1) * exp(z): c != 0
    ("z^3 - 2*z + 1", 2.0),           # no Exp node
])
def test_atoms_outside_the_reading_take_the_old_path(monkeypatch, src, r):
    """The reading declines, and the divisor is the one found with the
    reading patched off.  A polynomial is declined before its exact form is
    built."""
    e = parse_expr(src)
    if "exp" not in src:
        def no_form(e):
            raise AssertionError("a form was built")

        monkeypatch.setattr(lattice, "to_exp_poly", no_form)
    assert lattice_zeros(e, r) is None
    got = find_zeros(e, r)
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: None)
    assert find_zeros(e, r) == got


@pytest.mark.parametrize("seeds", [(), (math.pi / 2, 1.0 + 2j)])
def test_a_reading_that_misses_the_winding_falls_through(monkeypatch, seeds):
    """A reading whose multiplicities do not add up to the disk winding is
    dropped, and the disk is located as if there were none; seed circles
    are then measured after the disk's."""
    e = parse_expr("sin(z)")
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: None)
    want = find_zeros(e, 10.0, seeds)
    monkeypatch.setattr(locator, "lattice_zeros", lambda e, r: [(0j, 1)])
    assert find_zeros(e, 10.0, seeds) == want
