"""The Gaussian-integer polynomial ring: Yun's square-free decomposition and
the primitive gcd, against products of known linear factors expanded with
the ring's own product."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nevlab.gaussian import _gcd, _gmul, _square_free

_UNITS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
_SMALL = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def _times(p: list, q: list) -> list:
    """p*q, both highest degree first."""
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            x, y = _gmul(a, b)
            out[i + j] = (out[i + j][0] + x, out[i + j][1] + y)
    return out


def _from_roots(roots) -> list:
    """The monic prod (w - a) over roots, each root counted as often as it
    appears."""
    p = [(1, 0)]
    for a, b in roots:
        p = _times(p, [(1, 0), (-a, -b)])
    return p


def _times_unit(p: list, q: list) -> bool:
    """p is u*q for one Gaussian unit u."""
    return any(p == [_gmul(u, c) for c in q] for u in _UNITS)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_SMALL, st.integers(1, 3), min_size=1, max_size=4))
def test_yun_returns_the_multiplicity_of_each_root(mults):
    """prod (w - a_j)^m_j comes back as one factor per multiplicity m, a
    constant times the monic prod (w - a_j) over the j with m_j = m."""
    f = _from_roots([a for a, m in mults.items() for _ in range(m)])
    want = {m: _from_roots([a for a, k in mults.items() if k == m])
            for m in mults.values()}
    got = _square_free(f)
    assert [m for _, m in got] == sorted(want)
    for factor, m in got:
        assert factor == [_gmul(factor[0], c) for c in want[m]]


@settings(max_examples=60, deadline=None)
@given(st.lists(_SMALL, max_size=3),
       st.lists(_SMALL, max_size=6, unique=True), st.integers(0, 6),
       _SMALL.filter(lambda k: k != (0, 0)))
def test_gcd_of_two_multiples_is_their_common_factor(common, roots, cut, k):
    """gcd(p*q, p*s) is p up to a unit when q and s share no root, whatever
    constant k multiplies q."""
    p = _from_roots(common)
    q = [_gmul(k, c) for c in _from_roots(roots[:cut])]
    s = _from_roots(roots[cut:])
    assert _times_unit(_gcd(_times(p, q), _times(p, s)), p)
