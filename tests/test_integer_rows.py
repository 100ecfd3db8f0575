"""The integer homogeneous rows against plain Fraction arithmetic.

Collocation rows, evaluation and the solves behind fundamental
polynomials, vanishing spaces and ``node_uses`` run on integer rows scaled
by e^n, where e is the common denominator of a node's coordinates.  Each
test recomputes the same value from Fraction rows, each scaled by the lcm
of its own denominators, with ``linalg``'s exact elimination, and compares
exactly.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodecurves import curves, linalg, nodes, poly
from nodecurves.curves import Curve
from nodecurves.nodes import NodeSet, node
from nodecurves.poly import Poly

# zero and negative numerators, and denominators sharing no factor
coords = st.builds(Fraction, st.integers(-9, 9),
                   st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11]))
points = st.tuples(coords, coords).map(lambda p: node(*p))


def node_sets(max_size=7):
    return st.lists(st.tuples(coords, coords), max_size=max_size,
                    unique=True).map(NodeSet)


def fraction_row(p, n):
    return [p.x ** i * p.y ** j
            for i, j in map(poly.monomial_exponents, range(poly.space_dim(n)))]


def as_integers(row):
    """The row times the lcm of its denominators."""
    den = lcm(*[v.denominator for v in row])
    return [int(v * den) for v in row]


@settings(max_examples=100, deadline=None)
@given(points, st.integers(0, 6))
def test_monomial_row_is_scaled_fraction_row(p, n):
    scale = lcm(p.x.denominator, p.y.denominator) ** n
    want = fraction_row(p, n)
    got = nodes._monomial_row(p, n)
    assert all(type(v) is int for v in got)
    assert got == [scale * v for v in want]
    assert poly.homogeneous_row(p.x, p.y, n) == got
    assert nodes.collocation_matrix(NodeSet([p]), n) == [got]
    assert got[0] == scale


def block_recurrence_row(x, y, n):
    """The row as built before the exponent table: block t is A^i C^(t-i),
    i descending, A times the first entry of block t-1 and C times each
    of its entries, and the row holds it times e^(n-t)."""
    e = lcm(x.denominator, y.denominator)
    a = x.numerator * (e // x.denominator)
    c = y.numerator * (e // y.denominator)
    e_pows = [1]
    for _ in range(n):
        e_pows.append(e_pows[-1] * e)
    block = [1]
    row = [e_pows[n]]
    for et in reversed(e_pows[:-1]):
        block = [a * block[0], *[c * v for v in block]]
        row += [v * et for v in block] if et != 1 else block
    return row


integer_points = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).map(
    lambda p: node(*p))


@settings(max_examples=50, deadline=None)
@given(points, integer_points)
def test_homogeneous_row_matches_the_block_recurrence(rational, integer):
    for p in (rational, integer):
        for n in range(13):
            assert poly.homogeneous_row(p.x, p.y, n) == \
                block_recurrence_row(p.x, p.y, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(coords, min_size=poly.space_dim(n),
                       max_size=poly.space_dim(n)).map(
        lambda cs: Poly.from_coeffs(cs, n))), points)
def test_eval_matches_fraction_sum(p, a):
    want = sum((c * a.x ** i * a.y ** j for i, j, c in p.terms()),
               Fraction(0))
    assert p.eval(a.x, a.y) == want
    # a second call reads the cached integer coefficients
    assert p.eval(a.x, a.y) == want


@settings(max_examples=60, deadline=None)
@given(node_sets(), st.integers(0, 3))
def test_fundamental_polynomials_match_fraction_solves(xs, n):
    want = []
    for idx in range(len(xs)):
        rows = [as_integers(fraction_row(p, n) + [Fraction(int(i == idx))])
                for i, p in enumerate(xs)]
        sol = linalg.solve_columns(rows, poly.space_dim(n))
        want.append(None if sol is None else Poly(n, sol))
    assert nodes.fundamental_polynomials(xs, n) == want
    for idx, p in enumerate(xs):
        assert nodes.fundamental_polynomial(p, xs, n) == want[idx]


@settings(max_examples=60, deadline=None)
@given(node_sets(), st.integers(0, 3))
def test_vanishing_basis_matches_fraction_nullspace(xs, n):
    rows = [as_integers(fraction_row(p, n)) for p in xs]
    want = tuple(Poly(n, v)
                 for v in linalg.nullspace(rows, poly.space_dim(n)))
    assert nodes.vanishing_basis(xs, n).basis == want


@settings(max_examples=60, deadline=None)
@given(node_sets().filter(len), st.integers(1, 3), coords, coords, coords)
def test_node_uses_matches_fraction_solve(xs, n, a, b, c):
    assume(a != 0 or b != 0)
    q = Curve(poly.linear(a, b, c))
    first = xs[0]
    if nodes.fundamental_polynomial(first, xs, n) is None:
        with pytest.raises(ValueError):
            curves.node_uses(first, xs, n, q)
        return
    # p = q*r with p(first) = 1 and p = 0 on the other nodes
    rows = [as_integers([q.poly.eval(p.x, p.y) * v
                         for v in fraction_row(p, n - 1)]
                        + [Fraction(int(i == 0))])
            for i, p in enumerate(xs)]
    want = linalg.solve_columns(rows, poly.space_dim(n - 1)) is not None
    assert curves.node_uses(first, xs, n, q) == want
