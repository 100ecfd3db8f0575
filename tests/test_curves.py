import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodecurves import curves, nodes, poly
from nodecurves.curves import Curve, LineForm, LineUnion, RationalParam
from nodecurves.errors import BudgetExceeded
from nodecurves.nodes import NodeSet, node
from nodecurves.poly import Poly


def line(a, b, c):
    return LineForm.of(a, b, c)


def test_max_nodes_on_curve_values():
    assert curves.max_nodes_on_curve(5, 3) == 15
    assert curves.max_nodes_on_curve(2, 1) == 3
    assert curves.max_nodes_on_curve(3, 2) == 7
    for n in range(1, 13):
        for k in range(1, n + 1):
            # difference-of-dimensions form as the independent oracle
            assert curves.max_nodes_on_curve(n, k) == \
                poly.space_dim(n) - poly.space_dim(n - k)


def test_uniqueness_threshold_values():
    assert curves.uniqueness_threshold(5, 3) == 13
    assert curves.uniqueness_threshold(4, 1) == 2
    for n in range(2, 13):
        for k in range(2, n + 1):
            assert curves.uniqueness_threshold(n, k) == \
                curves.max_nodes_on_curve(n, k - 1) + 2
        # matches the known extreme: one fewer than a poised set
        assert curves.uniqueness_threshold(n, n) == poly.space_dim(n) - 1


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(Poly.from_terms({(0, 0): 3}, 0), 0)
    with pytest.raises(ValueError):
        Curve.from_poly(Poly.from_terms({}, 1))
    with pytest.raises(ValueError):
        Curve(poly.linear(1, 0, 0), 2)
    for degree in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            Curve(poly.linear(1, 0, 0), degree)
    c = Curve.from_poly(poly.linear(1, 1, -1))
    assert c.degree == 1
    assert c.contains((1, 0)) and not c.contains((1, 1))


def test_same_curve_proportionality():
    a = Curve.from_poly(poly.linear(1, 1, -1))
    b = Curve.from_poly(poly.linear(-2, -2, 2))
    c = Curve.from_poly(poly.linear(1, 2, -1))
    assert curves.same_curve(a, b)
    assert not curves.same_curve(a, c)
    # the degree bound a polynomial is stored with plays no part
    wide = Curve.from_poly(poly.linear(3, 3, -3).with_bound(4))
    assert curves.same_curve(a, wide) and curves.same_curve(wide, b)
    assert not curves.same_curve(wide, c)


def test_rational_sequence_prefix():
    got = list(itertools.islice(curves.rational_sequence(), 7))
    assert got == [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                   Fraction(1, 2), Fraction(-1, 2), Fraction(-2)]


def _rational_sequence_from_nodes():
    # rational_sequence as first written: read back the spiral's Fractions
    for pt in nodes.integer_spiral():
        p, q = int(pt.x), int(pt.y)
        if q > 0 and gcd(p, q) == 1:
            yield Fraction(p, q)


def test_rational_sequence_matches_spiral_nodes():
    count = 1000
    got = list(itertools.islice(curves.rational_sequence(), count))
    assert got == list(itertools.islice(_rational_sequence_from_nodes(), count))
    assert len(set(got)) == count


def test_line_points_stay_on_line_and_distinct():
    l = line(2, -3, 1)
    pts = list(itertools.islice(l.points(), 12))
    assert len(set(pts)) == 12
    assert all(l.eval(p.x, p.y) == 0 for p in pts)
    vertical = line(1, 0, -2)
    assert all(p.x == 2 for p in itertools.islice(vertical.points(), 5))


# zero, negative and fractional coefficients; a and b not both zero
coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
line_forms = st.tuples(coefficients, coefficients, coefficients).filter(
    lambda abc: abc[0] or abc[1]).map(lambda abc: LineForm(*abc))


def reference_point(l, t):
    """base + t * (b, -a) in plain Fractions."""
    base_x, base_y = ((Fraction(0), -l.c / l.b) if l.b != 0
                      else (-l.c / l.a, Fraction(0)))
    return base_x + t * l.b, base_y - t * l.a


@settings(max_examples=200, deadline=None)
@given(line_forms, st.builds(Fraction, st.integers(-40, 40),
                             st.integers(1, 12)))
@example(LineForm(Fraction(-2, 3), Fraction(0), Fraction(5, 2)),
         Fraction(-7, 4))
@example(LineForm(Fraction(0), Fraction(-3, 4), Fraction(7, 5)),
         Fraction(9, 2))
@example(LineForm(Fraction(0), Fraction(1), Fraction(0)), Fraction(0))
def test_point_at_matches_fraction_formula(l, t):
    p = l.point_at(t)
    assert p == reference_point(l, t)
    assert type(p.x) is Fraction and type(p.y) is Fraction
    assert l.eval(p.x, p.y) == 0


@settings(max_examples=25, deadline=None)
@given(line_forms)
@example(LineForm(Fraction(5, 2), Fraction(0), Fraction(-1, 3)))
@example(LineForm(Fraction(0), Fraction(-4), Fraction(3, 2)))
def test_points_follow_rational_sequence(l):
    params = itertools.islice(curves.rational_sequence(), 50)
    assert (list(itertools.islice(l.points(), 50))
            == [l.point_at(t) for t in params])


def lead_one(l):
    """The line's coefficients scaled to lead coefficient 1."""
    lead = l.a if l.a != 0 else l.b
    return l.a / lead, l.b / lead, l.c / lead


@settings(max_examples=100, deadline=None)
@given(line_forms, line_forms,
       st.builds(Fraction, st.integers(-9, 9).filter(bool),
                 st.integers(1, 6)))
@example(LineForm(Fraction(0), Fraction(2), Fraction(1)),
         LineForm(Fraction(0), Fraction(3), Fraction(1)), Fraction(-1, 2))
def test_proportional_is_equal_lead_one_form(p, q, s):
    assert curves.proportional(p, q) == (lead_one(p) == lead_one(q))
    assert curves.proportional(p, LineForm(s * p.a, s * p.b, s * p.c))


def test_line_through_two_points():
    l = LineForm.through((0, 0), (1, 1))
    assert l.eval(2, 2) == 0
    assert l.eval(2, 1) != 0
    with pytest.raises(ValueError):
        LineForm.through((1, 1), (1, 1))


def test_line_union_squarefree_check():
    with pytest.raises(ValueError):
        LineUnion.of([line(1, 0, 0), line(-2, 0, 0)])
    union = LineUnion.of([line(1, 0, 0), line(0, 1, 0)])
    assert union.curve().degree == 2
    pts = list(itertools.islice(union.points(), 8))
    assert all(p.x == 0 or p.y == 0 for p in pts)


def test_rational_param_circle():
    # (1-t^2, 2t)/(1+t^2) sweeps the unit circle
    circle = RationalParam.of([1, 0, -1], [1, 0, 1], [0, 2], [1, 0, 1])
    pts = list(itertools.islice(circle.points(), 10))
    assert all(p.x ** 2 + p.y ** 2 == 1 for p in pts)
    assert len(set(pts)) == 10


def test_rational_param_skips_denominator_roots():
    # hyperbola (1/t, t); the denominator root t = 0 must be skipped
    hyper = RationalParam.of([1], [0, 1], [0, 1], [1])
    pts = list(itertools.islice(hyper.points(), 6))
    assert all(p.x * p.y == 1 for p in pts)
    params = [t for t in itertools.islice(curves.rational_sequence(), 7) if t != 0]
    assert [p.y for p in pts] == params[:6]


@pytest.mark.parametrize("dens", [([0], [1]), ([1], [0, 0])],
                         ids=["x_den", "y_den"])
def test_rational_param_rejects_zero_denominator(dens):
    # a zero denominator would make points() skip every parameter
    x_den, y_den = dens
    with pytest.raises(ValueError, match="denominator"):
        RationalParam.of([0, 1], x_den, [0, 1], y_den)


def test_rational_param_repeating_stream_is_bounded(monkeypatch):
    # a constant parametrization repeats one point, which stops growing the
    # set after it is kept; the search budget ends the stream
    monkeypatch.setattr(nodes, "SEARCH_BUDGET", 5)
    constant = RationalParam.of([1], [1], [1], [1])
    diagonal = Curve.from_poly(poly.linear(1, -1, 0))
    with pytest.raises(BudgetExceeded):
        curves.extend_on_curve(NodeSet(), constant, diagonal, 2)


def test_is_maximal_curve_line_cases():
    xs = NodeSet([(0, 0), (1, 0), (-1, 0), (0, 1), (1, 1), (0, -1)])
    assert nodes.is_poised(xs, 2)
    axis = Curve.from_poly(poly.linear(0, 1, 0))  # y = 0
    assert curves.is_maximal_curve(axis, xs, 2)
    other = Curve.from_poly(poly.linear(1, 0, 0))  # x = 0 also carries 3
    assert curves.is_maximal_curve(other, xs, 2)
    diag = Curve.from_poly(poly.linear(1, -1, 0))
    assert not curves.is_maximal_curve(diag, xs, 2)


def test_is_maximal_curve_preconditions():
    dependent = NodeSet([(0, 0), (1, 0), (2, 0)])
    axis = Curve.from_poly(poly.linear(0, 1, 0))
    with pytest.raises(ValueError):
        curves.is_maximal_curve(axis, dependent, 1)
    small = NodeSet([(0, 0)])
    with pytest.raises(ValueError):
        curves.is_maximal_curve(axis, small, 2)


def test_extend_on_curve_line_from_one_node():
    start = NodeSet([(0, 0)])
    axis = line(0, 1, 0)
    got = curves.extend_on_curve(start, axis, Curve.from_poly(axis.poly()), 2)
    assert got == NodeSet([(0, 0), (1, 0), (-1, 0)])
    assert nodes.is_independent(got, 2)


def test_extend_on_curve_already_full():
    xs = NodeSet([(0, 0), (1, 0), (-1, 0)])
    axis = line(0, 1, 0)
    got = curves.extend_on_curve(xs, axis, Curve.from_poly(axis.poly()), 2)
    assert got == xs


def test_extend_on_curve_union_conic():
    union = LineUnion.of([line(1, 0, 0), line(0, 1, 0)])  # the conic x*y
    start = NodeSet([(0, 1), (0, 2), (1, 0), (2, 0)])
    got = curves.extend_on_curve(start, union, union.curve(), 3)
    assert len(got) == curves.max_nodes_on_curve(3, 2) == 7
    assert nodes.is_independent(got, 3)
    assert all(union.curve().contains(p) for p in got)


def test_extend_on_curve_rejects_off_curve_input():
    axis = line(0, 1, 0)
    with pytest.raises(ValueError):
        curves.extend_on_curve(
            NodeSet([(0, 1)]), axis, Curve.from_poly(axis.poly()), 2)


def test_extend_on_curve_rejects_an_off_curve_sampler_point():
    # the sampler sweeps y = 0, but the curve is x = 0: (0, 0) lies on
    # both and is kept, (1, 0) is refused when read
    axis = line(0, 1, 0)
    other = Curve.from_poly(line(1, 0, 0).poly())
    with pytest.raises(ValueError, match="off the curve"):
        curves.extend_on_curve(NodeSet(), axis, other, 2)


def test_one_more_on_curve_node_is_dependent():
    axis = line(0, 1, 0)
    full = curves.extend_on_curve(
        NodeSet(), axis, Curve.from_poly(axis.poly()), 3)
    assert len(full) == 4
    extra = next(p for p in axis.points() if p not in full)
    assert not nodes.is_independent(full.with_node(extra), 3)


def test_node_uses_triangle():
    xs = NodeSet([(0, 0), (1, 0), (0, 1)])
    opposite = Curve.from_poly(poly.linear(1, 1, -1))  # x + y = 1
    assert curves.node_uses((0, 0), xs, 1, opposite)
    assert not curves.node_uses((1, 0), xs, 1, opposite)


def test_node_uses_requires_fundamental():
    xs = NodeSet([(0, 0), (1, 0), (2, 0)])
    l = Curve.from_poly(poly.linear(0, 1, 0))
    with pytest.raises(ValueError):
        curves.node_uses((1, 0), xs, 1, l)
    with pytest.raises(ValueError):
        curves.node_uses((5, 5), xs, 1, l)


def test_node_uses_poised_set_with_maximal_line():
    # 2-poised set whose first three nodes fill the line y = 0
    xs = NodeSet([(0, 0), (1, 0), (-1, 0), (0, 1), (1, 1), (0, -1)])
    axis = Curve.from_poly(poly.linear(0, 1, 0))
    assert curves.is_maximal_curve(axis, xs, 2)
    for p in xs:
        expect = not axis.contains(p)
        assert curves.node_uses(p, xs, 2, axis) == expect


def test_space_divisible_by_line():
    xs = NodeSet([(0, 0), (1, 0), (-1, 0)])
    axis = Curve.from_poly(poly.linear(0, 1, 0))
    space = nodes.vanishing_basis(xs, 2)
    assert curves.space_divisible_by(space, axis)
    # each basis element on its own is divisible too
    for q in space.basis:
        assert curves.space_divisible_by(nodes.VanishingSpace(2, (q,)), axis)
    off = nodes.vanishing_basis(NodeSet([(0, 1)]), 2)
    assert not curves.space_divisible_by(off, axis)


def test_curve_of_degree_above_n():
    xs = NodeSet([(0, 0), (1, 0), (0, 1)])
    conic = Curve.from_poly(Poly.from_terms({(2, 0): 1, (0, 2): 1,
                                             (0, 0): -1}, 2))
    with pytest.raises(ValueError, match="exceeds n"):
        curves.node_uses((0, 0), xs, 1, conic)
    # only the zero polynomial of degree <= 1 is divisible by a conic
    assert curves.space_divisible_by(nodes.vanishing_basis(xs, 1), conic)
    one = nodes.vanishing_basis(NodeSet([(0, 0)]), 1)
    assert not curves.space_divisible_by(one, conic)


def test_multiples_span_has_full_rank():
    # multiplication by a nonzero q is injective, so the multiples of q at
    # bound n span a space of dimension space_dim(n - deg q)
    conic = Poly.from_terms({(2, 0): 1, (0, 2): 1, (0, 0): -1}, 2)
    three = LineUnion.of([line(1, 0, 0), line(0, 1, 0), line(1, 1, -1)])
    for q, n in [(line(1, -2, 3).poly(), 4), (conic, 4), (three.poly(), 5)]:
        assert curves._multiples(q, n).rank == \
            poly.space_dim(n - q.degree)
