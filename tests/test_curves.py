import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodecurves import curves, linalg, nodes, poly
from nodecurves.curves import Curve, LineForm, LineUnion
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
        Curve(Poly.from_terms({(0, 0): 3}, 0))
    with pytest.raises(ValueError):
        Curve(Poly.from_terms({}, 1))
    c = Curve(poly.linear(1, 1, -1))
    assert c.degree == 1
    assert c.contains((1, 0)) and not c.contains((1, 1))
    # the degree is the effective one, whatever bound the polynomial has
    assert Curve(poly.linear(1, 1, -1).with_bound(3)).degree == 1


def test_curve_from_json_refuses_a_bad_degree():
    line = poly.linear(1, 0, 0).to_json()
    for degree in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            Curve.from_json({"degree": degree, "poly": line})
    for degree in (0, 2):
        with pytest.raises(ValueError, match="declared degree"):
            Curve.from_json({"degree": degree, "poly": line})
    constant = Poly.from_terms({(0, 0): 3}, 0).to_json()
    with pytest.raises(ValueError, match="declared degree"):
        Curve.from_json({"degree": 0, "poly": constant})


@st.composite
def curve_polys(draw):
    """Polynomials of effective degree 1..4, some with a larger bound."""
    d = draw(st.integers(1, 4))
    size = poly.space_dim(d)
    coeffs = draw(st.lists(coefficients, min_size=size, max_size=size))
    top = draw(st.integers(poly.space_dim(d - 1), size - 1))
    coeffs[top] = draw(coefficients.filter(bool))
    return Poly.from_coeffs(coeffs, d).with_bound(draw(st.integers(d, 5)))


@settings(max_examples=100, deadline=None)
@given(curve_polys())
def test_curve_json_round_trip(p):
    c = Curve(p)
    assert 1 <= c.degree <= 4 and c.degree == p.degree
    back = Curve.from_json(c.to_json())
    assert back == c and back.degree == c.degree


def test_same_curve_proportionality():
    a = Curve(poly.linear(1, 1, -1))
    b = Curve(poly.linear(-2, -2, 2))
    c = Curve(poly.linear(1, 2, -1))
    assert curves.same_curve(a, b)
    assert not curves.same_curve(a, c)
    # the degree bound a polynomial is stored with plays no part
    wide = Curve(poly.linear(3, 3, -3).with_bound(4))
    assert curves.same_curve(a, wide) and curves.same_curve(wide, b)
    assert not curves.same_curve(wide, c)


def _rational_sequence_from_nodes():
    # the parameter sequence of a line's points: every rational p/q once,
    # read back from the integer spiral's nodes (p, q)
    for pt in nodes.integer_spiral():
        p, q = int(pt.x), int(pt.y)
        if q > 0 and gcd(p, q) == 1:
            yield Fraction(p, q)


def _x_axis_params(count):
    # on y = 0 the point at parameter t is (t, 0)
    return [p.x for p in itertools.islice(line(0, 1, 0).points(), count)]


def test_rational_sequence_prefix():
    assert _x_axis_params(7) == [Fraction(0), Fraction(1), Fraction(-1),
                                 Fraction(2), Fraction(1, 2),
                                 Fraction(-1, 2), Fraction(-2)]


def test_rational_sequence_matches_spiral_nodes():
    count = 1000
    got = _x_axis_params(count)
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
# the unreduced base denominator B or A of LineForm._coefficients is
# negative: b < 0 with c != 0, and b = 0 with a < 0
@example(LineForm(Fraction(2, 3), Fraction(-5, 2), Fraction(7, 4)),
         Fraction(-3, 5))
@example(LineForm(Fraction(1), Fraction(-6), Fraction(4)), Fraction(5, 3))
@example(LineForm(Fraction(-4), Fraction(0), Fraction(-6)), Fraction(2, 7))
@example(LineForm(Fraction(-3, 2), Fraction(0), Fraction(5, 3)),
         Fraction(-1))
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
    params = itertools.islice(_rational_sequence_from_nodes(), 50)
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
# proportional only through a negative factor, on the integer forms too
@example(LineForm(Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4)),
         LineForm(Fraction(-3), Fraction(2), Fraction(-15, 2)),
         Fraction(-2, 3))
# a zero a, b or c, proportional or not
@example(LineForm(Fraction(0), Fraction(2), Fraction(-4)),
         LineForm(Fraction(0), Fraction(-1), Fraction(2)), Fraction(3))
@example(LineForm(Fraction(3), Fraction(0), Fraction(1)),
         LineForm(Fraction(6), Fraction(0), Fraction(5)), Fraction(-1))
@example(LineForm(Fraction(1, 2), Fraction(-1, 3), Fraction(0)),
         LineForm(Fraction(-3), Fraction(2), Fraction(0)), Fraction(5, 6))
@example(LineForm(Fraction(2), Fraction(3), Fraction(0)),
         LineForm(Fraction(2), Fraction(3), Fraction(1)), Fraction(-4))
@example(LineForm(Fraction(0), Fraction(1), Fraction(0)),
         LineForm(Fraction(1), Fraction(0), Fraction(0)), Fraction(1, 6))
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


class _OnePoint:
    """A sampler whose stream repeats one point of the diagonal forever."""

    def points(self):
        return itertools.repeat(node(1, 1))


def test_rational_param_repeating_stream_is_bounded(monkeypatch):
    # a repeating stream stops growing the set after its point is kept;
    # the search budget ends the stream
    monkeypatch.setattr(nodes, "SEARCH_BUDGET", 5)
    diagonal = Curve(poly.linear(1, -1, 0))
    with pytest.raises(BudgetExceeded):
        curves.extend_on_curve(NodeSet(), _OnePoint(), diagonal, 2)


def test_is_maximal_curve_line_cases():
    xs = NodeSet([(0, 0), (1, 0), (-1, 0), (0, 1), (1, 1), (0, -1)])
    assert nodes.is_poised(xs, 2)
    axis = Curve(poly.linear(0, 1, 0))  # y = 0
    assert curves.is_maximal_curve(axis, xs, 2)
    other = Curve(poly.linear(1, 0, 0))  # x = 0 also carries 3
    assert curves.is_maximal_curve(other, xs, 2)
    diag = Curve(poly.linear(1, -1, 0))
    assert not curves.is_maximal_curve(diag, xs, 2)


def test_is_maximal_curve_preconditions():
    dependent = NodeSet([(0, 0), (1, 0), (2, 0)])
    axis = Curve(poly.linear(0, 1, 0))
    with pytest.raises(ValueError):
        curves.is_maximal_curve(axis, dependent, 1)
    small = NodeSet([(0, 0)])
    with pytest.raises(ValueError):
        curves.is_maximal_curve(axis, small, 2)


def test_extend_on_curve_line_from_one_node():
    start = NodeSet([(0, 0)])
    axis = line(0, 1, 0)
    got = curves.extend_on_curve(start, axis, Curve(axis.poly()), 2)
    assert got == NodeSet([(0, 0), (1, 0), (-1, 0)])
    assert nodes.is_independent(got, 2)


def test_extend_on_curve_already_full():
    xs = NodeSet([(0, 0), (1, 0), (-1, 0)])
    axis = line(0, 1, 0)
    got = curves.extend_on_curve(xs, axis, Curve(axis.poly()), 2)
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
            NodeSet([(0, 1)]), axis, Curve(axis.poly()), 2)


def test_extend_on_curve_rejects_an_off_curve_sampler_point():
    # the sampler sweeps y = 0, but the curve is x = 0: (0, 0) lies on
    # both and is kept, (1, 0) is refused when read
    axis = line(0, 1, 0)
    other = Curve(line(1, 0, 0).poly())
    with pytest.raises(ValueError, match="off the curve"):
        curves.extend_on_curve(NodeSet(), axis, other, 2)


def test_extend_on_curve_checks_a_union_line_that_is_not_a_component():
    # y = 0 is a component of y*(x - 1) and x = 0 is not: (0, 0) lies on
    # both lines and on the curve, and (0, -1) of x = 0 is refused when
    # read, as with a sampler of no components
    union = LineUnion.of([line(0, 1, 0), line(1, 0, 0)])
    other = Curve(line(0, 1, 0).poly() * line(1, 0, -1).poly())
    assert curves._component(union.lines[0], other)
    assert not curves._component(union.lines[1], other)
    with pytest.raises(ValueError, match="off the curve"):
        curves.extend_on_curve(NodeSet(), union, other, 2)


def test_one_more_on_curve_node_is_dependent():
    axis = line(0, 1, 0)
    full = curves.extend_on_curve(
        NodeSet(), axis, Curve(axis.poly()), 3)
    assert len(full) == 4
    extra = next(p for p in axis.points() if p not in full)
    assert not nodes.is_independent(full.with_node(extra), 3)


def test_node_uses_triangle():
    xs = NodeSet([(0, 0), (1, 0), (0, 1)])
    opposite = Curve(poly.linear(1, 1, -1))  # x + y = 1
    assert curves.node_uses((0, 0), xs, 1, opposite)
    assert not curves.node_uses((1, 0), xs, 1, opposite)


def test_node_uses_requires_fundamental():
    xs = NodeSet([(0, 0), (1, 0), (2, 0)])
    l = Curve(poly.linear(0, 1, 0))
    with pytest.raises(ValueError):
        curves.node_uses((1, 0), xs, 1, l)
    with pytest.raises(ValueError):
        curves.node_uses((5, 5), xs, 1, l)


def test_node_uses_poised_set_with_maximal_line():
    # 2-poised set whose first three nodes fill the line y = 0
    xs = NodeSet([(0, 0), (1, 0), (-1, 0), (0, 1), (1, 1), (0, -1)])
    axis = Curve(poly.linear(0, 1, 0))
    assert curves.is_maximal_curve(axis, xs, 2)
    for p in xs:
        expect = not axis.contains(p)
        assert curves.node_uses(p, xs, 2, axis) == expect


def test_space_divisible_by_line():
    xs = NodeSet([(0, 0), (1, 0), (-1, 0)])
    axis = Curve(poly.linear(0, 1, 0))
    space = nodes.vanishing_basis(xs, 2)
    assert curves.space_divisible_by(space, axis)
    # each basis element on its own is divisible too
    for q in space.basis:
        assert curves.space_divisible_by(nodes.VanishingSpace(2, (q,)), axis)
    off = nodes.vanishing_basis(NodeSet([(0, 1)]), 2)
    assert not curves.space_divisible_by(off, axis)


def test_curve_of_degree_above_n():
    xs = NodeSet([(0, 0), (1, 0), (0, 1)])
    conic = Curve(Poly.from_terms({(2, 0): 1, (0, 2): 1,
                                             (0, 0): -1}, 2))
    with pytest.raises(ValueError, match="exceeds n"):
        curves.node_uses((0, 0), xs, 1, conic)
    # only the zero polynomial of degree <= 1 is divisible by a conic
    assert curves.space_divisible_by(nodes.vanishing_basis(xs, 1), conic)
    one = nodes.vanishing_basis(NodeSet([(0, 0)]), 1)
    assert not curves.space_divisible_by(one, conic)


def _span_divisible(space, q):
    """The span-membership route: q divides every polynomial of the space
    iff none grows the tracker of q's multiples."""
    n = space.n
    if q.degree > n:
        return all(p.is_zero for p in space.basis)
    multiples = linalg.RankTracker(poly.space_dim(n))
    for row in poly.multiplication_matrix(q.poly, n):
        multiples.add(row)
    return all(not multiples.would_grow(p._integer_coeffs[0])
               for p in space.basis)


coefficients = st.fractions(-3, 3, max_denominator=3)
nonzero_coefficients = coefficients.filter(bool)


@st.composite
def divisors(draw):
    """Vertical lines (leading monomial x), horizontal lines, other lines,
    conics and products of three lines."""
    kind = draw(st.sampled_from(
        ["vertical", "horizontal", "line", "conic", "three lines"]))
    if kind == "vertical":
        return line(draw(nonzero_coefficients), 0, draw(coefficients)).poly()
    if kind == "horizontal":
        return line(0, draw(nonzero_coefficients), draw(coefficients)).poly()
    if kind == "conic":
        top = draw(st.lists(coefficients, min_size=3, max_size=3)
                   .filter(any))
        rest = draw(st.lists(coefficients, min_size=3, max_size=3))
        return Poly.from_coeffs(rest + top, 2)
    q = Poly.from_terms({(0, 0): 1}, 0)
    for _ in range(1 if kind == "line" else 3):
        a, b = draw(st.tuples(coefficients, coefficients).filter(any))
        q = q * line(a, b, draw(coefficients)).poly()
    return q


def _random_poly(draw, bound):
    return Poly.from_coeffs(draw(st.lists(
        coefficients, min_size=poly.space_dim(bound),
        max_size=poly.space_dim(bound))), bound)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_division_matches_span_membership(data):
    draw = data.draw
    q = Curve(draw(divisors()))
    n = q.degree + draw(st.integers(-1, 2))  # deg q > n at -1
    multiples_fit = n >= q.degree
    kinds = ["zero", "random"] + (["multiple", "multiple plus monomial"]
                                  if multiples_fit else [])
    basis = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=3)):
        if kind == "zero":
            p = Poly.from_terms({}, n)
        elif kind == "random":
            p = _random_poly(draw, n)
        else:
            p = (q.poly * _random_poly(draw, n - q.degree)).with_bound(n)
        if kind == "multiple plus monomial":
            m = draw(st.integers(0, poly.space_dim(n) - 1))
            p = Poly(n, tuple(c + (i == m) for i, c in enumerate(p.coeffs)))
        basis.append((kind, p))
    several_terms = sum(1 for _ in q.poly.terms()) > 1
    for kind, p in basis:
        space = nodes.VanishingSpace(n, (p,))
        got = curves.space_divisible_by(space, q)
        assert got == _span_divisible(space, q)
        if kind in ("zero", "multiple"):
            assert got
        # a divisor of a monomial is a monomial
        if kind == "multiple plus monomial" and several_terms:
            assert not got
    space = nodes.VanishingSpace(n, tuple(p for _, p in basis))
    assert curves.space_divisible_by(space, q) == _span_divisible(space, q)


def test_multiples_span_has_full_rank():
    # multiplication by a nonzero q is injective, so the multiples of q at
    # bound n span a space of dimension space_dim(n - deg q)
    conic = Poly.from_terms({(2, 0): 1, (0, 2): 1, (0, 0): -1}, 2)
    three = LineUnion.of([line(1, 0, 0), line(0, 1, 0), line(1, 1, -1)])
    for q, n in [(line(1, -2, 3).poly(), 4), (conic, 4), (three.poly(), 5)]:
        assert linalg.rank(poly.multiplication_matrix(q, n),
                           poly.space_dim(n)) == poly.space_dim(n - q.degree)
