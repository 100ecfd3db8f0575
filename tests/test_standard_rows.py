"""On-curve searches decide by counting, peeling and a small rank on a
line arrangement, and by rank on the curve's standard monomials
elsewhere.

For points of a curve q with graded-lex leading monomial x^s y^t, the
degree-n rows restricted to the monomials x^s y^t does not divide have the
same dependencies as the full rows.  On lines in general position,
``curves.LineDecider`` decides n-independence from the meeting conditions
(see the ``curves`` module docstring).  The property tests feed one
candidate stream to a full-row tracker and to a standard-monomial tracker,
or to a ``LineDecider``, and compare every accept and reject.  The
reference tests copy the search as it was before it read standard
monomials or decided on lines (full rows, and the defect outlier added to
the tracker) and check that the generators and ``extend_on_curve`` return
the same nodes.
"""

import itertools
from fractions import Fraction
from math import lcm

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodecurves import curves, generators, linalg, nodes, poly
from nodecurves.curves import LineForm, LineUnion
from nodecurves.errors import BudgetExceeded
from nodecurves.generators import SplitMix64
from nodecurves.linalg import ZERO, IndependenceTracker
from nodecurves.nodes import Node, NodeSet


def line(a, b, c):
    return LineForm.of(a, b, c)


def compare_decisions(candidates, n, lead):
    """Feed the candidates to a full-row and a standard-row tracker and
    assert that they agree on each; returns the standard-row tracker."""
    full = IndependenceTracker(poly.space_dim(n))
    standard = IndependenceTracker(len(poly.row_exponents(n, lead)))
    assert standard.ncols == (poly.space_dim(n)
                              - poly.space_dim(n - sum(lead)))
    for p in candidates:
        grew = full.add(poly.homogeneous_row(p.x, p.y, n))
        assert standard.add(poly.homogeneous_row(p.x, p.y, n, lead)) == grew
    assert standard.rank == full.rank
    return standard


small = st.integers(-3, 3)
nonzero = small.filter(bool)
vertical = st.builds(line, nonzero, st.just(0), small)
horizontal = st.builds(line, st.just(0), nonzero, small)
general = st.builds(line, nonzero, nonzero, small)


@st.composite
def concurrent(draw):
    """Two to three lines through one integer point."""
    px, py = draw(small), draw(small)
    slopes = draw(st.lists(st.tuples(small, small).filter(any),
                           min_size=2, max_size=3))
    return [line(a, b, -(a * px + b * py)) for a, b in slopes]


unions = st.one_of(
    st.lists(st.one_of(vertical, horizontal, general),
             min_size=1, max_size=4),
    st.tuples(concurrent(), st.lists(st.one_of(vertical, horizontal),
                                     max_size=1)).map(lambda t: t[0] + t[1]),
)


def distinct(lines):
    return all(not curves.proportional(p, q)
               for p, q in itertools.combinations(lines, 2))


@settings(max_examples=80, deadline=None)
@given(unions, st.integers(0, 3))
def test_standard_rows_decide_as_full_rows_on_line_unions(lines, extra):
    assume(distinct(lines))
    union = LineUnion.of(lines)
    n = len(lines) + extra
    assert union.lead == union.poly().leading_exponents
    # round-robin reads repeat every intersection point, once per line
    stream = list(itertools.islice(union.points(), 3 * poly.space_dim(n)))
    tracker = compare_decisions(stream, n, union.lead)
    assert tracker.rank == curves.max_nodes_on_curve(n, len(lines))


def test_standard_rows_decide_as_full_rows_on_the_union_conic():
    union = LineUnion.of([line(1, 0, 0), line(0, 1, 0)])  # the conic x*y
    start = NodeSet([(0, 1), (0, 2), (1, 0), (2, 0)])
    assert union.lead == (1, 1)
    stream = list(start) + list(itertools.islice(union.points(), 20))
    assert compare_decisions(stream, 3, union.lead).rank == 7


def test_standard_rows_reach_the_exact_fallback():
    # every point of a union divided by P lies on the union's lines with
    # c divided by P; the row entries carrying a power of the common
    # denominator vanish mod P, so the prime rejects rows that are
    # independent and the exact kernel decides them, on standard-monomial
    # rows as on full rows
    base = [line(1, 2, -3), line(1, 0, 1), line(0, 1, 2)]
    union = LineUnion.of([line(l.a, l.b, l.c / linalg.P) for l in base])
    stream = [Node(p.x / linalg.P, p.y / linalg.P)
              for p in itertools.islice(LineUnion.of(base).points(), 40)]
    assert all(union.contains(p) for p in stream)
    assert all(lcm(p.x.denominator, p.y.denominator) % linalg.P == 0
               for p in stream)
    tracker = compare_decisions(stream, 4, union.lead)
    assert tracker._exact is not None and not tracker._certified


def compare_count(lines, n, candidates, decider=None, full=None):
    """Feed the candidates to a full-row tracker and to a ``LineDecider``,
    or to the given decider and tracker, and assert that they agree on
    each; returns the tracker's rank."""
    if full is None:
        full = IndependenceTracker(poly.space_dim(n))
    if decider is None:
        decider = curves.LineDecider(lines, n)
    for p in candidates:
        grew = full.add(poly.homogeneous_row(p.x, p.y, n))
        assert decider.add(p) == grew, (p, grew)
    return full.rank


rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
rational_lines = st.one_of(
    st.builds(line, rational.filter(bool), st.just(0), rational),  # vertical
    st.tuples(rational, rational, rational).filter(
        lambda t: t[0] or t[1]).map(lambda t: line(*t)))


def common_point(lines):
    """The lines' common point, or None for one line or parallel lines."""
    if len(lines) < 2:
        return None
    (a, b, c), (d, e, f) = ((l.a, l.b, l.c) for l in lines)
    det = a * e - b * d
    if det == 0:
        return None
    return Node((b * f - c * e) / det, (c * d - a * f) / det)


@st.composite
def nodes_on_lines(draw):
    """One or two distinct rational lines, a degree n and a node list on
    them: either n + 1 nodes of each of two lines, none at their common
    point, in a drawn order, or a drawn list of picks, each a run of up to
    n + 2 consecutive nodes of one line's stream, the common point, or a
    repeat of an earlier node, possibly after the common point."""
    lines = draw(st.lists(rational_lines, min_size=2, max_size=2))
    assume(distinct(lines))
    if draw(st.booleans()):
        lines = lines[:1]
    n = draw(st.integers(0, 4))
    common = common_point(lines)
    streams = [[p for p in itertools.islice(l.points(), 2 * n + 4)
                if p != common] for l in lines]
    if len(lines) == 2 and draw(st.booleans()):
        pts = streams[0][:n + 1] + streams[1][:n + 1]
        return lines, n, draw(st.permutations(pts))
    pts = [common] if common is not None and draw(st.booleans()) else []
    runs = st.tuples(st.integers(0, len(lines) - 1), st.integers(0, n + 1),
                     st.integers(1, n + 2))
    for pick in draw(st.lists(st.one_of(runs, st.sampled_from(
            ["common", "again"])), max_size=6)):
        if pick == "common" and common is not None:
            pts.append(common)
        elif pick == "again" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif isinstance(pick, tuple):
            i, start, length = pick
            pts += streams[i][start:start + length]
    return lines, n, pts


@settings(max_examples=100, deadline=None)
@given(nodes_on_lines())
def test_line_count_decides_as_full_rows(drawn):
    lines, n, pts = drawn
    assert all(any(l.contains(p) for l in lines) for p in pts)
    compare_count(lines, n, pts)


def test_line_count_cases():
    half = line(1, 0, Fraction(-1, 2))  # the vertical line x = 1/2
    on_half = [half.point_at(t) for t in range(5)]
    # n + 2 nodes of one line: the last is refused
    assert compare_count([half], 3, on_half) == 4
    # the axes meet at (0, 0), which counts on both
    axes = [line(1, 0, 0), line(0, 1, 0)]
    stream = list(itertools.islice(LineUnion.of(axes).points(), 14))
    assert stream[0] == stream[1] == Node(ZERO, ZERO)
    assert compare_count(axes, 3, stream) == 7
    origin = Node(ZERO, ZERO)
    # after the common point, each line takes only n more nodes
    for axis in axes:
        rest = [q for q in itertools.islice(axis.points(), 6) if q != origin]
        assert compare_count(axes, 3, [origin] + rest) == 4
    # 2n + 2 nodes, n + 1 on each line and none at the common point: each
    # line is within n + 1, but the total is past 2n + 1, and the common
    # point after them is refused too
    off = [p for l in axes for p in itertools.islice(
        (q for q in l.points() if q != origin), 4)]
    assert compare_count(axes, 3, off + [origin]) == 7
    # parallel lines have no common point
    assert compare_count([line(1, 0, 0), half], 2,
                         list(itertools.islice(
                             LineUnion.of([line(1, 0, 0), half]).points(),
                             8))) == 5


def test_line_count_refuses_a_node_off_its_lines():
    count = curves.LineDecider([line(1, 0, 0)], 2)
    with pytest.raises(ValueError, match="off the lines"):
        count.add(Node(Fraction(1), ZERO))
    with pytest.raises(ValueError):
        curves.LineDecider([], 2)
    # more than n + 2 lines
    with pytest.raises(ValueError, match="n \\+ 2"):
        curves.LineDecider([line(1, 0, -t) for t in range(2)]
                           + [line(0, 1, 0)], 0)


def test_extend_on_curve_refuses_a_dependent_start_on_two_lines():
    union = LineUnion.of([line(1, 0, 0), line(0, 1, 0)])
    five = NodeSet((0, t) for t in range(5))  # n + 2 nodes of x = 0
    with pytest.raises(ValueError, match="not independent"):
        curves.extend_on_curve(five, union, union.curve(), 3)


@st.composite
def arrangements(draw):
    """Three to five rational lines, no three through one point, finite
    or at infinity, lines 0 and 1 possibly parallel with D_1 = lambda *
    D_0 for lambda not +-1; a degree n >= m - 1; a start set of distinct
    nodes and a list of candidates: runs of consecutive points of one
    line or of the lines' round-robin stream, meeting points and
    repeats."""
    m = draw(st.integers(3, 5))
    lines = draw(st.lists(rational_lines, min_size=m, max_size=m))
    if draw(st.booleans()):
        lam = draw(st.sampled_from([Fraction(2), Fraction(-3),
                                    Fraction(1, 2), Fraction(-2, 3)]))
        lines[1] = line(lam * lines[0].a, lam * lines[0].b, draw(rational))
    assume(distinct(lines) and curves._general_position(lines))
    n = draw(st.integers(m - 1, m + 1))
    meets = [p for pair in itertools.combinations(lines, 2)
             if (p := common_point(list(pair))) is not None]
    streams = [list(itertools.islice(l.points(), n + 3)) for l in lines]
    runs = st.tuples(st.integers(0, m - 1), st.integers(0, n + 1),
                     st.integers(1, n + 2))
    pts = []
    for pick in draw(st.lists(st.one_of(
            runs, st.sampled_from(["meet", "again", "sweep"])),
            max_size=12)):
        if pick == "meet" and meets:
            pts.append(draw(st.sampled_from(meets)))
        elif pick == "again" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif pick == "sweep":  # the round-robin stream of a search
            pts += itertools.islice(LineUnion.of(lines).points(),
                                    draw(st.integers(0, m * (n + 2))))
        elif isinstance(pick, tuple):
            i, start, length = pick
            pts += streams[i][start:start + length]
    firsts = list(dict.fromkeys(pts))
    start = firsts[:draw(st.integers(0, len(firsts)))]
    return lines, n, start, [p for p in pts if p not in start]


@settings(max_examples=150, deadline=None)
@given(arrangements())
def test_line_decider_decides_as_full_rows(drawn):
    lines, n, start, rest = drawn
    assert all(any(l.contains(p) for l in lines) for p in start + rest)
    full = IndependenceTracker(poly.space_dim(n))
    independent = all([full.add(poly.homogeneous_row(p.x, p.y, n))
                       for p in start])
    union = LineUnion.of(lines)
    if not independent:
        with pytest.raises(ValueError, match="not independent"):
            curves._search_decider(NodeSet(start), lines, n, union.lead)
        return
    decider = curves._search_decider(NodeSet(start), lines, n, union.lead)
    assert isinstance(decider, curves.LineDecider) == (len(lines) <= 4)
    compare_count(lines, n, rest, decider, full)
    # the decider on its own, from the empty set
    compare_count(lines, n, start + rest)


def grid(ls, ms):
    """The points where each l meets each m, line by line of ls."""
    return [common_point([l, m]) for l in ls for m in ms]


def test_line_decider_refuses_cayley_bacharach_grids():
    # the nine points where l_i meets m_j lie on the two cubics
    # l1*l2*l3 and m1*m2*m3, so they are 3-dependent, with three nodes on
    # each l_i: the rooms are 1, 1, 1, the three meeting conditions form
    # the core, and its rank is 2
    columns = [line(1, 0, -t) for t in (1, 2, 3)]
    finite = [line(0, 1, 0), line(1, -1, 0), line(1, 1, -10)]
    # y = 0 and y = 1 written with D_2 = 2 * D_1: [t^3] f_2 = 8 [t^3] f_1
    parallel = [line(0, 1, 0), line(0, 2, -2), line(1, 1, -10)]
    for ls in (finite, parallel):
        pts = grid(ls, columns)
        assert len(set(pts)) == 9
        assert all(p not in pts for p in grid(ls, ls) if p is not None)
        decider = curves.LineDecider(ls, 3)
        assert compare_count(ls, 3, pts, decider) == 8
        assert not decider.add(pts[-1])


def test_concurrent_and_parallel_triples_take_the_rank_path():
    concurrent = [line(1, 0, 0), line(0, 1, 0), line(1, -1, 0)]
    parallel = [line(1, 0, -t) for t in range(3)]
    for lines in (concurrent, parallel):
        assert not curves._general_position(lines)
        union = LineUnion.of(lines)
        decider = curves._search_decider(NodeSet(), lines, 3, union.lead)
        assert isinstance(decider, nodes._RankDecider)
        with pytest.raises(ValueError, match="one point"):
            curves.LineDecider(lines, 3)
    # five lines in general position take it too, by cost
    five = [line(1, 0, 0), line(0, 1, 0), line(1, 1, -1), line(1, -1, 2),
            line(1, 2, 3)]
    assert curves._general_position(five)
    decider = curves._search_decider(NodeSet(), five, 5,
                                     LineUnion.of(five).lead)
    assert isinstance(decider, nodes._RankDecider)


# The search as it was before it read standard monomials or decided on lines.

def reference_grow(tracker, n, candidates, want):
    found = []
    stream = itertools.islice(candidates, nodes.SEARCH_BUDGET + want)
    while len(found) < want:
        cand = next(stream, None)
        if cand is None:
            raise BudgetExceeded("no independent node found within budget")
        if tracker.add(poly.homogeneous_row(cand.x, cand.y, n)):
            found.append(cand)
    return found


def reference_defect_config(n, k, seed):
    lines = generators.random_lines(SplitMix64(seed), k - 1)
    union = LineUnion.of(lines)
    tracker = IndependenceTracker(poly.space_dim(n))
    on_curve = reference_grow(tracker, n, union.points(),
                              curves.max_nodes_on_curve(n, k - 1))
    off_curve = (p for p in nodes.integer_spiral() if not union.contains(p))
    [outlier] = reference_grow(tracker, n, off_curve, 1)
    return NodeSet(on_curve + [outlier]), lines


def reference_extend_on_curve(xs, sampler, q, n):
    tracker = IndependenceTracker(poly.space_dim(n))
    assert all(tracker.add(poly.homogeneous_row(p.x, p.y, n)) for p in xs)
    want = curves.max_nodes_on_curve(n, q.degree) - len(xs)
    return NodeSet(list(xs) + reference_grow(tracker, n, sampler.points(),
                                             want))


def test_defect_config_matches_the_full_row_search():
    for n in range(2, 8):
        for k in range(2, n + 1):
            for seed in range(10):
                cfg = generators.defect_config(n, k, seed)
                assert (cfg.nodes, cfg.mu_lines) == \
                    reference_defect_config(n, k, seed), (n, k, seed)


def test_extend_on_curve_matches_the_full_row_search():
    samplers = [
        line(1, 0, -2),  # x = 2, leading monomial x
        LineUnion.of([line(1, 0, 0), line(1, -1, 1), line(2, 3, -1)]),
        # y = x and x + y = 2 meet at (1, 1), the point at t = -1 on the
        # first and t = 1 on the second: it is read twice
        LineUnion.of([line(1, -1, 0), line(1, 1, -2)]),
    ]
    for sampler in samplers:
        q = curves.Curve(sampler.poly())
        for n in range(q.degree, 8):
            two = NodeSet(itertools.islice(sampler.points(), 2))
            for xs in (NodeSet(), two):
                assert curves.extend_on_curve(xs, sampler, q, n) == \
                    reference_extend_on_curve(xs, sampler, q, n), (n, xs)
