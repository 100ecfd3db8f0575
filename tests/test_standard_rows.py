"""On-curve searches decide rank on the curve's standard monomials.

For points of a curve q with graded-lex leading monomial x^s y^t, the
degree-n rows restricted to the monomials x^s y^t does not divide have the
same dependencies as the full rows.  The property tests feed one candidate
stream to a full-row tracker and to a standard-monomial tracker and compare
every accept and reject.  The reference tests copy the search as it was
before it read standard monomials (full rows, and the defect outlier added
to the tracker) and check that the generators and ``extend_on_curve``
return the same nodes.
"""

import itertools
from math import lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodecurves import curves, generators, linalg, nodes, poly
from nodecurves.curves import LineForm, LineUnion
from nodecurves.errors import BudgetExceeded
from nodecurves.generators import SplitMix64
from nodecurves.linalg import IndependenceTracker
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


# The search as it was before it read standard monomials.

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
    ]
    for sampler in samplers:
        q = curves.Curve(sampler.poly())
        for n in range(q.degree, 8):
            two = NodeSet(itertools.islice(sampler.points(), 2))
            for xs in (NodeSet(), two):
                assert curves.extend_on_curve(xs, sampler, q, n) == \
                    reference_extend_on_curve(xs, sampler, q, n), (n, xs)
