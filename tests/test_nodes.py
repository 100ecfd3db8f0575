import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodecurves import curves, generators, linalg, nodes, poly
from nodecurves.errors import BudgetExceeded
from nodecurves.nodes import NodeSet, node
from nodecurves.poly import Poly

FOUR = NodeSet([(0, 0), (1, 0), (2, 0), (0, 1)])
TRIANGLE = NodeSet([(0, 0), (1, 0), (0, 1)])
COLLINEAR3 = NodeSet([(0, 0), (1, 0), (2, 0)])


def test_nodeset_rejects_duplicates():
    with pytest.raises(ValueError):
        NodeSet([(0, 0), ("0", "0")])
    # equal coordinates written differently, and a Node of ints
    with pytest.raises(ValueError, match="duplicate"):
        NodeSet([("1/2", "-3"), (Fraction(2, 4), "-6/2")])
    with pytest.raises(ValueError, match="duplicate"):
        NodeSet([nodes.Node(1, 2), (1, 2)])
    assert len(NodeSet([("1/2", 0), (0, "1/2"), ("-1/2", 0)])) == 3


class _ParabolaTwice:
    """A sampler of the parabola y = x^2 that offers each of its points
    (t, t^2), t = 0, 1, -1, 2, -2, ..., twice in a row."""

    curve = curves.Curve(Poly.from_terms({(0, 1): 1, (2, 0): -1}, 2))

    def points(self):
        for t in itertools.count():
            for s in ((t,) if t == 0 else (t, -t)):
                yield node(s, s * s)
                yield node(s, s * s)


def _on_lines(lines, start, n):
    """``extend_on_curve`` from ``start`` on the union of ``lines``, with
    the union as sampler (a ``LineForm`` when there is one line)."""
    forms = [curves.LineForm.of(*abc) for abc in lines]
    union = curves.LineUnion.of(forms)
    sampler = forms[0] if len(forms) == 1 else union
    return curves.extend_on_curve(NodeSet(start), sampler, union.curve(), n)


_HALF_BR = generators.berzolari_radon(5, 3).nodes.subset(range(10))

# every search output that skips the duplicate scan (NodeSet._distinct);
# the unions through (0, 0) offer it once per line, the parabola every
# point twice, so each search meets nodes its decider already holds
_SEARCH_OUTPUTS = {
    "random_poised n=3": lambda: generators.random_poised(3, 1),
    "random_poised n=5": lambda: generators.random_poised(5, 2),
    "berzolari_radon n=4": lambda: generators.berzolari_radon(4, 1).nodes,
    "berzolari_radon n=6": lambda: generators.berzolari_radon(6, 2).nodes,
    **{f"defect_config n=7 k={k}":
       (lambda k=k: generators.defect_config(7, k, k).nodes)
       for k in range(2, 8)},
    "extend_to_poised from empty": lambda: nodes.extend_to_poised(
        NodeSet(), 4),
    "extend_to_poised from half BR": lambda: nodes.extend_to_poised(
        _HALF_BR, 5),
    "extend_on_curve line": lambda: _on_lines([(1, -2, 3)], [(1, 2)], 4),
    "extend_on_curve two lines": lambda: _on_lines(
        [(1, 0, 0), (0, 1, 0)], [], 4),
    "extend_on_curve concurrent lines": lambda: _on_lines(
        [(1, 0, 0), (0, 1, 0), (1, -1, 0)], [(0, 0)], 4),
    "extend_on_curve conic": lambda: curves.extend_on_curve(
        NodeSet([(2, 4)]), _ParabolaTwice(), _ParabolaTwice.curve, 4),
}


@pytest.mark.parametrize("search", _SEARCH_OUTPUTS)
def test_search_outputs_are_distinct_node_sets(search):
    out = _SEARCH_OUTPUTS[search]()
    assert out == NodeSet(list(out))
    keys = [(p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
            for p in out]
    assert len(set(keys)) == len(keys)


def test_nodeset_refuses_a_string_as_a_point():
    with pytest.raises(TypeError):
        NodeSet(["12"])
    with pytest.raises(TypeError):
        NodeSet([(1, 2)]).index("12")


def test_nodeset_json_round_trip():
    xs = NodeSet([(Fraction(1, 2), -3), (0, 1)])
    data = xs.to_json(n=2)
    assert data == {"n": 2, "nodes": [["1/2", "-3"], ["0", "1"]]}
    back, n = NodeSet.from_json(data)
    assert back == xs and n == 2


def test_collocation_matrix_hand_example():
    assert nodes.collocation_matrix(FOUR, 2) == [
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0],
        [1, 2, 0, 4, 0, 0],
        [1, 0, 1, 0, 0, 1],
    ]


def test_independence_of_collinear_triple():
    assert not nodes.is_independent(COLLINEAR3, 1)
    assert nodes.is_independent(COLLINEAR3, 2)


def test_poisedness_examples():
    assert nodes.is_poised(TRIANGLE, 1)
    # six nodes on the conic x^2 + y^2 - 1 cannot be 2-poised
    circle = NodeSet([
        (1, 0), (0, 1), (-1, 0), (0, -1),
        (Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
    ])
    assert len(circle) == poly.space_dim(2)
    assert not nodes.is_poised(circle, 2)


def test_hilbert_function_collinear():
    four = NodeSet([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert nodes.hilbert_function(four, 2) == 3
    assert nodes.hilbert_function(NodeSet(), 5) == 0


def test_vanishing_basis_hand_examples():
    space = nodes.vanishing_basis(FOUR, 2)
    assert space.dimension == 2
    xy = Poly.from_terms({(1, 1): 1}, 2)
    want = Poly.from_terms({(0, 2): 1, (0, 1): -1}, 2)
    assert space.basis[0].equals(xy)
    assert space.basis[1].equals(want)

    one_node = nodes.vanishing_basis(NodeSet([(0, 0)]), 1)
    assert [str(q) for q in one_node.basis] == ["x", "y"]


def test_fundamental_polynomial_examples():
    p = nodes.fundamental_polynomial((0, 0), TRIANGLE, 1)
    assert str(p) == "1 - x - y"
    # middle node of a collinear triple has none at degree 1
    assert nodes.fundamental_polynomial((1, 0), COLLINEAR3, 1) is None
    single = nodes.fundamental_polynomial((5, 7), NodeSet([(5, 7)]), 0)
    assert single.equals(Poly.from_terms({(0, 0): 1}, 0))
    with pytest.raises(ValueError):
        nodes.fundamental_polynomial((9, 9), TRIANGLE, 1)


def exact_fundamental(xs, n, idx):
    """Node idx's fundamental polynomial from one exact elimination of its
    collocation system, the reference for the lifted solve."""
    rows = [row + [row[0] if i == idx else 0]
            for i, row in enumerate(nodes.collocation_matrix(xs, n))]
    sol = linalg.solve_columns(rows, poly.space_dim(n))
    return None if sol is None else Poly(n, sol)


def test_fundamental_polynomials_batch_matches_single():
    for xs, n in [(FOUR, 2), (COLLINEAR3, 1), (TRIANGLE, 1)]:
        want = [exact_fundamental(xs, n, i) for i in range(len(xs))]
        assert nodes.fundamental_polynomials(xs, n) == want
        for i, p in enumerate(xs):
            assert nodes.fundamental_polynomial(p, xs, n) == want[i]


def test_fundamental_polynomial_of_a_poised_set_needs_no_elimination(
        monkeypatch):
    # a poised set is square: the certified solve answers alone
    xs = generators.random_poised(6, 1)
    want = {i: exact_fundamental(xs, 6, i) for i in (0, 13, 27)}

    def refuse(*args):
        raise AssertionError("exact elimination")
    monkeypatch.setattr(linalg, "solve_columns", refuse)
    for i, p in want.items():
        assert nodes.fundamental_polynomial(xs[i], xs, 6) == p


def test_integer_spiral_prefix():
    got = list(itertools.islice(nodes.integer_spiral(), 6))
    assert got == [node(0, 0), node(1, 0), node(0, 1),
                   node(-1, 0), node(0, -1), node(1, 1)]


def _spiral_by_fraction_angle():
    # the spiral as first written: scan the square, sort by Fraction slopes
    yield node(0, 0)
    radius = 1
    while True:
        ring = [(x, y) for x in range(-radius, radius + 1)
                for y in range(-radius, radius + 1)
                if max(abs(x), abs(y)) == radius]

        def angle_key(pt):
            x, y = pt
            if x > 0 and y >= 0:
                return (0, Fraction(y, x))
            if x <= 0 and y > 0:
                return (1, Fraction(-x, y))
            if x < 0 and y <= 0:
                return (2, Fraction(-y, -x))
            return (3, Fraction(x, -y))

        ring.sort(key=lambda pt: (abs(pt[0]) + abs(pt[1]), angle_key(pt)))
        for x, y in ring:
            yield node(x, y)
        radius += 1


def test_integer_spiral_matches_fraction_angle_order():
    count = 10_000
    got = list(itertools.islice(nodes.integer_spiral(), count))
    assert got == list(itertools.islice(_spiral_by_fraction_angle(), count))


def test_extend_to_poised_from_empty_degree_one():
    got = nodes.extend_to_poised(NodeSet(), 1)
    assert got == NodeSet([(0, 0), (1, 0), (0, 1)])
    assert nodes.is_poised(got, 1)


def test_extend_to_poised_collinear_start():
    got = nodes.extend_to_poised(COLLINEAR3, 2)
    assert len(got) == 6
    assert nodes.is_poised(got, 2)
    assert all(p in got for p in COLLINEAR3)


def test_extend_to_poised_rejects_dependent_input():
    with pytest.raises(ValueError):
        nodes.extend_to_poised(COLLINEAR3, 1)


@pytest.mark.parametrize("search, xs, message", [
    (nodes.next_independent_node, TRIANGLE, "full size"),
    (nodes.extend_to_poised, FOUR, "larger than the space dimension"),
])
def test_searches_refuse_sets_too_large_to_grow(search, xs, message):
    with pytest.raises(ValueError, match=message):
        search(xs, 1)


def _counted(points):
    """The points, counting reads in reads[0]; reading past them fails."""
    reads = [0]

    def stream():
        for p in points:
            reads[0] += 1
            yield p
        raise AssertionError("read past the last candidate")

    return stream(), reads


def test_grow_reads_nothing_when_nothing_is_wanted():
    stream, reads = _counted([])
    tracker = linalg.IndependenceTracker(poly.space_dim(1))
    assert nodes._grow(nodes._RankDecider(tracker, 1), stream, 0) == []
    assert reads == [0]


def test_grow_stops_at_the_last_candidate_it_needs():
    # (2, 0) is spanned by the first two at degree 1 and is skipped
    stream, reads = _counted([node(0, 0), node(1, 0), node(2, 0),
                              node(0, 1)])
    tracker = linalg.IndependenceTracker(poly.space_dim(1))
    got = nodes._grow(nodes._RankDecider(tracker, 1), stream, 3)
    assert got == [node(0, 0), node(1, 0), node(0, 1)]
    assert reads == [4] and tracker.rank == 3


def test_grow_reads_exactly_the_budget(monkeypatch):
    monkeypatch.setattr(nodes, "SEARCH_BUDGET", 7)
    # the first read grows the tracker, the repeats never do; the stream
    # is read up to the budget plus the 2 nodes wanted
    stream, reads = _counted([node(0, 0)] * 100)
    tracker = linalg.IndependenceTracker(poly.space_dim(2))
    with pytest.raises(BudgetExceeded):
        nodes._grow(nodes._RankDecider(tracker, 2), stream, 2)
    assert reads == [9]


def test_grow_keeps_more_nodes_than_the_budget(monkeypatch):
    # a search that must keep more nodes than SEARCH_BUDGET still succeeds
    # on a stream of independent points
    monkeypatch.setattr(nodes, "SEARCH_BUDGET", 2)
    xs = NodeSet([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    stream, reads = _counted(list(xs))
    tracker = linalg.IndependenceTracker(poly.space_dim(2))
    assert nodes._grow(nodes._RankDecider(tracker, 2), stream, 6) == \
        list(xs)
    assert reads == [6]
    assert nodes.extend_to_poised(NodeSet(), 2) == \
        NodeSet(itertools.islice(nodes.integer_spiral(), 6))


def test_grow_raises_when_the_stream_runs_out():
    tracker = linalg.IndependenceTracker(poly.space_dim(1))
    with pytest.raises(BudgetExceeded):
        nodes._grow(nodes._RankDecider(tracker, 1),
                    iter([node(0, 0), node(1, 0)]), 3)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def node_sets(max_size=8):
    return st.lists(
        st.tuples(small_fracs, small_fracs), min_size=0, max_size=max_size,
        unique=True).map(NodeSet)


@settings(max_examples=40, deadline=None)
@given(node_sets(), st.integers(0, 3))
def test_dimension_identity(xs, n):
    # rank path (integer tracker) against nullspace path (Fraction RREF)
    space = nodes.vanishing_basis(xs, n)
    assert space.dimension == poly.space_dim(n) - nodes.hilbert_function(xs, n)


@settings(max_examples=40, deadline=None)
@given(node_sets(6), st.integers(0, 3))
def test_independence_equivalences(xs, n):
    indep = nodes.is_independent(xs, n)
    fps = nodes.fundamental_polynomials(xs, n)
    assert indep == all(p is not None for p in fps)
    space = nodes.vanishing_basis(xs, n)
    assert indep == (space.dimension == poly.space_dim(n) - len(xs))


@settings(max_examples=40, deadline=None)
@given(node_sets(6), st.integers(0, 3))
def test_fundamental_delta_property(xs, n):
    fps = nodes.fundamental_polynomials(xs, n)
    for i, p in enumerate(fps):
        if p is None:
            continue
        for j, q in enumerate(xs):
            assert p.eval(q.x, q.y) == (1 if i == j else 0)


@settings(max_examples=40, deadline=None)
@given(node_sets(6), st.integers(0, 2))
def test_hilbert_monotone_in_degree(xs, n):
    assert nodes.hilbert_function(xs, n) <= nodes.hilbert_function(xs, n + 1)


@settings(max_examples=30, deadline=None)
@given(node_sets(7), st.integers(0, 3))
def test_maximal_subset_spans_same_vanishing_space(xs, n):
    # greedy scan in set order, keeping nodes that add a new condition
    tracker = linalg.RankTracker(poly.space_dim(n))
    sub = NodeSet(p for p in xs
                  if tracker.add(poly.homogeneous_row(p.x, p.y, n)))
    assert nodes.is_independent(sub, n)
    assert nodes.hilbert_function(sub, n) == nodes.hilbert_function(xs, n)
    full = [q._integer_coeffs[0] for q in nodes.vanishing_basis(xs, n).basis]
    reduced = [q._integer_coeffs[0]
               for q in nodes.vanishing_basis(sub, n).basis]
    # two bases of one space: stacking them adds no rank
    stacked = full + reduced
    assert len(full) == len(reduced) == linalg.rank(stacked, poly.space_dim(n))
