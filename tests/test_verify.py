import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodecurves import (cli, curves, generators, linalg, nodes, poly,
                        verify)
from nodecurves.curves import Curve
from nodecurves.errors import TheoremViolation
from nodecurves.nodes import NodeSet
from nodecurves.poly import Poly

FOUR = NodeSet([(0, 0), (1, 0), (2, 0), (0, 1)])

# the exact curve-space computations that the mod-P bound can spare
EXACT = [(verify, "curves_through"), (nodes, "vanishing_basis")]


def _count_calls(monkeypatch, names) -> dict:
    counts = {}
    for owner, attr in names:
        real = getattr(owner, attr)
        counts[attr] = 0

        def wrapper(*args, real=real, attr=attr, **kwargs):
            counts[attr] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)
    return counts


def test_curves_through_dimensions():
    # poised set leaves no curve at its own degree
    tri = NodeSet([(0, 0), (1, 0), (0, 1)])
    assert verify.curves_through(tri, 1).dimension == 0
    # one node short of poised leaves exactly one
    short = NodeSet([(0, 0), (1, 0)])
    assert verify.curves_through(short, 1).dimension == 1
    assert verify.curves_through(FOUR, 2).dimension == 2


def test_verify_uniqueness_generic_five():
    xs = NodeSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)])
    assert len(xs) == curves.uniqueness_threshold(2, 2)
    assert verify.verify_uniqueness(xs, 2, 2) == 1


def test_verify_uniqueness_precondition_breach():
    xs = NodeSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        verify.verify_uniqueness(xs, 2, 2)
    dependent = NodeSet([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    with pytest.raises(ValueError):
        verify.verify_uniqueness(dependent, 2, 2)


def test_verify_uniqueness_after_extension():
    cfg = generators.defect_config(3, 2, 21)
    extended = cfg.nodes.with_node(nodes.next_independent_node(cfg.nodes, 3))
    assert verify.verify_uniqueness(extended, 3, 2) == 1


def test_verify_uniqueness_surplus_curve_is_violation(monkeypatch):
    # a 2-dimensional curve space at the threshold breaks the theorem
    xs = NodeSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)])
    real = verify.curves_through
    monkeypatch.setattr(verify, "curves_through",
                        lambda _xs, k: real(FOUR, k))
    with pytest.raises(TheoremViolation):
        verify.verify_uniqueness(xs, 2, 2)


def test_characterize_defect_round_trip():
    for n, k, seed in [(2, 2, 0), (3, 2, 5), (4, 3, 9), (5, 3, 1)]:
        cfg = generators.defect_config(n, k, seed)
        report = verify.characterize_defect(cfg.nodes, n, k)
        assert report.curve_space_dim == 2
        assert cfg.nodes[report.outlier_index] == cfg.outlier
        assert report.outlier_index == cfg.outlier_index
        assert curves.same_curve(report.mu, cfg.mu)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_split_needs_no_exact_curve_space(monkeypatch, seed):
    cfg = generators.defect_config(5, 3, seed)
    counts = _count_calls(monkeypatch, EXACT)
    fast = verify.characterize_defect(cfg.nodes, 5, 3)
    assert counts == dict.fromkeys(counts, 0)
    # the bound then allows the whole space, so nothing is certified
    monkeypatch.setattr(linalg.IndependenceTracker, "prefix_rank_bound",
                        lambda self, q: 0)
    exact = verify.characterize_defect(cfg.nodes, 5, 3)
    assert counts["curves_through"] == 1
    assert exact == fast
    assert fast.outlier_index == cfg.outlier_index
    rest = nodes.vanishing_basis(cfg.nodes.without(cfg.outlier), 2)
    assert rest.basis == (fast.mu.poly,)


@pytest.mark.parametrize("n, k, seed", [(3, 2, 1), (4, 3, 2), (5, 3, 3),
                                        (6, 4, 4)])
def test_denominators_divisible_by_p_take_the_exact_path(monkeypatch, n, k,
                                                          seed):
    # a node off the origin then has a denominator divisible by P, so
    # each of its row entries of degree below n is 0 mod P; the origin's
    # row is (1, 0, ..., 0), and the bound stays far above 2
    cfg = generators.defect_config(n, k, seed)
    xs = NodeSet((p.x / linalg.P, p.y / linalg.P) for p in cfg.nodes)
    tracker = nodes._independent_tracker(xs, n)
    assert tracker.prefix_rank_bound(poly.space_dim(k)) <= 1
    counts = _count_calls(monkeypatch, [(verify, "curves_through"),
                                        (nodes, "_curves_missing_one"),
                                        (nodes, "_independent_tracker")])
    real, degrees = nodes.collocation_matrix, []

    def recording(ys, m, *args):
        degrees.append(m)
        return real(ys, m, *args)
    monkeypatch.setattr(nodes, "collocation_matrix", recording)
    report = verify.characterize_defect(xs, n, k)
    assert counts["curves_through"] == 1
    # below the crossover, or with the column pass short of full rank at
    # (6, 4), the exact tracker bounds the curve space and the exact route
    # names the outlier; the degree-n rows are built once, for both the
    # pass and the tracker
    assert counts["_independent_tracker"] == 1
    assert counts["_curves_missing_one"] == 1
    assert degrees.count(n) == 1
    assert report.curve_space_dim == 2
    assert report.outlier_index == cfg.outlier_index


@pytest.mark.parametrize("n", range(3, 11))
def test_certified_split_matches_the_exact_route(monkeypatch, n):
    # every k and seeds 0-3: one column pass answers at every size, with
    # the exact route's rank bound, rank, outliers and curves
    sets = [(k, seed, generators.defect_config(n, k, seed).nodes)
            for k in range(2, n + 1) for seed in range(4)]
    exact, tracker = nodes._curves_missing_one, nodes._independent_tracker
    monkeypatch.setattr(nodes, "_SPLIT_COLUMNS", 0)
    counts = _count_calls(monkeypatch, [(nodes, "_curves_missing_one"),
                                        (nodes, "_independent_tracker")])
    for k, seed, xs in sets:
        want = tracker(xs, n).prefix_rank_bound(poly.space_dim(k))
        prefix, split = nodes._defect_pass(xs, n, k)
        assert prefix == want, (k, seed)
        assert nodes._outlier_curves(xs, k - 1, split) == exact(xs, k - 1)
    assert counts == dict.fromkeys(counts, 0)


def test_certified_split_rules_out_false_candidates(monkeypatch):
    # were every pivot node named a candidate, the exact checks of each
    # candidate's curve at the free nodes would still leave the planted
    # outlier alone
    real = linalg.column_pass

    def every_pivot(*args):
        found = real(*args)
        return found._replace(candidates=found.pivots)
    monkeypatch.setattr(linalg, "column_pass", every_pivot)
    for n, k, seed in [(6, 4, 1), (8, 5, 2), (9, 6, 3)]:
        cfg = generators.defect_config(n, k, seed)
        _, split = nodes._defect_pass(cfg.nodes, n, k)
        assert len(split[1].candidates) == poly.space_dim(k - 1)
        rank, curves = nodes._outlier_curves(cfg.nodes, k - 1, split)
        assert (rank, curves) == nodes._curves_missing_one(cfg.nodes, k - 1)
        assert list(curves) == [cfg.outlier_index]


def test_failed_lift_takes_the_exact_split(monkeypatch):
    # a lift that verifies nothing sends the split to the exact route,
    # which gives the same report
    cfg = generators.defect_config(6, 4, 1)
    want = verify.characterize_defect(cfg.nodes, 6, 4)
    monkeypatch.setattr(linalg, "_lift", lambda *args: None)
    counts = _count_calls(monkeypatch, [(nodes, "_curves_missing_one"),
                                        (nodes, "_independent_tracker")])
    assert verify.characterize_defect(cfg.nodes, 6, 4) == want
    assert counts == {"_curves_missing_one": 1, "_independent_tracker": 0}
    assert want.outlier_index == cfg.outlier_index


def test_pass_short_of_full_rank_decides_exactly(monkeypatch):
    # 8 nodes on a line are dependent at degree 6: the column pass stops
    # short of the node count, and the exact tracker raises
    xs = NodeSet([(i, 0) for i in range(8)]
                 + [(i, 1 + i * i) for i in range(11)])
    assert len(xs) == curves.max_nodes_on_curve(6, 3) + 1
    real, ranks = linalg.column_pass, []

    def recording(*args):
        found = real(*args)
        ranks.append(found.rank)
        return found
    monkeypatch.setattr(linalg, "column_pass", recording)
    counts = _count_calls(monkeypatch, [(nodes, "_independent_tracker")])
    with pytest.raises(ValueError, match="not independent"):
        verify.characterize_defect(xs, 6, 4)
    assert len(ranks) == 1 and ranks[0] < len(xs)
    assert counts["_independent_tracker"] == 1


def test_characterize_defect_generic_set_has_no_defect():
    # right size, independent, but no curve surplus: nothing to characterize
    xs = NodeSet([(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)])
    assert len(xs) == curves.max_nodes_on_curve(3, 1) + 1
    report = verify.characterize_defect(xs, 3, 2)
    assert report.curve_space_dim <= 1
    assert report.mu is None and report.outlier_index is None


def test_characterize_defect_square_has_no_split():
    # at k = n two curves pass through every valid input; the square has
    # no 3 collinear nodes, so it carries no curve-plus-outlier split
    square = NodeSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    report = verify.characterize_defect(square, 2, 2)
    assert report == verify.DefectReport(2, None, None)


def test_characterize_defect_at_k_equal_n_needs_dimension_two(monkeypatch):
    square = NodeSet([(0, 0), (1, 0), (0, 1), (1, 1)])
    real = verify.curves_through
    wide = lambda xs, k: real(NodeSet([(0, 0), (1, 0), (0, 1)]), k)
    monkeypatch.setattr(verify, "curves_through", wide)
    with pytest.raises(TheoremViolation):
        verify.characterize_defect(square, 2, 2)


def test_characterize_defect_above_dimension_two_is_violation(monkeypatch,
                                                               capsys):
    # with the bound lifted, a 3-dimensional curve space below k = n must
    # raise even though the planted split is still found
    cfg = generators.defect_config(5, 3, 1)
    wide = verify.curves_through(cfg.nodes.subset(range(7)), 3)
    assert wide.dimension == 3
    monkeypatch.setattr(linalg.IndependenceTracker, "prefix_rank_bound",
                        lambda self, q: 0)
    monkeypatch.setattr(verify, "curves_through", lambda xs, k: wide)
    with pytest.raises(TheoremViolation, match="dimension 3"):
        verify.characterize_defect(cfg.nodes, 5, 3)
    code = cli.main(["verify", "defect", "-n", "5", "-k", "3",
                     json.dumps(cfg.nodes.to_json())])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "dimension 3" in json.loads(err)["error"]


def test_characterize_defect_preconditions():
    with pytest.raises(ValueError):
        verify.characterize_defect(FOUR, 2, 1)
    with pytest.raises(ValueError):
        verify.characterize_defect(NodeSet([(0, 0)]), 2, 2)
    dependent = NodeSet([(0, 0), (1, 0), (2, 0), (3, 0)])
    with pytest.raises(ValueError):
        verify.characterize_defect(dependent, 2, 2)


def test_characterize_defect_four_node_example():
    report = verify.characterize_defect(FOUR, 2, 2)
    assert report.curve_space_dim == 2
    assert FOUR[report.outlier_index] == nodes.node(0, 1)
    assert report.outlier_index == 3
    line = Curve(poly.linear(0, 1, 0))  # y = 0 through the rest
    assert curves.same_curve(report.mu, line)


def test_combination_hand_example():
    got = verify.curve_through_extra_node(FOUR, 2, (1, 1))
    assert got.curve_space_dim == 2
    want = Poly.from_terms({(0, 2): 1, (0, 1): -1}, 2)
    assert got.curve.poly.equals(want)


def test_combination_first_basis_element_when_it_fits():
    # (0, 2) is a zero of the first basis element x*y already
    got = verify.curve_through_extra_node(FOUR, 2, (0, 2))
    assert got.curve.poly.equals(Poly.from_terms({(1, 1): 1}, 2))


def test_combination_generic_point_vanishes_everywhere_needed():
    a = (3, 5)
    got = verify.curve_through_extra_node(FOUR, 2, a).curve
    assert got.poly.eval(3, 5) == 0
    for p in FOUR:
        assert got.poly.eval(p.x, p.y) == 0


def test_combination_preconditions():
    with pytest.raises(ValueError):
        verify.curve_through_extra_node(FOUR, 2, (0, 0))
    tri = NodeSet([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        verify.curve_through_extra_node(tri, 1, (5, 5))


def test_line_usage_on_engineered_set():
    # 3-poised set whose second line carries exactly 3 nodes
    br = generators.berzolari_radon(3, 2)
    reports = verify.line_usage_reports(br.nodes, 3)
    for rep in reports:
        assert len(rep.nodes_on_line) == 3
        assert len(rep.users) in (1, 3)


def test_line_usage_collinear_users_is_violation(monkeypatch):
    # fake fundamentals under which the first 3-node line, y = x, is used
    # by exactly three collinear nodes (on y = 0): theirs are multiples of
    # y - x, every other off-line node's is 1, and the prime rules out no
    # node, so every off-line node is a candidate
    xs = nodes.extend_to_poised(NodeSet(), 3)
    on_line = {xs.index(p) for p in xs if p.x == p.y}
    fake_users = {xs.index(nodes.node(x, 0)) for x in (-1, 1, 2)}
    along = poly.linear(-1, 1, 0) * Poly.from_terms({(2, 0): 1}, 2)
    real = nodes._Fundamentals.numerators

    def numerators(self, i):
        if i in on_line:
            return real(self, i)
        if i in fake_users:
            return along._integer_coeffs[0]
        return [1] + [0] * 9

    monkeypatch.setattr(nodes._Fundamentals, "span_candidates",
                        lambda self, indices: None)
    monkeypatch.setattr(nodes._Fundamentals, "numerators", numerators)
    with pytest.raises(TheoremViolation, match="collinear"):
        verify.line_usage_reports(xs, 3)


def test_line_usage_dependent_on_line_rows_is_violation(monkeypatch):
    # poisedness makes the degree-n parts of the fundamentals of a 3-node
    # line independent; make the third one of y = x the sum of the other
    # two, mod P and exactly
    xs = nodes.extend_to_poised(NodeSet(), 3)
    a, b, c = (xs.index(p) for p in xs if p.x == p.y)
    real_init = nodes._Fundamentals.__init__
    real = nodes._Fundamentals.numerators

    def init(self, ys, n):
        real_init(self, ys, n)
        self.tops[c] = [(u + v) % linalg.P
                        for u, v in zip(self.tops[a], self.tops[b])]

    def numerators(self, i):
        if i == c:
            return [u + v for u, v in zip(real(self, a), real(self, b))]
        return real(self, i)

    monkeypatch.setattr(nodes._Fundamentals, "__init__", init)
    monkeypatch.setattr(nodes._Fundamentals, "numerators", numerators)
    with pytest.raises(TheoremViolation, match="rank 2"):
        verify.line_usage_reports(xs, 3)


def test_line_usage_preconditions():
    tri = NodeSet([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        verify.line_usage_reports(tri, 1)
    br = generators.berzolari_radon(3, 2)
    with pytest.raises(ValueError):
        verify.line_usage_reports(br.nodes.without(br.nodes[0]), 3)


def test_line_usage_no_three_node_lines_is_empty():
    # poised set with every pair line carrying only 2 nodes
    xs = generators.random_poised(3, 123)
    pairs = [(i, j) for i in range(len(xs)) for j in range(i + 1, len(xs))]
    counts = []
    for i, j in pairs:
        line = curves.LineForm.through(xs[i], xs[j])
        counts.append(sum(1 for p in xs if line.eval(p.x, p.y) == 0))
    if all(c == 2 for c in counts):
        assert verify.line_usage_reports(xs, 3) == []
    else:
        reports = verify.line_usage_reports(xs, 3)
        assert all(len(r.users) in (1, 3) for r in reports)


def test_line_usage_without_three_node_lines_skips_dependency_rows(
        monkeypatch):
    # no line through 3 nodes of this set: nothing to audit, nothing to lift
    xs = generators.random_poised(4, 1)

    def audited(*_args):
        raise AssertionError("a line was audited")

    monkeypatch.setattr(nodes._Fundamentals, "span_candidates", audited)
    monkeypatch.setattr(nodes._Fundamentals, "numerators", audited)
    assert verify.line_usage_reports(xs, 4) == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_line_usage_users_match_node_uses(n):
    # in a poised set each fundamental polynomial is unique, so "the line
    # divides a's fundamental" (span membership) and "some fundamental of
    # a has the line as a factor" (node_uses' solve) must agree
    sets = [nodes.extend_to_poised(NodeSet(), n)]
    sets += [generators.berzolari_radon(n, seed).nodes for seed in (1, 2, 3)]
    audited = 0
    for xs in sets:
        users = {rep.line: set(rep.users)
                 for rep in verify.line_usage_reports(xs, n)}
        for line, on_line in _three_node_lines(xs):
            q = Curve(line.poly())
            want = {p for p in xs if p not in on_line
                    and curves.node_uses(p, xs, n, q)}
            assert users.get(line, set()) == want
            audited += 1
    assert audited > 0


def _three_node_lines(xs):
    """(canonical line, its nodes) for every line through exactly 3 nodes,
    found by grouping node pairs by their line scaled to lead coefficient
    1."""
    lines = {}
    for a, b in itertools.combinations(xs, 2):
        line = curves.LineForm.through(a, b)
        lead = line.a if line.a != 0 else line.b
        line = curves.LineForm(line.a / lead, line.b / lead, line.c / lead)
        lines.setdefault(line, set()).update((a, b))
    return [(line, on) for line, on in lines.items() if len(on) == 3]


def test_line_usage_users_match_the_definition():
    # the users are the off-line nodes whose fundamental polynomial the line
    # divides, decided here from the fundamentals themselves
    sets = [(nodes.extend_to_poised(NodeSet(), n), n) for n in range(3, 7)]
    sets += [(generators.berzolari_radon(n, seed).nodes, n)
             for n in range(3, 8) for seed in (1, 2, 3)]
    audited = used = 0
    for xs, n in sets:
        fps = nodes.fundamental_polynomials(xs, n)
        users = {rep.line: set(rep.users)
                 for rep in verify.line_usage_reports(xs, n)}
        for line, on_line in _three_node_lines(xs):
            q = Curve(line.poly())
            want = {p for p, fp in zip(xs, fps) if p not in on_line
                    and curves.space_divisible_by(
                        nodes.VanishingSpace(n, (fp,)), q)}
            assert users.get(line, set()) == want
            audited += 1
            used += bool(want)
    assert audited > used > 0


_AFFINE_BASES = [(nodes.extend_to_poised(NodeSet(), 3), 3),
                 (nodes.extend_to_poised(NodeSet(), 4), 4),
                 (generators.berzolari_radon(3, 1).nodes, 3),
                 (generators.berzolari_radon(4, 2).nodes, 4)]
_small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(base=st.sampled_from(_AFFINE_BASES),
       matrix=st.tuples(*[_small_rationals] * 4),
       shift=st.tuples(_small_rationals, _small_rationals),
       data=st.data())
def test_line_usage_moves_with_affine_maps_and_permutations(
        base, matrix, shift, data):
    # an affine map with det != 0 maps lines to lines and degree-n
    # polynomials to degree-n polynomials, so each used line and its users
    # move with their nodes; a permutation only relabels them
    xs, n = base
    a, b, c, d = matrix
    assume(a * d - b * c != 0)
    order = data.draw(st.permutations(range(len(xs))))
    image = [(a * p.x + b * p.y + shift[0], c * p.x + d * p.y + shift[1])
             for p in xs]
    ys = NodeSet(image[i] for i in order)
    origin = {y: i for y, i in zip(ys, order)}

    def usage(reports, index):
        return {(frozenset(map(index, r.nodes_on_line)),
                 frozenset(map(index, r.users))) for r in reports}

    want = usage(verify.line_usage_reports(xs, n), xs.index)
    got = usage(verify.line_usage_reports(ys, n), origin.__getitem__)
    assert got == want


def _exact_line_usage(xs, n):
    """The users of every 3-node line by one exact route: the dependencies
    among the degree-(n-1) rows, from one elimination of the transposed
    rows, and a span test of each off-line node's dependency row against
    the 3 on-line nodes' rows."""
    transpose = linalg.RankTracker(len(xs))
    for column in zip(*nodes.collocation_matrix(xs, n - 1)):
        transpose.add(column)
    deps = [nums for nums, _ in transpose.coordinates()]
    reports = []
    for line, on_line in _three_node_lines(xs):
        indices = sorted(map(xs.index, on_line))
        span = linalg.RankTracker(n + 1)
        for i in indices:
            span.add(deps[i])
        assert span.rank == 3
        users = [i for i in range(len(xs))
                 if i not in indices and not span.would_grow(deps[i])]
        if users:
            reports.append(verify.UsageReport(line, xs.subset(indices),
                                              xs.subset(users)))
    return reports


def _usage_base(kind, n, seed):
    if kind == "br":
        return generators.berzolari_radon(n, seed).nodes
    if kind == "spiral":
        return nodes.extend_to_poised(NodeSet(), n)
    return generators.random_poised(n, seed)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["br", "spiral", "random"]),
       n=st.integers(3, 6), seed=st.integers(0, 99),
       matrix=st.tuples(*[_small_rationals] * 4),
       shift=st.tuples(_small_rationals, _small_rationals),
       moved=st.booleans())
def test_line_usage_matches_the_exact_route(kind, n, seed, matrix, shift,
                                            moved):
    # the mod-P filter and the lifts give the reports of the exact
    # dependency rows, on each set as built or moved by an affine map
    n = min(n, 5) if kind == "random" else n
    xs = _usage_base(kind, n, seed)
    a, b, c, d = matrix
    if moved and a * d != b * c:
        xs = NodeSet((a * p.x + b * p.y + shift[0],
                      c * p.x + d * p.y + shift[1]) for p in xs)
    assert verify.line_usage_reports(xs, n) == _exact_line_usage(xs, n)


def test_line_usage_invertible_mod_p_takes_no_exact_rank(monkeypatch):
    # with V invertible mod P, neither poisedness nor any user is decided
    # by an exact rank; the lifts confirm the users
    xs = nodes.extend_to_poised(NodeSet(), 5)
    want = _exact_line_usage(xs, 5)
    counts = _count_calls(monkeypatch, [(nodes, "is_poised"),
                                        (linalg.RankTracker, "would_grow"),
                                        (nodes, "_curves_missing_one"),
                                        (linalg, "_lift")])
    assert verify.line_usage_reports(xs, 5) == want
    users = {u for rep in want for u in rep.users}
    assert counts == {"is_poised": 0, "would_grow": 0,
                      "_curves_missing_one": 0, "_lift": len(users)}


@pytest.mark.parametrize("n, seed", [(3, 1), (4, 2), (5, 3)])
def test_line_usage_singular_mod_p_takes_the_exact_route(monkeypatch, n,
                                                         seed):
    # coordinates over P: every row but the origin's is 0 mod P below
    # degree n, so V is singular mod P; one exact elimination decides
    # poisedness and gives every fundamental.  Scaling is an affine map,
    # so the lines and users are those of the set scaled
    br = generators.berzolari_radon(n, seed).nodes
    xs = NodeSet((p.x / linalg.P, p.y / linalg.P) for p in br)
    rows = nodes.collocation_matrix(xs, n)
    assert linalg._neg_inverse_columns(list(zip(*rows))) is None
    want = _exact_line_usage(xs, n)
    counts = _count_calls(monkeypatch, [(nodes, "_curves_missing_one"),
                                        (linalg, "_lift")])
    got = verify.line_usage_reports(xs, n)
    assert got == want
    assert counts == {"_curves_missing_one": 1, "_lift": 0}
    scaled = [(set(rep.nodes_on_line), set(rep.users))
              for rep in verify.line_usage_reports(br, n)]
    assert [({xs[br.index(p)] for p in on}, {xs[br.index(p)] for p in users})
            for on, users in scaled] == [
        (set(rep.nodes_on_line), set(rep.users)) for rep in got]


def test_line_usage_singular_mod_p_not_poised_is_refused():
    # 10 nodes with 5 on a line, over P: singular mod P and over Q
    grid = [(i, 0) for i in range(5)] + [(i, j) for j in (1, 2)
                                         for i in range(3)][:5]
    xs = NodeSet((Fraction(x, linalg.P), Fraction(y, linalg.P))
                 for x, y in grid)
    with pytest.raises(ValueError, match="not poised"):
        verify.line_usage_reports(xs, 3)


def test_line_usage_failed_lifts_and_short_lines_decide_exactly(
        monkeypatch):
    # a lift that fails takes one exact elimination for every node, and a
    # line whose on-line tops the prime cannot separate takes every
    # off-line node as a candidate: the reports are the same
    sets = [(nodes.extend_to_poised(NodeSet(), n), n) for n in (3, 4, 5)]
    sets += [(generators.berzolari_radon(n, 7).nodes, n) for n in (4, 6)]
    wants = [verify.line_usage_reports(xs, n) for xs, n in sets]
    monkeypatch.setattr(linalg, "_lift", lambda *args: None)
    monkeypatch.setattr(nodes._Fundamentals, "span_candidates",
                        lambda self, indices: None)
    counts = _count_calls(monkeypatch, [(nodes, "_curves_missing_one")])
    assert [verify.line_usage_reports(xs, n) for xs, n in sets] == wants
    assert counts["_curves_missing_one"] == len(sets)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["br", "spiral", "random", "grid"]),
       n=st.integers(3, 7), seed=st.integers(0, 99),
       matrix=st.tuples(*[_small_rationals] * 4),
       shift=st.tuples(_small_rationals, _small_rationals))
def test_three_node_lines_match_the_pair_grouping(kind, n, seed, matrix,
                                                  shift):
    # the anchors' buckets find the lines of exactly 3 nodes that grouping
    # every pair by its line finds, in the order pairs first reach them;
    # grids carry lines of 4 or more nodes in many directions
    if kind == "grid":
        xs = NodeSet((i, j) for i in range(n) for j in range(n - 1))
    else:
        xs = _usage_base(kind, min(n, 5) if kind == "random" else n, seed)
    a, b, c, d = matrix
    if a * d != b * c:
        xs = NodeSet((a * p.x + b * p.y + shift[0],
                      c * p.x + d * p.y + shift[1]) for p in xs)
    want = [tuple(sorted(map(xs.index, on)))
            for _, on in _three_node_lines(xs)]
    assert verify._three_node_lines(nodes.collocation_matrix(xs, n)) == want
