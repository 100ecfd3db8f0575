import itertools
from fractions import Fraction

import pytest

from nodecurves import curves, generators, nodes, poly
from nodecurves.errors import BudgetExceeded
from nodecurves.generators import SplitMix64


def test_splitmix64_known_stream():
    # reference values for seed 1234567 from the published algorithm
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973,
                     9817491932198370423]


def test_splitmix64_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert SplitMix64(43).next_u64() != SplitMix64(42).next_u64()


def test_rational_draw_ranges():
    rng = SplitMix64(7)
    for _ in range(200):
        q = rng.rational()
        assert -20 <= q <= 20
        assert 1 <= q.denominator <= 4


def test_random_lines_distinct():
    lines = generators.random_lines(SplitMix64(5), 6)
    assert len(lines) == 6
    for i in range(6):
        for j in range(i + 1, 6):
            assert not curves.proportional(lines[i], lines[j])


def _nested_random_lines(rng, count):
    """The earlier random_lines: up to 100 candidates per line, each from
    a random_line that resampled up to 100 degenerate (a, b, c) draws."""
    def random_line():
        for _ in range(100):
            a, b, c = rng.rational(), rng.rational(), rng.rational()
            if a != 0 or b != 0:
                return curves.LineForm(a, b, c)
        raise BudgetExceeded("could not draw a nondegenerate line")

    out = []
    for _ in range(count):
        for _ in range(100):
            cand = random_line()
            if all(not curves.proportional(cand, prev) for prev in out):
                out.append(cand)
                break
        else:
            raise BudgetExceeded("could not draw distinct lines")
    return tuple(out)


def test_random_lines_match_the_nested_loops():
    # one bounded loop per line reads the same draws in the same order
    for seed in range(200):
        for count in range(1, 7):
            assert generators.random_lines(SplitMix64(seed), count) == \
                _nested_random_lines(SplitMix64(seed), count)


class _ZeroRng:
    """Every draw is 0, so every line it offers is degenerate."""

    def __init__(self):
        self.draws = 0

    def rational(self):
        self.draws += 1
        return Fraction(0)


def test_random_lines_take_at_most_search_budget_draws(monkeypatch):
    monkeypatch.setattr(nodes, "SEARCH_BUDGET", 7)
    rng = _ZeroRng()
    with pytest.raises(BudgetExceeded):
        generators.random_lines(rng, 2)
    assert rng.draws == 3 * 7


def test_berzolari_radon_profile_and_poisedness():
    br = generators.berzolari_radon(3, 11)
    assert br.counts == (4, 3, 2, 1)
    assert len(br.nodes) == poly.space_dim(3)
    assert nodes.is_poised(br.nodes, 3)
    # batch j sits on line j and off all earlier lines
    idx = 0
    for j, count in enumerate(br.counts):
        for _ in range(count):
            p = br.nodes[idx]
            assert br.lines[j].eval(p.x, p.y) == 0
            assert all(prev.eval(p.x, p.y) != 0 for prev in br.lines[:j])
            idx += 1


def test_berzolari_radon_degree_zero():
    br = generators.berzolari_radon(0, 3)
    assert len(br.nodes) == 1
    assert nodes.is_poised(br.nodes, 0)


def test_berzolari_radon_deterministic():
    a = generators.berzolari_radon(2, 9)
    b = generators.berzolari_radon(2, 9)
    assert a.nodes == b.nodes and a.lines == b.lines
    assert generators.berzolari_radon(2, 10).nodes != a.nodes


def test_random_poised_is_poised():
    for seed in (0, 1, 2):
        xs = generators.random_poised(2, seed)
        assert nodes.is_poised(xs, 2)
    assert generators.random_poised(2, 1) == generators.random_poised(2, 1)


def test_defect_config_structure():
    cfg = generators.defect_config(3, 2, 4)
    assert len(cfg.nodes) == curves.max_nodes_on_curve(3, 1) + 1
    assert nodes.is_independent(cfg.nodes, 3)
    assert cfg.mu.degree == 1
    assert not cfg.mu.contains(cfg.outlier)
    on = [p for p in cfg.nodes if cfg.mu.contains(p)]
    assert len(on) == curves.max_nodes_on_curve(3, 1)
    assert curves.is_maximal_curve(cfg.mu, cfg.nodes, 3)
    assert cfg.outlier_index == len(cfg.nodes) - 1


DEFECT_GRID = [(n, k, seed) for n in range(3, 7) for k in range(2, n)
               for seed in (1, 2, 3)]


def test_defect_config_mu_is_the_product_of_its_lines():
    for n, k, seed in DEFECT_GRID:
        cfg = generators.defect_config(n, k, seed)
        assert len(cfg.mu_lines) == k - 1
        assert cfg.mu.degree == k - 1
        assert curves.same_curve(
            cfg.mu, curves.LineUnion.of(cfg.mu_lines).curve())


def test_defect_config_outlier_is_the_one_node_off_mu():
    # outlier and outlier_index are read off the last node; mu decides
    # which node is off it
    for n, k, seed in DEFECT_GRID:
        cfg = generators.defect_config(n, k, seed)
        off = [i for i, p in enumerate(cfg.nodes) if not cfg.mu.contains(p)]
        assert off == [cfg.outlier_index]
        assert [cfg.nodes[i] for i in off] == [cfg.outlier]


def test_defect_config_outlier_filter_is_mu():
    # the outlier scan reads the spiral through the lines, not through mu
    spiral = list(itertools.islice(nodes.integer_spiral(), 300))
    on_mu = 0
    for n, k, seed in DEFECT_GRID:
        cfg = generators.defect_config(n, k, seed)
        union = curves.LineUnion.of(cfg.mu_lines)
        off_lines = [not union.contains(p) for p in spiral]
        assert off_lines == [not cfg.mu.contains(p) for p in spiral]
        on_mu += off_lines.count(False)
    # both answers occur: 69 of the 30 x 300 points lie on their mu
    assert on_mu == 69


def test_defect_config_outlier_uses_mu():
    # the maximal-curve law: a node off a curve carrying the maximal
    # number of n-independent nodes uses that curve
    for n, k, seed in DEFECT_GRID:
        cfg = generators.defect_config(n, k, seed)
        assert curves.node_uses(cfg.outlier, cfg.nodes, n, cfg.mu)


def test_poised_extension_nodes_off_mu_use_mu():
    # the maximal-curve law on a poised superset: mu still carries the
    # maximal number of nodes, so every node off it uses it
    checked = 0
    for n, k, seed in DEFECT_GRID:
        cfg = generators.defect_config(n, k, seed)
        xs = nodes.extend_to_poised(cfg.nodes, n)
        for p in xs:
            if not cfg.mu.contains(p):
                assert curves.node_uses(p, xs, n, cfg.mu)
                checked += 1
    assert checked == 315


def test_defect_config_has_two_curves():
    cfg = generators.defect_config(4, 3, 77)
    space = nodes.vanishing_basis(cfg.nodes, 3)
    assert space.dimension == 2


def test_defect_config_rejects_bad_k():
    with pytest.raises(ValueError):
        generators.defect_config(3, 1, 0)
    with pytest.raises(ValueError):
        generators.defect_config(3, 4, 0)
