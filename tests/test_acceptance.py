"""End-to-end acceptance battery.

One test per advertised guarantee, each printing a single PASS/FAIL line
(run with -s to see them).  Everything is exact; there are no tolerances
anywhere in this file.
"""

import functools
import json

import pytest

from nodecurves import generators, nodes, verify
from nodecurves.cli import main
from nodecurves.curves import (
    Curve,
    LineUnion,
    extend_on_curve,
    max_nodes_on_curve,
    same_curve,
    space_divisible_by,
    uniqueness_threshold,
)
from nodecurves.generators import SplitMix64
from nodecurves.nodes import NodeSet, node
from nodecurves.poly import space_dim


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} {name}: FAIL")
                raise
            print(f"criterion {number:02d} {name}: PASS")
        return inner
    return wrap


@pytest.fixture(scope="module")
def defect_grid():
    grid = []
    for n in range(2, 6):
        for k in range(2, n + 1):
            for seed in range(25):
                grid.append(generators.defect_config(n, k, seed))
    return grid


@criterion(1, "count formulas")
def test_count_formulas():
    for n in range(1, 13):
        for k in range(1, n + 1):
            d = max_nodes_on_curve(n, k)
            assert d == space_dim(n) - space_dim(n - k)
            kk = uniqueness_threshold(n, k)
            assert kk == (k - 1) * (2 * n + 4 - k) // 2 + 2
            if k >= 2:
                assert kk == max_nodes_on_curve(n, k - 1) + 2
        assert uniqueness_threshold(n, n) == space_dim(n) - 1


@criterion(2, "line node maximum")
def test_line_node_maximum():
    for n in range(1, 7):
        for seed in range(50):
            rng = SplitMix64(1000 * n + seed)
            [line] = generators.random_lines(rng, 1)
            params = set()
            while len(params) < n + 2:
                params.add(rng.rational())
            points = [line.point_at(t) for t in sorted(params)]
            on_line = NodeSet(points[:n + 1])
            assert nodes.is_independent(on_line, n)
            assert not nodes.is_independent(NodeSet(points), n)
            space = nodes.vanishing_basis(on_line, n)
            assert space_divisible_by(space, Curve(line.poly()))


@criterion(3, "curve node maximum")
def test_curve_node_maximum():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for seed in range(25):
                rng = SplitMix64(7919 * (10 * n + k) + seed)
                union = LineUnion.of(generators.random_lines(rng, k))
                q = union.curve()
                xs = extend_on_curve(NodeSet(), union, q, n)
                assert len(xs) == max_nodes_on_curve(n, k)
                assert nodes.is_independent(xs, n)
                extra = 0
                for p in union.points():
                    if p in xs:
                        continue
                    assert not nodes.is_independent(xs.with_node(p), n)
                    extra += 1
                    if extra == 3:
                        break
                space = nodes.vanishing_basis(xs, n)
                assert space_divisible_by(space, q)


@criterion(4, "triangular-scheme poisedness")
def test_triangular_scheme_poisedness():
    for n in range(1, 7):
        for seed in range(100):
            built = generators.berzolari_radon(n, seed)
            assert nodes.is_poised(built.nodes, n)


@criterion(5, "defect round-trip")
def test_defect_round_trip(defect_grid):
    for cfg in defect_grid:
        assert len(cfg.nodes) == max_nodes_on_curve(cfg.n, cfg.k - 1) + 1
        assert nodes.is_independent(cfg.nodes, cfg.n)
        report = verify.characterize_defect(cfg.nodes, cfg.n, cfg.k)
        assert report.curve_space_dim == 2
        assert cfg.nodes[report.outlier_index] == cfg.outlier
        assert report.outlier_index == cfg.outlier_index
        assert same_curve(report.mu, cfg.mu)


@criterion(6, "one more node forces uniqueness")
def test_one_more_node_forces_uniqueness(defect_grid):
    for cfg in defect_grid:
        extra = nodes.next_independent_node(cfg.nodes, cfg.n)
        extended = cfg.nodes.with_node(extra)
        assert verify.verify_uniqueness(extended, cfg.n, cfg.k) == 1


@criterion(7, "two-curve combination")
def test_two_curve_combination(defect_grid):
    for cfg in defect_grid:
        picked = 0
        for a in nodes.integer_spiral():
            if a in cfg.nodes:
                continue
            curve = verify.curve_through_extra_node(cfg.nodes, cfg.k, a).curve
            assert curve.poly.eval(a.x, a.y) == 0
            for p in cfg.nodes:
                assert curve.poly.eval(p.x, p.y) == 0
            picked += 1
            if picked == 5:
                break


@criterion(8, "line usage counts")
def test_line_usage_counts():
    total_reports = 0
    for n in (3, 4):
        for seed in range(25):
            for xs in (generators.random_poised(n, seed),
                       generators.berzolari_radon(n, seed).nodes):
                reports = verify.line_usage_reports(xs, n)
                for r in reports:
                    assert len(r.nodes_on_line) == 3
                    assert len(r.users) in (1, 3)
                total_reports += len(reports)
    assert total_reports >= 1


def _circle_point(t):
    # the unit circle, swept by the half-angle parametrization
    return node((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


@criterion(9, "dimension identity")
def test_dimension_identity():
    for case in range(500):
        n = 1 + case % 4
        rng = SplitMix64(case)
        size = rng.below(space_dim(n) + 4)
        mode = case % 5
        points = []
        if mode == 1:
            [line] = generators.random_lines(rng, 1)
            while len(points) < min(size, n + 2):
                cand = line.point_at(rng.rational())
                if cand not in points:
                    points.append(cand)
        elif mode == 2:
            while len(points) < min(size, 8):
                cand = _circle_point(rng.rational())
                if cand not in points:
                    points.append(cand)
        while len(points) < size:
            cand = generators.random_node(rng)
            if cand not in points:
                points.append(cand)
        xs = NodeSet(points)
        dim = nodes.vanishing_basis(xs, n).dimension
        assert dim == space_dim(n) - nodes.hilbert_function(xs, n)
        independent = nodes.is_independent(xs, n)
        assert independent == (dim == space_dim(n) - len(xs))


@criterion(10, "byte-stable command output")
def test_byte_stable_command_output(tmp_path):
    def run(*args):
        out = tmp_path / "out"
        assert main([*args, "-o", str(out)]) == 0
        return out.read_bytes()

    invocations = [
        ("gen", "br", "-n", "4", "--seed", "3"),
        ("gen", "poised", "-n", "3", "--seed", "1"),
        ("gen", "defect", "-n", "3", "-k", "2", "--seed", "5"),
    ]
    defect_json = run("gen", "defect", "-n", "4", "-k", "3", "--seed", "9")
    br_json = run("gen", "br", "-n", "3", "--seed", "5")
    invocations += [
        ("verify", "defect", "-n", "4", "-k", "3", defect_json.decode()),
        ("verify", "lineusage", "-n", "3", br_json.decode()),
        ("verify", "twocurves", "-k", "2", "--at=1,1",
         '{"nodes": [["0","0"],["1","0"],["2","0"],["0","1"]]}'),
    ]
    extended = json.loads(defect_json)
    xs, _ = NodeSet.from_json(extended)
    xs = xs.with_node(nodes.next_independent_node(xs, 4))
    invocations.append(("verify", "uniqueness", "-n", "4", "-k", "3",
                        json.dumps(xs.to_json(4))))
    for argv in invocations:
        assert run(*argv) == run(*argv)
    render = ("render", br_json.decode(), "--curve",
              '{"a":"1","b":"0","c":"0"}')
    assert run(*render) == run(*render)
