"""Exhaustive sweeps of the defect verifier over subsets of the 4x4 grid:
sets no generator planted.  Each set either fails a precondition with
ValueError or yields a report; a TheoremViolation fails the test.  The
outlier of every split uses its curve mu, as the maximal-curve law
demands; ``curves.node_uses`` checks that by its own rank test."""

import itertools
from collections import Counter

from nodecurves import curves, verify
from nodecurves.nodes import NodeSet

GRID = [(x, y) for x in range(4) for y in range(4)]


def sweep(n: int, k: int) -> Counter:
    size = curves.max_nodes_on_curve(n, k - 1) + 1
    counts: Counter = Counter()
    for subset in itertools.combinations(GRID, size):
        xs = NodeSet(subset)
        try:
            report = verify.characterize_defect(xs, n, k)
        except ValueError:
            counts["precondition"] += 1
            continue
        if report.outlier_index is None:
            assert report.mu is None
            counts[f"dim {report.curve_space_dim}, no split"] += 1
            continue
        outlier = xs[report.outlier_index]
        assert report.mu.degree == k - 1
        assert not report.mu.contains(outlier)
        assert all(report.mu.contains(p) for p in xs if p != outlier)
        # the maximal-curve law, decided apart from the verifier
        assert curves.node_uses(outlier, xs, n, report.mu)
        counts[f"dim {report.curve_space_dim}, split"] += 1
    return counts


def test_defect_sweep_at_k_equal_n():
    # every independent set of 4 grid points carries two conics; those
    # with 3 collinear nodes split, the rest have no split
    assert sweep(2, 2) == {"precondition": 10, "dim 2, split": 532,
                           "dim 2, no split": 1278}


def test_defect_sweep_below_k_equal_n():
    # each of the 120 sets with a surplus conic splits at exactly one node
    assert sweep(3, 2) == {"dim 2, split": 120, "dim 1, no split": 4248}


def test_defect_sweep_of_cubics_at_k_equal_n():
    # all 12 870 eight-point subsets at (3, 3), whose split reads six
    # degree-2 monomial columns, as every k = 3 input does
    assert sweep(3, 3) == {"precondition": 14, "dim 2, split": 1292,
                           "dim 2, no split": 11564}
