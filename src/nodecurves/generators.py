"""Seeded generators for test geometries.

Pseudo-randomness comes from splitmix64, a published 64-bit mixing
generator with fixed constants, so a (kind, n, k, seed) tuple produces the
same geometry in any implementation of this package, on any platform.
Random rational coordinates always have numerators in [-20, 20] and
denominators in {1, 2, 3, 4}; everything downstream of the raw draws
(node placement on lines, outlier search) is a deterministic scan.  The
node searches run through ``nodes._grow``, which reads at most
``nodes.SEARCH_BUDGET`` draws or points more than a search needs, and
each line takes at most ``nodes.SEARCH_BUDGET`` draws; either raises
``BudgetExceeded`` when they do not suffice.

Three generators are provided:

* ``berzolari_radon(n, seed)``: n+1 random pairwise non-proportional
  lines carrying n+1, n, ..., 1 nodes, each batch placed off all earlier
  lines.  Sets built this way are n-poised; that is a classical fact the
  construction embodies, and the test suite re-verifies it by rank.
* ``random_poised(n, seed)``: full-size sets drawn node by node, keeping
  only draws that add an interpolation condition.
* ``defect_config(n, k, seed)``: an n-independent set of
  max_nodes_on_curve(n, k-1) + 1 nodes that lies, except for one outlier,
  on a degree-(k-1) union of lines.  Such sets admit at least two distinct
  degree-k curves, which is what the defect verifier characterizes.  The
  configuration keeps the k-1 lines; its curve ``mu`` is derived from
  them when read, and the outlier search tests the lines one by one.  The
  outlier is always the last node, so it is read off the nodes too.

The on-mu search sees every candidate on mu's lines, and the lines pick
how it decides each one (``curves._search_decider``).  On at most four
lines, k <= 5, with no three through one point, finite or at infinity,
it runs a ``curves.LineDecider``: counts of nodes per line and in all,
then a peel of every line whose room holds its meeting conditions, and a
rank only on the few conditions left, with no row of monomials (the
module docstring of ``curves`` proves that this decides n-independence;
on one or two lines, k <= 3, the counts alone do).  Otherwise, when
three lines are concurrent or parallel or there are five or more, it
decides rank on mu's standard monomials only (see ``nodes``); mu's
leading monomial is read off its lines, so no polynomial is built.  Both
paths accept the same candidates, so the output does not depend on the
path.  The outlier needs
no rank test at all: mu(A) != 0 certifies that it keeps the set
n-independent, and the spiral is scanned as integer pairs, with one
``Node`` built, for the point kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import curves as _curves, nodes as _nodes
from .curves import Curve, LineForm, LineUnion, proportional
from .errors import BudgetExceeded
from .linalg import IndependenceTracker
from .nodes import Node, NodeSet, node
from .poly import space_dim


class SplitMix64:
    """splitmix64: x += 0x9e3779b97f4a7c15; mix with shifts/multiplies.

    Small, public-domain, and stable across languages; used for every
    seeded draw in this package.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-enough integer in [0, bound); bound must be positive."""
        return self.next_u64() % bound

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def rational(self) -> Fraction:
        """Coordinate draw: numerator in [-20, 20], denominator in 1..4."""
        return Fraction(self.randint(-20, 20), self.randint(1, 4))


def random_node(rng: SplitMix64) -> Node:
    return node(rng.rational(), rng.rational())


def random_lines(rng: SplitMix64, count: int) -> tuple[LineForm, ...]:
    """Pairwise non-proportional lines a*x + b*y + c = 0, each the first
    of at most ``nodes.SEARCH_BUDGET`` (a, b, c) draws with (a, b) nonzero
    and not proportional to an earlier line."""
    out: list[LineForm] = []
    for _ in range(count):
        for _ in range(_nodes.SEARCH_BUDGET):
            a, b, c = rng.rational(), rng.rational(), rng.rational()
            if a == 0 and b == 0:
                continue
            cand = LineForm(a, b, c)
            if not any(proportional(cand, prev) for prev in out):
                out.append(cand)
                break
        else:
            raise BudgetExceeded("could not draw distinct lines within budget")
    return tuple(out)


@dataclass(frozen=True)
class BRSet:
    """Nodes distributed over lines with the classical count profile
    n+1, n, ..., 1; the degree n is one less than the number of lines."""

    nodes: NodeSet
    lines: tuple[LineForm, ...]

    @property
    def n(self) -> int:
        return len(self.lines) - 1

    @property
    def counts(self) -> tuple[int, ...]:
        """Nodes per line, in line order: n+1, n, ..., 1."""
        return tuple(range(self.n + 1, 0, -1))


def berzolari_radon(n: int, seed: int) -> BRSet:
    """Seeded poised set built line by line.

    Line j (0-based) receives n+1-j nodes taken from its deterministic
    parameter sweep, skipping points on any earlier line, so each batch
    avoids every line before its own.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    rng = SplitMix64(seed)
    lines = random_lines(rng, n + 1)
    placed: list[Node] = []
    for j, line in enumerate(lines):
        off_earlier = (p for p in line.points()
                       if not any(prev.contains(p) for prev in lines[:j]))
        placed.extend(itertools.islice(off_earlier, n + 1 - j))
    return BRSet(NodeSet._distinct(placed), lines)


def random_poised(n: int, seed: int) -> NodeSet:
    """Full-size n-poised set of seeded random nodes, drawn with rank
    resampling."""
    rng = SplitMix64(seed)
    draws = iter(lambda: random_node(rng), None)
    decider = _nodes._RankDecider(IndependenceTracker(space_dim(n)), n)
    return NodeSet._distinct(_nodes._grow(decider, draws, space_dim(n)))


@dataclass(frozen=True)
class DefectConfig:
    """Independent set = maximal nodes on a line-union curve + one outlier
    off it; at least two degree-k curves pass through the whole set.
    Neither k nor the curve ``mu`` is stored: both are derived from its
    k-1 lines ``mu_lines``, so they cannot disagree.  The outlier is the
    last node, so neither it nor its index is stored either."""

    n: int
    nodes: NodeSet
    mu_lines: tuple[LineForm, ...]

    @property
    def k(self) -> int:
        return len(self.mu_lines) + 1

    @cached_property
    def mu(self) -> Curve:
        """The degree-(k-1) product of ``mu_lines``."""
        return LineUnion.of(self.mu_lines).curve()

    @property
    def outlier(self) -> Node:
        return self.nodes[-1]

    @property
    def outlier_index(self) -> int:
        return len(self.nodes) - 1


def defect_config(n: int, k: int, seed: int) -> DefectConfig:
    """Seeded configuration with a defective curve count at degree k.

    mu is a product of k-1 random pairwise non-proportional lines; the
    first max_nodes_on_curve(n, k-1) nodes are an on-mu extension from
    empty, and the last node is the first integer spiral point off every
    line.

    Every on-mu candidate is a point of one of the lines.  For k <= 5,
    on lines with no three through one point, it is decided by a
    ``curves.LineDecider``; otherwise its rank is decided on mu's
    standard-monomial rows (see ``nodes``): the max_nodes_on_curve(n,
    k-1) monomials of degree <= n that mu's leading monomial does not
    divide.  The outlier needs no rank test: a
    dependency row_A = sum(c_i * row_i) on the on-mu nodes p_i would give
    mu(A) = sum(c_i * mu(p_i)) = 0, so any point A with mu(A) != 0 keeps
    the set n-independent.  At most ``nodes.SEARCH_BUDGET`` spiral points
    are read for it.
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    rng = SplitMix64(seed)
    lines = random_lines(rng, k - 1)
    union = LineUnion.of(lines)
    decider = _curves._search_decider(NodeSet(), lines, n, union.lead)
    on_curve = _nodes._grow(decider, union.points(),
                            _curves.max_nodes_on_curve(n, k - 1))
    spiral = itertools.islice(_nodes._spiral_pairs(), _nodes.SEARCH_BUDGET)
    off = next(((x, y) for x, y in spiral if not union._meets(x, 1, y, 1)),
               None)
    if off is None:
        raise BudgetExceeded("no point off the curve found within budget")
    outlier = Node(Fraction(off[0]), Fraction(off[1]))
    return DefectConfig(n, NodeSet._distinct(on_curve + [outlier]), lines)
