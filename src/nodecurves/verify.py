"""Verifiers for the structural facts about curves through independent
node sets.

Each verifier recomputes a claimed structure from scratch with exact
arithmetic and either returns a report or raises TheoremViolation.  The
facts checked:

* uniqueness: an n-independent set of size uniqueness_threshold(n, k)
  admits at most one degree-k curve;
* defect characterization, for 2 <= k <= n-1: when an n-independent set
  one node larger than max_nodes_on_curve(n, k-1) admits two or more
  degree-k curves, the set splits as a maximal degree-(k-1) curve plus a
  single outlier off it, and the curve space has dimension exactly 2.  At
  k = n every such set has a curve space of dimension exactly 2, so the
  surplus says nothing about its shape: a set may split (then into exactly
  one outlier) or not split at all.  The n-independence check
  (``nodes._defect_pass``) bounds the curve space at no extra cost: the
  first space_dim(k) entries of a node's degree-n row are e^(n-k) times
  its degree-k row, so a rank modulo the prime of those columns is a rank
  that the exact degree-k rows reach at least, and space_dim(k) minus it
  is at least the curve space's dimension.  From space_dim(k-1) = 10 on,
  the check is one elimination modulo the prime of the transposed
  degree-n rows, one monomial column at a time, and the rank is read off
  it after space_dim(k) columns; below that, or when it falls short of
  the node count, it is the mod-P pivots of an ``IndependenceTracker``
  below space_dim(k).  ``nodes._outlier_curves`` finds the nodes A with a
  degree-(k-1) curve mu through the other nodes, and each mu.  From
  space_dim(k-1) = 10 on, the same elimination names the candidates and
  rules out every other node, and each candidate's mu is lifted over its
  inverse modulo the prime, checked exactly at every node; below that,
  or when the prime falls short of rank space_dim(k-1), one exact
  elimination does it.  When the bound is
  2 and some node has such a mu, mu*(x - a_x) and mu*(y - a_y) are two
  independent degree-k curves through the set, so the dimension is
  exactly 2.  Every other input (a dimension below 2,
  k = n without a split, or P dividing a minor, which loosens the bound)
  takes its dimension from ``curves_through``;
* two-curve combination: with at least two degree-k curves available, some
  nonzero combination of the first two basis curves also vanishes at any
  prescribed extra node;
* line usage: in an n-poised set (n >= 3), a line l through exactly 3
  nodes that divides any fundamental polynomial divides either exactly 1
  or exactly 3 of them, and 3 users are never collinear.  A node a off l
  uses l iff p_a = l*q with deg q <= n-1; such a q vanishes on the nodes
  off l except a and not at a, and any such q makes l*q the (unique)
  fundamental polynomial of a.  So a uses l iff its degree-(n-1) row lies
  outside the span of the other off-line nodes' rows, which is decided
  on the dependencies among all degree-(n-1) rows
  (``nodes._dependency_rows``): iff a's dependency row lies in the span
  of the 3 on-line nodes' dependency rows.  Poisedness makes those 3
  rows independent, and anything else raises.

A violation raises, never a False return or a report flag: these routines
catch implementation bugs.  What they return is what the CLI prints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional

from . import curves as _curves, linalg, nodes as _nodes
from .curves import Curve, LineForm
from .errors import TheoremViolation
from .nodes import NodeSet, VanishingSpace
from .poly import Poly, space_dim


def curves_through(xs: NodeSet, k: int) -> VanishingSpace:
    """All degree-k polynomials vanishing on the set (canonical basis)."""
    return _nodes.vanishing_basis(xs, k)


def verify_uniqueness(xs: NodeSet, n: int, k: int) -> int:
    """Dimension (0 or 1) of the degree-k curve space through the set.

    The set must be n-independent of size exactly uniqueness_threshold(n, k).
    Two or more independent degree-k curves are a TheoremViolation.
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    if len(xs) != _curves.uniqueness_threshold(n, k):
        raise ValueError("set size must equal the uniqueness threshold")
    _nodes._independent_tracker(xs, n)
    dim = curves_through(xs, k).dimension
    if dim > 1:
        raise TheoremViolation(f"{dim} independent curves at the threshold")
    return dim


@dataclass(frozen=True)
class DefectReport:
    """Outcome of characterize_defect.

    When the set splits into a maximal degree-(k-1) curve plus one
    outlier, ``mu`` is the curve and ``outlier_index`` the outlier's
    position in the set; otherwise both are None.  Below k = n a split
    exists exactly when the dimension is >= 2.
    """

    curve_space_dim: int
    mu: Optional[Curve]
    outlier_index: Optional[int]


def characterize_defect(xs: NodeSet, n: int, k: int) -> DefectReport:
    """Split an over-determined curve configuration into curve + outlier.

    The set must be n-independent with max_nodes_on_curve(n, k-1) + 1
    nodes.  If fewer than two degree-k curves pass through it, the report
    carries the dimension alone.  Otherwise the unique node A whose removal
    leaves a degree-(k-1) curve through everything else (missing A) is
    located; a curve space of dimension above 2, anything other than
    exactly one such node, a one-dimensional curve space behind it, or a
    clean degree k-1 is a TheoremViolation.
    At k = n the dimension must be exactly 2 and the set may have no such
    node, which gives the report without a split; more than one raises.
    When the mod-P bound is 2 and such a node exists, the dimension 2 is
    certified without the degree-k curve space (see the module docstring).
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    if len(xs) != _curves.max_nodes_on_curve(n, k - 1) + 1:
        raise ValueError("set size must be max_nodes_on_curve(n, k-1) + 1")
    prefix, split = _nodes._defect_pass(xs, n, k)
    # at least the dimension of the curve space
    bound = space_dim(k) - prefix
    # Removing node i frees a degree-(k-1) curve iff the rank of the
    # collocation matrix drops, i.e. iff node i's row is outside the span
    # of the others; that curve is unique iff the rank is full.  Below a
    # bound of 2 the dimension is below 2 and no split is read.
    rank, hits = (_nodes._outlier_curves(xs, k - 1, split) if bound >= 2
                  else (0, {}))
    # mu*(x - a_x) and mu*(y - a_y) are two independent curves
    dim = 2 if bound == 2 and hits else curves_through(xs, k).dimension
    if k == n and dim != 2:
        raise TheoremViolation(
            f"curve space of dimension {dim} at k = n, expected 2")
    if dim > 2:
        raise TheoremViolation(
            f"curve space of dimension {dim}, expected at most 2")
    if dim <= 1:
        return DefectReport(dim, None, None)

    if hits and rank != space_dim(k - 1):
        raise TheoremViolation("curve through the rest is not unique")
    for i, mu in hits.items():
        if mu.eval(xs[i].x, xs[i].y) == 0:
            raise TheoremViolation("freed curve passes through the outlier")
    if not hits and k == n:
        return DefectReport(dim, None, None)
    if len(hits) != 1:
        raise TheoremViolation(
            f"expected exactly one outlier, found {len(hits)}")
    [(idx, mu)] = hits.items()
    if mu.degree != k - 1:
        raise TheoremViolation("curve through the rest has the wrong degree")
    return DefectReport(dim, Curve(mu), idx)


@dataclass(frozen=True)
class TwoCurveReport:
    """Outcome of curve_through_extra_node; curve_space_dim is >= 2."""

    curve_space_dim: int
    curve: Curve


def curve_through_extra_node(xs: NodeSet, k: int, a) -> TwoCurveReport:
    """Nonzero combination of the first two degree-k curves through xs
    that also vanishes at a.

    Needs a curve space of dimension >= 2 and a outside xs.  With basis
    (s1, s2) and values (v1, v2) at a, the combination is s1 if v1 = 0,
    s2 if only v2 = 0, else v2*s1 - v1*s2.  It is formed and checked on
    integers: with c1 = d1*s1 and c2 = d2*s2 integer and a's integer row
    r, V1 = c1.r and V2 = c2.r, v2*s1 - v1*s2 is (V2*c1 - V1*c2) over
    d1*d2*r[0].  The integer rows of the nodes and of a must all be
    orthogonal to the combination's numerators.
    """
    a = _nodes._coerce(a)
    if a in xs:
        raise ValueError("extra node already in the set")
    space = curves_through(xs, k)
    if space.dimension < 2:
        raise ValueError("need at least two curves through the set")
    s1, s2 = space.basis[0], space.basis[1]
    (c1, d1), (c2, d2) = s1._integer_coeffs, s2._integer_coeffs
    row = _nodes._monomial_row(a, k)
    v1, v2 = sum(map(mul, c1, row)), sum(map(mul, c2, row))
    if v1 == 0:
        out, nums = s1, c1
    elif v2 == 0:
        out, nums = s2, c2
    else:
        nums = [v2 * u - v1 * w for u, w in zip(c1, c2)]
        den = d1 * d2 * row[0]
        # both basis polynomials have bound k
        out = Poly(k, tuple(Fraction(v, den) for v in nums))
    if any(sum(map(mul, nums, r)) for r in _nodes.collocation_matrix(xs, k)):
        raise TheoremViolation("combination misses a node of the set")
    if sum(map(mul, nums, row)):
        raise TheoremViolation("combination misses the extra node")
    return TwoCurveReport(space.dimension, Curve(out))


@dataclass(frozen=True)
class UsageReport:
    """One line through exactly 3 nodes together with its users."""

    line: LineForm
    nodes_on_line: NodeSet
    users: NodeSet


def line_usage_reports(xs: NodeSet, n: int) -> list[UsageReport]:
    """Audit the 3-node lines of an n-poised set (n >= 3).

    For every line through exactly 3 nodes, the users are the nodes whose
    (unique) fundamental polynomial the line divides.  Lines without users
    are legal and omitted; a used line must have exactly 1 or exactly 3
    users, and 3 users must not be collinear, otherwise TheoremViolation.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not _nodes.is_poised(xs, n):
        raise ValueError("set is not poised at this degree")
    # group nodes by line; dict order is the order pairs first reach a line
    points = [_nodes._monomial_row(p, 1) for p in xs]  # [e, A, C]
    on_line: dict[tuple[int, int, int], set[int]] = {}
    for i, j in itertools.combinations(range(len(xs)), 2):
        key = _line_key(points[i], points[j])
        on_line.setdefault(key, set()).update((i, j))
    three = [(key, indices) for key, indices in on_line.items()
             if len(indices) == 3]
    if not three:
        return []
    deps = _nodes._dependency_rows(xs, n - 1)
    reports: list[UsageReport] = []
    for (c, a, b), indices in three:
        span = linalg.RankTracker(n + 1)
        for idx in indices:
            span.add(deps[idx])
        if span.rank != 3:
            raise TheoremViolation(
                f"dependency rows of a 3-node line have rank {span.rank}")
        users = [idx for idx in range(len(xs)) if idx not in indices
                 and not span.would_grow(deps[idx])]
        if not users:
            continue
        if len(users) not in (1, 3):
            raise TheoremViolation(
                f"3-node line with {len(users)} users")
        if len(users) == 3:
            u, v, w = (points[idx] for idx in users)
            if sum(map(mul, _cross(u, v), w)) == 0:
                raise TheoremViolation("3 users of a line are collinear")
        lead = a if a else b
        line = LineForm(*(Fraction(t, lead) for t in (a, b, c)))
        reports.append(UsageReport(
            line, xs.subset(sorted(indices)), xs.subset(users)))
    return reports


def _cross(u: list[int], v: list[int]) -> tuple[int, int, int]:
    """Coefficients (c, a, b) of the line a*x + b*y + c through the points
    with homogeneous coordinates u and v, each written [e, A, C]."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _line_key(u: list[int], v: list[int]) -> tuple[int, int, int]:
    """The line through two distinct points, in lowest terms with its
    first nonzero coefficient among a, b positive."""
    c, a, b = _cross(u, v)
    g = gcd(a, b, c)
    if (a if a else b) < 0:
        g = -g
    return c // g, a // g, b // g
