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
  on the dependencies among all degree-(n-1) rows: iff a's dependency row
  lies in the span of the 3 on-line nodes' dependency rows.  Poisedness
  makes those 3 rows independent, and anything else raises.  The
  dependency rows are read off one inverse modulo the prime of the
  degree-n collocation matrix V (``nodes._Fundamentals``), whose
  existence certifies poisedness.  A dependency among the degree-(n-1)
  rows is a combination of V's rows that is 0 below degree n, so a
  combination of the last n + 1 rows of V^-1: node i's dependency row, in
  that basis, is the degree-n part of column i of V^-1, which is p_i over
  its row's scale, its top.  V^-1 then has no P in its denominators, so
  the tops reduce mod P.  3 on-line tops independent mod P are
  independent over Q, which certifies the rank check; and a top in their
  span over Q is in their span mod P, since its coefficients, by
  Cramer's rule on a 3x3 minor that is a unit mod P, reduce too.  So a
  node whose top lies outside their span mod P is not a user.  One probe
  orthogonal to the 3 tops, dotted with every node's top at once, keeps
  the rest, the candidates.  Each candidate a is confirmed exactly: p_a,
  lifted over the same inverse (one lift per node, kept across lines),
  has degree n along l and vanishes at its 3 nodes, so l divides it iff
  it also vanishes at n - 2 other points of l.  When V is singular mod
  P, one exact elimination decides poisedness and gives every
  fundamental, as it does after a failed lift.  Then, and when a line's
  3 tops are dependent mod P, the rank check is taken on the exact
  fundamentals' tops, and every off-line node of the line is a
  candidate.  On a Berzolari-Radon set at n = 20 this takes about 0.3 s,
  against 7.1 s for one exact elimination of the dependency rows
  (Python 3.11, 2 vCPU, process time).

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

from . import curves as _curves, linalg, nodes as _nodes, poly as _poly
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
    found = _nodes._Fundamentals(xs, n)
    rows = found.rows
    reports: list[UsageReport] = []
    for indices in _three_node_lines(rows):
        candidates = found.span_candidates(indices)
        if candidates is None:
            # V singular mod P, or these tops dependent mod P: the rank
            # check on the exact fundamentals' tops, every node a candidate
            tops = [found.numerators(i)[-n - 1:] for i in indices]
            rank = linalg.rank(tops, n + 1)
            if rank != 3:
                raise TheoremViolation(
                    f"dependency rows of a 3-node line have rank {rank}")
            candidates = range(len(xs))
        candidates = [a for a in candidates if a not in indices]
        if not candidates:
            continue
        points = _points_on_line(*(rows[i][:3] for i in indices), n)
        users = [a for a in candidates
                 if not any(sum(map(mul, found.numerators(a), point))
                            for point in points)]
        if not users:
            continue
        if len(users) not in (1, 3):
            raise TheoremViolation(
                f"3-node line with {len(users)} users")
        if len(users) == 3:
            u, v, w = (rows[idx][:3] for idx in users)
            if sum(map(mul, _cross(u, v), w)) == 0:
                raise TheoremViolation("3 users of a line are collinear")
        c, a, b = _cross(rows[indices[0]][:3], rows[indices[1]][:3])
        lead = a if a else b
        line = LineForm(*(Fraction(t, lead) for t in (a, b, c)))
        reports.append(UsageReport(
            line, xs.subset(indices), xs.subset(users)))
    return reports


def _three_node_lines(rows: list[list[int]]) -> list[tuple[int, int, int]]:
    """The lines through exactly 3 nodes, each as the indices of its nodes
    in increasing order, ordered by their first two indices.

    A node's homogeneous coordinates [e, A, C] are the first three entries
    of its row, times e^(n-1) > 0.  Each node in turn is an anchor: the
    later nodes are bucketed by their direction from it, reduced, so a
    bucket holds the later nodes of one line through the anchor.  A
    bucket of 3 or more is a line of 4 or more nodes, and its nodes record
    its direction, so that no later anchor on it takes the last two for a
    line of 3.  A bucket of 2 whose direction the anchor has not recorded
    is a line of exactly 3 nodes with the anchor first: an earlier node on
    it would have seen all three in one bucket.
    """
    points = [row[:3] for row in rows]
    recorded: list[set[tuple[int, int]]] = [set() for _ in points]
    lines = []
    for i, (e, a, c) in enumerate(points):
        buckets: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, len(points)):
            f, b, d = points[j]
            dx, dy = b * e - a * f, d * e - c * f
            g = gcd(dx, dy)
            if dx < 0 or dx == 0 and dy < 0:
                g = -g
            buckets.setdefault((dx // g, dy // g), []).append(j)
        for direction, later in buckets.items():
            if len(later) == 2 and direction not in recorded[i]:
                lines.append((i, *later))
            elif len(later) > 2:
                for j in later:
                    recorded[j].add(direction)
    return lines


def _points_on_line(u: list[int], v: list[int], w: list[int],
                    n: int) -> list[list[int]]:
    """Degree-n rows (``poly.integer_row``) of n - 2 points of the line
    through the points with homogeneous coordinates u, v and w, other than
    those three: u + t*v for t = 1, 2, ..., skipping the one that is w.
    Each is affine, because u and v have e > 0."""
    u, v = ([x // gcd(*p) for x in p] for p in (u, v))
    out = []
    for t in itertools.count(1):
        point = [s + t * r for s, r in zip(u, v)]
        if any(_cross(point, w)):
            out.append(_poly.integer_row(*point, n))
            if len(out) == n - 2:
                return out


def _cross(u: list[int], v: list[int]) -> tuple[int, int, int]:
    """Coefficients (c, a, b) of the line a*x + b*y + c through the points
    with homogeneous coordinates u and v, each written [e, A, C]."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])
