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
  one outlier) or not split at all;
* two-curve combination: with at least two degree-k curves available, some
  nonzero combination of the first two basis curves also vanishes at any
  prescribed extra node;
* line usage: in an n-poised set (n >= 3), a line through exactly 3 nodes
  that divides any fundamental polynomial divides either exactly 1 or
  exactly 3 of them, and 3 users are never collinear.  The line divides a
  fundamental polynomial iff its coefficients lie in the span of the
  line's multiples at degree n (``curves._multiples``), one span per line.

A violation raises, never a False return or a report flag: these routines
catch implementation bugs.  What they return is what the CLI prints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import curves as _curves, linalg, nodes as _nodes
from .curves import Curve, LineForm
from .errors import TheoremViolation
from .nodes import Node, NodeSet, VanishingSpace
from .poly import Poly


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
    if not _nodes.is_independent(xs, n):
        raise ValueError("set is not independent at this degree")
    dim = curves_through(xs, k).dimension
    if dim > 1:
        raise TheoremViolation(f"{dim} independent curves at the threshold")
    return dim


@dataclass(frozen=True)
class DefectReport:
    """Outcome of characterize_defect.

    When the set splits into a maximal degree-(k-1) curve plus one
    outlier, ``mu`` and ``outlier`` describe the split; otherwise they and
    ``outlier_index`` are None.  Below k = n a split exists exactly when
    the dimension is >= 2.
    """

    curve_space_dim: int
    mu: Optional[Curve]
    outlier: Optional[Node]
    outlier_index: Optional[int]


def characterize_defect(xs: NodeSet, n: int, k: int) -> DefectReport:
    """Split an over-determined curve configuration into curve + outlier.

    The set must be n-independent with max_nodes_on_curve(n, k-1) + 1
    nodes.  If fewer than two degree-k curves pass through it, the report
    carries the dimension alone.  Otherwise the unique node A whose removal
    leaves a degree-(k-1) curve through everything else (missing A) is
    located; anything other than exactly one such node, a one-dimensional
    curve space behind it, or a clean degree k-1 is a TheoremViolation.
    At k = n the dimension must be exactly 2 and the set may have no such
    node, which gives the report without a split; more than one raises.
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    if len(xs) != _curves.max_nodes_on_curve(n, k - 1) + 1:
        raise ValueError("set size must be max_nodes_on_curve(n, k-1) + 1")
    if not _nodes.is_independent(xs, n):
        raise ValueError("set is not independent at this degree")
    dim = curves_through(xs, k).dimension
    if k == n and dim != 2:
        raise TheoremViolation(
            f"curve space of dimension {dim} at k = n, expected 2")
    if dim <= 1:
        return DefectReport(dim, None, None, None)

    # Removing node i frees a degree-(k-1) curve iff the rank of the
    # collocation matrix drops, i.e. iff every dependency among its rows
    # has coefficient 0 at i.  Scaling the rows keeps that zero pattern.
    rows = [_nodes._monomial_row(p, k - 1) for p in xs]
    transpose = linalg.RankTracker(len(xs))
    for column in zip(*rows):
        transpose.add(column)
    dependencies = transpose.nullspace()
    candidates = [i for i in range(len(xs))
                  if all(dep[i] == 0 for dep in dependencies)]
    hits: list[tuple[int, Poly]] = []
    for i in candidates:
        space = _nodes.vanishing_basis(xs.without(xs[i]), k - 1)
        if space.dimension != 1:
            raise TheoremViolation("curve through the rest is not unique")
        mu = space.basis[0]
        if mu.eval(xs[i].x, xs[i].y) == 0:
            raise TheoremViolation("freed curve passes through the outlier")
        hits.append((i, mu))
    if not hits and k == n:
        return DefectReport(dim, None, None, None)
    if len(hits) != 1:
        raise TheoremViolation(
            f"expected exactly one outlier, found {len(hits)}")
    idx, mu = hits[0]
    if mu.degree != k - 1:
        raise TheoremViolation("curve through the rest has the wrong degree")
    return DefectReport(dim, Curve.from_poly(mu), xs[idx], idx)


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
    s2 if only v2 = 0, else v2*s1 - v1*s2.
    """
    a = _nodes._coerce(a)
    if a in xs:
        raise ValueError("extra node already in the set")
    space = curves_through(xs, k)
    if space.dimension < 2:
        raise ValueError("need at least two curves through the set")
    s1, s2 = space.basis[0], space.basis[1]
    v1 = s1.eval(a.x, a.y)
    v2 = s2.eval(a.x, a.y)
    if v1 == 0:
        out = s1
    elif v2 == 0:
        out = s2
    else:
        out = s1.scale(v2) - s2.scale(v1)
    for p in xs:
        if out.eval(p.x, p.y) != 0:
            raise TheoremViolation("combination misses a node of the set")
    if out.eval(a.x, a.y) != 0:
        raise TheoremViolation("combination misses the extra node")
    return TwoCurveReport(space.dimension, Curve.from_poly(out))


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
    on_line: dict[LineForm, set[int]] = {}
    for i, j in itertools.combinations(range(len(xs)), 2):
        line = LineForm.through(xs[i], xs[j]).canonical()
        on_line.setdefault(line, set()).update((i, j))
    three = [(line, indices) for line, indices in on_line.items()
             if len(indices) == 3]
    if not three:
        return []
    fps = _nodes.fundamental_polynomials(xs, n)
    reports: list[UsageReport] = []
    for line, indices in three:
        multiples = _curves._multiples(line.poly(), n)
        users = [idx for idx in range(len(xs)) if idx not in indices
                 and not multiples.would_grow(fps[idx]._integer_coeffs[0])]
        if not users:
            continue
        if len(users) not in (1, 3):
            raise TheoremViolation(
                f"3-node line with {len(users)} users")
        if len(users) == 3:
            a, b, c = (xs[idx] for idx in users)
            if LineForm.through(a, b).eval(c.x, c.y) == 0:
                raise TheoremViolation("3 users of a line are collinear")
        reports.append(UsageReport(
            line, xs.subset(sorted(indices)), xs.subset(users)))
    return reports
