"""Algebraic curves through node sets: counting bounds, maximality, and
the division relation behind fundamental polynomials.

A curve is a nonconstant polynomial considered up to a nonzero scalar.  Two
counting facts drive everything here.  Working at degree n, a curve of
degree k <= n can pass through at most

    max_nodes_on_curve(n, k) = dim(n) - dim(n-k) = k*(2n + 3 - k)/2

n-independent nodes, and an independent set reaching that count forces
every degree-n polynomial vanishing on it to be divisible by the curve.
``uniqueness_threshold(n, k)`` is the matching size at which at most one
degree-k curve can pass through an independent set.

Samplers produce exact rational points on a curve in a fixed order, so
search results are reproducible: a line is swept by a deterministic
enumeration of rational parameters, and a union of lines round-robin.
``extend_on_curve`` searches through ``nodes._grow``, within
``nodes.SEARCH_BUDGET``, the package's one budget; how it decides each
candidate depends on the number of lines (below).

The count max_nodes_on_curve(n, k) is also the number of standard
monomials of q: with x^s y^t the graded-lex leading monomial of q, the
monomials of degree <= n that x^s y^t does not divide.  Dividing any f
of degree <= n by q leaves a remainder on those monomials, and f equals
its remainder at every point of q.  So the rows of points of q have the
same dependencies on those max_nodes_on_curve(n, k) columns as on all
space_dim(n), and ``extend_on_curve`` decides rank there, once every
node and candidate is checked to lie on q.  A ``LineUnion`` reads its
leading monomial off its lines (``LineUnion.lead``), with no ``Poly``.

A line has one integer parametrization, ``LineForm._point``: the point at
t = p/q is computed from p, q and the numerators and denominators of the
line's coefficients, and each coordinate is reduced by one ``Fraction``.
``point_at``, ``points`` and every generator read line points through it.
Membership reads one integer form too, ``LineForm._coefficients``: a
node (x/dx, y/dy) lies on A*x + B*y + C = 0 iff A*x*dy + B*y*dx + C*dx*dy
is 0, with no ``Fraction`` arithmetic (``LineForm.contains``,
``LineUnion.contains``).

On one or two lines, n-independence is a count.  Take nodes on m <= 2
distinct lines, and call O the lines' common point when there are two and
they meet; a node at O counts on both lines.  The nodes are
n-independent iff no line carries more than n + 1 of them and there are
at most d(n, m) in total: d(n, 1) = n + 1 and d(n, 2) = 2n + 1.

* Necessity: d(n, m) is the bound above, and n + 2 nodes of one line are
  n-dependent.
* Sufficiency: restricted to a line, the degree-n polynomials are the
  polynomials of degree <= n in the line's parameter, which interpolate
  at any n + 1 points, so up to n + 1 nodes of one line are independent.
  On two lines, name them so that l1 carries at least as many nodes off
  O as l2.  A set within the counts extends, on the lines, to n + 1
  nodes on l1 and n + 1 on l2 when O is among them, or n + 1 on l1 and n
  on l2 when it is not: 2n + 1 nodes either way.  A degree-n p vanishing
  on them has n + 1 roots on l1, so l1 divides p; the quotient, of
  degree n - 1, has n roots on l2 off l1, so l2 divides it.  The
  vanishing space is l1*l2*P_(n-2), of dimension space_dim(n) - (2n + 1),
  so the 2n + 1 nodes are independent, and so is every subset.

``LineCount`` keeps these counts.  A search on one or two lines runs
through it, with no row and no rank, and a search on three or more lines
decides rank on the curve's standard monomials, as above
(``_search_decider`` picks the path from the number of lines).  Three
lines need rank: the 3x3 grid {0, 1, 2}^2 puts 3 nodes on each of the
lines x = 0, 1, 2, within the counts at n = 3 (3 <= n + 1 nodes per line,
9 <= d(3, 3) = 9 in all), yet x(x-1)(x-2) and y(y-1)(y-2) both vanish on
it, so it is 3-dependent.  That is the Cayley-Bacharach phenomenon: the
nodes of a complete intersection of two cubics fail to be independent,
and no count of nodes per line sees it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Sequence

from . import nodes as _nodes, poly as _poly
from .linalg import ZERO, IndependenceTracker, RankTracker
from .nodes import Node, NodeSet
from .poly import Poly, frac, space_dim


def max_nodes_on_curve(n: int, k: int) -> int:
    """Largest n-independent node count a degree-k curve can carry."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return k * (2 * n + 3 - k) // 2


def uniqueness_threshold(n: int, k: int) -> int:
    """Minimal size of an n-independent set through which at most one
    degree-k curve passes."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return (k - 1) * (2 * n + 4 - k) // 2 + 2


@dataclass(frozen=True)
class Curve:
    """Nonconstant polynomial; ``Curve(poly)`` is the constructor, and the
    degree is the polynomial's effective degree."""

    poly: Poly

    def __post_init__(self):
        if self.degree is None or self.degree < 1:
            raise ValueError("a curve needs effective degree >= 1")

    @cached_property
    def degree(self) -> int:
        return self.poly.degree

    def contains(self, p) -> bool:
        p = _nodes._coerce(p)
        return self.poly.eval(p.x, p.y) == 0

    def to_json(self) -> dict:
        return {"degree": self.degree, "poly": self.poly.to_json()}

    @staticmethod
    def from_json(data: dict) -> "Curve":
        """The curve of ``data["poly"]``; ``data["degree"]`` must be a JSON
        integer equal to the polynomial's effective degree."""
        if not isinstance(data["poly"], dict):
            raise ValueError('"poly" must be a JSON object')
        p = Poly.from_json(data["poly"])
        degree = _poly.json_int(data["degree"], "degree")
        if p.degree != degree or degree < 1:
            raise ValueError("declared degree must match and be >= 1")
        return Curve(p)


def same_curve(a: Curve, b: Curve) -> bool:
    """Equality up to a nonzero scalar."""
    return a.poly.normalized().equals(b.poly.normalized())


def _rational_pairs() -> Iterator[tuple[int, int]]:
    """Every rational p/q exactly once, as the pair (p, q): integer spiral
    points with q > 0 and gcd(p, q) = 1, so 0, 1, -1, 2, 1/2, -1/2, -2, ..."""
    for p, q in _nodes._spiral_pairs():
        if q > 0 and gcd(p, q) == 1:
            yield p, q


@dataclass(frozen=True)
class LineForm:
    """The line a*x + b*y + c = 0 with rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("a and b cannot both be zero")

    @staticmethod
    def of(a, b, c) -> "LineForm":
        return LineForm(frac(a), frac(b), frac(c))

    @staticmethod
    def through(p, q) -> "LineForm":
        p, q = _nodes._coerce(p), _nodes._coerce(q)
        if p == q:
            raise ValueError("two distinct points are needed")
        a = p.y - q.y
        b = q.x - p.x
        return LineForm(a, b, -(a * p.x + b * p.y))

    def poly(self) -> Poly:
        return _poly.linear(self.a, self.b, self.c)

    def eval(self, x, y) -> Fraction:
        return self.a * frac(x) + self.b * frac(y) + self.c

    def point_at(self, t) -> Node:
        """Exact point base + t * (b, -a), where base is (0, -c/b), or
        (-c/a, 0) when b = 0; every parameter gives a distinct point of
        the line."""
        t = frac(t)
        return self._point(t.numerator, t.denominator)

    @cached_property
    def _integer_form(self) -> tuple[int, ...]:
        """The base point (x0/dx0, y0/dy0) and the coefficients b/db and
        a/da, as integer numerator, denominator pairs."""
        if self.b != 0:
            x0, y0 = ZERO, -self.c / self.b
        else:
            x0, y0 = -self.c / self.a, ZERO
        return (x0.numerator, x0.denominator, y0.numerator, y0.denominator,
                self.b.numerator, self.b.denominator,
                self.a.numerator, self.a.denominator)

    def _point(self, p: int, q: int) -> Node:
        """``point_at(p/q)`` in integers, each coordinate reduced by one
        Fraction: x0 + (p/q) * b and y0 - (p/q) * a over the products of
        their denominators."""
        x0, dx0, y0, dy0, b, db, a, da = self._integer_form
        return Node(Fraction(x0 * q * db + p * b * dx0, dx0 * q * db),
                    Fraction(y0 * q * da - p * a * dy0, dy0 * q * da))

    def points(self) -> Iterator[Node]:
        """``point_at`` over every rational p/q of ``_rational_pairs``."""
        for p, q in _rational_pairs():
            yield self._point(p, q)

    @cached_property
    def _coefficients(self) -> tuple[int, int, int]:
        """(A, B, C): a, b and c times their common denominator."""
        den = lcm(self.a.denominator, self.b.denominator, self.c.denominator)
        return tuple(v.numerator * (den // v.denominator)
                     for v in (self.a, self.b, self.c))

    def _meets(self, x: int, dx: int, y: int, dy: int) -> bool:
        """Is the point (x/dx, y/dy) on the line?"""
        a, b, c = self._coefficients
        return a * x * dy + b * y * dx + c * dx * dy == 0

    def contains(self, p) -> bool:
        """Is p on the line?  Decided on ``_coefficients``."""
        p = _nodes._coerce(p)
        return self._meets(p.x.numerator, p.x.denominator,
                           p.y.numerator, p.y.denominator)

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c)}

    @staticmethod
    def from_json(data: dict) -> "LineForm":
        return LineForm.of(data["a"], data["b"], data["c"])


def proportional(p: LineForm, q: LineForm) -> bool:
    """Same line: every 2x2 minor of the two coefficient vectors is 0."""
    return (p.a * q.b == p.b * q.a and p.a * q.c == p.c * q.a
            and p.b * q.c == p.c * q.b)


@dataclass(frozen=True)
class LineUnion:
    """Product of pairwise distinct lines; the one curve family whose
    squarefreeness the library can check itself."""

    lines: tuple[LineForm, ...]

    def __post_init__(self):
        if not self.lines:
            raise ValueError("at least one line")
        for p, q in itertools.combinations(self.lines, 2):
            if proportional(p, q):
                raise ValueError("lines must be pairwise non-proportional")

    @staticmethod
    def of(lines: Sequence[LineForm]) -> "LineUnion":
        return LineUnion(tuple(lines))

    def poly(self) -> Poly:
        out = self.lines[0].poly()
        for line in self.lines[1:]:
            out = out * line.poly()
        return out

    def curve(self) -> Curve:
        return Curve(self.poly())

    @property
    def lead(self) -> tuple[int, int]:
        """Exponents (s, t) of the leading monomial x^s y^t of ``poly()``,
        read off the lines: a line's is y, or x when b = 0, and leading
        monomials multiply (see ``Poly.leading_exponents``)."""
        s = sum(1 for line in self.lines if line.b == 0)
        return s, len(self.lines) - s

    def contains(self, p) -> bool:
        """``curve().contains(p)``, decided line by line."""
        p = _nodes._coerce(p)
        return self._meets(p.x.numerator, p.x.denominator,
                           p.y.numerator, p.y.denominator)

    def _meets(self, x: int, dx: int, y: int, dy: int) -> bool:
        """Is the point (x/dx, y/dy) on one of the lines?"""
        return any(line._meets(x, dx, y, dy) for line in self.lines)

    def points(self) -> Iterator[Node]:
        """Round-robin over the component lines' samplers."""
        streams = [line.points() for line in self.lines]
        for batch in zip(*streams):
            yield from batch


class LineCount:
    """The n-independence of a growing set of nodes on one or two lines,
    decided by counting (see the module docstring).

    ``add`` accepts a node iff it is new, the set holds fewer than
    d(n, m) nodes for the m lines, and every line through the node holds
    fewer than n + 1; a node on no line raises ValueError.
    """

    def __init__(self, lines: Sequence[LineForm], n: int):
        if not 1 <= len(lines) <= 2:
            raise ValueError("a count decides on one or two lines")
        self.lines = tuple(lines)
        self.n = n
        self._room = n + 1 if len(lines) == 1 else 2 * n + 1  # d(n, m)
        self._counts = [0] * len(lines)
        self._seen: set[tuple[int, int, int, int]] = set()

    def add(self, p: Node) -> bool:
        """Add a node of the lines; returns True iff the set stays
        n-independent with it, and then keeps it."""
        key = (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
        if key in self._seen or len(self._seen) == self._room:
            return False
        through = [i for i, line in enumerate(self.lines) if line._meets(*key)]
        if not through:
            raise ValueError("node off the lines")
        counts = self._counts
        if any(counts[i] > self.n for i in through):
            return False
        for i in through:
            counts[i] += 1
        self._seen.add(key)
        return True


def _search_decider(xs: NodeSet, lines: Sequence[LineForm], n: int,
                    lead: tuple[int, int]
                    ) -> LineCount | _nodes._RankDecider:
    """What decides a search from xs whose candidates lie on the lines:
    a ``LineCount`` when there are one or two lines and they carry xs,
    otherwise the rank of the standard-monomial rows for ``lead``, the
    leading exponents of a curve through xs and the candidates.  Either
    holds xs; a set xs that is not n-independent raises ValueError."""
    if 1 <= len(lines) <= 2 and all(
            any(line.contains(p) for line in lines) for p in xs):
        count = LineCount(lines, n)
        if not all(count.add(p) for p in xs):
            raise ValueError("set is not independent at this degree")
        return count
    return _nodes._RankDecider(_nodes._independent_tracker(xs, n, lead),
                               n, lead)


def is_maximal_curve(q: Curve, xs: NodeSet, n: int) -> bool:
    """Does q pass through exactly max_nodes_on_curve(n, deg q) nodes of the
    n-independent set xs?"""
    _nodes._independent_tracker(xs, n)
    if q.degree > n:
        raise ValueError("curve degree exceeds n")
    want = max_nodes_on_curve(n, q.degree)
    if len(xs) < want:
        raise ValueError("set too small to contain a maximal curve")
    return sum(1 for p in xs if q.contains(p)) == want


def node_uses(a, xs: NodeSet, n: int, q: Curve) -> bool:
    """Does some degree-n fundamental polynomial of a (w.r.t. xs) have q as
    a factor?

    Decided by one rank test: writing p = q*r, the conditions p(a) = 1
    and p = 0 on xs minus a are linear in r's coefficients, with node p's
    degree-(n - deg q) row times q(p) as its row, and consistent iff a's
    row is outside the span of the others.  A nonzero q(p) changes no
    span, and a zero one leaves no row.  The set need not be poised; any
    fundamental polynomial counts.  Raises if a is not in xs or has no
    fundamental polynomial at all; a True answer exhibits one, so only
    before a False answer is that checked, by a degree-n rank test.
    """
    a = _nodes._coerce(a)
    others = xs.without(a)  # raises ValueError if a is not a node of xs
    if q.degree > n:
        raise ValueError("curve degree exceeds n")
    if not q.contains(a):
        m = n - q.degree
        span = IndependenceTracker(space_dim(m))
        for p in others:
            if not q.contains(p):
                span.add(_nodes._monomial_row(p, m))
        if span.add(_nodes._monomial_row(a, m)):
            return True
    tracker = IndependenceTracker(space_dim(n))
    for p in others:
        tracker.add(_nodes._monomial_row(p, n))
    if not tracker.add(_nodes._monomial_row(a, n)):
        raise ValueError("node has no fundamental polynomial")
    return False


def extend_on_curve(xs: NodeSet, sampler, q: Curve, n: int) -> NodeSet:
    """Grow an independent on-curve set to max_nodes_on_curve(n, deg q)
    nodes using the sampler's deterministic point stream.

    Candidates are taken in sampler order and kept when they add a new
    interpolation condition; at most ``nodes.SEARCH_BUDGET`` candidates more
    than it needs are tried.  The sampler must emit points of q (checked);
    xs must lie on q (checked first) and be n-independent.  A sampler that
    is a ``LineForm``, or a ``LineUnion`` of at most two lines, and whose
    lines carry xs, has each candidate decided by ``LineCount``; any other
    has rank decided on q's standard-monomial rows, which both checks
    allow (see the module docstring).
    """
    if q.degree > n:
        raise ValueError("curve degree exceeds n")
    want = max_nodes_on_curve(n, q.degree) - len(xs)
    if want < 0:
        raise ValueError("set larger than the on-curve maximum")
    if any(not q.contains(p) for p in xs):
        raise ValueError("set must lie on the curve")
    lines = ((sampler,) if isinstance(sampler, LineForm)
             else sampler.lines if isinstance(sampler, LineUnion) else ())
    decider = _search_decider(xs, lines, n, q.poly.leading_exponents)
    found = _nodes._grow(decider, _checked(sampler.points(), q), want)
    return NodeSet(list(xs) + found)


def _checked(points: Iterator[Node], q: Curve) -> Iterator[Node]:
    """The points, raising ValueError at the first one off q."""
    for p in points:
        if not q.contains(p):
            raise ValueError("sampler emitted a point off the curve")
        yield p


def _multiples(q: Poly, n: int) -> RankTracker:
    """Tracker spanned by q times every monomial of degree <= n - deg q.

    A polynomial p of bound n is divisible by q iff its coefficient row
    lies in that span, that is, iff the row does not grow the tracker.
    """
    tracker = RankTracker(space_dim(n))
    for row in _poly.multiplication_matrix(q, n):
        tracker.add(row)
    return tracker


def space_divisible_by(space: _nodes.VanishingSpace, q: Curve) -> bool:
    """Is every polynomial of the space divisible by q?

    Decided by span membership in q * (polynomials of degree <= n - deg q),
    one tracker for the whole basis instead of a solve per element.
    """
    n = space.n
    if q.degree > n:
        return all(p.is_zero for p in space.basis)
    multiples = _multiples(q.poly, n)
    return all(not multiples.would_grow(p._integer_coeffs[0])
               for p in space.basis)
