"""Algebraic curves through node sets: counting bounds, maximality, and
the division relation behind fundamental polynomials.

A curve is a nonconstant polynomial considered up to a nonzero scalar.  Two
counting facts drive everything here.  Working at degree n, a curve of
degree k <= n can pass through at most

    max_nodes_on_curve(n, k) = dim(n) - dim(n-k) = k*(2n + 3 - k)/2

n-independent nodes, and an independent set reaching that count forces
every degree-n polynomial vanishing on it to be divisible by the curve.
``space_divisible_by`` checks that by division: {q} is a Groebner basis
of the ideal (q), so q divides p iff dividing p by q leaves remainder 0.
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
t = p/q is computed from p, q, the numerators and denominators of b and
a, and the integer base point (below), and each coordinate is reduced by
one ``Fraction``, the only one a point costs.  ``point_at``, ``points``
and every generator read line points through it.
The parameters p/q come from ``_rational_pairs``, cached ring by ring
once per process and shared by every search, so its memory grows only
with the furthest ring read (``nodes.SEARCH_BUDGET`` bounds it); a
``LineUnion`` reads one such stream and takes each line's ``_point`` at
each parameter.
Membership, sameness and the base point read one integer form,
``LineForm._coefficients`` (A, B, C), the coefficients times their common
denominator, with no ``Fraction`` arithmetic.  A node (x/dx, y/dy) lies
on the line iff A*x*dy + B*y*dx + C*dx*dy is 0 (``LineForm.contains``,
``LineUnion.contains``).  Two lines are the same iff the 2x2 minors of
their (A, B, C) are 0 (``proportional``, which ``LineUnion`` and
``generators.random_lines`` test on every pair).  The base point is
(0, -C/B), or (-C/A, 0) when B = 0, kept as an integer numerator and
denominator that need not be reduced and may be negative
(``LineForm._integer_form``); ``_point`` reduces.

On a few lines, n-independence is a count and, near the end of a
search, a small rank.  Take m distinct lines, no three through one
point, finite or at infinity: no three concurrent and no three parallel
(``_general_position``: the 3x3 determinants of their coefficients are
not 0).  Parametrize line i by ``LineForm._point`` as base_i + t*D_i with
D_i = (b_i, -a_i).  A degree-n f restricts to f_i(t) = f(base_i + t*D_i),
of degree <= n in t, and [t^n] f_i = f_top(D_i), where f_top is the
degree-n homogeneous part of f.  Write d(n, m) = space_dim(n) -
space_dim(n - m), with space_dim 0 below degree 0.

Lemma 1.  For m <= n + 2, the restrictions (f_1, ..., f_m) of the
degree-n polynomials are exactly the tuples of polynomials of degree <= n
in t that meet one condition per pair of lines:

* lines i and j meet at a finite point O = P_i(t_ij) = P_j(t_ji):
  f_i(t_ij) = f_j(t_ji);
* lines i and j are parallel with D_j = lambda*D_i:
  [t^n] f_j = lambda^n [t^n] f_i.

Proof.  Every restriction meets them: both sides are f(O), or
f_top(D_j) = f_top(lambda*D_i) = lambda^n f_top(D_i).  The kernel of the
restriction is l_1*...*l_m*P_(n-m), since a polynomial vanishing on a
line is divisible by it, so the restrictions span d(n, m) = m(n + 1) -
C(m, 2) dimensions.  The C(m, 2) conditions are independent on the
tuples: on the last line's block they are evaluations at its m - 1 - e
finite meeting points, distinct because no three lines are concurrent,
and e <= 1 top coefficients, since no three lines are parallel.
Evaluations at k distinct points and a top coefficient are independent on
the polynomials of degree <= n when k <= n (the Lagrange polynomials of
the points have degree < n, and prod(t - tau)*t^(n-k) vanishes at them
with top coefficient 1), and k <= n + 1 evaluations alone are.  Here
k <= n + 1 - e.  So in a vanishing combination of the conditions, those
on the last line have coefficient 0 (apply it to tuples that are 0 off
that line), and by induction on m so do the rest.  The tuples
meeting them span m(n + 1) - C(m, 2) dimensions and contain the
restrictions, which span as many, so the two are equal.

Lemma 2.  Let X be nodes on the lines, c_i the number on line i (a node
at a meeting point counts on both lines) and w_i = prod(t - tau) over the
parameters tau of line i's nodes.  X is n-independent iff every
c_i <= n + 1 and the conditions at meeting points that are not nodes of
X, together with every parallel condition, are independent on the tuples
W = (w_1*P_(n-c_1), ..., w_m*P_(n-c_m)).

Proof.  n + 2 nodes of one line are n-dependent, since the restrictions
to a line span only n + 1 dimensions; so let every c_i <= n + 1.
Evaluation at X factors through the restriction, so X is independent iff
evaluating the tuples of Lemma 1 at X is onto, iff the tuples of Lemma 1
that vanish on X, those in W, span d(n, m) - |X| dimensions.  A condition
at a meeting point that is a node holds on all of W, both sides being 0;
say s of them.  W spans m(n + 1) - sum(c_i) = m(n + 1) - |X| - s
dimensions, so if the other C(m, 2) - s conditions have rank r on W, the
tuples of Lemma 1 in W span m(n + 1) - |X| - s - r, which is d(n, m) -
|X| iff r = C(m, 2) - s.

Deciding.  Line i's room is R_i = n + 1 - c_i, the dimension of its block
w_i*P_(R_i - 1).  On that block, line i's open conditions are
evaluations at meeting points that are not nodes, where w_i is not 0,
and at most one top coefficient, [t^(R_i - 1)] of the cofactor since w_i
is monic; by the count above they are independent on the block iff
their number is at most R_i.  Such a line can be dropped with its
conditions: in a vanishing combination they get 0, since no other
condition touches the block, so the rest is independent iff all is.
``LineDecider`` drops such lines while it can (``_core``).  If none is
left, X is independent.  Otherwise the lines left are the core, and its
open conditions decide, one integer row each on the coefficients of the
core's cofactors (``_block`` scales each row to integers).  Their rank
is taken modulo P first, and full rank there certifies independence;
``linalg.rank`` takes it exactly otherwise.  The parameters tau are read
only there.  Refusals come before any of it: a node held already, a node
on a line that holds n + 1, and a node past d(n, m) in all.  On m <= 2
lines no core is left within that count, so there the counts alone
decide: a line peels when it has no open condition, and with one open
condition a core needs both rooms at 0, 2n + 2 nodes and none at the
meeting point, one past d(n, 2) = 2n + 1.

Counts alone do not decide three lines.  Take l1*l2*l3 and m1*m2*m3, two
cubics, each a product of three lines, with l1, l2, l3 in general
position and no m_j through a meeting point of two l_i, and let X be the
nine points where an l_i meets an m_j.  The rooms on l1, l2, l3 are 1, 1,
1 at n = 3, and there are 9 <= d(3, 3) nodes in all, yet every cubic
through eight of them passes through the ninth (Cayley-Bacharach), so X
is 3-dependent.  The peel leaves the three lines as a core, and its three
conditions have rank 2.

``_search_decider`` takes a ``LineDecider`` for at most four lines,
m <= n + 2, in general position and carrying the start set, and the
standard-monomial rank otherwise: for concurrent or parallel triples, for
curves that are not lines, and, by cost, for five or more lines, where a
core forms for much of the search and its rank per candidate costs more
than one incremental row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from typing import Iterator, Sequence

from . import linalg, nodes as _nodes, poly as _poly
from .linalg import IndependenceTracker
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
    points with q > 0 and gcd(p, q) = 1, so 0, 1, -1, 2, 1/2, -1/2, -2, ...,
    read ring by ring from ``_rational_ring``."""
    for radius in itertools.count():
        yield from _rational_ring(radius)


@cache
def _rational_ring(radius: int) -> tuple[tuple[int, int], ...]:
    """The pairs of ``nodes._ring(radius)`` that ``_rational_pairs`` keeps,
    filtered once."""
    return tuple((p, q) for p, q in _nodes._ring(radius)
                 if q > 0 and gcd(p, q) == 1)


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
        a/da, as integer numerator, denominator pairs.  The base point is
        read off ``_coefficients`` (A, B, C) with no division: (0, -C/B),
        or (-C/A, 0) when B = 0.  Its pairs are not reduced, and the
        denominator B or A may be negative; ``_point`` reduces."""
        a, b, c = self._coefficients
        base = (0, 1, -c, b) if b else (-c, a, 0, 1)
        return (*base, self.b.numerator, self.b.denominator,
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

    def _parameter(self, x: int, dx: int, y: int,
                   dy: int) -> tuple[int, int]:
        """The t at which ``_point`` gives the point (x/dx, y/dy) of the
        line, as an integer numerator and a nonzero denominator: x / b,
        since the base point has x = 0, or -y / a when b = 0, since it
        then has y = 0."""
        _, _, _, _, b, db, a, da = self._integer_form
        if b:
            return x * db, dx * b
        return -y * da, dy * a

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
    """Same line: every 2x2 minor of the two coefficient vectors is 0,
    tested on their integer multiples ``LineForm._coefficients``."""
    (a1, b1, c1), (a2, b2, c2) = p._coefficients, q._coefficients
    return a1 * b2 == b1 * a2 and a1 * c2 == c1 * a2 and b1 * c2 == c1 * b2


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
        """Round-robin over the lines: for each parameter of one
        ``_rational_pairs`` stream, each line's point there, in line
        order, as the lines' own ``points`` would give them."""
        lines = self.lines
        for p, q in _rational_pairs():
            for line in lines:
                yield line._point(p, q)


def _general_position(lines: Sequence[LineForm]) -> bool:
    """Do no three of the lines pass through one point, finite or at
    infinity?  Three lines do iff their coefficient vectors are linearly
    dependent, iff the determinant of their ``_coefficients`` is 0."""
    return all(
        a1 * (b2 * c3 - b3 * c2) - b1 * (a2 * c3 - a3 * c2)
        + c1 * (a2 * b3 - a3 * b2)
        for (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) in itertools.combinations(
            [line._coefficients for line in lines], 3))


class LineDecider:
    """The n-independence of a growing set of nodes on m <= n + 2 lines,
    no three through one point, finite or at infinity, decided by counts,
    peeling and, at a core, a small rank (see the module docstring).

    ``add`` refuses a node that is held already, a node past d(n, m) in
    all, and a node on a line that holds n + 1; with m <= 2 lines it
    accepts every other node.  A node off the lines raises ValueError.
    """

    def __init__(self, lines: Sequence[LineForm], n: int):
        m = len(lines)
        if not 1 <= m <= n + 2:
            raise ValueError("a line decider takes 1 to n + 2 lines")
        if not _general_position(lines):
            raise ValueError("three of the lines pass through one point")
        self.lines = tuple(lines)
        self.n = n
        self._size = m * (n + 1) - m * (m - 1) // 2  # d(n, m)
        self._rooms = [n + 1] * m
        # self._open[i]: each line j whose meeting condition with line i
        # no held node meets; self._on[i]: the keys of line i's nodes
        self._open = [set(range(m)) - {i} for i in range(m)]
        self._on: list[list[tuple[int, int, int, int]]] = [[] for _ in lines]
        self._seen: set[tuple[int, int, int, int]] = set()
        self._meetings: dict[tuple[int, int], tuple] = {}
        self._peeled = True  # the held set leaves no core

    def add(self, p: Node) -> bool:
        """Add a node of the lines; returns True iff the set stays
        n-independent with it, and then keeps it."""
        key = (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)
        if key in self._seen or len(self._seen) == self._size:
            return False
        through = [i for i, line in enumerate(self.lines) if line._meets(*key)]
        if not through:
            raise ValueError("node off the lines")
        rooms = self._rooms
        if not all(rooms[i] for i in through):
            return False
        if len(rooms) <= 2:
            # on one or two lines, d(n, m) leaves no core (module docstring)
            for i in through:
                rooms[i] -= 1
        elif not self._keeps(key, through):
            return False
        self._seen.add(key)
        return True

    def _keeps(self, key: tuple[int, int, int, int],
               through: list[int]) -> bool:
        """Place the node, on three or more lines, and keep it iff the open
        conditions stay independent.  A set that peeled still peels when
        the node's lines hold their open conditions: they go first, and
        the rest as before.  Otherwise the core decides."""
        self._place(key, through, -1)
        rooms = self._rooms
        if self._peeled and all(rooms[i] >= len(self._open[i])
                                for i in through):
            return True
        core = self._core()
        if core and not self._core_independent(core):
            self._place(key, through, 1)
            return False
        self._peeled = not core
        return True

    def _place(self, key: tuple[int, int, int, int], through: list[int],
               step: int) -> None:
        """Put the node on its lines (step -1) or take it off (step 1): a
        node at the meeting point of two lines meets their condition."""
        for i in through:
            self._rooms[i] += step
            if step < 0:
                self._on[i].append(key)
            else:
                self._on[i].pop()
        if len(through) == 2:
            i, j = through
            if step < 0:
                self._open[i].discard(j)
                self._open[j].discard(i)
            else:
                self._open[i].add(j)
                self._open[j].add(i)

    def _core(self) -> list[int]:
        """The lines left after peeling, one at a time, every line whose
        room is at least its number of open conditions with the lines
        still there."""
        rooms, opened = self._rooms, self._open
        load = [len(js) for js in opened]
        alive = [True] * len(rooms)
        stack = [i for i, room in enumerate(rooms) if room >= load[i]]
        while stack:
            i = stack.pop()
            if not alive[i]:
                continue
            alive[i] = False
            for j in opened[i]:
                if alive[j]:
                    load[j] -= 1
                    if load[j] == rooms[j]:
                        stack.append(j)
        return [i for i, live in enumerate(alive) if live]

    def _core_independent(self, core: list[int]) -> bool:
        """Are the core's open conditions independent?  One integer row
        per condition, on the coefficients of each core line's cofactor
        g_i in P_(room - 1), decided modulo P first (``linalg.rank``)."""
        rooms = self._rooms
        offsets = {}
        width = 0
        for i in core:
            offsets[i] = width
            width += rooms[i]
        pairs = [(i, j) for i in core for j in self._open[i]
                 if i < j and j in offsets]
        if len(pairs) > width:
            return False
        params = {i: [self.lines[i]._parameter(*key) for key in self._on[i]]
                  for i in core}
        rows = []
        for i, j in pairs:
            row = [0] * width
            parallel, first, second = self._meeting(i, j)
            if parallel:  # [t^n] f_j - lambda^n [t^n] f_i, times den
                if rooms[i]:
                    row[offsets[i] + rooms[i] - 1] = -first
                if rooms[j]:
                    row[offsets[j] + rooms[j] - 1] = second
            else:  # f_i(t_ij) - f_j(t_ji), times both blocks' scales
                ei, si = _block(params[i], *first, rooms[i])
                ej, sj = _block(params[j], *second, rooms[j])
                row[offsets[i]:offsets[i] + rooms[i]] = [e * sj for e in ei]
                row[offsets[j]:offsets[j] + rooms[j]] = [-e * si for e in ej]
            rows.append(row)
        return linalg.rank(rows, width) == len(pairs)

    def _meeting(self, i: int, j: int) -> tuple:
        """The meeting of lines i < j, computed once: (False, (p, q),
        (p', q')) when they meet at the points t = p/q of line i and
        t = p'/q' of line j, or (True, num, den) with num/den = lambda^n
        when they are parallel with D_j = lambda * D_i."""
        meeting = self._meetings.get((i, j))
        if meeting is None:
            li, lj = self.lines[i], self.lines[j]
            (a1, b1, c1), (a2, b2, c2) = li._coefficients, lj._coefficients
            det = a1 * b2 - a2 * b1
            if det == 0:
                lam = lj.b / li.b if li.b else lj.a / li.a
                meeting = (True, lam.numerator ** self.n,
                           lam.denominator ** self.n)
            else:
                point = (b1 * c2 - b2 * c1, det, c1 * a2 - c2 * a1, det)
                meeting = (False, li._parameter(*point),
                           lj._parameter(*point))
            self._meetings[i, j] = meeting
        return meeting


def _block(params: list[tuple[int, int]], p: int, q: int,
           room: int) -> tuple[list[int], int]:
    """A line's block of a condition at its parameter t = p/q, as integer
    entries over one scale: w(t) * t^k for k < room, where w is the
    product of t - u/v over the params (u, v) of the line's nodes.  With
    w(t) = W / V, the entries are W * p^k * q^(room - 1 - k) over
    V * q^(room - 1)."""
    num = den = 1
    for u, v in params:
        num *= p * v - u * q
        den *= q * v
    if not room:
        return [], den
    return ([num * p ** k * q ** (room - 1 - k) for k in range(room)],
            den * q ** (room - 1))


# A core costs one rank over its open conditions, up to C(m, 2) rows, for
# each candidate it decides, and on m lines a core forms once the rooms
# fall below m - 1.  On five or more lines that rank per candidate costs
# more than the standard-monomial path's one incremental row (module
# docstring), so the line decider takes at most four.
_DECIDER_LINES = 4


def _search_decider(xs: NodeSet, lines: Sequence[LineForm], n: int,
                    lead: tuple[int, int]
                    ) -> LineDecider | _nodes._RankDecider:
    """What decides a search from xs whose candidates lie on the lines:
    a ``LineDecider`` when there are at most n + 2 and at most
    ``_DECIDER_LINES`` lines, no three through one point, and they carry
    xs, otherwise the rank of the standard-monomial rows for ``lead``, the
    leading exponents of a curve through xs and the candidates.  Either
    holds xs; a set xs that is not n-independent raises ValueError."""
    if 1 <= len(lines) <= min(n + 2, _DECIDER_LINES) and _general_position(
            lines) and all(
            any(line.contains(p) for line in lines) for p in xs):
        decider = LineDecider(lines, n)
        if not all(decider.add(p) for p in xs):
            raise ValueError("set is not independent at this degree")
        return decider
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
    is a ``LineForm`` or a ``LineUnion``, whose lines carry xs, number at
    most four and at most n + 2, and have no three through one point, has
    each candidate decided by a ``LineDecider``; any other has rank
    decided on q's standard-monomial rows, which both checks allow (see
    the module docstring).  The points of a ``LineForm`` or ``LineUnion``
    sampler whose every line is a component of q lie on q, and are not
    checked one by one.
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
    points = sampler.points()
    if not (lines and all(_component(line, q) for line in lines)):
        points = _checked(points, q)
    found = _nodes._grow(decider, points, want)
    return NodeSet._distinct(list(xs) + found)


def _component(line: LineForm, q: Curve) -> bool:
    """Is the line a component of q?  Restricted to the line, q is a
    polynomial of degree <= deg q in the line's parameter, so it is 0
    iff it vanishes at deg q + 1 points of the line."""
    return all(q.contains(p)
               for p in itertools.islice(line.points(), q.degree + 1))


def _checked(points: Iterator[Node], q: Curve) -> Iterator[Node]:
    """The points, raising ValueError at the first one off q."""
    for p in points:
        if not q.contains(p):
            raise ValueError("sampler emitted a point off the curve")
        yield p


def space_divisible_by(space: _nodes.VanishingSpace, q: Curve) -> bool:
    """Is every polynomial of the space divisible by q?

    Decided by graded-lex division by q, which leaves remainder 0 iff q
    divides p (see the module docstring).  Row m of
    ``poly.multiplication_matrix(q, n)`` is q times the m-th monomial, led
    by the index of LM(q) times that monomial, and those indices rise with
    m: they are the monomials of degree <= n that LM(q) divides.  So one
    pass over the rows from the last clears each such entry of p's
    integer coefficients for good, as ``a*r - b*row`` with
    ``g = gcd(r[top], lc)``, ``a = lc/g`` and ``b = r[top]/g``, and leaves
    a multiple of the remainder.
    """
    n = space.n
    if q.degree > n:
        return all(p.is_zero for p in space.basis)
    # each row's nonzero entries, its leading one last, last row first
    rows = [[(j, c) for j, c in enumerate(row) if c]
            for row in reversed(_poly.multiplication_matrix(q.poly, n))]
    for p in space.basis:
        r = list(p._integer_coeffs[0])
        for row in rows:
            top, lc = row[-1]
            f = r[top]
            if f:
                g = gcd(f, lc)
                a, b = lc // g, f // g
                if a != 1:
                    r = [a * v for v in r]
                for j, c in row:
                    r[j] -= b * c
        if any(r):
            return False
    return True
