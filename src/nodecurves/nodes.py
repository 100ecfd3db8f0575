"""Planar node sets and their exact degree-n interpolation structure.

A node is a point of Q^2; a node set is an ordered tuple of distinct nodes.
The collocation matrix of a set at degree n evaluates every monomial of
degree <= n at every node, one row per node.  Everything else is read off
that matrix exactly:

* the set is n-independent iff the matrix has full row rank, and n-poised
  iff in addition its size equals the full space dimension;
* the Hilbert function value at n is the rank;
* the degree-n vanishing space is the nullspace, returned with its
  canonical basis;
* a node's fundamental polynomial (value 1 there, 0 on the rest) is the
  canonical solution of the collocation system against a unit vector, and
  is absent exactly when the node's row is spanned by the others.

``collocation_matrix`` returns integer rows: a node's row is
``poly.homogeneous_row``, the monomials scaled by e^n, where e is the
common denominator of the node's coordinates; the scale is entry 0.
That scale changes no rank and no vanishing space; a fundamental
polynomial's solve puts it on the right-hand side instead of 1.  Fractions
appear only in results.  In graded-lex order the first space_dim(k)
entries of a node's degree-n row are e^(n-k) times its degree-k row, so
a rank read off the degree-n rows' first space_dim(k) columns is a rank
of the degree-k rows.

Rank decisions (``hilbert_function``, ``is_independent``, ``is_poised``)
and the searches run through ``linalg.IndependenceTracker``: a row that
grows the rank modulo a prime is accepted with no exact work, and only the
rows the prime rejects are decided exactly.  ``fundamental_polynomial`` on
a set of exactly space_dim(n) nodes solves its square system with
``linalg.solve``, lifted P-adically and checked exactly, which falls
back to the exact kernel only when the set is not poised modulo the prime.
Vanishing spaces are ``linalg.nullspace``, which lifts each free column
and certifies the basis on the shapes its rule admits (a set one node
short of poised from degree 5 on, for one) and eliminates exactly on the
others.  The fundamental polynomial of a set of any other size reads
the exact ``RankTracker``.  ``_Fundamentals`` serves line usage: it
inverts the collocation matrix V of an n-poised set once modulo the
prime, reads each node's degree-n coefficients mod P off the last n + 1
rows of -V^-1, and lifts a node's fundamental polynomial over that
inverse only when asked, checked exactly; when V is singular mod P, or
a lift fails, one exact elimination (``_curves_missing_one``) decides
poisedness and gives every fundamental.  The defect check of a set at
degrees n and k, from ``_SPLIT_COLUMNS`` degree-(k-1) monomials on, is
one ``linalg.column_pass`` over the transposed degree-n rows
(``_defect_pass``): it certifies n-independence, bounds the rank of
the degree-k rows, and names the nodes that may carry a degree-(k-1)
curve through the others, each curve lifted over the pass's inverse and
checked exactly (``_outlier_curves``).  Below that, or when the prime
falls short, an ``IndependenceTracker`` decides independence and one
exact elimination (``_curves_missing_one``) finds the curves.
``fundamental_polynomials`` is one ``fundamental_polynomial`` per node.

Every node search in the package runs through ``_grow``: it reads a
fixed stream of candidates (the integer spiral, a curve sampler, seeded
draws), so its output is reproducible everywhere, and keeps each one that
one decider accepts, in a single pass: a node that would make the set
dependent still would once the set has grown.  The decider says whether
the set stays n-independent with the node, and keeps it if so.  Which one
a search takes is read off its input:

* on at most four lines, no three through one point, finite or at
  infinity (``extend_on_curve`` with a ``curves.LineForm`` or a
  ``curves.LineUnion`` as sampler, whose lines carry the start set;
  ``generators.defect_config`` for k <= 5), a ``curves.LineDecider``: it
  counts nodes per line and in all, drops every line whose room holds its
  meeting conditions, and takes a rank only on the few conditions left,
  with no row of monomials (the ``curves`` module docstring proves that
  this decides; on one or two lines the counts alone do);
* everywhere else, a ``_RankDecider``: the node's row must grow an
  ``IndependenceTracker``.  Along a curve, such as a union of concurrent
  or parallel triples or of five or more lines, that row is the curve's
  standard-monomial row (below).

``_grow`` reads at most SEARCH_BUDGET candidates more than it needs,
whichever decider it is given.  SEARCH_BUDGET is the package's only budget:
``generators.random_lines`` also takes at most SEARCH_BUDGET draws per
line, and ``generators.defect_config`` reads at most SEARCH_BUDGET spiral
points for its outlier.

A search along a curve q of degree m decides rank on fewer columns.  In
graded-lex order, a monomial order, let x^s y^t (s + t = m) be q's
leading monomial.  Division by q writes every f of degree <= n as
f = q*g + r, with r supported on the standard monomials: those of degree
<= n that x^s y^t does not divide.  There are space_dim(n) -
space_dim(n - m) of them, the most n-independent nodes q can carry.  At a
point of q, f equals r, so a combination of rows of points of q vanishes
iff it vanishes on the standard-monomial columns: over Q those rows have
the same dependencies as the full rows, and their rank modulo the prime
is a lower bound on that common rank, so the tracker's certificate holds
as before.  ``_RankDecider`` and ``_independent_tracker`` take q's
``lead`` = (s, t) and then build only those columns; the precondition is
that every node and candidate lies on q, and the callers check it or
draw from q's own points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import linalg
from . import poly as _poly
from .errors import BudgetExceeded
from .linalg import IndependenceTracker, RankTracker
from .poly import Poly, frac, space_dim

SEARCH_BUDGET = 10_000

# ``_defect_pass`` takes one column pass from this many degree-(k-1)
# monomials on.  ``characterize_defect`` on defect sets, with the pass
# against the exact route (``IndependenceTracker`` and
# ``_curves_missing_one``), both forced (seeds 0-3, Python 3.11, 2 vCPU,
# process time, best of 60, interleaved): 1.32 of its time at 3 monomials
# (n, k = 4, 2), 1.05 to 1.06 at 6 ((5, 3), (6, 3)), 0.72 to 0.75 at 10
# ((6, 4), (7, 4)), 0.45 at 15 ((8, 5)), 0.28 to 0.30 at 21 ((9, 6),
# (10, 6)).
_SPLIT_COLUMNS = 10


class Node(NamedTuple):
    x: Fraction
    y: Fraction


def node(x, y) -> Node:
    return Node(frac(x), frac(y))


def _coerce(value) -> Node:
    if isinstance(value, Node):
        return value
    if isinstance(value, str):
        # "12" would unpack into the node (1, 2)
        raise TypeError(f"not a point: {value!r}")
    x, y = value
    return node(x, y)


class NodeSet:
    """Ordered collection of pairwise distinct nodes."""

    def __init__(self, nodes: Iterable = ()):
        items = tuple(_coerce(v) for v in nodes)
        # equal coordinates have equal numerators and denominators, whose
        # hashes, unlike a Fraction's, need no modular inverse
        if len({(p.x.numerator, p.x.denominator, p.y.numerator,
                 p.y.denominator) for p in items}) != len(items):
            raise ValueError("duplicate nodes")
        self._nodes = items

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __getitem__(self, i: int) -> Node:
        return self._nodes[i]

    def __contains__(self, value) -> bool:
        return _coerce(value) in self._nodes

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeSet) and self._nodes == other._nodes

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:
        inner = ", ".join(f"({n.x}, {n.y})" for n in self._nodes)
        return f"NodeSet([{inner}])"

    def index(self, value) -> int:
        return self._nodes.index(_coerce(value))

    def with_node(self, value) -> "NodeSet":
        return NodeSet(self._nodes + (_coerce(value),))

    def without(self, value) -> "NodeSet":
        target = _coerce(value)
        if target not in self._nodes:
            raise ValueError("node not in set")
        return NodeSet(n for n in self._nodes if n != target)

    def subset(self, indices: Iterable[int]) -> "NodeSet":
        return NodeSet(self._nodes[i] for i in indices)

    def to_json(self, n: Optional[int] = None, meta: Optional[dict] = None) -> dict:
        data: dict = {}
        if n is not None:
            data["n"] = n
        data["nodes"] = [[str(p.x), str(p.y)] for p in self._nodes]
        if meta is not None:
            data["meta"] = meta
        return data

    @staticmethod
    def from_json(data: dict) -> tuple["NodeSet", Optional[int]]:
        if not (isinstance(data, dict) and "nodes" in data):
            raise ValueError(
                'node-set JSON must be an object with a "nodes" array')
        points = data["nodes"]
        if not (isinstance(points, list) and all(
                isinstance(p, list) and len(p) == 2 for p in points)):
            raise ValueError('"nodes" must be a JSON array of [x, y] arrays')
        nodes = NodeSet(points)
        n = data.get("n")
        return nodes, (_poly.json_int(n, "n") if n is not None else None)


def _monomial_row(p: Node, n: int,
                  lead: Optional[tuple[int, int]] = None) -> list[int]:
    """The node's collocation row times its scale, its entry 0; with
    ``lead``, only the entries of the standard monomials (see the module
    docstring)."""
    return _poly.homogeneous_row(p.x, p.y, n, lead)


def collocation_matrix(xs: NodeSet, n: int) -> list[list[int]]:
    """One integer row per node, the degree-n monomial basis evaluated
    there times the row's scale, which is the row's entry 0."""
    return [_monomial_row(p, n) for p in xs]


def hilbert_function(xs: NodeSet, n: int) -> int:
    """Number of independent interpolation conditions the set imposes."""
    return linalg.rank(collocation_matrix(xs, n), space_dim(n))


def is_independent(xs: NodeSet, n: int) -> bool:
    """True iff every node admits a degree-n fundamental polynomial."""
    tracker = IndependenceTracker(space_dim(n))
    return all(tracker.add(_monomial_row(p, n)) for p in xs)


def is_poised(xs: NodeSet, n: int) -> bool:
    """True iff degree-n interpolation on the set is uniquely solvable."""
    return len(xs) == space_dim(n) and is_independent(xs, n)


@dataclass(frozen=True)
class VanishingSpace:
    """Basis of the degree-n polynomials vanishing on a node set."""

    n: int
    basis: tuple[Poly, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def vanishing_basis(xs: NodeSet, n: int) -> VanishingSpace:
    basis = linalg.nullspace(collocation_matrix(xs, n), space_dim(n))
    return VanishingSpace(n, tuple(Poly(n, v) for v in basis))


def _curves_missing_one(xs: NodeSet, n: int) -> tuple[int, dict[int, Poly]]:
    """The rank of the set's degree-n rows and, by node index, each node
    whose row is outside the span of the others, with a degree-n
    polynomial that vanishes at every other node and not at it, scaled to
    1 at its last nonzero coefficient.

    One elimination does it: the transposed rows, each followed by its
    unit vector as right-hand sides.  Node i's row is outside the span of
    the others iff every dependency among the rows, a vector c with
    sum(c_j * row_j) = 0, is 0 at i.  A free column's canonical dependency
    is 1 there, so i must be a pivot, and at pivot i they are all 0 iff
    its kept row is 0 at every free column, which
    ``RankTracker.unit_rows`` reads.  That row's right-hand sides c then
    give sum(c_j * column_j) = d * e_i: c is column i of the inverse of
    the pivot block, a polynomial that vanishes at every other node and
    not at node i.  When the rank is space_dim(n), the other nodes'
    vanishing space is one-dimensional, and its canonical basis vector is
    1 at its free column and 0 after it, so the scaled c is that vector.
    """
    size = space_dim(n)
    transpose = RankTracker(len(xs))
    for j, column in enumerate(zip(*collocation_matrix(xs, n))):
        unit = [0] * size
        unit[j] = 1
        transpose.add([*column, *unit])
    curves = {}
    for i, nums in sorted(transpose.unit_rows().items()):
        last = next(v for v in reversed(nums) if v)
        curves[i] = Poly(n, tuple(Fraction(v, last) for v in nums))
    return transpose.rank, curves


def _defect_pass(xs: NodeSet, n: int, k: int
                 ) -> tuple[int, Optional[tuple[list[list[int]],
                                                linalg.ColumnPass]]]:
    """Check that the set is n-independent, raising ValueError if not, and
    bound the rank of its degree-k rows from below; from ``_SPLIT_COLUMNS``
    degree-(k-1) monomials on, also hand ``_outlier_curves`` the degree-n
    rows and their ``linalg.column_pass``, None below.

    In graded-lex order the first space_dim(k-1) and space_dim(k) columns
    of the degree-n rows are the degree-(k-1) and degree-k rows, each row
    times its node's scale, so one pass over the transposed rows serves
    all three: a rank mod P that reaches the node count certifies
    independence, and the rank after space_dim(k) columns is a rank mod P
    of the degree-k rows, at most their rank over Q.  A pass that falls
    short, and a set below ``_SPLIT_COLUMNS``, hand the same rows to an
    ``IndependenceTracker``, which decides exactly.
    """
    m, q = space_dim(k - 1), space_dim(k)
    rows, split = collocation_matrix(xs, n), None
    if m >= _SPLIT_COLUMNS:
        found = linalg.column_pass(zip(*rows), len(xs), m, q)
        if found.rank == len(xs):
            return found.prefix_rank, (rows, found)
        split = rows, found
    tracker = _independent_tracker(xs, n, rows=rows)
    return tracker.prefix_rank_bound(q), split


def _outlier_curves(xs: NodeSet, n: int,
                    split: Optional[tuple[list[list[int]], linalg.ColumnPass]]
                    ) -> tuple[int, dict[int, Poly]]:
    """``_curves_missing_one(xs, n)``, read off a column pass (see
    ``_defect_pass``) over rows whose first space_dim(n) entries are the
    degree-n rows, each times its own scale.

    The pass names the candidates, the nodes whose dependency row is 0 mod
    P.  When its first space_dim(n) columns are independent mod P, the rank
    over Q is space_dim(n) too, and any other node's row lies in the span
    of the others mod P, so the others keep rank space_dim(n) and carry no
    curve.  A candidate i's curve through the other nodes, if there is one,
    passes through the other pivot nodes, whose rows are independent: it
    is mu with B mu = e_i, for B the pivot nodes' rows, unique up to scale
    and not 0 at node i.  It is a hit iff it also vanishes at every free
    node.  Scaled to 1 at its last nonzero coefficient, it is the curve
    ``_curves_missing_one`` gives.  Without a pass, with the pass's first
    columns dependent mod P, or when a lift fails, ``_curves_missing_one``
    answers.
    """
    if split is None or not split[1].pivots:
        return _curves_missing_one(xs, n)
    rows, found = split
    size = space_dim(n)
    free = set(range(len(xs))).difference(found.pivots)
    curves = {}
    for i in found.candidates:
        solved = found.unit_solution(i)
        if solved is None:
            return _curves_missing_one(xs, n)
        nums, _ = solved
        if not any(sum(map(mul, nums, rows[j][:size])) for j in free):
            last = next(v for v in reversed(nums) if v)
            curves[i] = Poly(n, tuple(Fraction(v, last) for v in nums))
    return size, curves


def fundamental_polynomial(a, xs: NodeSet, n: int) -> Optional[Poly]:
    """Canonical p with p(a) = 1 and p = 0 on the rest of xs, or None.

    A row scaled by s, its entry 0, asks for the value s at a, and
    ``linalg.solve`` lifts the system when it is square."""
    idx = xs.index(_coerce(a))  # raises ValueError if a is not a node of xs
    rows = [row + [row[0] if i == idx else 0]
            for i, row in enumerate(collocation_matrix(xs, n))]
    sol = linalg.solve(rows, space_dim(n))
    return None if sol is None else Poly(n, sol)


def fundamental_polynomials(xs: NodeSet, n: int) -> list[Optional[Poly]]:
    """Every node's fundamental polynomial, in order."""
    return [fundamental_polynomial(p, xs, n) for p in xs]


class _Fundamentals:
    """The fundamental polynomials of an n-poised set, from one inverse of
    its collocation matrix V modulo the prime (see the module docstring);
    ValueError when the set is not n-poised.

    ``rows`` are V's rows.  ``tops[i]``, for node i, is the last n + 1
    entries of column i of -V^-1 mod P: the degree-n part of p_i over -s_i,
    for s_i the scale of node i's row.  ``tops`` is None when V is
    singular mod P.
    """

    def __init__(self, xs: NodeSet, n: int):
        size = space_dim(n)
        if len(xs) != size:
            raise ValueError("set is not poised at this degree")
        self.xs, self.n = xs, n
        self.rows = collocation_matrix(xs, n)
        self._neg_inverse = linalg._neg_inverse_columns(list(zip(*self.rows)))
        self._words = linalg._slot_words(2 * size)  # of the inverse's slots
        self._block: Optional[linalg._LiftBlock] = None
        self._known: dict[int, list[int]] = {}
        self.tops: Optional[list[list[int]]] = None
        if self._neg_inverse is None:
            self._solve_all()
            return
        shift = 64 * self._words * (size - n - 1)
        self.tops = [linalg._unpack(column >> shift, n + 1, self._words)
                     for column in self._neg_inverse]
        # row t of the tops, packed over the nodes
        self._top_rows = [linalg._pack(row, linalg._slot_words(n + 1))
                          for row in zip(*self.tops)]

    def _solve_all(self) -> None:
        """Every node's fundamental polynomial, from one exact elimination
        (``_curves_missing_one``) that also decides poisedness."""
        rank, curves = _curves_missing_one(self.xs, self.n)
        if rank < len(self.rows):
            raise ValueError("set is not poised at this degree")
        self._known = {i: curve._integer_coeffs[0]
                       for i, curve in curves.items()}

    def span_candidates(self, indices: Sequence[int]) -> Optional[list[int]]:
        """The nodes whose top may lie in the span of the tops of the nodes
        at ``indices``, those nodes included; every other node's top is
        outside it mod P.  None when V is singular mod P or those tops are
        dependent mod P.

        One probe, a vector orthogonal to those tops
        (``linalg._orthogonal_probe``), is dotted with every node's top at
        once, through the packed rows of the tops: a node is kept iff the
        product is 0 mod P."""
        if self.tops is None:
            return None
        size = self.n + 1
        probe = linalg._orthogonal_probe([self.tops[i] for i in indices],
                                         size)
        if probe is None:
            return None
        products = linalg._unpack(sum(map(mul, probe, self._top_rows)),
                                  len(self.rows), linalg._slot_words(size))
        return [i for i, v in enumerate(products) if not v % linalg.P]

    def numerators(self, i: int) -> list[int]:
        """p_i's coefficients times a positive integer, exactly: lifted over
        the inverse and checked (``linalg._lift``), or, when V is singular
        mod P or the lift fails, read off one exact elimination for every
        node (``_solve_all``).  One ``linalg._LiftBlock`` serves every
        node, and each node's answer is kept."""
        found = self._known.get(i)
        if found is not None:
            return found
        if self._block is None:
            # s_i is at most its row's sum, which the block allows for
            self._block = linalg._lift_block(self.rows, self._neg_inverse,
                                             self._words, 1)
        # the value s_i at node i, the entry 0 of its row
        b = [row[0] if j == i else 0 for j, row in enumerate(self.rows)]
        lifted = linalg._lift(self._block, b)
        if lifted is None:
            self._solve_all()
            return self._known[i]
        self._known[i] = lifted[0]
        return lifted[0]


def integer_spiral() -> Iterator[Node]:
    """All integer points, ordered (0,0), (1,0), (0,1), (-1,0), (0,-1),
    (1,1), ...

    Points are grouped by max(|x|,|y|), then by |x|+|y|, then swept
    counterclockwise from the positive x-axis.
    """
    for x, y in _spiral_pairs():
        yield Node(Fraction(x), Fraction(y))


def _spiral_pairs() -> Iterator[tuple[int, int]]:
    """The integer spiral's points as pairs of ints, built in order: on
    ring r, |x|+|y| = r+t gives (r, t) and (t, r) in the first quadrant,
    and three quarter turns (x, y) -> (-y, x) sweep the others."""
    yield 0, 0
    for radius in itertools.count(1):
        for t in range(radius + 1):
            quarter = [(radius, t)]
            if 0 < t < radius:
                quarter.append((t, radius))
            yield from quarter
            for _ in range(3):
                quarter = [(-y, x) for x, y in quarter]
                yield from quarter


def _independent_tracker(xs: NodeSet, n: int,
                         lead: Optional[tuple[int, int]] = None,
                         rows: Optional[Iterable[list[int]]] = None
                         ) -> IndependenceTracker:
    """A tracker holding the set's degree-n rows, or, with ``lead``, their
    standard-monomial rows; every node must then lie on the curve.
    ``rows`` are those rows, when the caller has built them."""
    if rows is None:
        rows = (_monomial_row(p, n, lead) for p in xs)
    tracker = IndependenceTracker(len(_poly.row_exponents(n, lead)))
    if not all(map(tracker.add, rows)):
        raise ValueError("set is not independent at this degree")
    return tracker


class _RankDecider(NamedTuple):
    """A search's rank test: ``add`` accepts a node iff its degree-n row,
    or with ``lead`` its standard-monomial row, grows the tracker, and
    then keeps it.  With ``lead``, every node must lie on the curve."""

    tracker: IndependenceTracker
    n: int
    lead: Optional[tuple[int, int]] = None

    def add(self, p: Node) -> bool:
        return self.tracker.add(_monomial_row(p, self.n, self.lead))


def _grow(decider, candidates: Iterable[Node], want: int) -> list[Node]:
    """The first ``want`` candidates the decider accepts, each offered to
    its ``add`` as it is read: a ``_RankDecider`` or a
    ``curves.LineDecider``.

    At most SEARCH_BUDGET + want candidates are read, and none after the
    last one needed; a stream that runs out or over budget first raises
    BudgetExceeded.
    """
    found: list[Node] = []
    stream = itertools.islice(candidates, SEARCH_BUDGET + want)
    while len(found) < want:
        cand = next(stream, None)
        if cand is None:
            raise BudgetExceeded("no independent node found within budget")
        if decider.add(cand):
            found.append(cand)
    return found


def next_independent_node(xs: NodeSet, n: int) -> Node:
    """First spiral point where some degree-n polynomial vanishing on xs is
    nonzero, i.e. whose row grows the rank; adding it keeps xs independent.

    Requires an n-independent xs with fewer than space_dim(n) nodes.
    """
    if len(xs) >= space_dim(n):
        raise ValueError("set already has full size")
    decider = _RankDecider(_independent_tracker(xs, n), n)
    return _grow(decider, integer_spiral(), 1)[0]


def extend_to_poised(xs: NodeSet, n: int) -> NodeSet:
    """Deterministically grow an independent set to an n-poised superset,
    adding next_independent_node's picks in one pass over the spiral."""
    if len(xs) > space_dim(n):
        raise ValueError("set larger than the space dimension")
    decider = _RankDecider(_independent_tracker(xs, n), n)
    found = _grow(decider, integer_spiral(), space_dim(n) - len(xs))
    return NodeSet(list(xs) + found)
