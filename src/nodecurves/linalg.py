"""Exact dense linear algebra over the rationals.

Every decision is exact; no floating point is involved.  One exact
elimination kernel, :class:`RankTracker`, does all the exact work, and
``rank``, ``nullspace``, ``solve`` and ``solve_columns`` read its result.  The
canonical forms matter to the rest of the package and are fixed:

* ``nullspace`` returns the RREF-derived basis: one vector per free column,
  with 1 in that free column and 0 in every other free column.
* ``solve`` returns the particular solution with all free variables 0, and
  ``None`` (not an error) when the system is inconsistent.

The kernel takes integer rows and keeps ``D`` times the RREF of the rows
added so far: each kept row has ``D`` in its own pivot column and 0 in
every other one.  ``RankTracker(ncols)`` chooses pivots only in the first
``ncols`` columns; a longer row carries its right-hand sides along in the
columns after them.  Reducing a row ``w`` is ``D*w - sum(w[p_i] * R_i)``,
with no division.  A new pivot clears its column in the kept rows; then all
rows and ``D`` are divided by their common gcd, so ``D`` stays the least
common denominator of the RREF.  Bareiss elimination divides by the
previous pivot instead, which leaves a leading minor in place of ``D``: a
multiple of it, often far larger, and slower on this package's searches.

Scaling a row by a nonzero number changes neither the rank nor the
nullspace, so callers that build rows pass integer multiples straight in:
the collocation rows of ``nodes`` are integer homogeneous rows (see
``poly.homogeneous_row``).  A solve scales its right-hand side by the same
factor as its row (``solve_rows``).  ``Fraction`` rows are scaled to
integers once, where a ``Matrix`` enters the kernel (``integer_row``), and
Fractions appear only in results, when a reader normalizes the kept rows.

Independence decisions, which only ask whether a row grows the rank, run
through :class:`IndependenceTracker`, which works modulo the prime ``P``
first.  Every minor of integer rows, reduced mod ``P``, is the same minor
of the rows reduced mod ``P``, so rows independent mod ``P`` are
independent over Q: rank mod ``P`` never exceeds the rank over Q.  As long
as every accepted row grew the mod-``P`` echelon form, a new row that grows
it also grows the exact rank, and is accepted with no exact work.  A row the prime rejects may still be independent over
Q (``P`` can divide a minor), so it goes to an exact ``RankTracker``, built
on first need from the accepted rows.  Once that tracker accepts a row the
prime rejected, the mod-``P`` form no longer certifies anything, and every
later row is decided exactly.  Two rejections need no elimination at all:
a row equal to an accepted row, and any row once the rank equals the
column count.  ``P`` is the largest prime below 2**30, so a residue fits in
one 30-bit CPython digit and a product of two residues in two digits; a
61-bit prime needs three digits for a residue and five for a product,
which makes the elimination slower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

P = 1073741789  # the largest prime below 2**30


def frac(value) -> Fraction:
    """Coerce an int, string like "3/4", or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not a rational value: {value!r}")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix, entries row-major."""

    nrows: int
    ncols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.nrows * self.ncols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "Matrix":
        rows = [tuple(frac(v) for v in row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        flat = tuple(v for row in rows for v in row)
        return Matrix(len(rows), ncols, flat)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.nrows)]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.at(i, j) for i in range(self.nrows))


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    scale = lcm(*[v.denominator for v in row])
    return [v.numerator * (scale // v.denominator) for v in row], scale


class RankTracker:
    """Incremental exact elimination of a growing set of integer rows, kept
    as ``D`` times its RREF in insertion order (see the module docstring).

    Pivots are chosen in the first ``ncols`` columns; entries past them
    are right-hand sides, carried along.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._den = 1
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, w: Sequence[int]) -> Sequence[int]:
        """``D*w - sum(w[p_i] * R_i)``; it is 0 in every pivot column."""
        den = self._den
        out = [den * v for v in w] if den != 1 else w
        for pivot, base in zip(self._pivots, self._rows):
            f = w[pivot]
            if f:
                out = [o - f * b for o, b in zip(out, base)]
        return out

    def _lead(self, w: Sequence[int]) -> Optional[int]:
        return next((j for j in range(self.ncols) if w[j]), None)

    def _push(self, w: Sequence[int], col: int) -> None:
        """Make col a pivot, given a reduced row w with w[col] != 0."""
        g = gcd(*w)
        w = [v // g for v in w] if w[col] > 0 else [-v // g for v in w]
        lead = w[col]
        rows = self._rows
        for i, row in enumerate(rows):
            f = row[col]
            if f:
                rows[i] = [lead * r - f * v for r, v in zip(row, w)]
            elif lead != 1:
                rows[i] = [lead * r for r in row]
        rows.append([self._den * v for v in w] if self._den != 1 else w)
        self._pivots.append(col)
        den = self._den * lead
        g = den
        for row in rows:
            if g == 1:
                break
            g = gcd(g, *row)
        if g != 1:
            self._rows = [[v // g for v in row] for row in rows]
            den //= g
        self._den = den

    def would_grow(self, row: Sequence[int]) -> bool:
        """True iff adding this row would increase the rank.

        Only the free columns are reduced: a reduced row is 0 in every
        pivot column, and nonzero somewhere iff the row grows the rank."""
        den = self._den
        terms = [(row[p], base) for p, base in zip(self._pivots, self._rows)
                 if row[p]]
        pivots = set(self._pivots)
        return any(den * row[j] != sum(f * base[j] for f, base in terms)
                   for j in range(self.ncols) if j not in pivots)

    def add(self, row: Sequence[int]) -> bool:
        """Add a row; returns True iff the rank grew."""
        w = self._reduce(row)
        col = self._lead(w)
        if col is None:
            return False
        self._push(w, col)
        return True

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Canonical basis of the vectors orthogonal to every row added,
        one per free column (the basis ``nullspace`` describes)."""
        den = self._den
        pivot_set = set(self._pivots)
        basis: list[tuple[Fraction, ...]] = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            vec = [ZERO] * self.ncols
            vec[f] = ONE
            for p, row in zip(self._pivots, self._rows):
                vec[p] = Fraction(-row[f], den)
            basis.append(tuple(vec))
        return basis


class IndependenceTracker:
    """Rank of a growing set of integer rows of length ``ncols``, decided
    modulo ``P`` while that certifies growth and exactly otherwise (see
    the module docstring).

    The mod-``P`` rows are kept in echelon form in insertion order, each
    scaled to -1 at its pivot, so reducing a row only adds multiples of
    them and the residues stay nonnegative until one final ``% P``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._accepted: dict[tuple[int, ...], None] = {}  # insertion order
        self._mod_rows: list[list[int]] = []
        self._mod_pivots: list[int] = []
        self._exact: Optional[RankTracker] = None
        self._certified = True

    @property
    def rank(self) -> int:
        return len(self._accepted)

    def _grows_mod_p(self, row: Sequence[int]) -> bool:
        """Reduce the row mod P; if it is not 0, keep it and return True."""
        w = [v % P for v in row]
        for pivot, base in zip(self._mod_pivots, self._mod_rows):
            f = w[pivot] % P
            if f:
                w = [a + f * b for a, b in zip(w, base)]
        w = [v % P for v in w]
        col = next((j for j, v in enumerate(w) if v), None)
        if col is None:
            return False
        scale = P - pow(w[col], -1, P)
        self._mod_rows.append([v * scale % P for v in w])
        self._mod_pivots.append(col)
        return True

    def _grows_exact(self, row: Sequence[int]) -> bool:
        if self._exact is None:
            self._exact = RankTracker(self.ncols)
        exact = self._exact
        # accepted rows are independent, so the exact tracker holds the
        # first exact.rank of them
        for accepted in itertools.islice(self._accepted, exact.rank, None):
            exact.add(accepted)
        return exact.add(row)

    def add(self, row: Sequence[int]) -> bool:
        """Add a row; returns True iff the rank grew."""
        row = tuple(row)
        if len(self._accepted) == self.ncols or row in self._accepted:
            return False
        if not (self._certified and self._grows_mod_p(row)):
            if not self._grows_exact(row):
                return False
            self._certified = False
        self._accepted[row] = None
        return True


def _tracker(m: Matrix) -> RankTracker:
    tracker = RankTracker(m.ncols)
    for i in range(m.nrows):
        tracker.add(integer_row(m.row(i))[0])
    return tracker


def rank(m: Matrix) -> int:
    """Number of linearly independent rows."""
    return _tracker(m).rank


def nullspace(m: Matrix) -> Matrix:
    """Canonical nullspace basis, one column per free variable.

    Basis vector for free column f has entry 1 at f, 0 at the other free
    columns, and -R[r][f] at each pivot column; free columns are taken in
    increasing index order.  An injective matrix yields a (ncols x 0) result.
    """
    basis = _tracker(m).nullspace()
    flat = tuple(v[i] for i in range(m.ncols) for v in basis)
    return Matrix(m.ncols, len(basis), flat)


def solve(m: Matrix, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Particular solution of m x = b with free variables 0; None if none."""
    return solve_columns(m, [b])[0]


def solve_columns(m: Matrix, columns: Sequence[Sequence]) -> list[Optional[tuple[Fraction, ...]]]:
    """Solve m x = b for several right-hand sides with one elimination.

    Each element of ``columns`` is one right-hand side of length ``m.nrows``.
    Returns, per column, the canonical free-variables-zero solution or None
    when that column is inconsistent.
    """
    rhs = [[frac(v) for v in col] for col in columns]
    if any(len(col) != m.nrows for col in rhs):
        raise ValueError("right-hand side length does not match row count")
    # each right-hand side gets its own integer scale: one scale per row
    # would be the lcm of unrelated denominators across all the columns
    scaled = [integer_row(col) for col in rhs]
    rows = (integer_row(m.row(i) + tuple(b[i] for b, _ in scaled))[0]
            for i in range(m.nrows))
    sols = solve_rows(rows, m.ncols, len(rhs))
    return [None if x is None else tuple(v / t for v in x)
            for x, (_, t) in zip(sols, scaled)]


def solve_rows(rows: Iterable[Sequence[int]], ncols: int,
               nrhs: int) -> list[Optional[tuple[Fraction, ...]]]:
    """Solve A x = b for nrhs right-hand sides with one elimination.

    Each row is an integer row of A followed by that row's entry of every
    right-hand side.  Returns, per right-hand side, the canonical
    free-variables-zero solution, or None when that right-hand side is
    inconsistent.
    """
    tracker = RankTracker(ncols)
    consistent = [True] * nrhs
    for row in rows:
        w = tracker._reduce(row)
        col = tracker._lead(w)
        if col is not None:
            tracker._push(w, col)
            continue
        for c in range(nrhs):
            if w[ncols + c]:
                consistent[c] = False
    out: list[Optional[tuple[Fraction, ...]]] = []
    for c in range(nrhs):
        if not consistent[c]:
            out.append(None)
            continue
        x = [ZERO] * ncols
        for p, row in zip(tracker._pivots, tracker._rows):
            x[p] = Fraction(row[ncols + c], tracker._den)
        out.append(tuple(x))
    return out
