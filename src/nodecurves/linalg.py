"""Exact dense linear algebra over the rationals, on integer rows.

Every decision is exact; no floating point is involved.  Every function
takes integer rows, a solve's rows each followed by its entry of b.
One exact elimination kernel, :class:`RankTracker`, does all the exact
elimination; ``rank`` runs through :class:`IndependenceTracker`.  The
canonical forms matter to the rest of the package and are fixed:

* ``nullspace`` returns the RREF-derived basis: one vector per free column,
  with 1 in that free column and 0 in every other free column.
* ``solve`` returns the particular solution with all free variables 0, and
  ``None`` (not an error) when the system is inconsistent.

The kernel takes integer rows and keeps the RREF of the rows added so far,
each row over its own denominator: kept row i is ``R_i / d_i``, where the
integer row ``R_i`` has ``d_i`` in its own pivot column, 0 in every other
pivot column, and content (the gcd of its entries) 1, so ``R_i / d_i`` is
in lowest terms.  The sign of ``d_i`` is free: every reader divides by it
exactly.  ``RankTracker(ncols)`` chooses pivots only in the first
``ncols`` columns; a longer row carries its right-hand sides along in the
columns after them.  Only ``nodes._curves_missing_one`` carries any: an
identity block, read by ``RankTracker.unit_rows`` (below).  Reducing a row
``w`` is ``L*w - sum(w[p_i] * (L/d_i) * R_i)`` over the kept rows it
meets, those with ``w[p_i] != 0``, where ``L`` is the lcm of their
``d_i``; there is no division.  A reduced row w that is not 0 is divided
by its content and becomes a new pivot at its first nonzero column c,
with ``lead = w[c]``.  It rewrites only the kept rows with
``f = R_i[c] != 0``, each as ``a*R_i - b*w`` with ``g = gcd(f, lead)``,
``a = lead/g`` and ``b = f/g``, divided by its content.  That content
divides the old ``d_i``: the new pivot entry is ``a*d_i``, and a prime
dividing both the content and ``a`` would divide ``b*w``, while
``gcd(a, b) = 1`` and ``w`` has content 1.  So the content's gcd starts
from ``d_i``: it never grows past ``d_i``, and once it reaches 1 the rest
of the row costs nothing.  ``RankTracker.coordinates`` hands the RREF
out: each column's entries in the canonical nullspace basis, over 1 for
a free column and over ``d_i`` for kept row i's pivot, so every pair is
in lowest terms.  ``nullspace`` reads it.
``solve_columns`` eliminates [A | b] as ``ncols + 1`` ordinary
columns and reads b's column alone, by ``RankTracker.free_column``: the
system is inconsistent iff that column is a pivot, and otherwise it is
the last free one, whose basis vector is (-x, 1) for the canonical
solution x, free variables 0, so x is ``R_i[ncols] / d_i`` at kept row
i's pivot.  Building every free column's vector instead would cost
O(ncols * nfree) steps for one column's worth of answer.  A kept row is
0 before its pivot: a new pivot is the first
nonzero column of a reduced row, and it rewrites only kept rows that are
nonzero in its column, whose pivots therefore lie before it.  So, sorted
by pivot, the kept rows are the usual RREF.  ``RankTracker.unit_rows``
reads the right-hand sides of the kept rows that are 0 at every free
column, ``d_i`` times a unit vector: when each added row carries its
own unit vector as right-hand sides, those are the combination of the
added rows that gives ``d_i`` times the unit vector, ``d_i`` times a
column of the inverse of the pivot block.  ``would_grow`` reduces a row
as ``add`` does, and keeps nothing.

Two other forms are not kept.  With one common denominator for all rows,
every new pivot rescales every kept row by its ``lead``, also the rows
that are 0 in its column, and then takes a gcd over all rows to bring the
denominator back down.  On Berzolari-Radon sets, whose rows meet few
pivots, that made ``line_usage_reports`` at n=16 about three times slower.
Bareiss elimination divides by the previous pivot instead, which leaves a
leading minor as the denominator: a multiple of the lcm of the ``d_i``,
often far larger, and slower on this package's searches.  On dense rows,
which meet every pivot, the per-row form pays one content gcd and, often,
one exact division per kept row and pivot; there it measured within 10%
of the common form either way (random sets at n=10 and n=12, Python 3.11,
2 vCPU).

Scaling a row by a nonzero number changes neither the rank nor the
nullspace, so callers that build rows pass integer multiples straight in:
the collocation rows of ``nodes`` are integer homogeneous rows (see
``poly.homogeneous_row``).  A solve scales its right-hand side by the same
factor as its row.  Fractions appear only in results, each built from a
numerator and its row's ``d_i``.

Independence decisions, which only ask whether a row grows the rank, run
through :class:`IndependenceTracker`, which works modulo the prime ``P``
first.  Every minor of integer rows, reduced mod ``P``, is the same minor
of the rows reduced mod ``P``, so rows independent mod ``P`` are
independent over Q: rank mod ``P`` never exceeds the rank over Q.  As long
as every accepted row grew the mod-``P`` echelon form, a new row that grows
it also grows the exact rank, and is accepted with no exact work.  A row
the prime rejects may still be independent over Q (``P`` can divide a
minor), so it goes to an exact ``RankTracker``, built
on first need from the accepted rows.  Once that tracker accepts a row the
prime rejected, the mod-``P`` form no longer certifies anything, and every
later row is decided exactly.  Two rejections need no elimination at all:
a row equal to an accepted row, and any row once the rank equals the
column count.  ``P`` is the largest prime below 2**26, small enough that a
packed slot (below) is one 64-bit word for every row of fewer than 4096
columns.  A smaller prime divides a given minor more often: about 1/P of
the time, 1.5e-8 here against 9.3e-10 for the largest prime below 2**30.
That only sends a row to the exact fallback, and never changes an answer.

Rows modulo ``P`` are packed: one int per row, one slot per column, the
first column lowest, each slot a whole number of 64-bit words so that
``array`` and ``to_bytes``/``from_bytes`` unpack a row at once rather than
with a shift per slot.  Adding a multiple of a kept row is then one
big-int multiply-add.  Slots are reduced lazily.  A kept row's slots are
residues, below ``P``; reducing a row adds one product below ``P**2`` per
slot for each kept row it meets, at most ``ncols`` of them, so a slot
stays below 2**(2 * P.bit_length() + ncols.bit_length()) and never carries
into the next one.  That is one word for every ``ncols`` below 4096: every
tracker up to degree 89 (``space_dim(89) = 4095``), and every [A^T | I]
of the inverse below up to degree 62 (2 * 2016 columns).  Wider rows take
two words per slot through the same code.  Adding a row is one pass:
its residues are packed once; for each kept row in turn, the slot at that
row's pivot, found by a shift stored with the row, is read, times the
row's scale (-1/lead mod ``P``, also stored), reduced, and that multiple
of the row is added; the sum is unpacked and reduced mod ``P`` once, and
its residues are packed as a new kept row if they are not all 0.
``IndependenceTracker`` keeps its echelon form in these rows, and so does
the modular inverse below.

``solve`` solves A x = b with one right-hand side, and selects the method
by whether A is square: a square A by Dixon's P-adic lifting (J. D. Dixon,
Numer. Math. 40, 1982), any other by ``solve_columns``.  A square A is
inverted once modulo ``P``, by elimination on the packed rows of
[A^T | I].  Then x = sum(x_k * P**k) with x_k = A^-1 r_k mod ``P`` and
r_(k+1) = (r_k - A x_k) / ``P``, from r_0 = b: each step is N packed
multiply-adds over the columns of A^-1 and N over the columns of A, whose
signed slots hold the residual, which never exceeds the larger of max|b|
and the largest row sum of |A|.  Rational reconstruction (Wang, Guy and
Davenport, 1982) rebuilds x over one common denominator.  To know when
to try, a probe, a fixed combination of the entries, is rebuilt alone
each time the step count has grown by an eighth: a reconstruction costs
about the square of the step count, so all the tries together cost
about five at the last step, and the lifting overshoots by at most an
eighth.  The whole solution is rebuilt only when the probe's candidate
(numerator, denominator) agrees with one more digit, and is returned
only once ``A·num == b·den`` holds exactly.  That check takes one dot
product per row: packed columns would need slots as wide as the
products, and measured 4 to 12 times slower at N = 45 to 120 (Python
3.11, 2 vCPU).  Lifting stops at the step cap, the least k with
``P**k > 2*H**2``, where H is the Hadamard bound of [A | b]: by Cramer's
rule it bounds every numerator and the denominator, so by then each entry
rebuilds uniquely on its own.  When A is singular mod ``P``, or no
candidate passes the check by the cap, the exact ``solve_columns``
answers, so ``solve`` always returns what ``solve_columns`` would.
``_inverse`` makes the inverse of every lift but ``column_pass``'s: it
reads -A^-1 off ``_ModEchelon.cleared``, the back-substitution that also
gives ``column_pass`` its RREF mod ``P``, and hands it to
``_lift_block``, which makes whatever depends on A alone once per A,
shared by every right-hand side lifted over the same inverse: A's packed
columns, with slots wide enough for all of them, and the product of A's
squared column norms, which each b multiplies by its own to give H**2.
``solve``, ``nullspace`` and line usage (``nodes._Fundamentals``, which
lifts node fundamentals over one inverse of the collocation matrix) call
it.  ``_orthogonal_probe`` gives line usage one vector mod ``P``
orthogonal to a few rows: every row in their span mod ``P`` has product
0 with it, so a nonzero product puts a row outside the span; a row
outside it may still give 0, which costs only an exact check.

``nullspace`` lifts too, on the shapes where that is cheaper than the
elimination.  One ``_ModEchelon`` pass over the rows finds the pivot
columns S mod ``P`` and the rows B that grew the echelon form, so B_S,
B's entries at S, is invertible mod ``P``, and is inverted once
(``_inverse``).  For each free column f mod ``P``, ``_lift`` solves
B_S x = -B_f over that one inverse, and v is x at S, 1 at f and 0 at the
other free columns.  v is kept only when it is 0 at every pivot after f
and ``A·v = 0`` holds exactly for every row,
the rows the prime rejected included (``_lift`` has checked B's).  That
is a certificate.  v's last nonzero entry is at f, so column f is a
combination of the columns before it over Q: f is a free column of the
exact RREF.  There are no more free columns over Q than mod ``P``,
because the rank mod ``P`` never exceeds the rank over Q, so once every
free column mod ``P`` is certified the two sets are equal.  v is then in
the kernel with 1 at f and 0 at every other free column: it is the
canonical vector, the same bytes as the elimination's.  Any failure,
including a lift that verifies no candidate, sends the whole input to
``RankTracker``.

Whether ``nullspace`` lifts is decided from the shape first, before any
mod-``P`` work (``_lifts``): from ``_LIFT_COLUMNS`` = 21 columns on, and
with rows enough for at most one free column per ``_LIFT_ROWS_PER_FREE``
= 16 pivots, at least ``_lift_rank(ncols)`` = ceil(16 * ncols / 17).
Each free column is one lift, so the lifted cost grows with the nullity
and the elimination's does not; a bound on the column count alone admits
losing shapes.  With more rows than columns the shape says nothing of
the nullity, so the mod-``P`` pass of ``_lifted_nullspace`` stops, and
``RankTracker`` answers, as soon as the prime has rejected so many rows
that its rank can no longer reach ``_lift_rank``; a rank that fills
every column returns no vector, with no inverse.  Lifted time over
eliminated time, on random poised sets (large entries, dense
elimination) and on Berzolari-Radon sets, BR (small entries, sparse
rows), each with its first nodes removed (Python 3.11, 2 vCPU, process
time, best of 5, one session):

* admitted: one free column at 21, 28, 36, 45, 66 and 91 columns, 0.63,
  0.45, 0.32, 0.21, 0.13 and 0.07 (random) and 0.94, 0.72, 0.68, 0.54,
  0.36 and 0.29 (BR); 2 free at 36 and 45 columns, 0.49 and 0.35
  (random), 1.00 and 0.82 (BR); 3 free at 66, 0.29 and 0.77; 4 to 7
  free at 91 and 120, 0.10 to 0.20 (random) and 0.56 to 1.23 (BR);
* refused by the nullity bound: 2 to 8 free at 21 to 45 columns, 0.47 to
  2.31 (random) and 1.06 to 2.74 (BR); 4 to 12 free at 66 to 120
  columns, 0.26 to 0.64 (random) and 0.92 to 1.98 (BR).  Random sets
  would still gain there and BR sets would lose; the shape cannot tell
  them apart;
* refused below 21 columns: 1 to 3 free at 10 and 15 columns, 0.98 to
  2.70 (random) and 1.33 to 2.44 (BR).

More nodes than monomials, measured the same way: nodes on 1 to n lines
(small and random entries) or on 1 to n/2 circles, at 21 to 91 columns,
``nullspace`` over the elimination alone (best of 3 to 7):

* lifted, 1 or 3 free columns at 20 to 90 pivots each: 0.17 to 0.76;
* stopped in the mod-``P`` pass, 3 to 78 free columns at 0.2 to 14.2
  pivots each: 1.13 to 1.27 at 21 columns, 1.05 to 1.19 at 28 and 0.95
  to 1.15 at 45 to 91, the pass paid for nothing.  Lifting them would
  take 0.57 to 3.8, a gain only from about 6 pivots per free column;
* generic sets of 3 to 6 more nodes than monomials, full column rank mod
  ``P``: 0.10 at 21 columns, 0.05 at 28, 0.02 at 45 and 0.01 at 66.

``column_pass`` serves the defect split (``nodes._defect_pass``) at
every size.  It eliminates mod ``P`` the columns of a matrix, each
column a packed row of one slot per matrix row, the first m of them
followed by an m-slot identity block, and stops once the rank reaches
the number of rows.  A rank mod ``P`` never exceeds the rank over Q, so
a rank that reaches the row count certifies that the rows are
independent, and the rank after the first q columns bounds the rank of
those columns from below, also when the pass falls short of the row
count.  When the first m columns are independent mod ``P``, their
pivots S pick B, the rows at S cut to those columns, invertible mod
``P``.  With C the first m columns, one per row (C_S = B^T), the kept
rows are E·[C | I] for some E; cleared, each is -1 at its own pivot and
0 at the others, so E·C_S = -I and E = -(B^-1)^T: the identity block of
the cleared row with pivot s is column s of -B^-1, packed, ready for
``_lift``.  The pass keeps the block rather than inverting B afterwards
with ``_inverse``, which measured 8-15% slower on ``verify defect`` at
(6, 4) and (8, 5) (Python 3.11, 2 vCPU).  Cut to the first m columns,
the row at a pivot s is outside the span of the other rows mod ``P`` iff
the cleared row with pivot s is 0 at every free slot, a unit vector; a
row at a free slot never is.  Two traps.  A first-m column whose slots
reduce to 0 takes its pivot in the identity block; that is a rejection,
and it must not be kept.  After column m the block is dead weight.  So
after column m the kept rows with a pivot among the slots are cut to the
slots (``_ModEchelon.cut``), and the pass goes on without the block.
The certificate is unchanged from any other mod-``P`` elimination: a
rank mod ``P`` is a lower bound over Q, and ``_lift`` checks every
solution exactly.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

ZERO = Fraction(0)

P = 67108859  # the largest prime below 2**26

# ``nullspace`` lifts from this many columns on, with at most one free
# column per this many rows (see the module docstring)
_LIFT_COLUMNS = 21
_LIFT_ROWS_PER_FREE = 16

_WORD = 2**64 - 1
_BIG_ENDIAN = sys.byteorder == "big"


class RankTracker:
    """Incremental exact elimination of a growing set of integer rows, kept
    as their RREF in insertion order, each row over its own denominator.

    Kept row i is ``R_i / d_i``: ``R_i`` has ``d_i`` at its pivot, 0 at
    every other pivot, and content 1.  A new pivot rewrites only the kept
    rows that are not 0 in its column, and no gcd is taken over all rows;
    the module docstring says why the content of a rewritten row divides
    its old ``d_i``, and why neither one common denominator nor Bareiss
    elimination is used.  Pivots are chosen in the first ``ncols``
    columns; entries past them are right-hand sides, carried along.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, w: Sequence[int]) -> Sequence[int]:
        """``L*w - sum(w[p_i] * (L/d_i) * R_i)`` over the kept rows w meets,
        those with ``w[p_i] != 0``, where ``L`` is the lcm of their
        ``d_i``; it is 0 in every pivot column."""
        met = [(w[p], row[p], row) for p, row in zip(self._pivots, self._rows)
               if w[p]]
        den = lcm(*[d for _, d, _ in met])
        out = [den * v for v in w] if den != 1 else w
        for f, d, base in met:
            f *= den // d
            out = [o - f * b for o, b in zip(out, base)]
        return out

    def _push(self, w: Sequence[int], col: int) -> None:
        """Make col a pivot, given a reduced row w with w[col] != 0.

        Only the kept rows with a nonzero entry at col are rewritten, each
        as ``a*R_i - b*w`` over its content; the content divides the old
        ``d_i``, so its gcd starts there."""
        g = gcd(*w)
        w = [v // g for v in w]
        lead = w[col]
        rows = self._rows
        for i, (p, row) in enumerate(zip(self._pivots, rows)):
            f = row[col]
            if f:
                g = gcd(f, lead)
                a, b = lead // g, f // g
                new = [a * r - b * v for r, v in zip(row, w)]
                g = gcd(row[p], *new)
                rows[i] = [v // g for v in new] if g != 1 else new
        rows.append(w)
        self._pivots.append(col)

    def would_grow(self, row: Sequence[int]) -> bool:
        """True iff adding this row would increase the rank: iff the row,
        reduced, is not 0 in the first ``ncols`` columns."""
        return any(self._reduce(row)[:self.ncols])

    def add(self, row: Sequence[int]) -> bool:
        """Add a row; returns True iff the rank grew."""
        w = self._reduce(row)
        col = next((j for j in range(self.ncols) if w[j]), None)
        if col is None:
            return False
        self._push(w, col)
        return True

    def coordinates(self) -> list[tuple[list[int], int]]:
        """Each column's entries in the canonical basis of the vectors
        orthogonal to every row added, one per free column in increasing
        order, as integer numerators over one denominator: a free column
        gets its own unit vector over 1, and kept row i's pivot column gets
        ``-R_i[f]`` for every free f over ``d_i``.  Each pair is in lowest
        terms when the rows carry no right-hand sides."""
        owner = dict(zip(self._pivots, self._rows))
        free = [j for j in range(self.ncols) if j not in owner]
        out, k = [], 0
        for j in range(self.ncols):
            row = owner.get(j)
            if row is None:
                unit = [0] * len(free)
                unit[k] = 1
                k += 1
                out.append((unit, 1))
            else:
                out.append(([-row[f] for f in free], row[j]))
        return out

    def free_column(self, j: int) -> Optional[list[tuple[int, int, int]]]:
        """None when column j is a pivot; otherwise (p_i, R_i[j], d_i) for
        each kept row i, by pivot p_i: the entries at the pivots of free
        column j's canonical basis vector are ``-R_i[j] / d_i``."""
        if j in self._pivots:
            return None
        return [(p, row[j], row[p]) for p, row in zip(self._pivots, self._rows)]

    def unit_rows(self) -> dict[int, list[int]]:
        """The kept rows that are 0 at every free column, so ``d_i`` times
        a unit vector in the first ``ncols`` columns, by pivot column: each
        one's right-hand sides, the combination of the added rows'
        right-hand sides that gives ``d_i`` times that unit vector."""
        ncols = self.ncols
        return {p: row[ncols:]
                for p, row in zip(self._pivots, self._rows)
                if row[:ncols].count(0) == ncols - 1}


def _slot_words(nslots: int) -> int:
    """64-bit words per slot of a packed mod-``P`` row with nslots slots:
    a slot starts below ``P`` and gains at most nslots products below
    ``P**2``, so it stays below
    2**(2 * P.bit_length() + nslots.bit_length())."""
    return (2 * P.bit_length() + nslots.bit_length() + 63) // 64


def _from_words(words: array) -> int:
    """The int whose little-endian 64-bit words these are."""
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def _pack(values: Sequence[int], words: int) -> int:
    """One int holding each value, nonnegative and below 2**(64*words), in
    its own slot of that many 64-bit words, the first value lowest."""
    if words == 1:
        return _from_words(array("Q", values))
    slots = array("Q", bytes(8 * words * len(values)))
    for j in range(words):
        slots[j::words] = array("Q", [v >> 64 * j & _WORD for v in values])
    return _from_words(slots)


def _unpack(packed: int, count: int, words: int) -> list[int]:
    """The count slots of a packed nonnegative int, lowest first."""
    slots = array("Q", packed.to_bytes(8 * words * count, "little"))
    if _BIG_ENDIAN:
        slots.byteswap()
    values = slots[words - 1::words].tolist()
    for j in reversed(range(words - 1)):
        values = [v << 64 | low for v, low in zip(values, slots[j::words])]
    return values


class _ModEchelon:
    """Rows modulo ``P`` in echelon form, in insertion order, packed with
    one slot per column (see the module docstring).

    A kept row holds the residues of a reduced row: 0 before its pivot and
    at every earlier pivot.  It is kept with the bit offset of its pivot's
    slot and with its scale, -1/lead mod ``P``: scaled, it is -1 at its
    pivot, so reducing a row only adds multiples of kept rows, and the sums
    are reduced once, when the row is unpacked.
    """

    def __init__(self, nslots: int, words: int = 0):
        self.nslots = nslots
        self.words = words or _slot_words(nslots)
        self._mask = (1 << 64 * self.words) - 1
        self.pivots: list[int] = []
        # (bit offset of the pivot's slot, scale, row), one per kept row
        self.kept: list[tuple[int, int, int]] = []

    def add(self, values: Sequence[int]) -> Optional[int]:
        """Reduce the values mod ``P`` by the kept rows in one pass, and
        keep what is left if it is not 0: return its pivot, or None."""
        mask = self._mask
        packed = _pack([v % P for v in values], self.words)
        for shift, scale, base in self.kept:
            f = (packed >> shift & mask) * scale % P
            if f:
                packed += f * base
        residues = [v % P for v in _unpack(packed, self.nslots, self.words)]
        lead = next(filter(None, residues), 0)
        if not lead:
            return None
        col = residues.index(lead)  # every entry before it is 0
        self.pivots.append(col)
        self.kept.append((64 * self.words * col, P - pow(lead, -1, P),
                          _pack(residues, self.words)))
        return col

    def cleared(self, start: int = 0) -> list[int]:
        """The kept rows, in insertion order, each with every later pivot
        cleared and then times its scale: -1 at its own pivot and 0 at
        every other, the RREF mod ``P`` negated.  Only the slots from
        ``start`` on are kept, packed.

        A kept row is already 0 at every earlier pivot.  Rows are cleared
        from the last: a later row, once cleared, is 0 at every pivot but
        its own, so adding it clears that pivot and leaves the others."""
        words, nslots, pivots = self.words, self.nslots, self.pivots
        shift = 64 * words * start
        out = [0] * len(self.kept)
        for k in reversed(range(len(out))):
            _, scale, row = self.kept[k]
            entries = _unpack(row, nslots, words)
            acc = row >> shift
            for m in range(k + 1, len(out)):
                f = entries[pivots[m]]
                if f:
                    acc += f * out[m]
            out[k] = _pack(
                [v * scale % P for v in _unpack(acc, nslots - start, words)],
                words)
        return out

    def cut(self, nslots: int) -> "_ModEchelon":
        """The kept rows whose pivot lies in the first nslots slots, cut to
        those slots: an echelon form of the cut rows, with slots as wide."""
        out = _ModEchelon(nslots, self.words)
        mask = (1 << 64 * self.words * nslots) - 1
        for pivot, (shift, scale, row) in zip(self.pivots, self.kept):
            if pivot < nslots:
                out.pivots.append(pivot)
                out.kept.append((shift, scale, row & mask))
        return out


class IndependenceTracker:
    """Rank of a growing set of integer rows of length ``ncols``, decided
    modulo ``P`` while that certifies growth and exactly otherwise (see
    the module docstring).
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._accepted: dict[tuple[int, ...], None] = {}  # insertion order
        self._mod = _ModEchelon(ncols)
        self._exact: Optional[RankTracker] = None
        self._certified = True

    @property
    def rank(self) -> int:
        return len(self._accepted)

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
        if not (self._certified and self._mod.add(row) is not None):
            if not self._grows_exact(row):
                return False
            self._certified = False
        self._accepted[row] = None
        return True


def rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Number of linearly independent rows, decided by an
    ``IndependenceTracker``."""
    tracker = IndependenceTracker(ncols)
    for row in rows:
        tracker.add(row)
    return tracker.rank


def nullspace(rows: Iterable[Sequence[int]],
              ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the vectors orthogonal to every row: the vector
    for free column f has 1 at f, 0 at the other free columns and
    -R_i[f]/d_i at each kept row's pivot; free columns in increasing order.

    Shapes the rule ``_lifts`` admits are first tried by lifting each
    free column over one mod-``P`` inverse, and kept only when certified
    (see the module docstring); every other input, one whose rank mod
    ``P`` falls below ``_lift_rank``, and any lift that fails its
    certificate take the exact ``RankTracker``.
    """
    rows = list(rows)
    if _lifts(len(rows), ncols):
        basis = _lifted_nullspace(rows, ncols)
        if basis is not None:
            return basis
    tracker = RankTracker(ncols)
    for row in rows:
        tracker.add(row)
    coords = tracker.coordinates()
    dens = [den for _, den in coords]
    return [tuple(Fraction(v, den) if v else ZERO for v, den in zip(vec, dens))
            for vec in zip(*[nums for nums, _ in coords])]


def _lift_rank(ncols: int) -> int:
    """The least rank r at which ``nullspace`` lifts: the ncols - r free
    columns are at most one per ``_LIFT_ROWS_PER_FREE`` pivots from this r
    on (see the module docstring)."""
    return -(-_LIFT_ROWS_PER_FREE * ncols // (_LIFT_ROWS_PER_FREE + 1))


def _lifts(nrows: int, ncols: int) -> bool:
    """Whether ``nullspace`` tries the lift, read off the shape: from
    ``_LIFT_COLUMNS`` columns on, with rows enough to reach
    ``_lift_rank``.  Whether the rank does reach it is known only after
    the mod-``P`` pass of ``_lifted_nullspace``."""
    return ncols >= _LIFT_COLUMNS and nrows >= _lift_rank(ncols)


def _lifted_nullspace(rows: list[list[int]],
                      ncols: int) -> Optional[list[tuple[Fraction, ...]]]:
    """``nullspace``'s basis, certified: None when the rank mod ``P``
    falls below ``_lift_rank`` or the certificate fails.

    One ``_ModEchelon`` pass picks the pivot columns S and the rows B that
    grew it, so B_S is invertible mod ``P``; it stops once the prime has
    rejected more rows than the rank can spare.  Free column f's vector is
    x = -B_S^-1 B_f at S, lifted with ``_lift``, 1 at f and 0 at the other
    free columns.  It is kept when it is 0 at every pivot after f and
    orthogonal to the rows the prime rejected; ``_lift`` has already
    checked B exactly."""
    echelon = _ModEchelon(ncols)
    block, rejected = [], []
    spare = len(rows) - _lift_rank(ncols)
    for row in rows:
        if echelon.add(row) is not None:
            block.append(row)
            if len(block) == ncols:
                return []  # full column rank mod P, so over Q too
        elif len(rejected) >= spare:
            return None
        else:
            rejected.append(row)
    pivots = sorted(echelon.pivots)
    free = sorted(set(range(ncols)).difference(pivots))
    lifter = _inverse([[row[p] for p in pivots] for row in block],
                      max(abs(row[f]) for row in block for f in free))
    if lifter is None:
        return None
    basis = []
    for f in free:
        found = _lift(lifter, [-row[f] for row in block])
        if found is None:
            return None
        nums, den = found
        if any(v for p, v in zip(pivots, nums) if p > f) or any(
                sum(row[p] * v for p, v in zip(pivots, nums)) + row[f] * den
                for row in rejected):
            return None
        vec = [ZERO] * ncols
        vec[f] = Fraction(1)
        for p, v in zip(pivots, nums):
            if v:
                vec[p] = Fraction(v, den)
        basis.append(tuple(vec))
    return basis


class ColumnPass(NamedTuple):
    """What ``column_pass`` reads off its one elimination mod ``P``."""

    rank: int  # mod P, counted until it reaches nslots
    prefix_rank: int  # mod P, of the first q columns
    # the pivot slots of the first m columns, in increasing order, and those
    # whose cleared row is a unit vector; both empty when those columns
    # are dependent mod P
    pivots: list[int]
    candidates: list[int]
    # B, the first m columns' entries at the pivot slots, one row per pivot,
    # with -B^-1 mod P; None when there is no candidate
    block: Optional["_LiftBlock"]

    def unit_solution(self, slot: int) -> Optional[tuple[list[int], int]]:
        """x with B x = e at the candidate ``slot``'s row and 0 at the
        others, lifted over -B^-1 and checked exactly, as numerators over
        one positive denominator; None when the lift fails."""
        return _lift(self.block, [int(p == slot) for p in self.pivots])


def column_pass(columns: Iterable[Sequence[int]], nslots: int, m: int,
                q: int) -> ColumnPass:
    """One elimination mod ``P`` of the columns of rows, each column given
    as a row of nslots slots, one per row, in order; 0 < m <= q.

    The first m columns carry an m-slot identity block.  When they are
    independent mod ``P``, the block of each cleared row (RREF mod ``P``,
    negated) is a column of -B^-1, and the candidates are the pivots whose
    cleared row is 0 at every free slot (see the module docstring).  A
    column that reduces to 0 in its slots takes its pivot in the block:
    that is a rejection, and the kept rows are cut to their slots without
    it.  After column m the pass goes on without the block until the rank
    reaches nslots.
    """
    columns = iter(columns)
    first = list(itertools.islice(columns, m))
    with_block = _ModEchelon(nslots + m)
    for j, column in enumerate(first):
        unit = [0] * m
        unit[j] = 1
        with_block.add([*column, *unit])
    # a column 0 mod P past the ones before it has its pivot in the block
    echelon = with_block.cut(nslots)
    pivots, candidates, block = [], [], None
    if len(echelon.pivots) == m:
        pivots = sorted(echelon.pivots)
        words = with_block.words
        node_bits = 64 * words * nslots
        cleared = dict(zip(with_block.pivots, with_block.cleared()))
        candidates = [p for p in pivots
                      if cleared[p] & (1 << node_bits) - 1
                      == (P - 1) << 64 * words * p]
        if candidates:
            square = [[column[p] for column in first] for p in pivots]
            block = _lift_block(square, [cleared[p] >> node_bits
                                         for p in pivots], words, 1)
    prefix = None
    for j, column in enumerate(columns, m):
        if j == q:
            prefix = len(echelon.pivots)
        if len(echelon.pivots) == nslots:
            break
        echelon.add(column)
    rank = len(echelon.pivots)
    return ColumnPass(rank, rank if prefix is None else prefix, pivots,
                      candidates, block)


def solve_columns(rows: Iterable[Sequence[int]],
                  ncols: int) -> Optional[tuple[Fraction, ...]]:
    """Solve A x = b by one exact elimination of [A | b].

    Each row is an integer row of A followed by that row's entry of b.
    Returns the canonical free-variables-zero solution, or None when the
    system is inconsistent: when b's column is a pivot of [A | b].
    """
    tracker = RankTracker(ncols + 1)
    for row in rows:
        tracker.add(row)
    entries = tracker.free_column(ncols)
    if entries is None:
        return None
    # b's column is free, with basis vector (-x, 1): x is R_i[ncols] / d_i
    # at kept row i's pivot, and 0 at every free column
    x = [ZERO] * ncols
    for p, num, den in entries:
        if num:
            x[p] = Fraction(num, den)
    return tuple(x)


def solve(rows: Iterable[Sequence[int]],
          ncols: int) -> Optional[tuple[Fraction, ...]]:
    """Solve A x = b; the answer is ``solve_columns(rows, ncols)``.

    Each row is an integer row of A followed by that row's entry of b.  A
    square A is inverted once mod ``P`` (``_inverse``) and the solution
    lifted P-adically over that inverse; rebuilt over one common
    denominator, it is returned only once ``A·num == b·den`` holds
    exactly.  Any other shape, an A singular mod ``P``, or no candidate
    verified within the step cap takes ``solve_columns`` instead (see the
    module docstring).
    """
    rows = [list(row) for row in rows]
    size = len(rows)
    if size == ncols and size:
        b = [row[size] for row in rows]
        block = _inverse([row[:size] for row in rows], max(map(abs, b)))
        found = None if block is None else _lift(block, b)
        if found is not None:
            nums, den = found
            return tuple(Fraction(v, den) for v in nums)
    return solve_columns(rows, ncols)


def _inverse(rows: list[list[int]], bound: int) -> Optional["_LiftBlock"]:
    """A square A, given by its rows, inverted mod ``P`` and made ready by
    ``_lift_block`` for right-hand sides with entries at most bound; None
    when A is singular mod ``P``.

    Row j of [A^T | I] is A's column j followed by the unit vector e_j.
    Once every row has a pivot among the first len(rows) columns, the
    cleared row with pivot c (``_ModEchelon.cleared``) is
    [-e_c | -(row c of A^-T)], and row c of A^-T is column c of A^-1; only
    the right halves are cleared.
    """
    size = len(rows)
    echelon = _ModEchelon(2 * size)
    for j, column in enumerate(zip(*rows)):
        unit = [0] * size
        unit[j] = 1
        pivot = echelon.add([*column, *unit])
        if pivot is None or pivot >= size:
            return None
    neg_inverse = [0] * size
    for pivot, half in zip(echelon.pivots, echelon.cleared(size)):
        neg_inverse[pivot] = half
    return _lift_block(rows, neg_inverse, echelon.words, bound)


def _orthogonal_probe(rows: Sequence[Sequence[int]],
                      ncols: int) -> Optional[list[int]]:
    """A vector mod ``P`` orthogonal to every row, given as residues mod
    ``P``, ncols each; None when the rows are dependent mod ``P``.

    It is the sum of the canonical basis of the vectors orthogonal to the
    rows mod ``P``, the vector of free column f weighted by f + 1: that
    vector is 1 at f and 0 at the other free columns, so the probe is
    f + 1 at each free column f, and not 0 when there are fewer rows than
    columns.  The rows are reduced in turn, each to 0 at the pivots of
    those before it; then, from the last row back, each row fixes the
    probe at its own pivot, since it is 0 at the pivots not yet fixed."""
    kept: list[tuple[int, list[int]]] = []
    for row in rows:
        for p, base in kept:
            if row[p]:
                f, g = row[p], base[p]
                row = [(g * v - f * b) % P for v, b in zip(row, base)]
        pivot = next((j for j, v in enumerate(row) if v), None)
        if pivot is None:
            return None
        kept.append((pivot, row))
    pivots = {p for p, _ in kept}
    probe = [0 if j in pivots else j + 1 for j in range(ncols)]
    for p, row in reversed(kept):
        probe[p] = -sum(map(mul, probe, row)) * pow(row[p], -1, P) % P
    return probe


class _LiftBlock(NamedTuple):
    """A square A made ready for ``_lift`` once, for every right-hand side
    within the bound it was made for (``_lift_block``)."""

    rows: list[list[int]]  # A, for the exact check
    columns: list[int]  # A's columns, packed in signed slots
    words: int  # per signed slot, enough for every residual
    bias: int  # half the slot range in every slot
    neg_inverse: list[int]  # the columns of -A^-1 mod P, packed
    inverse_words: int  # per slot of neg_inverse
    squares: int  # the product of max(1, |c|**2) over A's columns c


def _lift_block(rows: list[list[int]], neg_inverse: list[int],
                inverse_words: int, bound: int) -> _LiftBlock:
    """A's columns packed, and their part of the Hadamard bound, for
    right-hand sides with entries at most bound: a residual never exceeds
    the larger of bound and the largest row sum of |A|."""
    size = len(rows)
    bound = max(bound, max(sum(map(abs, row)) for row in rows))
    words = (bound.bit_length() + 64) // 64
    half = 1 << 64 * words - 1
    bias = _pack([half] * size, words)
    columns = list(zip(*rows))
    return _LiftBlock(
        rows, [_pack([v + half for v in col], words) - bias
               for col in columns],
        words, bias, neg_inverse, inverse_words,
        prod(max(1, sum(map(mul, col, col))) for col in columns))


def _step_cap(squares: int) -> int:
    """Lifting steps k with P**k > 2*H**2, given H**2 = squares, the
    product of max(1, |c|**2) over the columns c of [A | b]: H is their
    Hadamard bound, and every numerator and denominator of the solution
    (Cramer's rule) is at most H, so rational reconstruction is unique
    from then on."""
    bound = 2 * squares
    steps, modulus = 0, 1
    while modulus <= bound:
        steps, modulus = steps + 1, modulus * P
    return steps


def _lift(block: _LiftBlock,
          b: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """Dixon lifting: x = sum(x_k * P**k) with x_k = A^-1 r_k mod P and
    r_(k+1) = (r_k - A x_k) / P, starting at r_0 = b.  Returns x as its
    numerators over one positive denominator, once ``A·num == b·den``
    holds exactly, or None.

    The residual r is packed like A's columns, each entry in a signed slot
    (see ``_lift_block``).  A probe, a fixed combination of the entries, is
    rebuilt by ``_rational`` each time the step count has grown by an
    eighth; only a candidate that still holds with the next digit has its
    denominator tried on the whole solution, which is then checked.
    """
    size, words = len(b), block.words
    half = 1 << 64 * words - 1
    residual = _pack([v + half for v in b], words) - block.bias
    weights = range(1, size + 1)
    x, probe, power = [0] * size, 0, 1
    guess, attempt = None, 1
    cap = _step_cap(block.squares * max(1, sum(map(mul, b, b))))
    for step in range(1, cap + 1):
        r = [(v - half) % P
             for v in _unpack(residual + block.bias, size, words)]
        acc = sum(map(mul, r, block.neg_inverse))
        digits = [-v % P for v in _unpack(acc, size, block.inverse_words)]
        residual = (residual - sum(map(mul, digits, block.columns))) // P
        x = [v + d * power for v, d in zip(x, digits)]
        probe += sum(map(mul, weights, digits)) * power
        power *= P
        held = guess is not None and (guess[1] * probe - guess[0]) % power == 0
        if held or step == cap:
            # at the cap each entry alone rebuilds uniquely, from den 1
            found = _numerators(x, power, guess[1] if held else 1)
            if found is not None and _certified(block.rows, b, *found):
                return found
        guess = None
        if step >= attempt:
            # geometric tries (see the module docstring)
            attempt = step + step // 8 + 1
            guess = _rational(probe, power)
    return None


def _rational(z: int, modulus: int) -> Optional[tuple[int, int]]:
    """(u, v) with u = v*z mod modulus, v > 0 and u, v at most
    sqrt(modulus / 2) (Wang's reconstruction), or None."""
    bound = isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, z % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _numerators(x: list[int], modulus: int,
                den: int) -> Optional[tuple[list[int], int]]:
    """Numerators of x over one denominator, a multiple of den: each is
    den*x_i, taken as its symmetric residue while that is at most
    sqrt(modulus / 2).  None when there is no such form yet.

    The probe's denominator may lack a small factor of the common one.  An
    entry's residue y then is a fraction with that small denominator g,
    which ``_rational(y)`` finds in a few Euclid steps; den and the
    numerators found so far gain the factor g.
    """
    bound = isqrt(modulus // 2)
    nums = []
    for v in x:
        y = den * v % modulus
        if 2 * y > modulus:
            y -= modulus
        if abs(y) > bound:
            found = _rational(y, modulus)
            if found is None:
                return None
            y, g = found
            den *= g
            nums = [g * u for u in nums]
        nums.append(y)
    return (nums, den) if den <= bound else None


def _certified(rows: Sequence[Sequence[int]], b: Sequence[int],
               nums: list[int], den: int) -> bool:
    """True iff A·nums == b·den exactly, given A's rows."""
    return all(sum(map(mul, row, nums)) == den * v for row, v in zip(rows, b))
