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
in lowest terms.  ``nullspace`` and the dependency rows of ``nodes``
read it.  ``solve_columns`` eliminates [A | b] as ``ncols + 1`` ordinary
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
column of the inverse of the pivot block.  Only ``would_grow`` scales
the kept rows to one denominator, ``D``, the lcm of every ``d_i``: it
caches ``D`` until the next pivot, because a tracker is often asked about
many rows after it has stopped growing.

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
later row is decided exactly.  ``IndependenceTracker.prefix_rank_bound``
counts the mod-``P`` pivots below a column q.  Cut to their first q
columns, the kept mod-``P`` rows span the rows they came from, cut the
same way, mod ``P``; those with a pivot at or past q are 0, and the rest
stay in echelon form, so the count is a rank mod ``P``, at most the exact
rank of the accepted rows' first q columns.  Rows accepted exactly are
missing from the mod-``P`` form and are not counted, so the bound stays
valid after the fallback.  Two rejections need no elimination at all:
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
"""

from __future__ import annotations

import itertools
import sys
from array import array
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence

ZERO = Fraction(0)

P = 67108859  # the largest prime below 2**26

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
        self._common: Optional[tuple[int, list]] = None

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
        self._common = None

    def would_grow(self, row: Sequence[int]) -> bool:
        """True iff adding this row would increase the rank.

        Only the free columns are reduced: a reduced row is 0 in every
        pivot column, and nonzero somewhere iff the row grows the rank.
        The row is scaled by ``D``, the lcm of every ``d_i``, rather than
        by the lcm of the ``d_i`` it meets: a tracker is often asked about
        many rows once it has stopped growing, and ``D`` with each kept
        row's ``D/d_i`` is then computed once for all of them, and kept
        until the next pivot."""
        if self._common is None:
            kept = list(zip(self._pivots, self._rows))
            den = lcm(*[base[p] for p, base in kept])
            self._common = den, [(p, den // base[p], base) for p, base in kept]
        den, kept = self._common
        terms = [(row[p] * scale, base) for p, scale, base in kept if row[p]]
        pivots = set(self._pivots)
        return any(den * row[j] != sum(f * base[j] for f, base in terms)
                   for j in range(self.ncols) if j not in pivots)

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

    def __init__(self, nslots: int):
        self.nslots = nslots
        self.words = _slot_words(nslots)
        self._mask = (1 << 64 * self.words) - 1
        self.pivots: list[int] = []
        # (bit offset of the pivot's slot, scale, row), one per kept row
        self.kept: list[tuple[int, int, int]] = []

    def pack(self, values: Sequence[int]) -> int:
        """The values' residues, packed."""
        return self._pack_residues([v % P for v in values])

    def _pack_residues(self, residues: list[int]) -> int:
        """Residues, packed: each fills only the low word of its slot, so
        only those words are written."""
        slots = array("Q", bytes(8 * self.words * len(residues)))
        slots[::self.words] = array("Q", residues)
        return _from_words(slots)

    def add(self, values: Sequence[int]) -> Optional[int]:
        """Reduce the values mod ``P`` by the kept rows in one pass, and
        keep what is left if it is not 0: return its pivot, or None."""
        mask = self._mask
        packed = self.pack(values)
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
                          self._pack_residues(residues)))
        return col


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

    def prefix_rank_bound(self, q: int) -> int:
        """A lower bound on the exact rank of the accepted rows' first q
        columns: the number of mod-``P`` pivots below q.  Rows accepted
        exactly, after the prime stopped certifying, are not counted."""
        return sum(p < q for p in self._mod.pivots)

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
    """
    tracker = RankTracker(ncols)
    for row in rows:
        tracker.add(row)
    coords = tracker.coordinates()
    dens = [den for _, den in coords]
    return [tuple(Fraction(v, den) if v else ZERO for v, den in zip(vec, dens))
            for vec in zip(*[nums for nums, _ in coords])]


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
    square A is lifted P-adically, and the solution, rebuilt over one
    common denominator, is returned only once ``A·num == b·den`` holds
    exactly.  Any other shape, an A singular mod ``P``, or no candidate
    verified within the step cap takes ``solve_columns`` instead (see the
    module docstring).
    """
    rows = [list(row) for row in rows]
    size = len(rows)
    if size == ncols and size:
        columns = list(zip(*rows))
        neg_inverse = _neg_inverse_columns(columns[:size])
        if neg_inverse is not None:
            x = _lift(rows, columns, neg_inverse)
            if x is not None:
                return x
    return solve_columns(rows, ncols)


def _neg_inverse_columns(columns: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """The columns of -A^-1 mod ``P``, packed, given A's columns; None when
    A is singular mod ``P``.

    Row j of [A^T | I] is A's column j followed by the unit vector e_j.
    Once every row has a pivot among the first len(columns) columns,
    clearing the later pivots from a kept row and multiplying it by its
    scale leaves the row with pivot c as [-e_c | -(row c of A^-T)], and
    row c of A^-T is column c of A^-1.
    """
    size = len(columns)
    echelon = _ModEchelon(2 * size)
    for j, column in enumerate(columns):
        unit = [0] * size
        unit[j] = 1
        pivot = echelon.add(list(column) + unit)
        if pivot is None or pivot >= size:
            return None
    words, pivots = echelon.words, echelon.pivots
    shift = 64 * words * size
    low = (1 << shift) - 1
    # a scaled row's left half is -e_c once cleared, so only the right
    # halves are kept; row m > k is already 0 at every pivot but its own,
    # and is scaled and cleared before row k reads it
    right = [row >> shift for _, _, row in echelon.kept]
    for k in reversed(range(size)):
        _, scale, row = echelon.kept[k]
        left = _unpack(row & low, size, words)
        acc = right[k]
        for m in range(k + 1, size):
            f = left[pivots[m]]
            if f:
                acc += f * right[m]
        right[k] = echelon.pack([v * scale for v in _unpack(acc, size, words)])
    out = [0] * size
    for pivot, half in zip(pivots, right):
        out[pivot] = half
    return out


def _step_cap(rows: Sequence[Sequence[int]]) -> int:
    """Lifting steps k with P**k > 2*H**2, where H is the Hadamard bound of
    [A | b]: every numerator and denominator of the solution (Cramer's rule)
    is at most H, so rational reconstruction is unique from then on."""
    bound = 2 * prod(max(1, sum(v * v for v in col)) for col in zip(*rows))
    steps, modulus = 0, 1
    while modulus <= bound:
        steps, modulus = steps + 1, modulus * P
    return steps


def _lift(rows: list[list[int]], columns: Sequence[Sequence[int]],
          neg_inverse: list[int]) -> Optional[tuple[Fraction, ...]]:
    """Dixon lifting: x = sum(x_k * P**k) with x_k = A^-1 r_k mod P and
    r_(k+1) = (r_k - A x_k) / P, starting at r_0 = b.

    The residual r and A's columns are packed, each entry in a signed
    slot: |r_k| never exceeds the larger of max|b| and the largest row sum
    of |A|.  A probe, a fixed combination of the entries, is rebuilt by
    ``_rational`` each time the step count has grown by an eighth; only a
    candidate that still holds with the next digit has its denominator
    tried on the whole solution, which is then checked.
    """
    size = len(rows)
    b = columns[size]
    bound = max(max(map(abs, b)),
                max(sum(map(abs, row[:size])) for row in rows))
    words = (bound.bit_length() + 64) // 64
    half = 1 << 64 * words - 1
    bias = _pack([half] * size, words)
    a_columns = [_pack([v + half for v in col], words) - bias
                 for col in columns[:size]]
    residual = _pack([v + half for v in b], words) - bias
    inverse_words = _slot_words(2 * size)
    weights = range(1, size + 1)
    x, probe, power = [0] * size, 0, 1
    guess, attempt = None, 1
    cap = _step_cap(rows)
    for step in range(1, cap + 1):
        r = [(v - half) % P for v in _unpack(residual + bias, size, words)]
        acc = sum(map(mul, r, neg_inverse))
        digits = [-v % P for v in _unpack(acc, size, inverse_words)]
        residual = (residual - sum(map(mul, digits, a_columns))) // P
        x = [v + d * power for v, d in zip(x, digits)]
        probe += sum(map(mul, weights, digits)) * power
        power *= P
        held = guess is not None and (guess[1] * probe - guess[0]) % power == 0
        if held or step == cap:
            # at the cap each entry alone rebuilds uniquely, from den 1
            found = _numerators(x, power, guess[1] if held else 1)
            if found is not None and _certified(rows, *found):
                nums, den = found
                return tuple(Fraction(v, den) for v in nums)
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


def _certified(rows: Sequence[Sequence[int]], nums: list[int],
               den: int) -> bool:
    """True iff A·nums == b·den exactly."""
    size = len(nums)
    return all(sum(map(mul, row, nums)) == den * row[size] for row in rows)
