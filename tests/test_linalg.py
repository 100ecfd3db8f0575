import itertools
import math
import operator
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodecurves import generators, linalg, nodes, poly
from nodecurves.linalg import IndependenceTracker, P, RankTracker


def F(v):
    return Fraction(v)


def fractions(rows) -> list[list[Fraction]]:
    return [[F(v) for v in row] for row in rows]


def as_integers(rows) -> list[list[int]]:
    """Each row times the lcm of its denominators, in integers: the same
    rank, nullspace and solutions as the rows themselves."""
    out = []
    for row in rows:
        den = math.lcm(*[F(v).denominator for v in row])
        out.append([int(v * den) for v in row])
    return out


def mul_vec(rows, v) -> tuple[Fraction, ...]:
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0))
                 for row in rows)


def augmented(rows, columns) -> list[list[Fraction]]:
    """Each row followed by its entry of every right-hand side."""
    return [list(row) + [F(b[i]) for b in columns]
            for i, row in enumerate(rows)]


def test_nullspace_canonical_basis():
    # rows of the 4-node degree-2 collocation example
    rows = [
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0],
        [1, 2, 0, 4, 0, 0],
        [1, 0, 1, 0, 0, 1],
    ]
    assert linalg.rank(rows, 6) == 4
    ns = linalg.nullspace(rows, 6)
    assert len(ns) == 2
    assert ns[0] == (F(0), F(0), F(0), F(0), F(1), F(0))
    assert ns[1] == (F(0), F(0), F(-1), F(0), F(0), F(1))


def test_nullspace_of_zero_row_spans_everything():
    ns = linalg.nullspace([[0, 0, 0]], 3)
    assert len(ns) == 3
    assert ns == [
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]


def test_solve_free_variables_zero():
    assert linalg.solve([[1, 1, 2]], 2) == (F(2), F(0))


def test_solve_inconsistent_returns_none():
    assert linalg.solve([[1, 0], [1, 1]], 1) is None


def test_solve_columns_mixed_consistency():
    m, columns = fractions([[1, 0], [1, 0]]), [[1, 1], [0, 1]]
    got = [linalg.solve_columns(as_integers(augmented(m, [b])), 2)
           for b in columns]
    assert got == ref_solve_columns(m, 2, columns)
    assert got == [(F(1), F(0)), None]


def test_solve_columns_inconsistent_first_row():
    # [0 0 | 1] makes b's column the first pivot, and the consistent rows
    # after it leave it a pivot
    m, b = fractions([[0, 0], [1, 0], [0, 1]]), [1, 2, 3]
    rows = as_integers(augmented(m, [b]))
    assert linalg.solve_columns(rows, 2) is None
    assert ref_solve_columns(m, 2, [b]) == [None]
    assert linalg.solve_columns(rows[1:], 2) == (F(2), F(3))


def test_solve_columns_edges():
    # no rows: every column is free and x is 0
    assert linalg.solve_columns([], 3) == (F(0), F(0), F(0))
    # no unknowns: consistent iff b is 0
    assert linalg.solve_columns([[0], [0]], 0) == ()
    assert linalg.solve_columns([[0], [5]], 0) is None
    assert linalg.solve_columns([], 0) == ()


def test_empty_matrix_edges():
    assert linalg.rank([], 0) == 0
    assert len(linalg.nullspace([], 4)) == 4


def test_rank_tracker_matches_rref_rank():
    rows = [
        [1, 2, 3],
        [2, 4, 6],
        [0, 1, 1],
        [1, 3, 4],
    ]
    tracker = RankTracker(3)
    grew = [tracker.add(r) for r in rows]
    assert grew == [True, False, True, False]
    assert tracker.rank == linalg.rank(rows, 3) == 2


def test_rank_tracker_out_of_order_pivots():
    tracker = RankTracker(3)
    assert tracker.add([0, 0, 1])
    assert tracker.add([0, 1, 1])
    assert not tracker.add([0, 1, 2])
    assert tracker.add([1, 1, 1])
    assert tracker.rank == 3


def test_would_grow_does_not_mutate():
    tracker = RankTracker(2)
    tracker.add([1, 0])
    assert tracker.would_grow([0, 1])
    assert tracker.rank == 1


small_fracs = st.fractions(
    min_value=-6, max_value=6, max_denominator=4)


def matrices(max_rows=5, max_cols=5):
    """Fraction rows, at least one, all of one length."""
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(small_fracs, min_size=c, max_size=c),
            min_size=1, max_size=max_rows))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_plus_nullity_is_ncols(m):
    ncols = len(m[0])
    ns = linalg.nullspace(as_integers(m), ncols)
    assert linalg.rank(as_integers(m), ncols) + len(ns) == ncols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_annihilated(m):
    for vec in linalg.nullspace(as_integers(m), len(m[0])):
        out = mul_vec(m, vec)
        assert all(v == 0 for v in out)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_solution_satisfies_system(m, data):
    ncols = len(m[0])
    x = data.draw(st.lists(small_fracs, min_size=ncols, max_size=ncols))
    b = mul_vec(m, x)
    got = linalg.solve(as_integers(augmented(m, [b])), ncols)
    assert got is not None
    assert mul_vec(m, got) == b


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_tracker_rank_agrees_with_fraction_path(m):
    tracker = RankTracker(len(m[0]))
    for row in as_integers(m):
        tracker.add(row)
    assert tracker.rank == len(ref_rref(m)[1])


# Slow reference: Fraction Gauss-Jordan with first-nonzero pivoting, the
# package's elimination before the integer kernel replaced it.

def _eliminate(rows: list[list[Fraction]], pivot_limit: int) -> list[int]:
    """Gauss-Jordan in place; pivots are searched in columns < pivot_limit.

    Returns the pivot column list.  Columns at or past pivot_limit are
    carried along (augmented part) but never chosen as pivots.
    """
    pivots: list[int] = []
    prow = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(min(pivot_limit, ncols)):
        hit = next((r for r in range(prow, len(rows)) if rows[r][col] != 0), None)
        if hit is None:
            continue
        rows[prow], rows[hit] = rows[hit], rows[prow]
        lead = rows[prow][col]
        if lead != 1:
            rows[prow] = [v / lead for v in rows[prow]]
        pivot_row = rows[prow]
        for r in range(len(rows)):
            if r == prow:
                continue
            factor = rows[r][col]
            if factor != 0:
                row = rows[r]
                rows[r] = [row[j] - factor * pivot_row[j] for j in range(ncols)]
        pivots.append(col)
        prow += 1
        if prow == len(rows):
            break
    return pivots


def ref_rref(m):
    rows = [list(row) for row in m]
    pivots = _eliminate(rows, len(rows[0]) if rows else 0)
    return [tuple(r) for r in rows], tuple(pivots)


def ref_nullspace(m, ncols):
    rows, pivots = ref_rref(m)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [F(0)] * ncols
        vec[f] = F(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def ref_solve_columns(m, ncols, columns):
    k = len(columns)
    rows = augmented(m, columns)
    pivots = _eliminate(rows, ncols)
    out = []
    for c in range(k):
        aug = ncols + c
        if any(rows[r][aug] != 0 for r in range(len(pivots), len(rows))):
            out.append(None)
            continue
        x = [F(0)] * ncols
        for r, p in enumerate(pivots):
            x[p] = rows[r][aug]
        out.append(tuple(x))
    return out


@st.composite
def awkward_matrices(draw, max_rows=7, max_cols=6):
    """Rows with staggered leading zeros in shuffled order, so pivots arrive
    out of column order, mixed with zero rows, duplicate rows and
    combinations of earlier rows."""
    ncols = draw(st.integers(1, max_cols))
    rows: list[list[Fraction]] = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["fresh", "zero", "duplicate", "combination"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append([F(0)] * ncols)
        elif kind == "fresh":
            skip = draw(st.integers(0, ncols - 1))
            tail = draw(st.lists(small_fracs, min_size=ncols - skip,
                                 max_size=ncols - skip))
            rows.append([F(0)] * skip + tail)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small_fracs), draw(small_fracs)
            rows.append([s * u + t * v for u, v in zip(a, b)])
    return draw(st.permutations(rows))


def any_matrices():
    return st.one_of(matrices(), awkward_matrices())


@settings(max_examples=150, deadline=None)
@given(any_matrices())
def test_rank_matches_reference(m):
    _, pivots = ref_rref(m)
    assert linalg.rank(as_integers(m), len(m[0])) == len(pivots)


@settings(max_examples=150, deadline=None)
@given(any_matrices())
def test_nullspace_matches_reference(m):
    ncols = len(m[0])
    assert linalg.nullspace(as_integers(m), ncols) == ref_nullspace(m, ncols)


@settings(max_examples=150, deadline=None)
@given(any_matrices())
def test_tracker_incremental_matches_reference(m):
    tracker = RankTracker(len(m[0]))
    for i, row in enumerate(as_integers(m)):
        before = tracker.rank
        grows = tracker.would_grow(row)
        assert tracker.rank == before
        _, pivots = ref_rref(m[:i + 1])
        assert tracker.add(row) == grows == (len(pivots) > before)
        assert tracker.rank == len(pivots)
        assert not tracker.would_grow(row)


# each right-hand side has its own denominators, unrelated to the others'
unrelated_denominators = st.lists(
    st.sampled_from([1, 3, 7, 11, 13, 17, 19, 23, 29, 31]), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(any_matrices(), unrelated_denominators, st.data())
def test_solve_columns_matches_reference(m, dens, data):
    ncols = len(m[0])
    columns = []
    for den in dens:
        numerators = st.integers(-40, 40)
        if data.draw(st.booleans()):
            # consistent by construction: b = m x
            x = [Fraction(data.draw(numerators), den) for _ in range(ncols)]
            columns.append(mul_vec(m, x))
        else:
            columns.append([Fraction(data.draw(numerators), den)
                            for _ in range(len(m))])
    got = [linalg.solve_columns(as_integers(augmented(m, [b])), ncols)
           for b in columns]
    assert got == ref_solve_columns(m, ncols, columns)
    assert [linalg.solve(as_integers(augmented(m, [b])), ncols)
            for b in columns] == got


@settings(max_examples=150, deadline=None)
@given(any_matrices())
# the second row's pivot rewrites the first with multipliers 3 and 1,
# not 12 and 4: their common factor 4 does not divide the first row's
# denominator 5, so the content taken from it would leave 4 behind
@example(fractions([[5, 4, 3, 4], [3, 0, 0, 2], [0, 6, -6, 4]]))
def test_coordinates_are_the_nullspace_in_lowest_terms(m):
    ncols = len(m[0])
    tracker = RankTracker(ncols)
    for row in as_integers(m):
        tracker.add(row)
    ref = ref_nullspace(m, ncols)
    coords = tracker.coordinates()
    assert len(coords) == ncols
    for j, (nums, den) in enumerate(coords):
        assert math.gcd(den, *nums) == 1
        assert [Fraction(v, den) for v in nums] == [vec[j] for vec in ref]


small_nodes = st.tuples(small_fracs, small_fracs)


@st.composite
def node_sets_with_degree(draw):
    """Small random sets at degree 0 to 3, or Berzolari-Radon sets at
    degree n-1, where their rows have n+1 dependencies."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([3, 4]))
        xs = generators.berzolari_radon(n, draw(st.integers(1, 99))).nodes
        return xs, n - 1
    xs = draw(st.lists(small_nodes, max_size=8, unique=True))
    return nodes.NodeSet(xs), draw(st.integers(0, 3))


def _dependency_rows(xs, n):
    """Each node's coordinates in the canonical basis of the dependencies
    among the set's degree-n rows, as integers over that node's own
    denominator: node i's row is the numerators of
    ``RankTracker.coordinates`` at column i of the transposed rows."""
    transpose = linalg.RankTracker(len(xs))
    for column in zip(*nodes.collocation_matrix(xs, n)):
        transpose.add(column)
    return [nums for nums, _ in transpose.coordinates()]


@settings(max_examples=60, deadline=None)
@given(node_sets_with_degree())
def test_dependency_rows_are_scaled_reference_coordinates(case):
    # node i's row is a nonzero multiple of its coordinates in the
    # reference basis of the dependencies among the set's degree-n rows
    xs, n = case
    rows = nodes.collocation_matrix(xs, n)
    transpose = [list(map(F, column)) for column in zip(*rows)]
    ref = ref_nullspace(transpose, len(xs))
    deps = _dependency_rows(xs, n)
    assert len(deps) == len(xs)
    for i, dep in enumerate(deps):
        want = [vec[i] for vec in ref]
        assert all(type(v) is int for v in dep)
        assert [v != 0 for v in dep] == [w != 0 for w in want]
        if any(want):
            k = next(k for k, w in enumerate(want) if w)
            scale = dep[k] / want[k]
            assert [scale * w for w in want] == dep


@settings(max_examples=60, deadline=None)
@given(node_sets_with_degree())
def test_curves_missing_one_are_the_reference_curves(case):
    # the nodes found are those with a zero dependency row; each curve
    # misses its node alone, and at full rank it is the canonical curve
    # through the other nodes.  Rows of a higher degree, whose first
    # entries are the degree-n rows times positive scales, give the same
    xs, n = case
    rows = nodes.collocation_matrix(xs, n)
    rank, found = nodes._curves_missing_one(rows, n)
    assert nodes._curves_missing_one(
        nodes.collocation_matrix(xs, n + 2), n) == (rank, found)
    _, pivots = ref_rref(fractions(rows))
    assert rank == len(pivots)
    deps = _dependency_rows(xs, n)
    assert list(found) == [i for i, dep in enumerate(deps) if not any(dep)]
    for i, curve in found.items():
        assert [curve.eval(p.x, p.y) != 0 for p in xs] == [
            j == i for j in range(len(xs))]
        if rank == poly.space_dim(n):
            rest = nodes.vanishing_basis(xs.without(xs[i]), n)
            assert rest.basis == (curve,)


@settings(max_examples=60, deadline=None)
@given(node_sets_with_degree())
def test_outlier_curves_mod_p_are_the_exact_curves(case):
    # from any size on, the column pass over the transposed rows (or the
    # exact route it falls back to when they are dependent mod P) gives the
    # exact route's rank and curves
    xs, n = case
    rows = nodes.collocation_matrix(xs, n)
    want = nodes._curves_missing_one(rows, n)
    size = poly.space_dim(n)
    found = linalg.column_pass(zip(*rows), len(xs), size, size)
    assert found.rank <= want[0]
    assert nodes._outlier_curves(rows, found, n) == want


@st.composite
def column_pass_cases(draw):
    """Rows of small entries, some multiples of P, and 0 < m <= q columns;
    a first-m column may repeat an earlier one, so that it reduces to 0."""
    nslots = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 8))
    m = draw(st.integers(1, ncols))
    q = draw(st.integers(m, ncols))
    entry = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(
        lambda v: v * P))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nslots, max_size=nslots))
    if m > 1 and draw(st.booleans()):
        j = draw(st.integers(1, m - 1))
        rows = [row[:j] + [row[j - 1]] + row[j + 1:] for row in rows]
    return rows, m, q


@settings(max_examples=150, deadline=None)
@given(column_pass_cases())
def test_column_pass_reads_the_ranks_and_the_inverse_mod_p(case):
    # the ranks mod P of the rows and of their first q columns; with the
    # first m columns independent mod P, the candidates (rows outside the
    # others' span mod P) and, when there is one, the pivots' rows B there,
    # -B^-1 mod P and a certified B x = e for each pivot
    rows, m, q = case
    found = linalg.column_pass(zip(*rows), len(rows), m, q)
    assert found.rank == _rank_mod_p(rows)
    assert found.prefix_rank == _rank_mod_p([row[:q] for row in rows])
    first = [row[:m] for row in rows]
    if _rank_mod_p(first) < m:
        assert (found.pivots, found.candidates, found.block) == ([], [], None)
        return
    assert len(found.pivots) == m
    assert found.candidates == [
        i for i in found.pivots
        if _rank_mod_p(first[:i] + first[i + 1:]) < m]
    if not found.candidates:
        assert found.block is None
        return
    square = [first[i] for i in found.pivots]
    assert found.block.rows == square
    inverse = [linalg._unpack(col, m, found.block.inverse_words)
               for col in found.block.neg_inverse]
    for i, row in enumerate(square):
        for j, col in enumerate(inverse):
            assert sum(map(operator.mul, row, col)) % P == (P - 1) * (i == j)
    for i in found.pivots:
        nums, den = found.unit_solution(i)
        assert den > 0
        assert [sum(map(operator.mul, row, nums)) for row in square] == [
            den * (j == i) for j in found.pivots]


# Rows where a new pivot meets few kept rows, so most of them are left
# as they are: collocation rows of Berzolari-Radon sets, and rows that
# are block-diagonal, each block with its own combinations.
block_entries = st.one_of(st.integers(-9, 9), st.integers(-2**40, 2**40))


@st.composite
def sparse_row_streams(draw):
    if draw(st.booleans()):
        n = draw(st.sampled_from([4, 5]))
        xs = generators.berzolari_radon(n, draw(st.integers(1, 99))).nodes
        rows = draw(st.permutations(
            [poly.homogeneous_row(p.x, p.y, n) for p in xs]))
        return poly.space_dim(n), rows[:draw(st.integers(1, len(rows)))]
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ncols, rows, start = sum(widths), [], 0
    for width in widths:
        block: list[list[int]] = []
        for _ in range(draw(st.integers(1, width + 1))):
            if block and draw(st.booleans()):
                a, b = draw(st.sampled_from(block)), draw(st.sampled_from(block))
                s, t = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
                block.append([s * u + t * v for u, v in zip(a, b)])
            else:
                block.append(draw(st.lists(block_entries, min_size=width,
                                           max_size=width)))
        rows += [[0] * start + entries + [0] * (ncols - start - width)
                 for entries in block]
        start += width
    return ncols, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None)
@given(sparse_row_streams(), st.data())
def test_sparse_rows_match_reference(stream, data):
    ncols, rows = stream
    m = fractions(rows)
    tracker = RankTracker(ncols)
    for i, row in enumerate(rows):
        before = tracker.rank
        _, pivots = ref_rref(m[:i + 1])
        assert tracker.would_grow(row) == (len(pivots) > before)
        assert tracker.add(row) == (len(pivots) > before)
        assert tracker.rank == len(pivots)
        assert not tracker.would_grow(row)
    assert linalg.nullspace(rows, ncols) == ref_nullspace(m, ncols)
    columns = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(st.integers(-9, 9), min_size=ncols,
                                   max_size=ncols))
            columns.append([sum(map(operator.mul, row, x)) for row in rows])
        else:
            columns.append(data.draw(st.lists(
                st.integers(-9, 9), min_size=len(rows), max_size=len(rows))))
    systems = [[row + [b[i]] for i, row in enumerate(rows)] for b in columns]
    assert ([linalg.solve_columns(system, ncols) for system in systems]
            == ref_solve_columns(m, ncols, columns))


# IndependenceTracker against the exact RankTracker: rows the prime P
# cannot tell apart from earlier rows ("multiple_of_p" is 0 mod P,
# "shifted" equals an earlier row mod P) must reach the exact path.
small_ints = st.integers(-5, 5)
row_entries = st.one_of(small_ints, st.integers(-2**70, 2**70))


@st.composite
def int_row_streams(draw, max_rows=9, max_cols=5):
    ncols = draw(st.integers(1, max_cols))
    entries = st.lists(row_entries, min_size=ncols, max_size=ncols)
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(1, max_rows))):
        kind = draw(st.sampled_from(["fresh", "multiple_of_p", "zero",
                                     "duplicate", "combination", "shifted"]))
        if kind == "zero" or (kind not in ("fresh", "multiple_of_p")
                              and not rows):
            rows.append([0] * ncols)
        elif kind == "fresh":
            rows.append(draw(entries))
        elif kind == "multiple_of_p":
            rows.append([P * v for v in draw(entries)])
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small_ints), draw(small_ints)
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            a = draw(st.sampled_from(rows))
            shift = draw(st.lists(small_ints, min_size=ncols, max_size=ncols))
            rows.append([u + P * v for u, v in zip(a, shift)])
    return ncols, rows


@settings(max_examples=300, deadline=None)
@given(int_row_streams())
def test_independence_tracker_matches_rank_tracker(stream):
    ncols, rows = stream
    fast, exact = IndependenceTracker(ncols), RankTracker(ncols)
    for row in rows:
        assert fast.add(row) == exact.add(row)
        assert fast.rank == exact.rank


@settings(max_examples=300, deadline=None)
@given(int_row_streams(), st.integers(1, 5), st.integers(1, 5))
# every entry of the first two columns is 0 mod P, so the prime sees no
# rank there while the exact prefix has rank 2
@example((3, [[P, 2 * P, 1], [3 * P, P, 5]]), 2, 1)
def test_prefix_rank_bound_never_exceeds_the_exact_prefix_rank(stream, q, m):
    # the column pass's prefix rank, on the first rows of the stream, also
    # when it stops short of their count
    ncols, rows = stream
    q = min(q, ncols)
    m = min(m, q)
    prefix = RankTracker(q)
    for count, row in enumerate(rows, 1):
        prefix.add(row[:q])
        found = linalg.column_pass(zip(*rows[:count]), count, m, q)
        assert found.prefix_rank <= prefix.rank


def test_independence_tracker_drops_certificate_after_exact_accept():
    tracker = IndependenceTracker(2)
    assert tracker.add([1, 0])
    # 0 mod P, so only the exact path sees that it grows the rank
    assert tracker.add([0, P])
    # grows the mod-P form, which no longer certifies anything
    assert not tracker.add([0, 1])
    assert tracker.rank == 2


def test_independence_tracker_shortcuts_need_no_exact_tracker():
    tracker = IndependenceTracker(2)
    assert tracker.add([1, 2])
    assert not tracker.add([1, 2])
    assert tracker.add([3, 4])
    assert not tracker.add([5, 6])
    assert tracker.rank == 2
    assert tracker._exact is None


# Packed mod-P rows: a slot starts below P and gains at most one product
# below P**2 per slot of the row; the slot width must hold all of them.

def test_packed_slots_hold_one_product_per_slot():
    for nslots in (1, 15, 16, 45, 128, 231, 1000, 2047, 4095, 4096):
        words = linalg._slot_words(nslots)
        # one word per slot below 4096 slots (P < 2**26), two from there
        assert words == (1 if nslots < 4096 else 2)
        row = linalg._pack([P - 1] * nslots, words)
        acc = row
        for _ in range(nslots):
            acc += (P - 1) * row
        want = (P - 1) + nslots * (P - 1) ** 2
        assert linalg._unpack(acc, nslots, words) == [want] * nslots


def test_independence_tracker_with_two_word_slots_matches_rank_tracker():
    # 4096 columns take two words per slot; sparse rows keep it fast
    ncols = 4096
    assert linalg._slot_words(ncols) == 2
    rng = random.Random(3)
    fresh = []
    for _ in range(6):
        row = [0] * ncols
        for j in rng.sample(range(ncols), 5):
            row[j] = rng.randrange(-2**40, 2**40)
        fresh.append(row)
    combo = [3 * u - 7 * v for u, v in zip(fresh[0], fresh[2])]
    multiple_of_p = [0] * ncols
    multiple_of_p[ncols - 1] = 5 * P
    rows = fresh[:3] + [fresh[1], combo] + fresh[3:] + [multiple_of_p]
    fast, exact = IndependenceTracker(ncols), RankTracker(ncols)
    grew = []
    for row in rows:
        grew.append(fast.add(row))
        assert grew[-1] == exact.add(row)
        assert fast.rank == exact.rank
    # the duplicate and the combination are rejected; the multiple of P is
    # 0 mod P and reaches the exact path, which accepts it
    assert grew == [True] * 3 + [False] * 2 + [True] * 4
    assert fast._exact is not None and not fast._certified


def test_independence_tracker_rejects_combinations_of_many_rows():
    # the kept rows are scaled mod P, so a combination reduced by all 70
    # of them sums 70 products of size up to P**2 in each slot; rejecting
    # it needs every one of them exact
    rng = random.Random(7)
    ncols = 100
    rows = [[rng.randrange(10) for _ in range(ncols)] for _ in range(70)]
    tracker = IndependenceTracker(ncols)
    assert all(tracker.add(row) for row in rows)
    for _ in range(3):
        coeffs = [rng.randrange(-3, 4) for _ in rows]
        combo = [sum(c * row[j] for c, row in zip(coeffs, rows))
                 for j in range(ncols)]
        assert not tracker.add(combo)
    assert tracker.rank == 70


# solve on square systems against solve_columns: random systems with rows
# of unrelated magnitudes, systems whose determinant is a nonzero multiple
# of P, and singular systems, consistent or not.

def _rank_mod_p(rows):
    rows = [[v % P for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = pow(rows[rank][col], -1, P)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


magnitudes = st.sampled_from([3, 2**20, 2**61, 2**130])


@st.composite
def square_systems(draw, max_size=6):
    """Rows of A followed by b; each row draws its own magnitude."""
    size = draw(st.integers(1, max_size))
    rows = []
    for _ in range(size):
        bound = draw(magnitudes)
        rows.append(draw(st.lists(st.integers(-bound, bound),
                                  min_size=size + 1, max_size=size + 1)))
    return rows


@st.composite
def singular_mod_p_systems(draw, max_size=6):
    """A's last row is a combination of the others plus P times a vector:
    nonsingular over Q in general, but never invertible mod P."""
    rows = draw(square_systems(max_size).filter(lambda r: len(r) > 1))
    size = len(rows)
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=size - 1,
                           max_size=size - 1))
    shift = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    last = [sum(c * row[j] for c, row in zip(coeffs, rows[:-1])) + P * s
            for j, s in enumerate(shift)]
    rows[-1] = last + [draw(st.integers(-10**6, 10**6))]
    return rows


@st.composite
def singular_systems(draw, max_size=6):
    """A's last row is a combination of the others; b follows the same
    combination (consistent) or not."""
    rows = draw(square_systems(max_size).filter(lambda r: len(r) > 1))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(rows) - 1,
                           max_size=len(rows) - 1))
    last = [sum(c * row[j] for c, row in zip(coeffs, rows[:-1]))
            for j in range(len(rows) + 1)]
    last[-1] += draw(st.sampled_from([0, 0, 1, -7]))
    rows[-1] = last
    return rows


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_square_solve_matches_solve_columns(rows):
    want = linalg.solve_columns(rows, len(rows))
    if _rank_mod_p([row[:-1] for row in rows]) < len(rows):
        assert linalg.solve(rows, len(rows)) == want
        return
    original, calls = linalg.solve_columns, []
    linalg.solve_columns = lambda *args: calls.append(args)
    try:
        got = linalg.solve(rows, len(rows))
    finally:
        linalg.solve_columns = original
    # invertible mod P: certified, with no exact elimination
    assert calls == []
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.one_of(singular_mod_p_systems(), singular_systems()))
def test_square_solve_falls_back_when_singular_mod_p(rows):
    want = linalg.solve_columns(rows, len(rows))
    assert linalg._inverse([row[:-1] for row in rows], 1) is None
    assert linalg.solve(rows, len(rows)) == want


def test_square_solve_fallback_answers_dependent_systems():
    consistent = [[1, 2, 3], [2, 4, 6]]
    assert linalg.solve(consistent, 2) == (F(3), F(0))
    assert linalg.solve([[1, 2, 3], [2, 4, 7]], 2) is None
    # nonsingular, but P divides the determinant
    rows = [[1, 0, 1], [0, P, 1]]
    assert linalg.solve(rows, len(rows)) == (F(1), Fraction(1, P))
    assert linalg.solve([], 0) == ()


def _random_systems(seed, count, size, bits):
    rng = random.Random(seed)
    return [[[rng.randrange(-2**bits, 2**bits) for _ in range(size + 1)]
             for _ in range(size)] for _ in range(count)]


def test_square_solve_refuses_a_candidate_the_exact_check_fails(
        monkeypatch):
    # the first rebuilt candidate is made off by one in one numerator: the
    # exact check refuses it, and lifting goes on to the true solution
    original, spoiled = linalg._numerators, []

    def off_by_one(x, modulus, den):
        found = original(x, modulus, den)
        if found is not None and not spoiled:
            nums, den = found
            spoiled.append(nums)
            return [nums[0] + 1] + nums[1:], den
        return found
    monkeypatch.setattr(linalg, "_numerators", off_by_one)
    for rows in _random_systems(3, 10, 4, 40):
        spoiled.clear()
        assert (linalg.solve(rows, len(rows))
                == linalg.solve_columns(rows, 4))
        assert spoiled


def _step_cap(rows):
    """The least k with P**k > 2*H**2, H the Hadamard bound of [A | b]."""
    bound = 2 * math.prod(max(1, sum(v * v for v in col))
                          for col in zip(*rows))
    return next(k for k in itertools.count() if P ** k > bound)


def test_square_solve_stops_at_the_step_cap(monkeypatch):
    # a reconstruction that never verifies lifts up to the cap derived
    # from the Hadamard bound, then the exact elimination answers
    rows = _random_systems(5, 1, 5, 30)[0]
    want = linalg.solve_columns(rows, 5)
    moduli, original = [], linalg._numerators

    def recording(x, modulus, den):
        moduli.append(modulus)
        return original(x, modulus, den)
    monkeypatch.setattr(linalg, "_numerators", recording)
    monkeypatch.setattr(linalg, "_certified", lambda *args: False)
    calls, exact = [], linalg.solve_columns

    def spy(*args):
        calls.append(args)
        return exact(*args)
    monkeypatch.setattr(linalg, "solve_columns", spy)
    assert linalg.solve(rows, len(rows)) == want
    # the last rebuild is at the cap, the first power of P past twice the
    # squared Hadamard bound
    assert moduli[-1] == P ** _step_cap(rows)
    assert len(calls) == 1


def test_square_solve_stops_soon_after_the_solution_is_determined(
        monkeypatch):
    # the probe is rebuilt each time the step count grows by an eighth, so
    # the solve ends at most an eighth, plus the confirming digit, past
    # the first step at which every entry and the probe rebuild uniquely
    moduli, original = [], linalg._numerators

    def recording(x, modulus, den):
        moduli.append(modulus)
        return original(x, modulus, den)
    monkeypatch.setattr(linalg, "_numerators", recording)
    # fundamental polynomials of a poised set at n=6: the solution is far
    # smaller than the Hadamard bound behind the step cap
    xs = generators.random_poised(6, 1)
    for target in range(0, len(xs), 4):
        rows = []
        for i, p in enumerate(xs):
            row = poly.homogeneous_row(p.x, p.y, 6)
            rows.append(row + [row[0] if i == target else 0])
        moduli.clear()
        x = linalg.solve(rows, len(rows))
        den = math.lcm(*[v.denominator for v in x])
        probe = sum(w * v for w, v in zip(range(1, len(x) + 1), x))
        nums = [abs(v.numerator) * (den // v.denominator) for v in x]
        largest = max(nums + [den, abs(probe.numerator), probe.denominator])
        needed = 1
        while P ** needed <= 2 * largest ** 2:
            needed += 1
        steps = 0
        while P ** steps < moduli[-1]:
            steps += 1
        assert steps <= needed + needed // 8 + 2 < _step_cap(rows)
        # a false candidate of the probe fails the next digit, so it is
        # not tried on the whole solution
        assert len(moduli) == 1


# nullspace lifts each free column over one mod-P inverse on the shapes
# ``_lifts`` admits, and certifies the result; every other shape, and a
# failed certificate, takes the exact RankTracker.

@st.composite
def wide_matrices(draw):
    """Integer rows of 18 to 26 columns, either side of the rule, up to 6
    more rows than columns: dense rows, some columns combinations of
    earlier ones (free columns before pivots) and some rows combinations
    of earlier rows (rejected by the prime, and checked exactly)."""
    ncols = draw(st.integers(linalg._LIFT_COLUMNS - 3,
                             linalg._LIFT_COLUMNS + 5))
    nrows = draw(st.integers(ncols - 8, ncols + 6))
    entries = st.integers(-6, 6)
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, ncols - 1))
        i, c = draw(st.integers(0, j - 1)), draw(st.integers(-3, 3))
        for row in rows:
            row[j] = c * row[i] + (row[j] if draw(st.booleans()) else 0)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[draw(st.integers(0, nrows - 1))] = [
            s * u + t * v for u, v in zip(a, b)]
    return ncols, rows


@settings(max_examples=40, deadline=None)
@given(wide_matrices())
def test_lifted_nullspace_matches_reference(case):
    ncols, rows = case
    want = ref_nullspace(fractions(rows), ncols)
    assert linalg.nullspace(rows, ncols) == want
    lifted = linalg._lifted_nullspace(rows, ncols)
    assert lifted is None or lifted == want


class _CountingTracker(RankTracker):
    made = 0

    def __init__(self, ncols):
        type(self).made += 1
        super().__init__(ncols)


def _divisible_by_p_cases():
    """Liftable shapes whose free columns differ mod P and over Q: a
    column that is an earlier column plus P times a vector (free mod P, a
    pivot over Q), and a row that is a combination of others plus P times
    a vector (rejected mod P, independent over Q), in place of a row
    (the rank mod P falls short) and added as one more row (a lifted
    vector fails the exact check on it)."""
    rng = random.Random(7)
    ncols = linalg._LIFT_COLUMNS + 3
    rows = [[rng.randrange(-9, 10) for _ in range(ncols)]
            for _ in range(ncols - 1)]
    column = [[row[:] for row in rows]]
    for row in column[0]:
        row[5] = row[3] + P * rng.randrange(1, 5)
    combination = [row[:] for row in rows]
    combination[-1] = [2 * u - v + P * rng.randrange(-3, 4)
                       for u, v in zip(rows[0], rows[1])]
    return ncols, column + [combination, rows + combination[-1:]]


def test_lifted_nullspace_divisible_by_p_reaches_the_rank_tracker(
        monkeypatch):
    ncols, cases = _divisible_by_p_cases()
    monkeypatch.setattr(linalg, "RankTracker", _CountingTracker)
    for rows in cases:
        assert linalg._lifts(len(rows), ncols)
        assert linalg._lifted_nullspace(rows, ncols) is None
        _CountingTracker.made = 0
        assert linalg.nullspace(rows, ncols) == ref_nullspace(
            fractions(rows), ncols)
        assert _CountingTracker.made == 1


def _refused(*args):
    raise AssertionError("lifted")


def test_lifted_nullspace_answers_without_the_rank_tracker(monkeypatch):
    # a poised set minus one node; and a poised set, alone and with more
    # rows than columns, whose mod-P rank fills every column: no inverse
    xs = generators.random_poised(6, 3)
    rows = nodes.collocation_matrix(xs.subset(range(1, len(xs))), 6)
    want = ref_nullspace(fractions(rows), 28)
    full = nodes.collocation_matrix(generators.random_poised(5, 2), 5)
    monkeypatch.setattr(linalg, "RankTracker", _CountingTracker)
    _CountingTracker.made = 0
    assert linalg.nullspace(rows, 28) == want
    monkeypatch.setattr(linalg, "_inverse", _refused)
    assert linalg.nullspace(full, 21) == []
    assert linalg.nullspace(full + full[:3], 21) == []
    assert _CountingTracker.made == 0


def test_lifted_nullspace_needs_the_rank_mod_p(monkeypatch):
    # more nodes than monomials, on a conic: 28 columns, rank 13, so 15
    # free columns, which the shape cannot tell; the mod-P pass stops and
    # the RankTracker answers, with no lift
    circle = [nodes.node(Fraction(1 - t * t, 1 + t * t),
                         Fraction(2 * t, 1 + t * t)) for t in range(-15, 15)]
    rows = nodes.collocation_matrix(nodes.NodeSet(circle), 6)
    assert linalg._lifts(len(rows), 28)
    monkeypatch.setattr(linalg, "_lift", _refused)
    monkeypatch.setattr(linalg, "_inverse", _refused)
    basis = linalg.nullspace(rows, 28)
    assert len(basis) == 15
    assert basis == ref_nullspace(fractions(rows), 28)


@settings(max_examples=15, deadline=None)
@given(wide_matrices())
def test_nullspace_without_a_lift_gives_the_same_answers(case):
    # every lift fails: the exact route answers, and the same basis
    ncols, rows = case
    want = linalg.nullspace(rows, ncols)
    original = linalg._lift
    linalg._lift = lambda *args: None
    try:
        assert linalg.nullspace(rows, ncols) == want
        assert linalg.solve([row + [1] for row in rows[:ncols]], ncols) == (
            linalg.solve_columns([row + [1] for row in rows[:ncols]], ncols))
    finally:
        linalg._lift = original


@st.composite
def residue_rows(draw):
    """Fewer rows than columns, of residues mod P: small values, so that
    zeros and repeats are common, or any residue; the last row is at times
    a combination of the others mod P."""
    ncols = draw(st.integers(2, 7))
    nrows = draw(st.integers(1, ncols - 1))
    entry = st.one_of(st.integers(0, 2), st.just(P - 1),
                      st.integers(0, P - 1))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, P - 1), min_size=nrows - 1,
                                max_size=nrows - 1))
        rows[-1] = [sum(w * row[j] for w, row in zip(weights, rows)) % P
                    for j in range(ncols)]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(residue_rows())
def test_orthogonal_probe_is_orthogonal_and_not_zero(case):
    # None exactly when the rows are dependent mod P; otherwise a vector
    # orthogonal to every row mod P, with f + 1 at each free column f, so
    # not 0
    rows, ncols = case
    probe = linalg._orthogonal_probe(rows, ncols)
    if _rank_mod_p(rows) < len(rows):
        assert probe is None
        return
    assert all(0 <= v < P for v in probe)
    assert all(sum(map(operator.mul, probe, row)) % P == 0 for row in rows)
    assert sum(v == f + 1 for f, v in enumerate(probe)) >= ncols - len(rows)
