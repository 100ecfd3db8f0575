from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nodecurves import linalg
from nodecurves.linalg import IndependenceTracker, Matrix, P, RankTracker


def F(v):
    return Fraction(v)


def mul_vec(m: Matrix, v) -> tuple[Fraction, ...]:
    assert len(v) == m.ncols
    return tuple(sum((m.at(i, j) * v[j] for j in range(m.ncols)), Fraction(0))
                 for i in range(m.nrows))


def test_frac_parses_canonical_strings():
    assert linalg.frac("3/4") == Fraction(3, 4)
    assert linalg.frac("-2/6") == Fraction(-1, 3)
    assert linalg.frac(5) == Fraction(5)
    assert str(Fraction(-3, 4)) == "-3/4"
    assert str(Fraction(8, 4)) == "2"


def test_nullspace_canonical_basis():
    # rows of the 4-node degree-2 collocation example
    m = Matrix.from_rows([
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0],
        [1, 2, 0, 4, 0, 0],
        [1, 0, 1, 0, 0, 1],
    ])
    assert linalg.rank(m) == 4
    ns = linalg.nullspace(m)
    assert ns.ncols == 2
    assert ns.column(0) == (F(0), F(0), F(0), F(0), F(1), F(0))
    assert ns.column(1) == (F(0), F(0), F(-1), F(0), F(0), F(1))


def test_nullspace_of_zero_row_spans_everything():
    m = Matrix.from_rows([[0, 0, 0]])
    ns = linalg.nullspace(m)
    assert ns.ncols == 3
    assert [ns.column(j) for j in range(3)] == [
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]


def test_solve_free_variables_zero():
    m = Matrix.from_rows([[1, 1]])
    assert linalg.solve(m, [2]) == (F(2), F(0))


def test_solve_inconsistent_returns_none():
    m = Matrix.from_rows([[1], [1]])
    assert linalg.solve(m, [0, 1]) is None


def test_solve_columns_mixed_consistency():
    m = Matrix.from_rows([[1, 0], [1, 0]])
    got = linalg.solve_columns(m, [[1, 1], [0, 1]])
    assert got[0] == (F(1), F(0))
    assert got[1] is None


def test_empty_matrix_edges():
    m = Matrix.from_rows([])
    assert linalg.rank(m) == 0
    zero_rows = Matrix(0, 4, ())
    assert linalg.nullspace(zero_rows).ncols == 4


def test_rank_tracker_matches_rref_rank():
    rows = [
        [1, 2, 3],
        [2, 4, 6],
        [0, 1, 1],
        [1, 3, 4],
    ]
    m = Matrix.from_rows(rows)
    tracker = RankTracker(3)
    grew = [tracker.add(r) for r in rows]
    assert grew == [True, False, True, False]
    assert tracker.rank == linalg.rank(m) == 2


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
    return st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(small_fracs, min_size=c, max_size=c),
            min_size=1, max_size=max_rows).map(Matrix.from_rows))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_plus_nullity_is_ncols(m):
    ns = linalg.nullspace(m)
    assert linalg.rank(m) + ns.ncols == m.ncols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_annihilated(m):
    ns = linalg.nullspace(m)
    for j in range(ns.ncols):
        out = mul_vec(m, ns.column(j))
        assert all(v == 0 for v in out)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_solution_satisfies_system(m, data):
    x = data.draw(st.lists(small_fracs, min_size=m.ncols, max_size=m.ncols))
    b = mul_vec(m, x)
    got = linalg.solve(m, b)
    assert got is not None
    assert mul_vec(m, got) == b


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_tracker_rank_agrees_with_fraction_path(m):
    tracker = RankTracker(m.ncols)
    for i in range(m.nrows):
        tracker.add(linalg.integer_row(m.row(i))[0])
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
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = _eliminate(rows, m.ncols)
    return [tuple(r) for r in rows], tuple(pivots)


def ref_nullspace(m):
    rows, pivots = ref_rref(m)
    basis = []
    for f in (j for j in range(m.ncols) if j not in pivots):
        vec = [F(0)] * m.ncols
        vec[f] = F(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def ref_solve_columns(m, columns):
    k = len(columns)
    rows = [list(m.row(i)) + [F(columns[c][i]) for c in range(k)]
            for i in range(m.nrows)]
    pivots = _eliminate(rows, m.ncols)
    out = []
    for c in range(k):
        aug = m.ncols + c
        if any(rows[r][aug] != 0 for r in range(len(pivots), len(rows))):
            out.append(None)
            continue
        x = [F(0)] * m.ncols
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
    return Matrix.from_rows(draw(st.permutations(rows)))


def any_matrices():
    return st.one_of(matrices(), awkward_matrices())


@settings(max_examples=150, deadline=None)
@given(any_matrices())
def test_rank_matches_reference(m):
    _, pivots = ref_rref(m)
    assert linalg.rank(m) == len(pivots)


@settings(max_examples=150, deadline=None)
@given(any_matrices())
def test_nullspace_matches_reference(m):
    ns = linalg.nullspace(m)
    assert [ns.column(j) for j in range(ns.ncols)] == ref_nullspace(m)


@settings(max_examples=150, deadline=None)
@given(any_matrices())
def test_tracker_incremental_matches_reference(m):
    tracker = RankTracker(m.ncols)
    for i in range(m.nrows):
        row = linalg.integer_row(m.row(i))[0]
        before = tracker.rank
        grows = tracker.would_grow(row)
        assert tracker.rank == before
        _, pivots = ref_rref(Matrix.from_rows(m.rows()[:i + 1]))
        assert tracker.add(row) == grows == (len(pivots) > before)
        assert tracker.rank == len(pivots)
        assert not tracker.would_grow(row)


# each right-hand side has its own denominators, unrelated to the others'
unrelated_denominators = st.lists(
    st.sampled_from([1, 3, 7, 11, 13, 17, 19, 23, 29, 31]), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(any_matrices(), unrelated_denominators, st.data())
def test_solve_columns_matches_reference(m, dens, data):
    columns = []
    for den in dens:
        numerators = st.integers(-40, 40)
        if data.draw(st.booleans()):
            # consistent by construction: b = m x
            x = [Fraction(data.draw(numerators), den) for _ in range(m.ncols)]
            columns.append(mul_vec(m, x))
        else:
            columns.append([Fraction(data.draw(numerators), den)
                            for _ in range(m.nrows)])
    got = linalg.solve_columns(m, columns)
    assert got == ref_solve_columns(m, columns)
    assert [linalg.solve(m, b) for b in columns] == got


# IndependenceTracker against the exact RankTracker: rows the prime P
# cannot tell apart from earlier rows ("multiple_of_p" is 0 mod P,
# "shifted" equals an earlier row mod P) must reach the exact path.
small_ints = st.integers(-5, 5)
row_entries = st.one_of(small_ints, st.integers(-2**70, 2**70))


@st.composite
def integer_row_streams(draw, max_rows=9, max_cols=5):
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
@given(integer_row_streams())
def test_independence_tracker_matches_rank_tracker(stream):
    ncols, rows = stream
    fast, exact = IndependenceTracker(ncols), RankTracker(ncols)
    for row in rows:
        assert fast.add(row) == exact.add(row)
        assert fast.rank == exact.rank


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
