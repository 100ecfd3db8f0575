"""Building and reading ``linalg.Matrix`` values in tests.

The library builds matrices only from node sets and polynomials; the
tests also write them out by hand and read them back row by row.
"""

from fractions import Fraction

from nodecurves.linalg import Matrix, frac


def matrix_from_rows(rows) -> Matrix:
    rows = [tuple(frac(v) for v in row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    return Matrix(len(rows), ncols, tuple(v for row in rows for v in row))


def matrix_rows(m: Matrix) -> list[tuple[Fraction, ...]]:
    return [m.row(i) for i in range(m.nrows)]
