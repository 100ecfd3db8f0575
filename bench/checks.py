"""Output checks written from the definitions, sharing no code with the
library under test.

Polynomials are evaluated from their graded-lex coefficient lists
(1, x, y, x^2, xy, y^2, ...), lines from their (a, b, c) coefficients, and
ranks are computed modulo fixed primes.  A rank mod p never exceeds the
rank over Q when every denominator is invertible mod p, so full rank mod p
certifies independence; a deficit mod p proves nothing, and the checks use
it only as a lower bound.
"""

from __future__ import annotations

from fractions import Fraction

PRIMES = (2**61 - 1, 2**31 - 1)


def space_dim(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def on_curve_max(n: int, k: int) -> int:
    """d(n, k) = k(2n + 3 - k)/2, the paper's node bound for degree k."""
    return k * (2 * n + 3 - k) // 2


def uniqueness_size(n: int, k: int) -> int:
    """K(n, k) = d(n, k - 1) + 2."""
    return on_curve_max(n, k - 1) + 2


def exponents(n: int) -> list[tuple[int, int]]:
    """(i, j) of x^i y^j in graded-lex order: degree up, then i down."""
    return [(t - o, o) for t in range(n + 1) for o in range(t + 1)]


def point(pair) -> tuple[Fraction, Fraction]:
    x, y = pair
    return Fraction(x), Fraction(y)


def monomials(p, n: int) -> list[Fraction]:
    x, y = p
    xs, ys = [Fraction(1)], [Fraction(1)]
    for _ in range(n):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    return [xs[i] * ys[j] for i, j in exponents(n)]


def poly_from_json(data) -> tuple[int, list[Fraction]]:
    n = int(data["n"])
    coeffs = [Fraction(c) for c in data["coeffs"]]
    if len(coeffs) != space_dim(n):
        raise ValueError("coefficient count does not match the degree bound")
    return n, coeffs


def evaluate(coeffs: list[Fraction], n: int, p) -> Fraction:
    return sum((c * m for c, m in zip(coeffs, monomials(p, n)) if c),
               Fraction(0))


def line_value(line, p) -> Fraction:
    a, b, c = (Fraction(v) for v in line)
    return a * p[0] + b * p[1] + c


def collinear(p, q, r) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


def max_bits(nodes, n: int) -> int:
    """Largest numerator or denominator bit-length of the collocation
    matrix of the nodes at degree n."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for p in nodes for v in monomials(p, n)), default=0)


def _rank_mod(rows: list[list[Fraction]], p: int) -> int:
    if any(v.denominator % p == 0 for row in rows for v in row):
        return -1
    m = [[v.numerator * pow(v.denominator, -1, p) % p for v in row]
         for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        hit = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        inv = pow(m[rank][col], -1, p)
        prow = [v * inv % p for v in m[rank]]
        m[rank] = prow
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], prow)]
        rank += 1
    return rank


def rank_lower_bound(rows: list[list[Fraction]]) -> int:
    """Largest rank mod any of PRIMES; at most the rank over Q."""
    ceiling = min(len(rows), len(rows[0]) if rows else 0)
    best = 0
    for p in PRIMES:
        best = max(best, _rank_mod(rows, p))
        if best == ceiling:
            break
    return best


def certified_rank(nodes, n: int) -> int:
    """Lower bound on the collocation rank (the Hilbert function)."""
    return rank_lower_bound([monomials(p, n) for p in nodes])


def certified_independent(nodes, n: int) -> bool:
    return certified_rank(nodes, n) == len(nodes)


def most_collinear(nodes) -> int:
    """Largest number of the nodes on one line: for each node, the most
    later nodes seen from it in one direction, plus itself."""
    best = min(len(nodes), 1)
    for i, p in enumerate(nodes):
        counts: dict = {}
        for q in nodes[i + 1:]:
            dx, dy = q[0] - p[0], q[1] - p[1]
            slope = dy / dx if dx else None
            counts[slope] = counts.get(slope, 0) + 1
        best = max(best, 1 + max(counts.values(), default=0))
    return best


def three_node_lines(nodes) -> int:
    """Number of lines through exactly three of the nodes."""
    lines = set()
    for i, p in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            q = nodes[j]
            on = frozenset(k for k, r in enumerate(nodes)
                           if collinear(p, q, r))
            if len(on) == 3:
                lines.add(on)
    return len(lines)
