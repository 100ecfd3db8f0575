"""Bivariate polynomials with exact rational coefficients.

A polynomial of degree bound n is a dense coefficient vector over the
monomials x^i y^j with i + j <= n, ordered graded-lex: total degree
ascending, then i descending.  The sequence starts

    1, x, y, x^2, x*y, y^2, x^3, x^2*y, ...

so the monomial x^i y^j with t = i + j sits at index t(t+1)/2 + (t - i).
The degree bound is bookkeeping only; the effective degree of a polynomial
is the largest total degree with a nonzero coefficient, and the zero
polynomial has no degree (reported as None).

Evaluation is integer arithmetic.  ``homogeneous_row`` writes a point as
(A/e, C/e) over a common denominator e and returns the monomials at it as
the integers A^i C^j e^(n-i-j); the scale e^n they were multiplied by is
entry 0, the constant monomial's.  ``integer_row`` takes the homogeneous
coordinates [e, A, C] themselves, any integers not all 0.  Each entry is
one product of powers read off a cached exponent table,
``row_exponents``; the row restricted
to the standard monomials of a curve's leading monomial (those it does
not divide) is the same product over a filtered copy of that table.  The
same rows feed the elimination kernel (see ``linalg``); a ``Poly`` keeps
its coefficients as integers over one denominator, so ``eval`` is an
integer dot product and builds a single ``Fraction``, the result.

``multiplication_matrix`` returns the multiples of q by the monomials as
integer coefficient rows, each led by LM(q) times its monomial;
``curves`` decides divisibility by dividing by q against those rows, from
the last row back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import isqrt, lcm
from operator import mul
from typing import Iterator, Optional

from .linalg import ZERO

# an optional sign, ASCII digits, and an optional "/" and ASCII digits
_PLAIN = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def frac(value) -> Fraction:
    """Coerce an int, string like "3/4" or "1.5", or Fraction to a Fraction.

    A string with a decimal exponent is refused: "1e10000000" would build a
    ten-million-digit integer.  A plain ASCII integer or ratio, the form
    ``str(Fraction)`` prints, is built from its ints; every other string
    goes to ``Fraction(str)``, with that Python version's rules for
    spaces, decimals, underscores and non-ASCII digits."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"decimal exponent in {value!r}")
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            if isinstance(value, str) and _PLAIN.fullmatch(value):
                num, _, den = value.partition("/")
                return Fraction(int(num), int(den or 1))
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not a rational value: {value!r}")


def space_dim(n: int) -> int:
    """Number of monomials x^i y^j with i + j <= n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return (n + 1) * (n + 2) // 2


def monomial_index(i: int, j: int) -> int:
    """Position of x^i y^j in graded-lex order."""
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative")
    t = i + j
    return t * (t + 1) // 2 + (t - i)


def monomial_exponents(index: int) -> tuple[int, int]:
    """Inverse of monomial_index."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    t = (isqrt(8 * index + 1) - 1) // 2
    offset = index - t * (t + 1) // 2
    return t - offset, offset


@cache
def row_exponents(n: int, lead: Optional[tuple[int, int]] = None
                  ) -> tuple[tuple[int, int, int], ...]:
    """The exponents (i, j, n-i-j) of the monomials x^i y^j of degree <= n
    in graded-lex order, the columns of a degree-n row.

    With ``lead`` = (s, t), the exponents of a curve's leading monomial,
    only the standard monomials: those x^s y^t does not divide.  There are
    space_dim(n) - space_dim(n - s - t) of them.
    """
    table = tuple((i, d - i, n - d)
                  for d in range(n + 1) for i in range(d, -1, -1))
    if lead is None:
        return table
    s, t = lead
    return tuple(e for e in table if not (e[0] >= s and e[1] >= t))


def _powers(v: int, n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * v)
    return out


def homogeneous_row(x, y, n: int,
                    lead: Optional[tuple[int, int]] = None) -> list[int]:
    """Degree-n monomials at (x, y) times a scale, as integers.

    With x = A/e and y = C/e over e = lcm(den x, den y), the entry of
    x^i y^j is A^i C^j e^(n-i-j), and the scale e^n, the lcm of the
    denominators of all entries, is entry 0.  The row is one product per
    entry of ``row_exponents(n, lead)``, so its order is graded-lex, as
    for coefficients; with ``lead`` it keeps only the standard monomials'
    entries, and entry 0 is still the scale.
    """
    e = lcm(x.denominator, y.denominator)
    return integer_row(e, x.numerator * (e // x.denominator),
                       y.numerator * (e // y.denominator), n, lead)


def integer_row(e: int, a: int, c: int, n: int,
                lead: Optional[tuple[int, int]] = None) -> list[int]:
    """The entries a^i c^j e^(n-i-j) over ``row_exponents(n, lead)``: the
    degree-n row of the point with homogeneous coordinates [e, a, c], up
    to the scale.  At e = 0, a point at infinity, only the degree-n
    entries are nonzero."""
    a_pows, c_pows, e_pows = _powers(a, n), _powers(c, n), _powers(e, n)
    return [a_pows[i] * c_pows[j] * e_pows[k]
            for i, j, k in row_exponents(n, lead)]


@dataclass(frozen=True)
class Poly:
    """Dense bivariate polynomial; ``coeffs[monomial_index(i, j)]`` is the
    coefficient of x^i y^j."""

    bound: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != space_dim(self.bound):
            raise ValueError("coefficient count does not match degree bound")

    @staticmethod
    def from_terms(terms: dict[tuple[int, int], object], bound: int) -> "Poly":
        coeffs = [ZERO] * space_dim(bound)
        for (i, j), c in terms.items():
            if i + j > bound:
                raise ValueError("term degree exceeds bound")
            coeffs[monomial_index(i, j)] += frac(c)
        return Poly(bound, tuple(coeffs))

    @staticmethod
    def from_coeffs(coeffs, bound: int) -> "Poly":
        return Poly(bound, tuple(frac(c) for c in coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def leading_exponents(self) -> Optional[tuple[int, int]]:
        """Exponents (s, t) of the leading monomial x^s y^t, the nonzero
        coefficient with the highest graded-lex index; None for the zero
        polynomial.  The order is a monomial order (graded, then y before
        x), so the leading monomial of a product is the product of the
        factors' leading monomials."""
        top = next((idx for idx in range(len(self.coeffs) - 1, -1, -1)
                    if self.coeffs[idx] != 0), None)
        return None if top is None else monomial_exponents(top)

    @property
    def degree(self) -> Optional[int]:
        """Effective total degree; None for the zero polynomial."""
        lead = self.leading_exponents
        return None if lead is None else sum(lead)

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        for idx, c in enumerate(self.coeffs):
            if c != 0:
                i, j = monomial_exponents(idx)
                yield i, j, c

    @cached_property
    def _integer_coeffs(self) -> tuple[list[int], int]:
        """Coefficients times their common denominator d, and d."""
        d = lcm(*[c.denominator for c in self.coeffs])
        return [c.numerator * (d // c.denominator) for c in self.coeffs], d

    def eval(self, x, y) -> Fraction:
        row = homogeneous_row(frac(x), frac(y), self.bound)
        coeffs, den = self._integer_coeffs
        return Fraction(sum(map(mul, coeffs, row)), den * row[0])

    def with_bound(self, bound: int) -> "Poly":
        """Same polynomial re-stored with another degree bound.

        In graded-lex order a lower bound's monomials are a prefix, so the
        coefficients are padded with zeros or cut to that prefix."""
        size = space_dim(bound)
        if any(self.coeffs[size:]):
            raise ValueError("effective degree exceeds requested bound")
        return Poly(bound, self.coeffs[:size]
                    + (ZERO,) * (size - len(self.coeffs)))

    def equals(self, other: "Poly") -> bool:
        """Mathematical equality, ignoring degree bounds."""
        bound = max(self.bound, other.bound)
        return self.with_bound(bound).coeffs == other.with_bound(bound).coeffs

    def normalized(self) -> "Poly":
        """Scale so the first nonzero graded-lex coefficient is 1."""
        lead = next((c for c in self.coeffs if c != 0), None)
        if lead is None or lead == 1:
            return self
        return Poly(self.bound, tuple(c / lead for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        bound = self.bound + other.bound
        coeffs = [ZERO] * space_dim(bound)
        mine = list(self.terms())
        for oi, oj, oc in other.terms():
            for i, j, c in mine:
                coeffs[monomial_index(i + oi, j + oj)] += c * oc
        return Poly(bound, tuple(coeffs))

    def __str__(self) -> str:
        parts = []
        for i, j, c in self.terms():
            mono = "*".join(
                ([f"x^{i}" if i > 1 else "x"] if i else [])
                + ([f"y^{j}" if j > 1 else "y"] if j else []))
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_json(self) -> dict:
        return {"n": self.bound, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "Poly":
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list):
            # a string would be read character by character
            raise ValueError('"coeffs" must be a JSON array')
        return Poly.from_coeffs(coeffs, json_int(data["n"], "n"))


def json_int(value, name: str) -> int:
    """A JSON integer field; floats, strings and bools are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{name} must be an integer, not {value!r}")


def linear(a, b, c) -> Poly:
    """The degree-1 polynomial a*x + b*y + c."""
    return Poly.from_terms({(1, 0): a, (0, 1): b, (0, 0): c}, 1)


def multiplication_matrix(q: Poly, n: int) -> list[list[int]]:
    """Integer coefficient rows, over bound n, of q times each monomial of
    degree <= n - deg(q).

    Row m is q's integer coefficients (``Poly._integer_coeffs``) shifted to
    the product with the m-th monomial.
    """
    k = q.degree
    if k is None:
        raise ValueError("multiplication by the zero polynomial")
    if k > n:
        raise ValueError("divisor degree exceeds target bound")
    coeffs = q._integer_coeffs[0]
    terms = [(*monomial_exponents(m), c) for m, c in enumerate(coeffs) if c]
    rows = []
    for m in range(space_dim(n - k)):
        mi, mj = monomial_exponents(m)
        row = [0] * space_dim(n)
        for i, j, c in terms:
            row[monomial_index(i + mi, j + mj)] = c
        rows.append(row)
    return rows
