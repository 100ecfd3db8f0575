from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodecurves import curves, poly
from nodecurves.curves import Curve
from nodecurves.nodes import VanishingSpace
from nodecurves.poly import Poly


def test_frac_parses_canonical_strings():
    assert poly.frac("3/4") == Fraction(3, 4)
    assert poly.frac("-2/6") == Fraction(-1, 3)
    assert poly.frac(5) == Fraction(5)
    assert str(Fraction(-3, 4)) == "-3/4"
    assert str(Fraction(8, 4)) == "2"
    assert poly.frac("1.5") == Fraction(3, 2)


@pytest.mark.parametrize("text", ["1e10000000", "2E3", "1.5e-9999999"])
def test_frac_refuses_decimal_exponents(text):
    with pytest.raises(ValueError, match="decimal exponent in"):
        poly.frac(text)


def _outcome(parse, text):
    """The value parsed, or the exception's type and message."""
    try:
        return parse(text)
    except Exception as error:  # compared, not swallowed
        return type(error), str(error)


def _reference_frac(text):
    """``frac`` as ``Fraction(str)`` with its two documented refusals."""
    if "e" in text or "E" in text:
        raise ValueError(f"decimal exponent in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# signs, spaces, "/0", decimals, exponents, underscores and Arabic-Indic
# digits, in order and in any order
_digits = st.text("0123456789\u0660\u0661\u0669_", min_size=1, max_size=4)
_grammar = st.tuples(
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-", "--"]),
    _digits, st.sampled_from(["", ".", ".5", "._1"]),
    st.one_of(st.just(""), st.just("/0"), _digits.map("/".__add__),
              st.just("/-3")),
    st.sampled_from(["", "e2", "E-1"]), st.sampled_from(["", " ", "\n"]),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_grammar, st.text("0123456789+-/._ e\u0661", max_size=8)))
def test_frac_matches_fraction_on_strings(text):
    got, want = _outcome(poly.frac, text), _outcome(_reference_frac, text)
    assert got == want
    assert type(got) is type(want)


def test_space_dim_values():
    assert poly.space_dim(0) == 1
    assert poly.space_dim(2) == 6
    assert poly.space_dim(6) == 28


def test_monomial_order_prefix():
    # 1, x, y, x^2, x*y, y^2, x^3, ...
    order = [poly.monomial_exponents(idx) for idx in range(7)]
    assert order == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0)]
    assert poly.monomial_index(1, 1) == 4


def test_monomial_index_round_trip():
    # independent enumeration of the same order
    expected = []
    for t in range(13):
        for i in range(t, -1, -1):
            expected.append((i, t - i))
    for idx, (i, j) in enumerate(expected):
        assert poly.monomial_index(i, j) == idx
        assert poly.monomial_exponents(idx) == (i, j)


def test_eval_and_degree():
    p = Poly.from_terms({(1, 1): 1, (0, 2): 1, (0, 1): -1}, 2)
    assert p.degree == 2
    assert p.eval(0, 1) == 0
    assert p.eval(2, 0) == 0
    assert p.eval(2, 3) == 6 + 9 - 3
    assert Poly.from_terms({}, 3).degree is None
    assert Poly.from_terms({(0, 0): 5}, 0).degree == 0


def test_mul_hand_example():
    # y * (x + y - 1) = x*y + y^2 - y
    left = poly.linear(0, 1, 0)
    right = poly.linear(1, 1, -1)
    prod = left * right
    want = Poly.from_terms({(1, 1): 1, (0, 2): 1, (0, 1): -1}, 2)
    assert prod.equals(want)


def divisible(p: Poly, q: Poly) -> bool:
    """Does q divide p at p's bound?  Asked of the one-element space."""
    return curves.space_divisible_by(VanishingSpace(p.bound, (p,)),
                                     Curve(q))


def test_quotient_hand_example():
    # y divides x*y + y^2 - y = y * (x + y - 1)
    p = Poly.from_terms({(1, 1): 1, (0, 2): 1, (0, 1): -1}, 2)
    assert divisible(p, poly.linear(0, 1, 0))
    assert divisible(p, poly.linear(1, 1, -1))


def test_quotient_absent():
    p = poly.linear(1, 0, -1)  # x - 1
    q = poly.linear(0, 1, 0)   # y
    assert not divisible(p, q)


def test_normalized_leading_one():
    p = Poly.from_terms({(0, 1): -2, (1, 1): 4}, 2)
    q = p.normalized()
    assert q.coeffs[poly.monomial_index(0, 1)] == 1
    assert q.coeffs[poly.monomial_index(1, 1)] == -2


def test_str_forms():
    assert str(poly.linear(-1, -1, 1)) == "1 - x - y"
    p = Poly.from_terms({(1, 1): 1, (0, 2): 1, (0, 1): -1}, 2)
    assert str(p) == "-y + x*y + y^2"
    assert str(Poly.from_terms({}, 2)) == "0"
    assert str(Poly.from_terms({(2, 1): Fraction(3, 4)}, 3)) == "3/4*x^2*y"


def test_json_round_trip():
    p = Poly.from_terms({(1, 0): Fraction(-1, 2), (0, 0): 1}, 2)
    data = p.to_json()
    assert data["n"] == 2
    assert data["coeffs"][0] == "1"
    assert data["coeffs"][1] == "-1/2"
    assert Poly.from_json(data) == p


def test_with_bound_raises_on_truncation():
    p = Poly.from_terms({(2, 0): 1}, 2)
    with pytest.raises(ValueError):
        p.with_bound(1)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def with_bound_reference(p: Poly, bound: int) -> Poly:
    # term by term: each nonzero coefficient moves to its index at bound
    coeffs = [Fraction(0)] * poly.space_dim(bound)
    for i, j, c in p.terms():
        coeffs[poly.monomial_index(i, j)] = c
    return Poly(bound, tuple(coeffs))


@st.composite
def padded_polys(draw):
    """Degree at most d, stored at a bound d + extra: a lower bound than
    the stored one can still hold it."""
    d = draw(st.integers(0, 3))
    cs = draw(st.lists(small_fracs, min_size=poly.space_dim(d),
                       max_size=poly.space_dim(d)))
    stored = d + draw(st.integers(0, 2))
    return Poly.from_coeffs(cs + [0] * (poly.space_dim(stored) - len(cs)),
                            stored)


@settings(max_examples=100, deadline=None)
@given(padded_polys(), st.integers(0, 6))
def test_with_bound_matches_termwise_reference(p, bound):
    if p.degree is None or p.degree <= bound:
        assert p.with_bound(bound) == with_bound_reference(p, bound)
    else:
        with pytest.raises(ValueError, match="effective degree exceeds"):
            p.with_bound(bound)


def polys(max_bound=3):
    return st.integers(0, max_bound).flatmap(
        lambda n: st.lists(
            small_fracs,
            min_size=poly.space_dim(n),
            max_size=poly.space_dim(n),
        ).map(lambda cs: Poly.from_coeffs(cs, n)))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), small_fracs, small_fracs)
def test_mul_is_pointwise(p, q, x, y):
    assert (p * q).eval(x, y) == p.eval(x, y) * q.eval(x, y)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_degree_additive_for_nonzero(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        # exact arithmetic over a field: leading forms cannot cancel
        assert (p * q).degree == p.degree + q.degree


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, 2))
def test_multiplication_matrix_rows_are_integer_products(q, extra):
    # row m holds the integer coefficients of q * (m-th monomial)
    if q.is_zero:
        return
    n = q.degree + extra
    rows = poly.multiplication_matrix(q, n)
    assert len(rows) == poly.space_dim(extra)
    for m, row in enumerate(rows):
        i, j = poly.monomial_exponents(m)
        product = q * Poly.from_terms({(i, j): 1}, i + j)
        assert row == product.with_bound(n)._integer_coeffs[0]


@pytest.mark.parametrize("q, n, message", [
    (Poly.from_terms({}, 1), 2, "zero polynomial"),
    (Poly.from_terms({(2, 0): 1}, 2), 1, "exceeds"),
])
def test_multiplication_matrix_refuses_zero_and_high_degree(q, n, message):
    with pytest.raises(ValueError, match=message):
        poly.multiplication_matrix(q, n)


@settings(max_examples=60, deadline=None)
@given(polys(max_bound=2), polys(max_bound=2))
def test_quotient_recovers_factor(p, q):
    if q.is_zero or q.degree == 0:
        return
    assert divisible(p * q, q)
