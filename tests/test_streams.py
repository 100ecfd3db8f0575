"""The search streams, built ring by ring and shared, against the
generators that built them afresh on every read."""

import itertools
from fractions import Fraction
from math import gcd

from nodecurves import curves, nodes
from nodecurves.curves import LineForm, LineUnion
from nodecurves.nodes import Node


def fresh_spiral_pairs():
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


def fresh_integer_spiral():
    for x, y in fresh_spiral_pairs():
        yield Node(Fraction(x), Fraction(y))


def fresh_rational_pairs():
    for p, q in fresh_spiral_pairs():
        if q > 0 and gcd(p, q) == 1:
            yield p, q


def fresh_line_points(line):
    for p, q in fresh_rational_pairs():
        yield line._point(p, q)


def fresh_union_points(union):
    # one stream per line, read round-robin
    streams = [fresh_line_points(line) for line in union.lines]
    for batch in zip(*streams):
        yield from batch


def prefix(stream, count):
    return list(itertools.islice(stream, count))


def test_spiral_pairs_match_the_fresh_generator():
    assert (prefix(nodes._spiral_pairs(), 20_000)
            == prefix(fresh_spiral_pairs(), 20_000))


def test_integer_spiral_matches_the_fresh_generator():
    assert (prefix(nodes.integer_spiral(), 3_000)
            == prefix(fresh_integer_spiral(), 3_000))


def test_rational_pairs_match_the_fresh_generator():
    assert (prefix(curves._rational_pairs(), 5_000)
            == prefix(fresh_rational_pairs(), 5_000))


def line(a, b, c):
    return LineForm.of(a, b, c)


# a vertical, a horizontal, two parallel lines (slope 1/2) and one with
# fractional coefficients
UNION_LINES = [line(1, 0, -2), line(0, 1, 3), line(1, -2, 0),
               line(-2, 4, 7), line("1/3", "5/2", "-1/7")]


def test_union_points_match_the_per_line_round_robin():
    for m in range(1, len(UNION_LINES) + 1):
        union = LineUnion.of(UNION_LINES[:m])
        assert (prefix(union.points(), 400)
                == prefix(fresh_union_points(union), 400)), m


def test_interleaved_readers_see_the_same_stream():
    want = prefix(fresh_spiral_pairs(), 3_000)
    a, b = nodes._spiral_pairs(), nodes._spiral_pairs()
    got_a, got_b = [], []
    for _ in range(1_000):
        got_a += prefix(a, 3)
        got_b.append(next(b))
    got_b += prefix(b, 2_000)
    assert got_a == got_b == want
    union = LineUnion.of(UNION_LINES[:3])
    a, b = union.points(), union.points()
    pairs = [(next(a), next(b)) for _ in range(300)]
    assert [x for x, _ in pairs] == [y for _, y in pairs]
    assert [x for x, _ in pairs] == prefix(fresh_union_points(union), 300)


def test_a_late_reader_starts_at_the_front_of_a_warm_cache():
    for stream, fresh, count in (
            (nodes._spiral_pairs, fresh_spiral_pairs, 4_000),
            (nodes.integer_spiral, fresh_integer_spiral, 2_000),
            (curves._rational_pairs, fresh_rational_pairs, 2_000)):
        prefix(stream(), 2 * count)
        assert prefix(stream(), count) == prefix(fresh(), count)
