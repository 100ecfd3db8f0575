"""The module-level names a profiler wraps are the ones the library calls.

A wrapper set on a module (``setattr(linalg, "rank", wrapper)``) sees only
the calls that look the name up there.  ``bench/tracing.py`` wraps these
seven names that way and looks each one up when it starts, so each must
exist and stay on the path of a public call.  Here each name is replaced
by a counting wrapper, and the public call paired with it must reach it.
"""

import functools

import pytest

from nodecurves import cli, curves, linalg, nodes, poly, verify
from nodecurves.curves import Curve
from nodecurves.nodes import NodeSet

MODULES = {"linalg": linalg, "poly": poly, "nodes": nodes, "verify": verify}

# 4 nodes at degree 2 (6 monomials): the fundamental polynomial's system
# is not square, so linalg.solve hands it to linalg.solve_columns
FOUR = '{"nodes": [["0","0"],["1","0"],["2","0"],["0","1"]]}'
# 2-independent, of the uniqueness threshold size 5 at n = k = 2
FIVE = '{"nodes": [["0","0"],["1","0"],["2","0"],["0","1"],["0","2"]]}'


def _cli(*args):
    def call():
        assert cli.main(list(args)) == 0
    return call


def _divisible():
    # the conics through 3 nodes of y = 0 and 2 of x = 0 are the multiples
    # of x*y
    space = nodes.vanishing_basis(NodeSet([(0, 0), (1, 0), (2, 0), (0, 1),
                                           (0, 2)]), 2)
    xy = Curve(poly.linear(1, 0, 0) * poly.linear(0, 1, 0))
    assert curves.space_divisible_by(space, xy)


CALLS = {
    "linalg.rank": _cli("indep", "-n", "2", FOUR),
    "linalg.nullspace": _cli("basis", "-n", "2", FOUR),
    "linalg.solve": _cli("fund", "-n", "2", "--node", "0", FOUR),
    "linalg.solve_columns": _cli("fund", "-n", "2", "--node", "0", FOUR),
    "poly.multiplication_matrix": _divisible,
    "nodes.collocation_matrix": _cli("indep", "-n", "2", FOUR),
    "verify.curves_through": _cli("verify", "uniqueness", "-n", "2", "-k",
                                  "2", FIVE),
}


def _counting(fn, name, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("name", sorted(CALLS))
def test_public_call_reaches_the_wrapped_name(name, monkeypatch, capsys):
    counts = dict.fromkeys(CALLS, 0)
    for key in CALLS:
        module, attr = key.split(".")
        owner = MODULES[module]
        monkeypatch.setattr(owner, attr,
                            _counting(getattr(owner, attr), key, counts))
    CALLS[name]()
    assert counts[name] >= 1
