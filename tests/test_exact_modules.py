"""Floats appear only in ``svg.py``: every other module decides exactly.

Each module is parsed, not imported, so the check also covers code that
no test runs.  A float literal, the name ``float``, or a ``math`` import
beyond the integer functions fails it.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "nodecurves"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "svg.py")
INTEGER_MATH = {"gcd", "lcm", "isqrt", "prod"}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: the name float")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}"
                      for alias in node.names if alias.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {alias.name}"
                      for alias in node.names
                      if alias.name not in INTEGER_MATH]
    return found


def test_every_module_but_svg_is_checked():
    names = {p.name for p in MODULES}
    assert {"linalg.py", "poly.py", "curves.py", "nodes.py"} <= names
    assert "svg.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_floats(path):
    assert _float_uses(ast.parse(path.read_text())) == []


def test_the_check_finds_floats():
    source = ("import math\nfrom math import gcd, sqrt\n"
              "x = 0.5\ny = float(x)\n")
    assert _float_uses(ast.parse(source)) == [
        "line 1: import math", "line 2: from math import sqrt",
        "line 3: float literal 0.5", "line 4: the name float"]
