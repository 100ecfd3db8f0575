"""
How many independent nodes fit on a curve
=========================================

An algebraic curve of degree k can carry at most

    d(n, k) = k(2n + 3 - k)/2

n-independent nodes; a curve that reaches the bound is called maximal.
This demo fills curves up to the bound and watches the bound bind.
"""

from nodecurves import (
    Curve,
    LineForm,
    LineUnion,
    NodeSet,
    extend_on_curve,
    is_independent,
    is_maximal_curve,
    max_nodes_on_curve,
    space_divisible_by,
    uniqueness_threshold,
    vanishing_basis,
)

n = 4
print("degree-k node maxima at n =", n)
for k in range(1, n + 1):
    print(f"  d({n},{k}) = {max_nodes_on_curve(n, k)}"
          f"   uniqueness threshold K = {uniqueness_threshold(n, k)}")

# A line (k=1) carries at most n+1 independent nodes.  Fill the x-axis.
axis = LineForm.of(0, 1, 0)  # y = 0
full = extend_on_curve(NodeSet(), axis, Curve(axis.poly()), n)
print("x-axis filled at n =", n, "->", full)

# One more point of the line is now forced to be dependent.
more = full.with_node((7, 0))
print("with an extra on-line node, independent:", is_independent(more, n))

# Every degree-n polynomial vanishing on the full line set must contain the
# line as a factor: p = l * r.
space = vanishing_basis(full, n)
print("every vanishing element divisible by the line:",
      space_divisible_by(space, Curve(axis.poly())))

# The same machinery works for reducible curves.  A union of two lines is a
# degree-2 curve; d(4,2) = 9 nodes fit.
pair = LineUnion.of([LineForm.of(0, 1, 0), LineForm.of(1, 0, -1)])
conic = pair.curve()
filled = extend_on_curve(NodeSet(), pair, conic, n)
print("line pair filled:", len(filled), "nodes; maximal:",
      is_maximal_curve(conic, filled, n))
