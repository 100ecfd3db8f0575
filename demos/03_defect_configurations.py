"""
When two curves pass through the same nodes
===========================================

Through K(n,k) = d(n,k-1) + 2 independent nodes passes at most one curve of
degree k.  Drop the count by one and something remarkable happens: either
the curve through the nodes is unique (or none exists), or there are
infinitely many -- and in the latter case the set has a rigid shape, a
maximal degree-(k-1) curve holding all nodes but one outlier.

The generator below builds such sets on purpose; the analyzer recovers the
hidden structure from the bare node list.
"""

from nodecurves import (
    NodeSet,
    characterize_defect,
    curve_through_extra_node,
    defect_config,
    extend_to_poised,
    same_curve,
    verify_uniqueness,
)
from nodecurves.nodes import next_independent_node

n, k, seed = 4, 3, 11
cfg = defect_config(n, k, seed)
print(f"defect configuration at n={n}, k={k}, seed={seed}:")
print("  nodes:", len(cfg.nodes))
print("  planted curve mu:", cfg.mu.poly)
print("  planted outlier: "
      f"({cfg.outlier.x}, {cfg.outlier.y}) at index {cfg.outlier_index}")

# Recover the structure from the node list alone.  The degree-k curves
# through ALL nodes form a 2-dimensional space -- that is the defect.
report = characterize_defect(cfg.nodes, n, k)
print("dim of degree-k curve space:", report.curve_space_dim)
print("recovered outlier index:", report.outlier_index)
print("recovered mu equals planted mu (up to scale):",
      same_curve(report.mu, cfg.mu))

# With dimension >= 2 one can always pass a degree-k curve through the whole
# set AND any extra point: combine two basis curves.
extra = (5, 7)
two = curve_through_extra_node(cfg.nodes, k, extra)
print("curve through all nodes and", extra, "vanishes there:",
      two.curve.poly.eval(5, 7) == 0)

# One more independent node kills the defect: the curve space collapses to
# dimension <= 1 (a larger one would raise TheoremViolation).
grown = cfg.nodes.with_node(next_independent_node(cfg.nodes, n))
print("after adding one independent node, curve-space dim:",
      verify_uniqueness(grown, n, k))

# A generic independent set of the same size shows no defect at all.
generic = extend_to_poised(NodeSet(), n).subset(range(len(cfg.nodes)))
print("generic set of equal size, curve-space dim:",
      characterize_defect(generic, n, k).curve_space_dim)
