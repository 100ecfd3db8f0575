"""
Which nodes use a 3-node line
=============================

Take a poised set and a line passing through exactly 3 of its nodes.  A node
off the line "uses" it when the line divides that node's fundamental
polynomial.  The counting law: such a line is used by exactly one node or by
exactly three, never two, never four -- and three users are never collinear.
line_usage_reports checks both and raises TheoremViolation on a breach, so
every report it returns obeys them.

Triangular-scheme sets (n+1 nodes on one line, n on a second, and so on)
are a natural hunting ground, since they are poised by construction and full
of exactly-3-node lines.
"""

from nodecurves import berzolari_radon, line_usage_reports, random_poised

for n in (3, 4):
    built = berzolari_radon(n, seed=5)
    print(f"triangular-scheme set, n={n}: {len(built.nodes)} nodes on "
          f"{len(built.lines)} lines (counts {list(built.counts)})")
    for report in line_usage_reports(built.nodes, n):
        line = report.line
        print(f"  line {line.a}*x + {line.b}*y + {line.c} = 0:"
              f" {len(report.users)} user(s)")

# Random poised sets rarely have 3 nodes on a line at all; an empty list is
# a perfectly good answer.
xs = random_poised(3, seed=0)
print("random poised set, n=3:", len(line_usage_reports(xs, 3)),
      "used 3-node lines")
