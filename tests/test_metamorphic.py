"""Structure laws under rational affine and projective maps and node
permutations.

A projective map T = (L1/L3, L2/L3), with L_i = a_i*x + b_i*y + c_i, an
invertible 3x3 matrix (a_i, b_i, c_i) and L3 nonzero at every node, maps
the nodes to affine points, and p -> L3^n * (p o T) is a linear bijection
of the polynomials of degree <= n.  So node T(x_i)'s degree-n row is
L3(x_i)^(-n) times node x_i's row times one invertible matrix: the Hilbert
function, the vanishing-space dimension, the defect split and the
fundamental polynomials move with their nodes, and lines map to lines, so
3-node lines and their users move with their nodes too.  An affine map is
the case L3 = 1.  A permutation of the nodes only relabels them.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodecurves import generators, linalg, nodes, verify
from nodecurves.nodes import NodeSet

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


@st.composite
def images(draw, xs):
    """T(xs) in a drawn order, and the order: node i of the image is the
    image of node order[i] of xs.  T is affine (L3 = 1) or projective,
    with L3 drawn too."""
    forms = [[draw(_rationals) for _ in range(3)] for _ in range(2)]
    projective = draw(st.booleans())
    forms.append([draw(_rationals) for _ in range(3)] if projective
                 else [0, 0, 1])
    assume(_det(forms) != 0)
    values = [[a * p.x + b * p.y + c for a, b, c in forms] for p in xs]
    assume(all(w for _, _, w in values))
    order = draw(st.permutations(range(len(xs))))
    image = [(u / w, v / w) for u, v, w in values]
    return NodeSet(image[i] for i in order), order


# poised, dependent (five nodes on y = 0) and defect sets, up to degree 4
_COLLINEAR_PLUS = NodeSet([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1),
                           (1, 1), (0, 2)])
_RANK_BASES = [(nodes.extend_to_poised(NodeSet(), 3), 3),
               (generators.berzolari_radon(4, 1).nodes, 4),
               (generators.random_poised(3, 2), 3),
               (_COLLINEAR_PLUS, 3)]


@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(_RANK_BASES), data=st.data())
def test_hilbert_function_and_vanishing_dimension_are_invariant(base, data):
    xs, n = base
    ys, _ = data.draw(images(xs))
    for m in range(1, n + 2):
        assert nodes.hilbert_function(ys, m) == nodes.hilbert_function(xs, m)
        assert (nodes.vanishing_basis(ys, m).dimension
                == nodes.vanishing_basis(xs, m).dimension)


_DEFECT_BASES = [generators.defect_config(n, k, seed)
                 for n, k, seed in ((3, 2, 1), (4, 2, 2), (4, 3, 3),
                                    (5, 2, 4), (5, 3, 5))]


@settings(max_examples=25, deadline=None)
@given(cfg=st.sampled_from(_DEFECT_BASES), data=st.data())
def test_defect_outlier_moves_with_its_node(cfg, data):
    xs, n, k = cfg.nodes, cfg.n, cfg.k
    want = verify.characterize_defect(xs, n, k)
    ys, order = data.draw(images(xs))
    got = verify.characterize_defect(ys, n, k)
    assert got.curve_space_dim == want.curve_space_dim
    assert want.outlier_index == cfg.outlier_index
    assert order[got.outlier_index] == want.outlier_index
    assert got.mu.degree == want.mu.degree == k - 1
    # the mod-P bound on the curve space changes no report: with the
    # column pass's prefix rank at 0, the exact curve space answers
    real_pass, real_curves = linalg.column_pass, verify.curves_through
    exact = []

    def curves_through(*args):
        exact.append(args)
        return real_curves(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "column_pass",
                      lambda *args: real_pass(*args)._replace(prefix_rank=0))
        patch.setattr(verify, "curves_through", curves_through)
        assert verify.characterize_defect(ys, n, k) == got
    assert exact == [(ys, k)]


_POISED_BASES = [(generators.random_poised(n, seed), n)
                 for n, seed in ((3, 1), (4, 2), (5, 3))]


@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(_POISED_BASES), data=st.data())
def test_fundamental_polynomial_moves_with_its_node(base, data):
    # the image coordinates carry denominators up to 5**n on the rows,
    # which the certified square solve must lift through
    xs, n = base
    ys, _ = data.draw(images(xs))
    a = ys[data.draw(st.integers(0, len(ys) - 1))]
    p = nodes.fundamental_polynomial(a, ys, n)
    assert p is not None
    assert [p.eval(q.x, q.y) for q in ys] == [int(q == a) for q in ys]


# BR n = 8 at seed 1 has a 3-node line with 3 users, at seed 5 one with 1
# user and one with 3
_USAGE_BASES = [(xs, verify.line_usage_reports(xs, 8)) for xs in (
    generators.berzolari_radon(8, seed).nodes for seed in (1, 5))]


def _usage(reports, xs, order=None):
    """Each report's line nodes and users as index sets, through order."""
    order = order or range(len(xs))
    return {(frozenset(order[xs.index(p)] for p in r.nodes_on_line),
             frozenset(order[xs.index(p)] for p in r.users))
            for r in reports}


@settings(max_examples=20, deadline=None)
@given(base=st.sampled_from(_USAGE_BASES), data=st.data())
def test_line_users_move_with_their_nodes(base, data):
    xs, want = base
    assert want
    ys, order = data.draw(images(xs))
    got = verify.line_usage_reports(ys, 8)
    assert len(got) == len(want)
    assert _usage(got, ys, order) == _usage(want, xs)
