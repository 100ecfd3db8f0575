"""Structure laws under rational affine maps and node permutations.

An affine map (x, y) -> M(x, y) + s with det M != 0 maps the degree-n
polynomials onto themselves, so the Hilbert function, the vanishing-space
dimension, the defect split and the fundamental polynomials move with
their nodes; a permutation of the nodes only relabels them.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodecurves import generators, linalg, nodes, verify
from nodecurves.nodes import NodeSet

_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def affine_images(draw, xs):
    """T(xs) in a drawn order, and the order: node i of the image is the
    image of node order[i] of xs."""
    a, b, c, d, e, f = (draw(_rationals) for _ in range(6))
    assume(a * d - b * c != 0)
    order = draw(st.permutations(range(len(xs))))
    image = [(a * p.x + b * p.y + e, c * p.x + d * p.y + f) for p in xs]
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
    ys, _ = data.draw(affine_images(xs))
    for m in range(1, n + 2):
        assert nodes.hilbert_function(ys, m) == nodes.hilbert_function(xs, m)
        assert (nodes.vanishing_basis(ys, m).dimension
                == nodes.vanishing_basis(xs, m).dimension)


_DEFECT_BASES = [generators.defect_config(n, k, seed)
                 for n, k, seed in ((3, 2, 1), (4, 2, 2), (4, 3, 3))]


@settings(max_examples=25, deadline=None)
@given(cfg=st.sampled_from(_DEFECT_BASES), data=st.data())
def test_defect_outlier_moves_with_its_node(cfg, data):
    xs, n, k = cfg.nodes, cfg.n, cfg.k
    want = verify.characterize_defect(xs, n, k)
    ys, order = data.draw(affine_images(xs))
    got = verify.characterize_defect(ys, n, k)
    assert got.curve_space_dim == want.curve_space_dim
    assert want.outlier_index == cfg.outlier_index
    assert order[got.outlier_index] == want.outlier_index
    # the mod-P bound on the curve space changes no report
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg.IndependenceTracker, "prefix_rank_bound",
                      lambda self, q: 0)
        assert verify.characterize_defect(ys, n, k) == got


_POISED_BASES = [(generators.random_poised(n, seed), n)
                 for n, seed in ((3, 1), (4, 2), (5, 3))]


@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(_POISED_BASES), data=st.data())
def test_fundamental_polynomial_moves_with_its_node(base, data):
    # the image coordinates carry denominators up to 5**n on the rows,
    # which the certified square solve must lift through
    xs, n = base
    ys, _ = data.draw(affine_images(xs))
    a = ys[data.draw(st.integers(0, len(ys) - 1))]
    p = nodes.fundamental_polynomial(a, ys, n)
    assert p is not None
    assert [p.eval(q.x, q.y) for q in ys] == [int(q == a) for q in ys]
