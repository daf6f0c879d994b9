"""Property tests of the two interpreters on generated syntax trees."""

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from motzkin.diagram_core import adjoint
from motzkin.expression import Add, Adj, Expect, Gen, Mul, Num, evaluate, evaluate_operator
from motzkin.representation import build_example_pair, evaluate_element

PAIRS = [
    build_example_pair("iii", 4, 1, Fraction(1, 4)),
    build_example_pair("i", 3, 0, Fraction(1, 3)),
]


def _leaves(k):
    gens = [Gen(name, i) for name in ("l", "r", "t") for i in range(1, k)]
    gens += [Gen(name, i) for name in ("p", "g") for i in range(1, k + 1)]
    scalars = st.fractions(-2, 2, max_denominator=3).map(Num)
    return st.sampled_from(gens) | scalars


def _trees(k, expect=True):
    """Syntax trees at width k.  With `expect`, E(...) may appear, with an
    argument one width up that holds no further E."""

    def extend(children):
        nodes = [
            st.builds(Adj, children),
            st.builds(Mul, children, children),
            st.builds(Add, children, children),
        ]
        if expect:
            nodes.append(st.builds(Expect, _trees(k + 1, expect=False)))
        return st.one_of(nodes)

    return st.recursive(_leaves(k), extend, max_leaves=4)


TREES = {k: _trees(k) for k in (2, 3)}


def _same_width(count):
    """A width of 2 or 3 and `count` trees at it."""
    return st.sampled_from(sorted(TREES)).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(TREES[k], min_size=count, max_size=count))
    )


@given(lam=st.sampled_from([Fraction(1, 4), Fraction(1, 3)]), drawn=_same_width(3))
def test_exact_adjoint_and_associativity(lam, drawn):
    k, trees = drawn
    x, y, z = (evaluate(tree, k, lam) for tree in trees)
    assert adjoint(x * y) == adjoint(y) * adjoint(x)
    assert (x * y) * z == x * (y * z)


@given(pair=st.sampled_from(PAIRS), drawn=_same_width(1))
def test_operators_match_evaluated_elements(pair, drawn):
    # E(...) is checked against rep_conditional_expectation and g<i>
    # against the Fock projection along the way.
    k, (tree,) = drawn
    direct = evaluate_operator(tree, k, pair)
    via_diagrams = evaluate_element(pair, evaluate(tree, k, pair.lam))
    err = np.linalg.norm(direct - via_diagrams)
    assert err <= 1e-10 * max(1.0, np.linalg.norm(via_diagrams)), tree
