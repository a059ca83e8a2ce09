"""Differential test of the decision engine against unpruned enumeration.

The engine prunes interchangeable values and returns the first countermodel
it finds; the oracle in `helpers` walks every legal valuation in
lexicographic order.  Both must agree on the verdict and, on failure, on the
whole least countermodel.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swapkit.boolalg import A2
from swapkit.formula import Var, circ, conj, disj, imp, neg
from swapkit.logics import LogicId
from swapkit.nmatrix import characteristic_matrix, decide, nmatrix_of
from swapkit.swap import random_swap_substructure
from helpers import brute_force_least_countermodel

L = LogicId
VARIABLES = ("p", "q", "r")
#: Formula-tree nodes per query; the closure can only be smaller.
MAX_NODES = 10
CHARACTERISTIC = [lg for lg in L if lg is not L.CPLE_PLUS]
SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)

_UNARY = (neg, circ)
_BINARY = (conj, disj, imp)


@st.composite
def formulas(draw, names, budget):
    """A formula and its tree size, which is at most `budget`."""
    kinds = 1 + (2 if budget >= 2 else 0) + (3 if budget >= 3 else 0)
    kind = draw(st.integers(0, kinds - 1))
    if kind == 0:
        return Var(draw(st.sampled_from(names))), 1
    if kind < 3:
        child, size = draw(formulas(names, budget - 1))
        return _UNARY[kind - 1](child), size + 1
    left, lsize = draw(formulas(names, budget - 2))
    right, rsize = draw(formulas(names, budget - 1 - lsize))
    return _BINARY[kind - 3](left, right), lsize + rsize + 1


@st.composite
def queries(draw):
    """Premises and goal over at most three variables, at most MAX_NODES
    tree nodes in all; sometimes the goal is also a premise."""
    names = VARIABLES[:draw(st.integers(1, len(VARIABLES)))]
    goal, used = draw(formulas(names, MAX_NODES))
    premises = []
    for _ in range(draw(st.integers(0, 2))):
        if used >= MAX_NODES:
            break
        premise, size = draw(formulas(names, MAX_NODES - used))
        premises.append(premise)
        used += size
    if draw(st.integers(0, 7)) == 0:
        premises.append(goal)
    return premises, goal


def assert_matches_oracle(matrix, premises, goal):
    verdict = decide(matrix, premises, goal)
    expected = brute_force_least_countermodel(matrix, premises, goal)
    assert verdict.holds == (expected is None)
    if expected is not None:
        cm = verdict.countermodel
        assert list(cm.domain) == list(expected)
        assert cm.values == expected


@SETTINGS
@given(st.sampled_from(CHARACTERISTIC), queries())
def test_decide_matches_oracle_on_characteristic_matrices(logic, query):
    premises, goal = query
    assert_matches_oracle(characteristic_matrix(logic), premises, goal)


@SETTINGS
@given(st.sampled_from(list(L)), st.integers(0, 2 ** 32 - 1), queries())
def test_decide_matches_oracle_on_random_substructures(logic, seed, query):
    structure = random_swap_substructure(random.Random(seed), logic, A2)
    try:
        matrix = nmatrix_of(structure)
    except ValueError:
        assume(False)
    premises, goal = query
    assert_matches_oracle(matrix, premises, goal)
