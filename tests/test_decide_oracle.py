"""Differential tests of the decision engine.

The engine's one search loop runs with a cursor at every node (the ordered
search, the default) or at the shared nodes only (``least=False``).  The
ordered search prunes interchangeable values and returns the first
countermodel it finds; the oracle in `helpers` walks every legal valuation
in lexicographic order.  Both must agree on the verdict and, on failure, on
the whole least countermodel.  The verdict-only search must give the
oracle's verdict, and on failure a legal countermodel that designates every
premise and not the goal.  Over matrices too large for the oracle, the
ordered search must return the same least countermodel as
`reference_least_countermodel`, the engine's former ordered loop kept here
as a reference, and the verdict-only search the same verdict.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swapkit.boolalg import A2, powerset_algebra
from swapkit.formula import Var, circ, conj, disj, imp, neg
from swapkit.hilbert import SCHEMAS
from swapkit.logics import LogicId
from swapkit.multialg import mask_of
from swapkit.nmatrix import (_compile, characteristic_matrix, decide,
                             is_legal_valuation, nmatrix_of)
from swapkit.swap import full_swap, random_swap_substructure
from helpers import brute_force_least_countermodel, random_formula

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


def assert_refutes(verdict, premises, goal):
    """A failed verdict's countermodel is legal on the query's closure,
    designates every premise and leaves the goal undesignated."""
    cm = verdict.countermodel
    assert not verdict.holds and is_legal_valuation(cm)
    assert all(cm.designates(p) for p in premises)
    assert not cm.designates(goal)


def assert_matches_oracle(matrix, premises, goal):
    verdict = decide(matrix, premises, goal)
    expected = brute_force_least_countermodel(matrix, premises, goal)
    assert verdict.holds == (expected is None)
    if expected is not None:
        cm = verdict.countermodel
        assert list(cm.domain) == list(expected)
        assert cm.values == expected
    some = decide(matrix, premises, goal, least=False)
    assert some.holds == (expected is None)
    if expected is not None:
        assert list(some.countermodel.domain) == list(expected)
        assert_refutes(some, premises, goal)


def reference_least_countermodel(matrix, premises, goal):
    """The least countermodel's values in closure order, or None: the
    ordered loop that `decide` ran before it had one loop for both
    searches, with one cursor per node, bound to the matrix as `decide`
    binds it."""
    query = _compile(tuple(premises), goal)
    malg = matrix.malg
    k = malg.size
    n = len(query.ops)
    carrier = (1 << k) - 1
    designated = mask_of(matrix.designated)
    allowed = [carrier] * n
    for i in query.premises:
        allowed[i] = designated
    allowed[query.goal] &= carrier & ~designated
    tables = [[carrier] if op is None else malg.tables[op] for op in query.ops]
    picks = [matrix._picks_for(bits) for bits in query.slots]
    kids = query.kids
    vals = [0] * n
    cursors = [None] * n
    i = 0
    while i < n:
        pos = 0  # of the children's values in node i's table
        for child in kids[i]:
            pos = pos * k + vals[child]
        cursors[i] = iter(picks[i][allowed[i] & tables[i][pos]])
        u = next(cursors[i], None)
        while u is None:  # every class at node i failed: back up
            i -= 1
            if i < 0:
                return None
            u = next(cursors[i], None)
        vals[i] = u
        i += 1
    return vals


def assert_searches_agree(matrix, premises, goal):
    least = decide(matrix, premises, goal)
    expected = reference_least_countermodel(matrix, premises, goal)
    assert least.holds == (expected is None)
    if expected is not None:
        cm = least.countermodel
        assert [cm.values[f] for f in cm.domain] == expected
    some = decide(matrix, premises, goal, least=False)
    assert some.holds == least.holds
    if not some.holds:
        assert_refutes(some, premises, goal)


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


@SETTINGS
@given(st.sampled_from(list(L)), st.integers(0, 2 ** 32 - 1), queries())
def test_decide_matches_oracle_on_two_atom_substructures(logic, seed, query):
    """Carriers over two atoms are larger and split into more value
    classes than those over A2."""
    structure = random_swap_substructure(random.Random(seed), logic,
                                         powerset_algebra(2), max_universe=8)
    try:
        matrix = nmatrix_of(structure)
    except ValueError:
        assume(False)
    premises, goal = query
    assert_matches_oracle(matrix, premises, goal)


@SETTINGS
@given(st.sampled_from(CHARACTERISTIC), st.sampled_from(list(L)),
       st.integers(0, 2 ** 32 - 1), queries())
def test_one_query_on_two_matrices_back_to_back(logic, source, seed, query):
    """A query is compiled once and then bound to each matrix; nothing one
    matrix's search leaves behind may change the other's answer."""
    structure = random_swap_substructure(random.Random(seed), source,
                                         powerset_algebra(2), max_universe=8)
    try:
        other = nmatrix_of(structure)
    except ValueError:
        assume(False)
    premises, goal = query
    first = characteristic_matrix(logic)
    for matrix in (first, other, first):
        assert_matches_oracle(matrix, premises, goal)


def test_searches_agree_on_every_schema_over_full_structures():
    """The full structures over one and two atoms have 3 to 64 values."""
    for logic in L:
        for atoms in (1, 2):
            matrix = nmatrix_of(full_swap(logic, powerset_algebra(atoms)))
            for schema in SCHEMAS.values():
                assert_searches_agree(matrix, [], schema)


def test_searches_agree_on_two_atom_substructures_of_up_to_16_values():
    """Deeper premises would make the ordered search, not the verdict-only
    one, take seconds on a few queries."""
    rng = random.Random(22)
    matrices = queries = 0
    while matrices < 60:
        structure = random_swap_substructure(
            rng, rng.choice(list(L)), powerset_algebra(2), max_universe=16)
        try:
            matrix = nmatrix_of(structure)
        except ValueError:
            continue
        matrices += 1
        for _ in range(15):
            premises = [random_formula(rng, ["p", "q"], 1)
                        for _ in range(rng.randrange(3))]
            goal = random_formula(rng, ["p", "q"], 3)
            assert_searches_agree(matrix, premises, goal)
            queries += 1
    assert queries == 900
