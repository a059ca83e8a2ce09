"""Differential test of structural against axiomatic class membership.

Each example samples a random swap structure (or takes the full structure
over the two-element algebra), perturbs a few of its cells (adding a
carrier element, or dropping a member of a cell with more than one), and
checks that `is_swap_for`, which reads the clauses off the
tables, agrees with `characterize`, which decides the defining schemas in
the structure's matrix, for every logic.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from swapkit.boolalg import A2, powerset_algebra
from swapkit.formula import LOGIC_SIGNATURE
from swapkit.logics import LogicId
from swapkit.multialg import MultiAlg, members
from swapkit.swap import (SwapStructure, characterize, full_swap,
                          is_swap_for, random_swap_substructure)
from helpers import flat_tables, table_rows

L = LogicId
SETTINGS = settings(derandomize=True, deadline=None, max_examples=1200)
OPS = [op for op, _arity in LOGIC_SIGNATURE.operators()]


@st.composite
def mutated_structures(draw):
    logic = draw(st.sampled_from(list(L)))
    atoms = draw(st.sampled_from((1, 2, None)))  # None: full over A2
    if atoms is None:
        algebra, base = A2, full_swap(logic, A2)
    else:
        algebra = powerset_algebra(atoms)
        seed = draw(st.integers(0, 2 ** 32 - 1))
        base = random_swap_substructure(random.Random(seed), logic, algebra,
                                        max_universe=8)
    size = base.malg.size
    tables = flat_tables(base.malg)
    for _ in range(draw(st.integers(1, 3))):
        table = tables[draw(st.sampled_from(OPS))]
        pos = draw(st.integers(0, len(table) - 1))
        cell = table[pos]
        inside = members(cell)
        if len(inside) > 1 and draw(st.booleans()):
            table[pos] = cell & ~(1 << draw(st.sampled_from(inside)))
        else:
            table[pos] = cell | 1 << draw(st.integers(0, size - 1))
    malg = MultiAlg(LOGIC_SIGNATURE, base.malg.labels,
                    {op: table_rows(tables[op], size, arity)
                     for op, arity in LOGIC_SIGNATURE.operators()})
    return SwapStructure(logic, algebra, malg, base.snapshots)


@SETTINGS
@given(mutated_structures())
def test_structural_membership_matches_characterization(cand):
    for logic in L:
        assert is_swap_for(logic, cand) == characterize(logic, cand), logic
