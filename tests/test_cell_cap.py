"""The cell cap refuses each table-building call before it allocates.

Each row of ``GUARDS`` is a call taking a ``random.Random``, the count it
needs, and its refusal text up to the cap.  From empty structure caches, as
in a new process, the call is refused one below its need without drawing
from the generator and under a traced peak of 16 KiB (the builds take 18
KiB to 3.5 MB; the Kleene laws allocate nothing); at its need it returns a
true value.
"""

import random

import pytest

from swapkit.boolalg import A2, powerset_algebra
from swapkit.logics import LogicId as L
from swapkit.multialg import CellCapExceeded, cell_cap, ma_product
from swapkit.swap import (KalmanAlgebra, SwapStructure,
                          closed_subuniverse_restrictions, full_swap,
                          is_swap_for, kleene_law_failures, power_of_a2,
                          random_swap_substructure, universe)
from helpers import empty_structure_caches, traced

P2, P3, P4, P5, P6, P9 = map(powerset_algebra, (2, 3, 4, 5, 6, 9))


def lifted_cple(algebra):
    """The full CPLe structure over A2, lifted along the embedding 1 -> top."""
    two = full_swap(L.CPLE, A2)
    return SwapStructure(L.CPLE, algebra, two.malg, [
        tuple(algebra.top * c for c in z) for z in two.snapshots])


#: (call, need, refusal text up to the cap): a full structure over k
#: snapshots has 3 * k**2 + 2 * k cells, a product over n elements
#: 2 * n + 3 * n**2, and the Kleene laws visit the pair count cubed
GUARDS = [
    (lambda rng: universe(L.MBC, P6), 15625,
     "mbC universe over 6 atoms would need 15625 snapshots"),
    (lambda rng: full_swap(L.CI, P4), 19845,
     "full Ci structure over 4 atoms would need 19845 cells"),
    # unbounded, the repair may pick the whole universe
    (lambda rng: random_swap_substructure(rng, L.MBC, P3), 47125,
     "full mbC structure over 3 atoms would need 47125 cells"),
    (lambda rng: random_swap_substructure(rng, L.CPLE, P5, max_universe=8),
     3136, "full CPLe structure over 5 atoms would need 3136 cells"),
    (lambda rng: is_swap_for(L.CPLE, lifted_cple(P5)), 3136,
     "full CPLe structure over 5 atoms would need 3136 cells"),
    (lambda rng: KalmanAlgebra(P9), 19683,
     "pair construction over 9 atoms would need 19683 pairs"),
    (lambda rng: kleene_law_failures(KalmanAlgebra(P2)) == [], 729,
     "Kleene laws over 2 atoms would visit 729 triples"),
    (lambda rng: ma_product([full_swap(L.MBC, A2).malg] * 2), 1925,
     "product would need 1925 cells"),
    (lambda rng: power_of_a2(L.MBC, 2), 1925, "product would need 1925 cells"),
    (lambda rng: next(closed_subuniverse_restrictions(L.MBCCIW, P2)), 261,
     "full mbCciw structure over 2 atoms would need 261 cells"),
]


@pytest.mark.parametrize("call, need, text", GUARDS,
                         ids=[text for _, _, text in GUARDS])
def test_guard_refuses_one_below_its_need(monkeypatch, call, need, text):
    empty_structure_caches()
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", str(need - 1))
    rng = random.Random(0)
    refusal, peak, _ = traced(
        lambda: pytest.raises(CellCapExceeded, call, rng))
    assert str(refusal.value) == (f"{text}, above the cap {need - 1} "
                                  "(set SWAPKIT_MAX_CELLS to raise it)")
    assert rng.random() == random.Random(0).random()  # nothing was drawn
    assert peak < 16 << 10
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", str(need))
    assert call(random.Random(0))


def test_unbounded_draws_are_refused_from_a_warm_cache(monkeypatch):
    # a draw may restrict the whole universe into new tables, so it is
    # refused even when the full structure it reads is cached
    full_swap(L.MBC, A2)
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "84")
    with pytest.raises(CellCapExceeded, match="would need 85 cells"):
        random_swap_substructure(random.Random(0), L.MBC, A2)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_cell_cap_rejects_malformed_environment(monkeypatch, value):
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", value)
    with pytest.raises(ValueError, match="SWAPKIT_MAX_CELLS must be a "
                                         "positive integer"):
        cell_cap()


def test_cell_cap_reads_environment(monkeypatch):
    monkeypatch.setenv("SWAPKIT_MAX_CELLS", "1234")
    assert cell_cap() == 1234
    monkeypatch.delenv("SWAPKIT_MAX_CELLS")
    assert cell_cap() == 10 ** 6
